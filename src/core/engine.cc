#include "core/engine.h"

namespace sdw::core {

const char* EngineConfigName(EngineConfig config) {
  switch (config) {
    case EngineConfig::kQpipe:
      return "QPipe";
    case EngineConfig::kQpipeCs:
      return "QPipe-CS";
    case EngineConfig::kQpipeSp:
      return "QPipe-SP";
    case EngineConfig::kCjoin:
      return "CJOIN";
    case EngineConfig::kCjoinSp:
      return "CJOIN-SP";
  }
  return "?";
}

Engine::Engine(const storage::Catalog* catalog, storage::BufferPool* pool,
               EngineOptions options)
    : options_(std::move(options)) {
  const bool use_cjoin = options_.config == EngineConfig::kCjoin ||
                         options_.config == EngineConfig::kCjoinSp;

  scheduler_ = std::make_unique<Scheduler>(options_.sched);

  if (options_.columnar_pages) {
    // Rebuild the fact table's pages in the PAX layout before any stage
    // (QPipe scans or the GQP's circular scan) captures page pointers.
    // Idempotent, so engines sharing a catalog may all request it.
    catalog->MustGetTable(options_.fact_table)->ConvertToColumnar();
  }

  qpipe::QpipeOptions qopts;
  qopts.comm = options_.comm;
  qopts.channel_bytes = options_.channel_bytes;
  qopts.scheduler = scheduler_.get();
  qopts.stage_max_workers = options_.stage_max_workers;
  switch (options_.config) {
    case EngineConfig::kQpipe:
      break;
    case EngineConfig::kQpipeCs:
      qopts.sp_scan = true;
      break;
    case EngineConfig::kQpipeSp:
      qopts.sp_scan = true;
      qopts.sp_join = true;
      break;
    case EngineConfig::kCjoin:
    case EngineConfig::kCjoinSp:
      // Joins handled by the GQP; the scan stage serves only join-free
      // queries. I/O sharing for the fact table lives in the preprocessor's
      // circular scan (paper Table 2).
      break;
  }
  qpipe_ = std::make_unique<qpipe::QpipeEngine>(catalog, pool, qopts);

  if (use_cjoin) {
    const storage::Table* fact = catalog->MustGetTable(options_.fact_table);
    cjoin::CjoinOptions copts = options_.cjoin;
    // The scheduler's switch is the one source of the admission order.
    copts.priority_admission = options_.sched.priority_enabled;
    if (options_.resilience.memory_budget_bytes > 0) {
      memory_budget_ =
          std::make_unique<MemoryBudget>(options_.resilience.memory_budget_bytes);
      copts.memory_budget = memory_budget_.get();
    }
    pipeline_ = std::make_unique<cjoin::CjoinPipeline>(catalog, pool, fact,
                                                       copts);
    if (options_.resilience.scan_stall_nanos > 0) {
      StallWatchdog::Options wopts;
      wopts.check_interval_nanos =
          options_.resilience.watchdog_check_interval_nanos;
      wopts.stall_nanos = options_.resilience.scan_stall_nanos;
      cjoin::CjoinPipeline* p = pipeline_.get();
      watchdog_ = std::make_unique<StallWatchdog>(
          &scheduler_->timers(), wopts, [p] { return p->progress_epoch(); },
          [p] { return p->busy(); },
          [p](const Status& why) { p->CancelActiveQueries(why); });
    }
    cjoin_stage_ = std::make_unique<CjoinStage>(
        pipeline_.get(), options_.comm, options_.channel_bytes,
        options_.config == EngineConfig::kCjoinSp);
    qpipe_->set_join_delegate(cjoin_stage_->MakeDelegate());
    if (options_.shared_aggregation) {
      // Aggregate-over-join sub-plans run inside the pipeline's shared
      // aggregation stage. When off, join output streams to per-query QPipe
      // aggregation packets — the scalar reference path.
      qpipe_->set_agg_delegate(cjoin_stage_->MakeAggDelegate());
    }
    qpipe_->set_batch_flush_hook([stage = cjoin_stage_.get()] {
      stage->FlushStaged();
    });
  }
}

Engine::~Engine() {
  // Queries must finish before the pipeline (owned here) is torn down. A
  // cancelled ticket completes ahead of its CJOIN slot, so additionally
  // wait for the pipeline to retire every slot (next admission pause).
  qpipe_->WaitAll();
  if (pipeline_) pipeline_->WaitIdle();
}

std::vector<QueryTicket> Engine::SubmitBatch(
    const std::vector<query::StarQuery>& queries, const SubmitOptions& opts) {
  const auto handles = qpipe_->SubmitBatch(queries, opts);
  std::vector<QueryTicket> tickets;
  tickets.reserve(handles.size());
  for (const auto& h : handles) tickets.emplace_back(h->life);
  return tickets;
}

QueryTicket Engine::Submit(const query::StarQuery& q,
                           const SubmitOptions& opts) {
  return QueryTicket(qpipe_->Submit(q, opts)->life);
}

std::vector<QueryTicket> Engine::SubmitRequests(
    const std::vector<SubmitRequest>& requests) {
  const auto handles = qpipe_->SubmitRequests(requests);
  std::vector<QueryTicket> tickets;
  tickets.reserve(handles.size());
  for (const auto& h : handles) tickets.emplace_back(h->life);
  return tickets;
}

void Engine::WaitAll() {
  qpipe_->WaitAll();
  if (pipeline_) pipeline_->WaitIdle();
}

void Engine::ResetCounters() {
  qpipe_->ResetSpCounters();
  if (cjoin_stage_) cjoin_stage_->ResetShares();
  if (pipeline_) pipeline_->ResetStats();
}

}  // namespace sdw::core
