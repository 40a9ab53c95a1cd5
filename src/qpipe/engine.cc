#include "qpipe/engine.h"

#include "common/breakdown.h"
#include "common/fault_injector.h"
#include "common/timing.h"
#include "qpipe/operators.h"
#include "query/plan.h"

namespace sdw::qpipe {

using query::PlanNode;

QpipeEngine::QpipeEngine(const storage::Catalog* catalog,
                         storage::BufferPool* pool, QpipeOptions options)
    : catalog_(catalog), pool_(pool), options_(options) {
  sched_ = options_.scheduler;
  if (sched_ == nullptr) {
    owned_scheduler_ = std::make_unique<core::Scheduler>();
    sched_ = owned_scheduler_.get();
  }
  scan_services_ = std::make_unique<CircularScanMap>(pool_, options_.comm,
                                                     options_.channel_bytes);
  // Every run queue in the engine follows the scheduler's one policy —
  // priority with FIFO fairness and aging, or plain FIFO when disabled.
  ThreadPoolOptions stage_pool;
  stage_pool.max_threads = options_.stage_max_workers;
  stage_pool.run_queue = sched_->run_queue_options();
  scan_stage_ = std::make_unique<Stage>("tscan", stage_pool);
  join_stage_ = std::make_unique<Stage>("hjoin", stage_pool);
  agg_stage_ = std::make_unique<Stage>("agg", stage_pool);
  sort_stage_ = std::make_unique<Stage>("sort", stage_pool);
  ThreadPoolOptions sink_pool_opts;  // never capped: drains must always run
  sink_pool_opts.run_queue = sched_->run_queue_options();
  sink_pool_ = std::make_unique<ThreadPool>("sink", sink_pool_opts);
}

QpipeEngine::~QpipeEngine() { WaitAll(); }

QpipeEngine::Stage* QpipeEngine::StageFor(PlanNode::Kind kind) {
  switch (kind) {
    case PlanNode::Kind::kScan:
      return scan_stage_.get();
    case PlanNode::Kind::kHashJoin:
      return join_stage_.get();
    case PlanNode::Kind::kAggregate:
      return agg_stage_.get();
    case PlanNode::Kind::kSort:
      return sort_stage_.get();
  }
  SDW_CHECK(false);
  return nullptr;
}

bool QpipeEngine::SpEnabledFor(PlanNode::Kind kind) const {
  // Aggregation and sort stages never share (as in the paper's experiments).
  return (kind == PlanNode::Kind::kScan && options_.sp_scan) ||
         (kind == PlanNode::Kind::kHashJoin && options_.sp_join);
}

int QpipeEngine::JoinDepth(const PlanNode* node) {
  int depth = 0;
  for (const auto& child : node->children) {
    if (child->kind == PlanNode::Kind::kHashJoin) {
      depth += JoinDepth(child.get());
    }
  }
  return depth + (node->kind == PlanNode::Kind::kHashJoin ? 1 : 0);
}

void QpipeEngine::RecordShare(const PlanNode* node) {
  MutexLock lock(mu_);
  if (node->kind == PlanNode::Kind::kScan) {
    ++counters_.scan_shares;
    return;
  }
  // Otherwise a join: SpEnabledFor shares no other stage.
  const int depth = JoinDepth(node);
  const size_t slot =
      std::min<size_t>(static_cast<size_t>(depth) - 1,
                       counters_.join_shares_by_depth.size() - 1);
  ++counters_.join_shares_by_depth[slot];
}

std::unique_ptr<core::PageSource> QpipeEngine::BuildProducer(
    const QueryHandle& ctx, const PlanNode* node,
    std::vector<std::function<void()>>* deferred,
    std::vector<HostRef>* host_path) {
  // GQP integration: delegate whole aggregate-over-join sub-plans (shared
  // aggregation) or bare join sub-plans to the CJOIN stage.
  if (agg_delegate_ && node->kind == PlanNode::Kind::kAggregate &&
      !node->children.empty() &&
      node->child(0)->kind == PlanNode::Kind::kHashJoin) {
    return agg_delegate_(ctx.get(), node, deferred);
  }
  if (join_delegate_ && node->kind == PlanNode::Kind::kHashJoin) {
    return join_delegate_(ctx.get(), node, deferred);
  }

  Stage* stage = StageFor(node->kind);
  const bool sp_on = SpEnabledFor(node->kind);

  // Simultaneous Pipelining: attach as a satellite when an identical
  // sub-plan is in flight with an open window of opportunity. The attaching
  // query's lifecycle is recorded against the host so the host's owner can
  // cancel without starving satellites (see SpRegistry).
  if (sp_on) {
    if (auto src = stage->registry.TryAttach(node->signature, ctx->life)) {
      RecordShare(node);
      // The satellite's work is scheduled with the host's: from here on the
      // query waits on production, not on a run queue.
      ctx->life->MarkRunStart();
      if (node == ctx->plan.get()) ctx->life->SetFullyShared();
      return src;
    }
  }

  // Host path: own exchange + packet.
  std::shared_ptr<Exchange> ex =
      MakeExchange(options_.comm, options_.channel_bytes);
  auto primary = ex->OpenPrimaryReader();
  // Ancestor snapshot BEFORE registering self: on abort, this packet fails
  // the consumers of every host above it (their streams truncate through
  // ordinary EOS), while its own consumers are handled atomically below.
  auto ancestors = std::make_shared<std::vector<HostRef>>(*host_path);
  if (sp_on) {
    stage->registry.Register(node->signature, ex, ctx->life);
    host_path->push_back({stage, node, ex});
  }

  // Wire children before deferring our own dispatch.
  auto inputs =
      std::make_shared<std::vector<std::shared_ptr<core::PageSource>>>();
  for (const auto& child : node->children) {
    inputs->push_back(BuildProducer(ctx, child.get(), deferred, host_path));
  }
  if (sp_on) host_path->pop_back();

  // The packet closure shares ownership of the query context: `node` points
  // into ctx->plan, and the submitting client may drop its handle as soon as
  // the results drain — which can happen between our Close() and the
  // registry Unregister below (or even mid-operator for a fast consumer).
  deferred->push_back([this, ctx, node, ex, inputs, sp_on, stage, ancestors] {
    // Stage dispatch pops by effective priority. A host packet's priority
    // is dynamic: the registry reports the max over its attached consumers
    // at pop time, so a satellite attaching at high priority boosts the
    // queued host (priority inheritance across shared work).
    const int base_priority = core::Scheduler::PriorityOf(ctx->life.get());
    std::function<int()> dynamic;
    if (sp_on) {
      dynamic = [stage, sig = node->signature, ex, base_priority] {
        return stage->registry.MaxConsumerPriority(sig, ex.get(),
                                                   base_priority);
      };
    }
    stage->pool.Submit(
        [this, ctx, node, ex, inputs, sp_on, stage, ancestors] {
      ctx->life->MarkRunStart();
      // Silent-hang guard: a packet that stops early — consumers vanished,
      // a fault below us threw, or the operator surfaced a storage error —
      // must complete every ticket it feeds with an error instead of
      // leaving a truncated stream that drains as a seemingly-complete
      // result: its own consumers (atomically, so no late satellite can
      // attach to the aborted producer), the consumers of every ancestor
      // host, and for faults (anything but consumer-driven kCancelled) the
      // owner itself.
      Status why =
          Status::Cancelled("shared producer stopped: consumers detached");
      try {
        Status injected = FaultInjector::Global().Check("qpipe.packet");
        why = injected.ok() ? RunPacket(node, ex.get(), *inputs) : injected;
        if (!why.ok() && why.code() != StatusCode::kCancelled) {
          for (const auto& in : *inputs) in->CancelReader();
          ctx->life->Finish(why);
        }
      } catch (const std::exception& e) {
        for (const auto& in : *inputs) in->CancelReader();
        why = Status::Internal(std::string("packet worker exception: ") +
                               e.what());
        ctx->life->Finish(why);
      } catch (...) {
        for (const auto& in : *inputs) in->CancelReader();
        why = Status::Internal("packet worker exception");
        ctx->life->Finish(why);
      }
      if (why.ok()) {
        ex->sink()->Close();
        if (sp_on) stage->registry.Unregister(node->signature, ex.get());
      } else {
        if (sp_on) {
          stage->registry.UnregisterAborted(node->signature, ex.get(), why);
        }
        for (const auto& h : *ancestors) {
          h.stage->registry.FinishConsumers(h.node->signature, h.ex.get(),
                                            why);
        }
        ex->sink()->Close();
      }
        },
        base_priority, std::move(dynamic));
  });
  return primary;
}

Status QpipeEngine::RunPacket(
    const PlanNode* node, Exchange* ex,
    const std::vector<std::shared_ptr<core::PageSource>>& inputs) {
  switch (node->kind) {
    case PlanNode::Kind::kScan: {
      std::unique_ptr<core::PageSource> raw;
      if (options_.sp_scan) {
        raw = scan_services_->Get(node->table)->Attach();
      }
      return RunScan(*node, raw.get(), pool_, ex->sink());
    }
    case PlanNode::Kind::kHashJoin:
      return RunHashJoin(*node, inputs[0].get(), inputs[1].get(), ex->sink());
    case PlanNode::Kind::kAggregate:
      return RunAggregate(*node, inputs[0].get(), ex->sink());
    case PlanNode::Kind::kSort:
      return RunSort(*node, inputs[0].get(), ex->sink());
  }
  return Status::Ok();
}

std::vector<QueryHandle> QpipeEngine::SubmitRequests(
    const std::vector<core::SubmitRequest>& requests) {
  const query::Planner planner(catalog_);
  std::vector<QueryHandle> handles;
  handles.reserve(requests.size());
  std::vector<std::function<void()>> deferred;
  // Parallel to handles; null for queries rejected before wiring.
  std::vector<std::shared_ptr<core::PageSource>> readers;
  readers.reserve(requests.size());

  // Phase 1: wire every query's packets. Hosts registered here are visible
  // to later queries in the same batch, so common sub-plans attach before
  // anything runs — the "all queries arrive at the same time" setup.
  for (const core::SubmitRequest& req : requests) {
    auto ctx = std::make_shared<QueryContext>();
    ctx->qid = next_qid_.fetch_add(1, std::memory_order_relaxed);
    ctx->life = std::make_shared<core::QueryLifecycle>(ctx->qid, req.opts);
    ctx->life->set_submit_nanos(NowNanos());
    // Deadline-driven admission: an already-expired query is rejected
    // before costing any wiring or packet work.
    if (req.opts.deadline_nanos != 0 &&
        NowNanos() > req.opts.deadline_nanos) {
      ctx->life->Finish(
          Status::DeadlineExceeded("deadline expired before admission"));
      readers.push_back(nullptr);
      handles.push_back(std::move(ctx));
      continue;
    }
    // Deadline tickets are the timer queue's: expiry fires RequestCancel
    // promptly even while the drain is blocked in Next() with no page or
    // EOS on the way.
    sched_->WatchDeadline(ctx->life);
    ctx->query = req.q;
    ctx->plan = planner.BuildPlan(req.q);
    ctx->result().set_schema(ctx->plan->out_schema);
    std::vector<HostRef> host_path;  // per-query ancestor-host stack
    readers.push_back(
        BuildProducer(ctx, ctx->plan.get(), &deferred, &host_path));
    handles.push_back(std::move(ctx));
  }

  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < handles.size(); ++i) {
      if (readers[i] != nullptr) active_.push_back(handles[i]);
    }
  }

  // Phase 2: dispatch packets, then result sinks.
  for (auto& d : deferred) d();
  if (batch_flush_) batch_flush_();
  for (size_t i = 0; i < handles.size(); ++i) {
    if (readers[i] == nullptr) continue;  // rejected before wiring
    QueryHandle ctx = handles[i];
    std::shared_ptr<core::PageSource> reader = readers[i];
    // Cancel hook: cancelling the query cancels its root reader, which
    // wakes a blocked drain below and — via PageSink::Abandoned — unwinds
    // the producer chain. Shared producers keep running while any satellite
    // still reads them (the host merely detaches).
    ctx->life->SetCancelCallback([reader] { reader->CancelReader(); });
    sink_pool_->Submit([this, ctx, reader] { DrainResult(ctx, reader.get()); },
                       core::Scheduler::PriorityOf(ctx->life.get()));
  }
  return handles;
}

std::vector<QueryHandle> QpipeEngine::SubmitBatch(
    const std::vector<query::StarQuery>& queries,
    const core::SubmitOptions& opts) {
  std::vector<core::SubmitRequest> requests;
  requests.reserve(queries.size());
  for (const query::StarQuery& q : queries) requests.push_back({q, opts});
  return SubmitRequests(requests);
}

void QpipeEngine::DrainResult(const QueryHandle& ctx,
                              core::PageSource* reader) {
  core::QueryLifecycle* life = ctx->life.get();
  query::ResultSet* result = life->mutable_result();
  const uint64_t row_limit = life->options().row_limit;
  Status final_status = Status::Ok();
  bool stopped = false;
  try {
    while (storage::PagePtr page = reader->Next()) {
      // Exchange-boundary lifecycle check: cancellation or an expired
      // deadline stops the drain between pages.
      if (life->ShouldStop(&final_status)) {
        stopped = true;
        break;
      }
      ScopedComponentTimer t(Component::kMisc);
      const uint32_t n = page->tuple_count();
      const size_t rows_before = result->num_rows();
      result->Reserve(rows_before + n);
      for (uint32_t r = 0; r < n; ++r) {
        result->AddRow(page->tuple(r));
        if (row_limit != 0 && result->num_rows() >= row_limit) {
          stopped = true;  // client-requested truncation: still kOk
          break;
        }
      }
      life->AddPagesRead(1);
      life->AddRowsStreamed(result->num_rows() - rows_before);
      if (stopped) break;
    }
    // The cancel hook may have cancelled the reader while the drain was
    // blocked in Next(): the stream then ends early and the loop exits
    // without seeing ShouldStop, so re-check before declaring success.
    if (!stopped && final_status.ok()) {
      Status why;
      if (life->ShouldStop(&why)) final_status = why;
    }
  } catch (const std::exception& e) {
    final_status =
        Status::Internal(std::string("result drain exception: ") + e.what());
    stopped = true;
  } catch (...) {
    final_status = Status::Internal("result drain exception");
    stopped = true;
  }
  if (stopped) reader->CancelReader();
  {
    MutexLock lock(mu_);
    std::erase(active_, ctx);
  }
  life->Finish(std::move(final_status));
}

QueryHandle QpipeEngine::Submit(const query::StarQuery& q,
                                const core::SubmitOptions& opts) {
  return SubmitBatch({q}, opts)[0];
}

void QpipeEngine::WaitAll() {
  while (true) {
    QueryHandle h;
    {
      MutexLock lock(mu_);
      if (active_.empty()) return;
      h = active_.back();
    }
    h->life->Wait();
  }
}

SpCounters QpipeEngine::sp_counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void QpipeEngine::ResetSpCounters() {
  MutexLock lock(mu_);
  counters_ = SpCounters{};
}

}  // namespace sdw::qpipe
