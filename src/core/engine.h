// Unified engine facade exposing the paper's five evaluated configurations
// (paper §5.1):
//
//   QPipe     — query-centric staged execution, no sharing (baseline)
//   QPipe-CS  — + circular scans (SP at the table-scan stage)
//   QPipe-SP  — + SP at the join stage
//   CJOIN     — joins evaluated by the GQP (shared operators), no SP
//   CJOIN-SP  — + SP over CJOIN packets (the paper's integration, §3)
//
// plus the push/pull communication-model switch of §4. This is the public
// entry point of the library: build a catalog, create an Engine with a
// configuration, submit StarQuery batches.

#ifndef SDW_CORE_ENGINE_H_
#define SDW_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cjoin/pipeline.h"
#include "common/memory_budget.h"
#include "core/cjoin_stage.h"
#include "core/query_ticket.h"
#include "core/scheduler.h"
#include "core/watchdog.h"
#include "qpipe/engine.h"

namespace sdw::core {

/// The five evaluated engine configurations.
enum class EngineConfig {
  kQpipe,    // no sharing
  kQpipeCs,  // circular scans
  kQpipeSp,  // circular scans + join SP
  kCjoin,    // GQP with shared operators
  kCjoinSp,  // GQP + SP over CJOIN packets
};

/// Stable display name ("QPipe", "QPipe-CS", ...).
const char* EngineConfigName(EngineConfig config);

/// Facade options.
struct EngineOptions {
  EngineConfig config = EngineConfig::kQpipeSp;
  /// SP communication model (paper §4). Pull (SPL) is the paper's
  /// recommendation; push (FIFO) reproduces the original QPipe behavior.
  CommModel comm = CommModel::kPull;
  /// FIFO/SPL byte bound (paper uses 256 KB).
  size_t channel_bytes = 256 * 1024;
  /// GQP pipeline options (CJOIN configs only), including dynamic query
  /// folding (cjoin.query_folding, see docs/FOLDING.md) and the overload
  /// retry hint (cjoin.overload_retry_after_nanos). The engine sets
  /// cjoin.priority_admission from sched.priority_enabled.
  cjoin::CjoinOptions cjoin;
  /// CJOIN configs: evaluate aggregations inside the pipeline's shared
  /// aggregation stage — queries with the same (group-by keys, aggregate
  /// shape) signature fold each distributed batch once and slice per-query
  /// results at completion. False keeps the scalar reference: join output
  /// streams to per-query QPipe aggregation packets (the pre-sharing
  /// behavior, and the differential tests' baseline).
  bool shared_aggregation = true;
  /// Fact table the GQP pipeline is built over.
  std::string fact_table = "lineorder";
  /// Store the fact table in the PAX (column-major within page) layout,
  /// converted at engine construction (see docs/STORAGE.md). Only the
  /// storage format changes: every fact-page reader runs the same code on
  /// either layout, and results are bit-identical.
  bool columnar_pages = false;
  /// Scheduling policy: one core::Scheduler per engine threads priority,
  /// aging and deadline (timer-queue) enforcement through every queue —
  /// stage dispatch, result sinks and CJOIN admission.
  /// sched.priority_enabled = false reproduces the seed's FIFO everywhere.
  SchedulerOptions sched;
  /// Caps every QPipe stage pool (0 = unlimited). See
  /// qpipe::QpipeOptions::stage_max_workers for the deadlock caveat.
  size_t stage_max_workers = 0;
  /// Fault-tolerance knobs (CJOIN configurations; see docs in the fields).
  struct ResilienceOptions {
    /// Admission overload gate: total bytes of CJOIN admission reservations
    /// (CjoinPipeline::kAdmissionCostBytes per in-flight query) before
    /// pending queries are shed with kResourceExhausted + a retry_after
    /// hint (cjoin.overload_retry_after_nanos). 0 = no gate (the seed
    /// behavior).
    uint64_t memory_budget_bytes = 0;
    /// Stall watchdog: busy time without scan progress before active CJOIN
    /// queries are cancelled kDeadlineExceeded. 0 = watchdog off.
    int64_t scan_stall_nanos = 0;
    /// Watchdog probe period.
    int64_t watchdog_check_interval_nanos = 50'000'000;
  };
  ResilienceOptions resilience;
};

/// The integrated engine. Submissions return QueryTickets (see
/// core/query_ticket.h) carrying status, cancellation, deadlines and
/// per-query metrics; the ExecutorClient interface lets harness drivers and
/// tests run unchanged against any backend.
class Engine : public ExecutorClient {
 public:
  Engine(const storage::Catalog* catalog, storage::BufferPool* pool,
         EngineOptions options);
  ~Engine() override;

  SDW_DISALLOW_COPY(Engine);

  /// Submits a batch of concurrent queries (all "arrive at the same time").
  std::vector<QueryTicket> SubmitBatch(
      const std::vector<query::StarQuery>& queries,
      const SubmitOptions& opts = SubmitOptions()) override;

  /// Single-query submission (closed-loop clients).
  QueryTicket Submit(const query::StarQuery& q,
                     const SubmitOptions& opts = SubmitOptions()) override;

  /// Mixed batch: per-query options inside one arrival batch.
  std::vector<QueryTicket> SubmitRequests(
      const std::vector<SubmitRequest>& requests) override;

  /// Blocks until all submitted queries complete.
  void WaitAll() override;

  const EngineOptions& options() const { return options_; }
  /// The engine's scheduling subsystem (priority policy + timer queue).
  Scheduler* scheduler() { return scheduler_.get(); }
  qpipe::QpipeEngine* qpipe() { return qpipe_.get(); }
  /// Null unless a CJOIN configuration.
  cjoin::CjoinPipeline* cjoin_pipeline() { return pipeline_.get(); }

  /// SP sharing counters of the staged engine.
  qpipe::SpCounters sp_counters() const { return qpipe_->sp_counters(); }
  /// Satellite attachments to CJOIN packets (CJOIN-SP only).
  uint64_t cjoin_shares() const {
    return cjoin_stage_ ? cjoin_stage_->shares() : 0;
  }
  /// GQP pipeline statistics (zeroes unless a CJOIN configuration).
  cjoin::CjoinStats cjoin_stats() const {
    return pipeline_ ? pipeline_->stats() : cjoin::CjoinStats{};
  }
  /// Admission memory budget (null unless resilience.memory_budget_bytes).
  MemoryBudget* memory_budget() { return memory_budget_.get(); }
  /// Stall watchdog (null unless resilience.scan_stall_nanos on a CJOIN
  /// configuration).
  StallWatchdog* watchdog() { return watchdog_.get(); }
  void ResetCounters() override;

 private:
  const EngineOptions options_;
  // Destruction order (reverse of declaration) is load-bearing: the
  // watchdog goes first (its destructor guarantees no probe still touches
  // the pipeline), then the staged engine (drains queries), then the GQP
  // pipeline (joins its threads, which may still be running completion
  // hooks), the CJOIN stage — whose SP registry those hooks call into —
  // next, then the memory budget the pipeline releases into, and the
  // scheduler (whose timer queue fires into all of the above) strictly
  // last-constructed/first-outliving, i.e. declared first.
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<MemoryBudget> memory_budget_;
  std::unique_ptr<CjoinStage> cjoin_stage_;
  std::unique_ptr<cjoin::CjoinPipeline> pipeline_;
  std::unique_ptr<qpipe::QpipeEngine> qpipe_;
  std::unique_ptr<StallWatchdog> watchdog_;  // declared LAST: destroyed first
};

}  // namespace sdw::core

#endif  // SDW_CORE_ENGINE_H_
