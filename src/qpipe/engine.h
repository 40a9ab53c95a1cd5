// The QPipe staged execution engine (paper §2.3).
//
// Each relational operator kind is a stage with its own worker pool; a query
// plan becomes one packet per operator, dispatched to the stages and
// communicating through Exchanges (FIFO push or SPL pull). Stages detect
// packets with identical sub-plan signatures and attach them as satellites of
// the in-flight host (Simultaneous Pipelining).
//
// Submission is batched: all packets of a batch are wired before any packet
// runs, matching the paper's experiments where concurrent queries are
// "submitted at the same time" and therefore arrive inside every WoP.
// Single-query Submit is the degenerate batch; late arrivals attach only
// while the host's window is still open.

#ifndef SDW_QPIPE_ENGINE_H_
#define SDW_QPIPE_ENGINE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "qpipe/circular_scan.h"
#include "qpipe/exchange.h"
#include "qpipe/packet.h"
#include "qpipe/sp_registry.h"
#include "query/plan.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"

namespace sdw::qpipe {

/// Engine configuration; the five paper configurations map onto these flags
/// (see core::EngineConfig).
struct QpipeOptions {
  /// SP communication model: push/FIFO or pull/SPL (paper §4).
  core::CommModel comm = core::CommModel::kPull;
  /// Scan-stage sharing: circular scans + identical-scan SP ("CS").
  bool sp_scan = false;
  /// Join-stage SP (identical join sub-plans). Aggregation and sort stages
  /// never share: the paper's experiments run them unshared.
  bool sp_join = false;
  /// Byte bound of every FIFO / SPL (paper uses 256 KB).
  size_t channel_bytes = 256 * 1024;
  /// Scheduler governing the stage run queues (priority/aging policy) and
  /// deadline enforcement (timer queue). When null the engine owns a
  /// default-configured one.
  core::Scheduler* scheduler = nullptr;
  /// Caps every stage pool's worker count (0 = unlimited, the seed
  /// behavior). A cap makes the priority run queue observable — freed
  /// workers pop the highest-priority packet — but see the
  /// ThreadPoolOptions deadlock caveat: same-stage packets that feed each
  /// other (nested joins) can deadlock under a cap, so cap only for
  /// independent-packet workloads (scan stages, scheduling experiments).
  size_t stage_max_workers = 0;
};

/// SP sharing counters (the paper reports these per experiment, e.g. the
/// "1st/2nd/3rd hash-join" share counts of Figure 15).
struct SpCounters {
  uint64_t scan_shares = 0;
  std::array<uint64_t, 8> join_shares_by_depth{};  // [0] = first hash join

  uint64_t join_shares_total() const {
    uint64_t n = 0;
    for (uint64_t v : join_shares_by_depth) n += v;
    return n;
  }
};

/// The staged engine.
class QpipeEngine {
 public:
  QpipeEngine(const storage::Catalog* catalog, storage::BufferPool* pool,
              QpipeOptions options);
  ~QpipeEngine();

  SDW_DISALLOW_COPY(QpipeEngine);

  /// Submits a batch: wires packets for all queries (detecting SP sharing
  /// within the batch and against in-flight queries), then dispatches.
  /// Queries whose deadline already expired are rejected before wiring
  /// (their handle's lifecycle completes kDeadlineExceeded immediately).
  std::vector<QueryHandle> SubmitBatch(
      const std::vector<query::StarQuery>& queries,
      const core::SubmitOptions& opts = core::SubmitOptions());

  /// The general batch shape: each query carries its own options, so one
  /// arrival batch can mix priorities and deadlines (the scheduler orders
  /// dispatch and admission within it).
  std::vector<QueryHandle> SubmitRequests(
      const std::vector<core::SubmitRequest>& requests);

  /// Single-query convenience wrapper.
  QueryHandle Submit(const query::StarQuery& q,
                     const core::SubmitOptions& opts = core::SubmitOptions());

  /// Blocks until every submitted query has completed.
  void WaitAll();

  /// Snapshot of sharing counters.
  SpCounters sp_counters() const;
  /// Zeroes sharing counters.
  void ResetSpCounters();

  const QpipeOptions& options() const { return options_; }
  const storage::Catalog* catalog() const { return catalog_; }
  storage::BufferPool* buffer_pool() const { return pool_; }
  /// The scheduler in effect (injected or engine-owned).
  core::Scheduler* scheduler() const { return sched_; }

  /// Hook used by the CJOIN integration (core::CjoinStage): when set, join
  /// sub-plans are evaluated by the delegate (the GQP) instead of
  /// query-centric join packets. Must be installed before any submission.
  /// The delegate returns the reader of the join sub-plan's output and
  /// appends its dispatch steps to `deferred` (run after wiring completes).
  using JoinDelegate = std::function<std::unique_ptr<core::PageSource>(
      QueryContext* ctx, const query::PlanNode* join_root,
      std::vector<std::function<void()>>* deferred)>;
  void set_join_delegate(JoinDelegate delegate) {
    join_delegate_ = std::move(delegate);
  }

  /// Companion hook for shared aggregation: when set, an aggregate node
  /// sitting directly on a join sub-plan is evaluated inside the CJOIN
  /// pipeline (same-shape queries fold onto one shared aggregation group)
  /// and the delegate returns the reader of the aggregate's output. Same
  /// contract as JoinDelegate; checked before it during plan wiring.
  using AggDelegate = JoinDelegate;
  void set_agg_delegate(AggDelegate delegate) {
    agg_delegate_ = std::move(delegate);
  }

  /// Invoked once per SubmitBatch after all deferred dispatches ran; the
  /// CJOIN stage uses it to hand its staged submissions to the pipeline as
  /// one admission batch.
  void set_batch_flush_hook(std::function<void()> hook) {
    batch_flush_ = std::move(hook);
  }

 private:
  struct Stage {
    Stage(const std::string& name, const ThreadPoolOptions& opts)
        : pool(name, opts) {}
    // Declaration order is load-bearing: packet workers touch the registry
    // (Unregister after closing their sink) past the point the submitting
    // query's results drain, so ~Stage must join the pool BEFORE the
    // registry dies — members are destroyed in reverse declaration order.
    // (Caught by the TSAN CI job.)
    SpRegistry registry;
    ThreadPool pool;
  };

  Stage* StageFor(query::PlanNode::Kind kind);
  bool SpEnabledFor(query::PlanNode::Kind kind) const;
  void RecordShare(const query::PlanNode* node);
  static int JoinDepth(const query::PlanNode* node);

  /// A registered host exchange on the path from a packet to its query's
  /// root. When a packet aborts, consumers of every ancestor host must be
  /// failed too: their streams are truncated through the ordinary EOS the
  /// intermediate operators emit.
  struct HostRef {
    Stage* stage;
    const query::PlanNode* node;
    std::shared_ptr<Exchange> ex;
  };

  /// Builds the producer pipeline for `node`, returning the reader of its
  /// output. Dispatch closures are appended to `deferred`; `host_path`
  /// carries the registered hosts above `node` (maintained across the
  /// recursion; each packet snapshots its ancestors for the abort path).
  std::unique_ptr<core::PageSource> BuildProducer(
      const QueryHandle& ctx, const query::PlanNode* node,
      std::vector<std::function<void()>>* deferred,
      std::vector<HostRef>* host_path);

  /// Runs the operator: OK on completion, kCancelled when its consumers
  /// vanished, any other code for a surfaced fault (see operators.h).
  Status RunPacket(const query::PlanNode* node, Exchange* ex,
                   const std::vector<std::shared_ptr<core::PageSource>>& inputs);

  /// Sink task: drains the query's root reader into its result set,
  /// honoring cancellation, deadline and row_limit, and completes the
  /// lifecycle (exactly once, whatever happened upstream).
  void DrainResult(const QueryHandle& ctx, core::PageSource* reader);

  const storage::Catalog* catalog_;
  storage::BufferPool* pool_;
  const QpipeOptions options_;

  // Owned fallback when QpipeOptions::scheduler is null; sched_ is the one
  // actually used. Declared before the stages so the timer queue outlives
  // every queue it can fire into.
  std::unique_ptr<core::Scheduler> owned_scheduler_;
  core::Scheduler* sched_;

  std::unique_ptr<CircularScanMap> scan_services_;
  std::unique_ptr<Stage> scan_stage_;
  std::unique_ptr<Stage> join_stage_;
  std::unique_ptr<Stage> agg_stage_;
  std::unique_ptr<Stage> sort_stage_;
  std::unique_ptr<ThreadPool> sink_pool_;

  JoinDelegate join_delegate_;
  AggDelegate agg_delegate_;
  std::function<void()> batch_flush_;

  std::atomic<uint64_t> next_qid_{1};

  // Leaf-like in practice (never wraps another acquisition) but ranked as
  // the engine layer so a future nesting under it is caught, not invented.
  mutable Mutex mu_{lock_rank::Rank::kEngine};
  std::vector<QueryHandle> active_ GUARDED_BY(mu_);
  SpCounters counters_ GUARDED_BY(mu_);
};

}  // namespace sdw::qpipe

#endif  // SDW_QPIPE_ENGINE_H_
