// The CJOIN Global Query Plan pipeline (paper §2.5, Figure 4):
//
//   preprocessor ──► filter workers ──► distributor parts ──► query outputs
//
//  * The preprocessor runs a circular scan of the fact table, emitting one
//    annotated tuple batch per page. Each admitted query records its point
//    of entry and completes when the scan wraps around to it.
//  * Query admission is batched: at a page boundary the pipeline drains,
//    pending queries update/extend the filters (setting their bits over the
//    entries their predicates select), and the scan resumes — the paper's
//    pause-the-pipeline admission phase. A predicate some earlier epoch
//    already admitted is served from the filter's selection cache; only the
//    rest share one scan per referenced dimension table (see filter.h).
//  * Filter workers take whole batches through every filter (the paper's
//    horizontal thread configuration).
//  * Distributor parts examine each joined tuple's bitmap, evaluate
//    fact-table predicates per query (CJOIN does not push them into the
//    preprocessor; see paper §3.2), project, and forward to the query's
//    output channel.

#ifndef SDW_CJOIN_PIPELINE_H_
#define SDW_CJOIN_PIPELINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cjoin/filter.h"
#include "cjoin/shared_agg.h"
#include "cjoin/tuple_batch.h"
#include "common/memory_budget.h"
#include "common/mutex.h"
#include "common/retry.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/page_channel.h"
#include "core/query_ticket.h"
#include "query/plan.h"
#include "query/star_query.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/scan.h"

namespace sdw::cjoin {

/// Pipeline configuration.
struct CjoinOptions {
  /// Query-slot capacity (bitmap width). Admissions beyond this abort.
  size_t max_queries = 1024;
  /// Filter worker threads (horizontal configuration).
  size_t filter_threads = 2;
  /// Distributor parts (the paper adds these to remove the single-threaded
  /// distributor bottleneck, §3.2).
  size_t distributor_parts = 2;
  /// Batches buffered between pipeline stages.
  size_t queue_capacity = 8;
  /// Evaluate fact-table predicates in the preprocessor (clearing the
  /// query's bit on non-matching tuples) instead of on CJOIN's output. The
  /// paper tried this and rejected it: "in most cases the cost of a slower
  /// pipeline defeated the purpose of potentially flowing fewer fact tuples
  /// in the pipeline" (§3.2). Kept as an option for the ablation bench.
  bool fact_preds_in_preprocessor = false;
  /// Order the pending queue by (priority desc, arrival) at every admission
  /// pause, so when slots are scarce a high-priority query never loses its
  /// slot to a long low-priority backlog. False = seed FIFO. Set only for a
  /// raw pipeline: core::Engine overwrites it with
  /// EngineOptions::sched.priority_enabled, the one source of truth.
  bool priority_admission = true;
  /// Overload gate: when set, each admission reserves kAdmissionCostBytes
  /// before costing a slot; a pending query that cannot reserve is shed
  /// with kResourceExhausted + a retry_after hint instead of queueing
  /// unboundedly (graceful degradation). Null = no gate (the seed behavior).
  MemoryBudget* memory_budget = nullptr;
  /// Resubmission hint attached to overload rejections.
  int64_t overload_retry_after_nanos = 5'000'000;
  /// Dynamic query folding (GraftDB direction, ROADMAP item 2): at each
  /// admission pause, a pending query whose predicates are provably
  /// contained in an in-flight query's (query::QuerySubsumes — equal
  /// AggSignature + PredicateContains per predicate) folds onto that host's
  /// slot as a post-filter over the host's filter verdicts instead of
  /// consuming a slot and dimension scans. Default OFF: the unfolded path
  /// is the differential oracle (fold_differential_test pins folded runs
  /// bit-exact against it).
  bool query_folding = false;
  /// Fold-bit capacity: how many folded AGGREGATE queries can be in flight
  /// at once (each needs a private bit in the shared-agg member bitmap
  /// beyond the slot range; streaming folds are unlimited). 0 = 3x
  /// max_queries. When exhausted, fold-eligible aggregates fall back to
  /// normal slot admission.
  size_t fold_bits = 0;
};

/// Aggregate pipeline statistics.
struct CjoinStats {
  /// Wall time spent admitting pending queries (DoAdmissionsLocked) while
  /// the pipeline is paused. The drain before it and the completions
  /// processed in the same pause are not included.
  double admission_seconds = 0;
  uint64_t admission_batches = 0;
  uint64_t queries_admitted = 0;
  uint64_t queries_completed = 0;
  /// Queries whose client cancelled/detached: admitted ones retired at an
  /// admission pause before finishing their scan cycle (their slots return
  /// to the dirty pool for reuse), plus pending ones rejected before
  /// allocation. So queries_admitted <= queries_completed +
  /// queries_cancelled, with equality when no pending query was cancelled.
  uint64_t queries_cancelled = 0;
  /// Pending queries rejected at admission because their deadline had
  /// already expired — before costing a slot or a dimension scan.
  uint64_t queries_expired = 0;
  /// Pending queries rejected because no query slot was available.
  uint64_t queries_rejected = 0;
  /// Pending queries shed by the MemoryBudget overload gate
  /// (kResourceExhausted with a retry_after hint — resubmittable).
  uint64_t queries_rejected_overload = 0;
  /// Queries terminated by a storage fault — a permanent fact-page read
  /// error failing the epoch's attached queries (fault isolation: later
  /// admissions are untouched), or an admission-time dimension-scan failure.
  uint64_t queries_failed = 0;
  /// Fact-page reads that surfaced an error after the cursor's transient
  /// retries (each such page is skipped and the scan re-arms).
  uint64_t scan_read_errors = 0;
  /// Transient-retry telemetry from the circular scan cursor (see
  /// common/retry.h): sleeps taken, retry budgets exhausted, nanos backing
  /// off.
  uint64_t scan_read_retries = 0;
  uint64_t scan_retry_giveups = 0;
  int64_t scan_backoff_nanos = 0;
  /// Admissions that reused a previously-occupied (dirty) slot — shows
  /// cancelled/completed slots actually recycling under churn.
  uint64_t slot_recycles = 0;
  uint64_t fact_pages_scanned = 0;
  /// Batch recycling pool hits/misses: a warm pipeline should show a hit
  /// rate near 1 (zero per-batch heap allocation in steady state).
  uint64_t batch_pool_hits = 0;
  uint64_t batch_pool_misses = 0;
  /// Dimension scans performed by admissions: batched admission does at
  /// most ONE scan per referenced dimension per admission epoch, however
  /// many queries were pending — admission_dim_scans / admission_batches
  /// stays flat in the batch size — and none for a dimension whose pending
  /// predicates were all cached.
  uint64_t admission_dim_scans = 0;
  /// Per-(query, dimension) admission requests served by a filter's
  /// selection cache (no dimension read) vs. requests that needed the scan.
  uint64_t admission_selection_hits = 0;
  uint64_t admission_selection_misses = 0;
  /// Distributor grouping-scratch recycling: batches grouped within the
  /// scratch's retained capacity vs. batches that had to grow a scratch
  /// vector. A warm distributor must show grows ~ 0 — zero per-batch heap
  /// allocation, the distributor analogue of the batch-pool hit rate.
  uint64_t distributor_scratch_reuses = 0;
  uint64_t distributor_scratch_grows = 0;
  /// Aggregate admissions that joined an already-active shared aggregation
  /// group instead of creating one — the sharing the tentpole is after
  /// (aggregation work scales with distinct shapes, not query count).
  uint64_t agg_groups_shared = 0;
  /// (batch, group) folds performed by distributor parts. With sharing, K
  /// same-shape queries over a scan cost one fold per batch, not K.
  uint64_t agg_batches_folded = 0;
  /// Per-query result slices rendered at completion (one per aggregate
  /// query that finished its cycle cleanly).
  uint64_t agg_slice_emits = 0;
  /// Wall nanos spent in SharedAggregator::MergePartials — the
  /// SINGLE-THREADED fold of every part's partial table into the group's
  /// merged table, run at pause boundaries (pipeline drained) right before
  /// a slice or retirement needs it. This serial merge is the known scaling
  /// ceiling of the shared-aggregation stage; the counter is the baseline a
  /// future parallel radix merge must beat (see ROADMAP.md).
  int64_t agg_merge_nanos = 0;
  /// MergePartials invocations behind agg_merge_nanos.
  uint64_t agg_merges = 0;
  /// Pending queries examined by the admission fold pass (one per pending
  /// query reaching admission while query_folding is on).
  uint64_t fold_checks = 0;
  /// Pending queries folded onto an in-flight host slot instead of
  /// consuming a slot and dimension scans. Folded queries also count into
  /// queries_admitted (queries_folded <= queries_admitted).
  uint64_t queries_folded = 0;
  /// Fold hosts whose own client finished (completed, cancelled or faulted)
  /// while >= 1 satellite still rode the slot: the slot stays active for
  /// the survivors instead of retiring (host-retirement promotion; see
  /// docs/FOLDING.md).
  uint64_t fold_promotions = 0;
};

/// Per-part reusable scratch for grouping a batch's live tuples by query
/// slot — a recycled flat slot→indexes layout, the distributor's analogue
/// of FilterScratch (it replaces the per-batch slot→vector hash map the
/// seed distributor rebuilt for every batch). The arena is a slot-major
/// bucket matrix: `stride` index cells per slot (stride = the largest page
/// tuple count seen), with per-slot fill cursors in `counts` — each
/// (slot, tuple) pair costs one bitmap decode and one cursor-indexed store,
/// with no hashing and no per-append capacity check. The arena's size
/// depends only on the batch geometry (slot capacity × page tuples), never
/// on which slots are occupied, so steady state performs zero heap
/// allocation per batch even as completed queries' slots are recycled —
/// observable through the reuses/grows counters. (Two alternatives were
/// benchmarked: a contiguous counting-sort layout lost to its second
/// scatter pass, and per-slot growable vectors re-allocate on slot churn.)
struct DistributorScratch {
  std::vector<uint32_t> arena;    // max_slots × stride bucket matrix
  std::vector<uint32_t> counts;   // per-slot fill cursor == group size
  std::vector<uint32_t> touched;  // slots with >= 1 tuple, ascending
  std::vector<uint64_t> seen;     // OR of all live bitmaps (one per word):
                                  // touched slots fall out of this for free
                                  // instead of a per-pair discovery branch
  size_t stride = 0;              // arena cells per slot (monotonic)
  uint64_t reuses = 0;            // batches grouped within retained capacity
  uint64_t grows = 0;             // batches that grew some vector

  size_t num_groups() const { return touched.size(); }
  uint32_t group_slot(size_t g) const { return touched[g]; }
  const uint32_t* group_begin(size_t g) const {
    return arena.data() + touched[g] * stride;
  }
  size_t group_size(size_t g) const { return counts[touched[g]]; }
};

/// Groups the batch's live tuples by query slot into `scratch`: groups come
/// out in ascending slot order with tuple indexes ascending within each
/// group. Dead tuples are skipped via the live mask without touching their
/// bitmaps. Returns the total number of (slot, tuple) pairs. Performs no
/// heap allocation once the scratch reached its high-water size.
size_t DistributePartBatched(const TupleBatch& batch,
                             DistributorScratch* scratch);

/// Scalar reference for DistributePartBatched — the seed distributor's
/// per-batch rebuilt slot→tuple-indexes map. Kept as the differential-test
/// and benchmark baseline; must produce the same groups (compared as sets).
void DistributePartScalar(
    const TupleBatch& batch,
    std::unordered_map<uint32_t, std::vector<uint32_t>>* by_slot);

/// The always-on shared-operator pipeline evaluating all concurrent star
/// queries over one fact table.
class CjoinPipeline {
 public:
  /// Bytes the overload gate charges per admitted query (output buffering +
  /// filter-entry growth): one open output page plus one page of dimension
  /// working state. Released at completion, rejection or failure.
  static constexpr uint64_t kAdmissionCostBytes = 2 * storage::kPageSize;

  CjoinPipeline(const storage::Catalog* catalog, storage::BufferPool* pool,
                const storage::Table* fact_table, CjoinOptions options);
  ~CjoinPipeline();

  SDW_DISALLOW_COPY(CjoinPipeline);

  /// One query submission: join-pipeline output rows — schema `out_schema`,
  /// which must equal the query-centric join sub-plan's output schema — are
  /// written to `sink`; at completion (or rejection, or early retirement)
  /// the sink is closed and `on_complete` runs with the terminal status (in
  /// the preprocessor thread). Every submission reaches on_complete exactly
  /// once — a rejected query must never hang its client.
  struct Submission {
    query::StarQuery q;
    storage::Schema out_schema;
    std::shared_ptr<core::PageSink> sink;
    /// Client lifecycle (may be null for direct pipeline tests). Supplies
    /// the deadline (enforced at admission) and the default cancel/detach
    /// signal, and is completed with the terminal status on the pipeline's
    /// error/cancel paths so no ticket is left unsatisfied.
    std::shared_ptr<core::QueryLifecycle> life;
    /// Overrides the cancel signal (checked each scanned page and at
    /// admission). Used by CJOIN-SP, where a shared packet must retire only
    /// once ALL consumers — host and satellites — have detached, not when
    /// the host's own query cancels. Defaults to life->Detached().
    std::function<bool()> cancelled;
    std::function<void(const Status&)> on_complete;
    /// Admission priority (higher admits first when slots are scarce;
    /// defaults to the lifecycle's submit priority when one is attached).
    int priority = 0;
    /// Dynamic priority override, re-evaluated at the admission pause: a
    /// CJOIN-SP shared packet reports the max priority over its attached
    /// consumers, so a high-priority satellite boosts the host it shares.
    std::function<int()> priority_fn;
    /// Aggregate submission: the pipeline aggregates the query's join output
    /// in its shared aggregation stage (one group per AggSignature, each
    /// batch folded once per group, the query's slice cut at completion)
    /// and the sink receives aggregate-result pages instead of join rows —
    /// `out_schema` must then be the aggregation output schema (group
    /// columns, then one column per aggregate; see Planner::BindAggShape).
    bool aggregate = false;
  };

  /// Submits a star query.
  void Submit(const query::StarQuery& q, storage::Schema out_schema,
              std::shared_ptr<core::PageSink> sink,
              std::function<void(const Status&)> on_complete);

  /// Submits several queries atomically so they join one admission batch
  /// (one pipeline pause) — the paper's batched admission (§3.2).
  void SubmitMany(std::vector<Submission> submissions);

  CjoinStats stats() const;
  /// Zeroes the aggregate statistics (between experiment runs).
  void ResetStats();
  size_t num_filters() const;
  size_t num_active_queries() const;

  /// Blocks until the pipeline holds no pending or active query. Needed
  /// before teardown when queries can finish client-side ahead of their
  /// slot (a cancelled ticket completes immediately; its slot retires at
  /// the next admission pause).
  void WaitIdle();

  // ------------------------------------------------------ watchdog surface

  /// Monotone progress epoch: bumped once per scanned page (including
  /// skipped poisoned pages) and once per admission pause. The stall
  /// watchdog snapshots it; an unchanged epoch while busy() means the scan
  /// is silently wedged.
  uint64_t progress_epoch() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// True while any query is admitted or pending — the watchdog only treats
  /// a flat progress epoch as a stall while there is work to progress on.
  bool busy() const;

  /// Cancels every admitted and pending query with `why` (e.g. the stall
  /// watchdog's kDeadlineExceeded). Cancellation flows through the normal
  /// lifecycle machinery: clients unblock immediately, slots retire at the
  /// next admission pause.
  void CancelActiveQueries(const Status& why);

 private:
  /// Scanned pages between full re-evaluations of a slot's group cancel
  /// signal (the SP AllConsumersDetached registry walk); the cached per-slot
  /// atomic answers in between. Lifecycle-only checks are lock-free and run
  /// every page regardless.
  static constexpr uint32_t kDetachCheckIntervalPages = 16;

  struct ActiveQuery {
    uint32_t slot = 0;
    query::StarQuery q;
    storage::Schema out_schema;
    uint32_t out_tuple_size = 0;
    std::shared_ptr<core::PageSink> sink;
    std::shared_ptr<core::QueryLifecycle> life;
    std::function<bool()> cancelled;
    std::function<void(const Status&)> on_complete;
    query::Predicate::Bound fact_pred;
    std::vector<JoinRowMove> moves;
    uint64_t pages_remaining = 0;
    /// Folded satellite (dynamic query folding): rides a host slot's filter
    /// verdicts instead of owning one. `slot` names the HOST slot. Never in
    /// active_mask_ / active_count_; lives in its host's `satellites`.
    bool folded = false;
    /// The satellite's own dimension predicates where they differ from the
    /// host's (provably narrower by admission containment): re-checked per
    /// emitted tuple against the joined dimension rows. Aggregate satellites
    /// carry them inside their SharedAggregator folded member instead.
    std::vector<SharedAggregator::Residual> residuals;
    /// Folded queries riding this slot. Mutates only at admission pauses
    /// (fold pass adds, completion removes) under the same drain-barrier
    /// protocol as slots_; stage threads read it lock-free.
    std::vector<std::unique_ptr<ActiveQuery>> satellites;
    /// The host's OWN client finished (any way) but satellites still ride
    /// the slot: suppress host emission/decrement, keep the slot active
    /// until the satellites retire too.
    bool client_done = false;
    /// This rider's bit in its aggregation group's member bitmap: the slot
    /// for slot-owning queries, a private fold bit for folded aggregates.
    uint32_t agg_bit = 0;
    /// Aggregate query: join output folds into `agg_group` (bound at
    /// activation, retired at completion) instead of streaming through
    /// EmitGroup; the sink receives rendered aggregate pages at completion.
    bool aggregate = false;
    SharedAggregator::Group* agg_group = nullptr;
    /// Set once the slot is queued on completions_due_, so the cancel check
    /// and the cycle-complete check cannot double-queue it.
    bool completion_queued = false;
    /// Non-OK once a storage fault terminated this query (a permanent fact
    /// page loss while it was attached, or an admission dimension-scan
    /// failure). CompleteQueryLocked finishes the query with this status
    /// instead of the cancel status — fault isolation is per attached epoch,
    /// so queries admitted after the fault never see it.
    Status fault_status;

    /// True once the query's consumers no longer want output (explicit
    /// cancel, completed ticket, or — under SP — every consumer detached).
    /// Evaluated by the preprocessor (once per scanned page, under mu_);
    /// the result is cached in `detached_cache` so the distributor's
    /// per-group suppression check stays a relaxed atomic load instead of
    /// taking the SP registry lock on the hot path.
    bool Detached() {
      bool d;
      if (cancelled) {
        d = cancelled();
      } else {
        d = life != nullptr && life->Detached();
      }
      if (d) detached_cache.store(true, std::memory_order_relaxed);
      return d;
    }

    /// Hot-path view of Detached(): at most kDetachCheckIntervalPages
    /// stale for SP group signals, one page for lifecycle-only queries.
    std::atomic<bool> detached_cache{false};

    /// Pages until the next full `cancelled()` evaluation (SP group checks
    /// walk the registry under its lock — the cost the throttle amortizes).
    uint32_t detach_check_countdown = 1;

    /// Per-page cancel check for the preprocessor's scan loop: lifecycle
    /// signals (cancel/deadline/done — plain atomics) are checked every
    /// page, but a locked group `cancelled()` walk runs only every
    /// kDetachCheckIntervalPages pages, answering from the cached per-slot
    /// atomic in between.
    bool DetachedThrottled() {
      if (detached_cache.load(std::memory_order_relaxed)) return true;
      if (!cancelled) return Detached();  // lock-free lifecycle check
      if (detach_check_countdown > 1) {
        --detach_check_countdown;
        return false;
      }
      detach_check_countdown = kDetachCheckIntervalPages;
      return Detached();
    }

    // Output path: distributor parts take/put partial pages under out_mu (a
    // pointer swap) and project into them without the lock; the sink is
    // touched under out_mu only when a page fills or at completion.
    // Ranked below the channels: the page-full emission Puts into the
    // query's sink channel while holding it.
    Mutex out_mu{lock_rank::Rank::kQueryOutput};
    SlotOutputBuffer out_buf GUARDED_BY(out_mu);
  };

  using PendingQuery = Submission;

  void PreprocessorLoop();
  void FilterWorkerLoop();
  void DistributorPartLoop(size_t part);

  /// Handles a surfaced fact-page read error (transient retries already
  /// exhausted inside the cursor): fails every query attached at this scan
  /// epoch — taxonomy-mapped to kDataLoss / kUnavailable — while the scan
  /// itself skips the poisoned page, re-arms, and keeps serving queries
  /// admitted later.
  void HandleScanFault(uint64_t page_index, const Status& why);

  /// Emits one slot's group of a batch — the slot's own query (unless
  /// aggregate, finished or detached) and each streaming satellite riding
  /// it. Runs in a distributor-part thread.
  void EmitGroup(uint32_t slot, const TupleBatch& batch,
                 const storage::Schema& fact_schema, const uint32_t* idxs,
                 size_t n);

  /// Projects one rider's share of a group: evaluates its fact predicate
  /// (always for satellites — the preprocessor knows nothing about them —
  /// else per fact_preds_in_preprocessor) and its dimension residuals,
  /// projects matching tuples into its buffered output pages
  /// (taken/returned under out_mu; filled without it), and hands full pages
  /// to the sink. Runs in a distributor-part thread.
  void EmitRows(ActiveQuery* aq, const TupleBatch& batch,
                const storage::Schema& fact_schema, const uint32_t* idxs,
                size_t n);

  /// Blocks until no batch is in flight (pipeline paused).
  void DrainPipeline();

  /// Rebalances in_flight_ for a batch dropped by a closed queue, so drain
  /// waiters are not left hanging during shutdown.
  void ForgetDroppedBatch();

  // The *Locked helpers additionally require the pipeline drained (a
  // protocol REQUIRES(mu_) cannot express; see the slots_ comment below).
  void DoCompletionsLocked() REQUIRES(mu_);
  void DoAdmissionsLocked() REQUIRES(mu_);
  /// Allocates a slot, recycling a dirty one when the free pool is empty;
  /// returns kNoSlot when capacity is exhausted (the caller rejects).
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  uint32_t TryAllocSlotLocked() REQUIRES(mu_);
  Filter* GetOrCreateFilterLocked(const query::DimJoin& dim) REQUIRES(mu_);
  /// Byte moves materializing `q`'s join-output rows (schema `out_schema`)
  /// from fact pages and joined dimension rows. Used for per-query streaming
  /// projection and for shared-aggregation-group row materialization alike.
  std::vector<JoinRowMove> BuildJoinMoves(const query::StarQuery& q,
                                          const storage::Schema& out_schema);
  /// Binds an activating aggregate query to its aggregation group: an
  /// existing same-signature group, else a fresh group whose shape is
  /// compiled here. Additionally requires the pipeline drained.
  void BindAggGroupLocked(ActiveQuery* aq) REQUIRES(mu_);
  /// Renders the completing aggregate query's result (its slice of the
  /// shared group) into pages on its sink. Requires the group's partials
  /// merged. `slice` is an optional
  /// precomputed slice (SliceMembers batches all of a drain's slices into
  /// one table pass); nullptr cuts it here.
  void EmitAggResultLocked(ActiveQuery* aq,
                           SharedAggregator::AccTable* slice) REQUIRES(mu_);
  /// Processes a slot queued on completions_due_: finishes every DUE rider
  /// (the host query and/or folded satellites — faulted, cycle complete, or
  /// detached), then retires the slot itself only once the host's client is
  /// done AND no satellite remains; a host finishing ahead of its
  /// satellites promotes the slot to the survivors instead.
  void CompleteQueryLocked(uint32_t slot) REQUIRES(mu_);
  /// Finishes ONE rider (host or satellite): fault/cancel status when early,
  /// else emits its aggregate slice or drains its stream; retires its
  /// aggregation membership (by agg_bit), returns its fold bit, counts it,
  /// releases its budget reservation. Additionally requires the pipeline
  /// drained. `slice` forwards a batch-precomputed aggregate slice to
  /// EmitAggResultLocked (nullptr = compute on emit).
  void FinishRiderLocked(ActiveQuery* r,
                         SharedAggregator::AccTable* slice = nullptr)
      REQUIRES(mu_);
  /// The in-flight (or same-epoch just-materialized, via `epoch_slots`)
  /// query that can host pending query `p`: healthy, matching aggregate
  /// mode, and query::QuerySubsumes(host.q, p.q). Null when none — or when
  /// `p` is an aggregate and fold-bit capacity is exhausted (it then takes
  /// the normal slot path).
  ActiveQuery* FindFoldHostLocked(const PendingQuery& p,
                                  const std::vector<uint32_t>& epoch_slots)
      REQUIRES(mu_);
  /// Folds pending query `p` onto `host` as a satellite: builds its bound
  /// predicates, moves, residuals and lifecycle marks, claims a fold bit
  /// for aggregates, and binds it into the host's aggregation group
  /// immediately when the host is already active (same-epoch hosts bind
  /// their satellites in admission phase 4, after BindAggGroupLocked).
  void FoldOntoHostLocked(ActiveQuery* host, PendingQuery* p) REQUIRES(mu_);
  /// Binds an aggregate satellite (fold bit already claimed in
  /// FoldOntoHostLocked) as a folded member of its host's group.
  void BindFoldedAggLocked(ActiveQuery* host, ActiveQuery* sat) REQUIRES(mu_);
  /// The satellite's residual dimension predicates: one Bound per dimension
  /// whose predicate signature differs from the host's (identical
  /// predicates need no residual — the host's filter verdict is exact).
  std::vector<SharedAggregator::Residual> BuildResiduals(
      const ActiveQuery& host, const query::StarQuery& q);
  /// Terminates a query with a non-OK status: completes the lifecycle and
  /// runs on_complete BEFORE closing the sink (the ordering is what keeps a
  /// client drain's Finish(Ok)-on-truncated-stream from winning the
  /// first-wins race). Shared by the pending-reject and early-retire paths.
  static void FailQuery(const std::shared_ptr<core::QueryLifecycle>& life,
                        const std::function<void(const Status&)>& on_complete,
                        core::PageSink* sink, const Status& why);
  /// Fails a pending submission without admitting it.
  void RejectPendingLocked(PendingQuery* p, const Status& why) REQUIRES(mu_);

  const storage::Catalog* catalog_;
  storage::BufferPool* pool_;
  const storage::Table* fact_;
  const CjoinOptions options_;
  const size_t words_;
  /// Member-bitmap width of the shared aggregation stage: the slot words
  /// plus fold-bit words when query folding is enabled.
  const size_t member_words_;

  mutable Mutex mu_{lock_rank::Rank::kCjoinPipeline};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::vector<PendingQuery> pending_ GUARDED_BY(mu_);
  // Drain-barrier protocol, NOT mu_: slots_, active_mask_, filters_,
  // shared_agg_'s group list and dim_row_fn_ are read lock-free by the
  // stage threads (batch annotation, filter processing, EmitGroup, fold)
  // while batches are in flight, and mutate ONLY at admission pauses —
  // after DrainPipeline() proved no batch is in flight, on the one
  // preprocessor thread that also performs every mutation. GUARDED_BY
  // cannot express that barrier, so these stay unannotated rather than
  // burn NO_THREAD_SAFETY_ANALYSIS suppressions on every stage loop.
  std::vector<std::unique_ptr<ActiveQuery>> slots_;
  Bitset active_mask_;
  size_t active_count_ GUARDED_BY(mu_) = 0;
  std::vector<uint32_t> free_slots_ GUARDED_BY(mu_);
  std::vector<uint32_t> dirty_slots_ GUARDED_BY(mu_);
  /// Unclaimed fold-bit positions in [words_*64, member_words_*64) for
  /// folded aggregate members; claimed at fold time, returned when the
  /// satellite retires. Empty pool => aggregate folds fall back to slots.
  std::vector<uint32_t> free_fold_bits_ GUARDED_BY(mu_);
  std::vector<uint32_t> completions_due_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Filter>> filters_;
  /// Shared aggregation stage. Group membership and merged tables mutate
  /// only at admission pauses (pipeline drained); distributor parts fold
  /// into their own per-part partial tables while batches are in flight.
  SharedAggregator shared_agg_;
  SharedAggregator::DimRowFn dim_row_fn_;
  CjoinStats stats_ GUARDED_BY(mu_);
  // Cross-thread stat counters, with snapshots taken at ResetStats so
  // stats() reports per-run values.
  Counter dist_scratch_reuses_;
  Counter dist_scratch_grows_;
  Counter agg_batches_folded_;
  uint64_t pool_hits_base_ GUARDED_BY(mu_) = 0;
  uint64_t pool_misses_base_ GUARDED_BY(mu_) = 0;
  uint64_t dist_reuses_base_ GUARDED_BY(mu_) = 0;
  uint64_t dist_grows_base_ GUARDED_BY(mu_) = 0;
  uint64_t agg_folds_base_ GUARDED_BY(mu_) = 0;
  uint64_t admission_scans_base_ GUARDED_BY(mu_) = 0;
  uint64_t selection_hits_base_ GUARDED_BY(mu_) = 0;
  uint64_t selection_misses_base_ GUARDED_BY(mu_) = 0;
  // Cursor retry-telemetry snapshot at the last ResetStats (the cursor's
  // counters are cumulative relaxed atomics; stats() reports deltas).
  uint64_t retry_retries_base_ GUARDED_BY(mu_) = 0;
  uint64_t retry_giveups_base_ GUARDED_BY(mu_) = 0;
  int64_t retry_backoff_base_ GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> progress_{0};

  BatchQueue to_filters_;
  BatchQueue to_distributor_;
  BatchPool batch_pool_;
  std::atomic<int> in_flight_{0};
  // Terminal: held only around the drain CV handshake, acquires nothing.
  Mutex drain_mu_{lock_rank::Rank::kLeaf};
  CondVar drain_cv_;

  std::atomic<bool> stop_{false};
  storage::CircularPageCursor cursor_;

  std::thread preprocessor_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> parts_;
};

}  // namespace sdw::cjoin

#endif  // SDW_CJOIN_PIPELINE_H_
