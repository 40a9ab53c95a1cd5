// The asynchronous client surface of every execution backend.
//
// Submitting a query yields a QueryTicket — an opaque, copyable handle on
// the query's lifecycle. The ticket exposes exactly the operations a
// closed-loop client needs and nothing about the engine that runs the query:
//
//   Wait()       blocks until the query reaches a terminal state and returns
//                it (see the Status taxonomy in common/status.h);
//   TryResult()  non-blocking result access;
//   Cancel()     requests best-effort cancellation — engines observe the
//                request at exchange boundaries (QPipe) or admission pauses
//                (CJOIN) and recycle the query's resources early;
//   metrics()    a per-query snapshot (timing, pages drained, rows streamed,
//                sharing, CJOIN admission epoch).
//
// Engines complete the shared QueryLifecycle exactly once (first Finish
// wins); every submission path is required to reach Finish, so a ticket's
// Wait() can never hang on a failed or rejected query.
//
// ExecutorClient is the engine-side interface: core::Engine (all five paper
// configurations) and baseline::VolcanoEngine (the query-centric comparator)
// implement it, so harness drivers, tests and examples are written once
// against tickets and run against any backend.

#ifndef SDW_CORE_QUERY_TICKET_H_
#define SDW_CORE_QUERY_TICKET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "query/result.h"
#include "query/star_query.h"

namespace sdw::core {

/// Per-submission client options.
struct SubmitOptions {
  /// Scheduling priority (higher = sooner). The core::Scheduler threads it
  /// through every queue: QPipe stage dispatch pops packets by effective
  /// priority (a shared packet inherits the max of its attached consumers),
  /// and CJOIN admission orders its pending queue by (priority, arrival) so
  /// scarce query slots go to the highest bidder.
  int priority = 0;
  /// Absolute deadline in NowNanos() time (0 = none). An expired query is
  /// rejected at admission — before packet wiring (QPipe) or before costing
  /// a dimension scan (CJOIN) — and a draining query stops at the next
  /// result page past the deadline.
  int64_t deadline_nanos = 0;
  /// Free-form client identity, carried into the lifecycle for tracing.
  std::string client_tag;
  /// Stop draining after this many result rows (0 = unlimited). The ticket
  /// completes kOk with the truncated result; upstream work is cancelled.
  uint64_t row_limit = 0;
};

/// Point-in-time snapshot of one query's measurements.
struct QueryMetrics {
  uint64_t qid = 0;
  int64_t submit_nanos = 0;
  int64_t finish_nanos = 0;   // 0 until terminal
  /// When the query's work first got scheduled (first packet popped from a
  /// stage run queue, CJOIN admission activation, or SP satellite attach;
  /// 0 until then). submit → run_start is queue wait, run_start → finish is
  /// run time — the split that makes scheduling effects measurable.
  int64_t run_start_nanos = 0;
  uint64_t pages_read = 0;    // result pages drained into the ResultSet
  uint64_t rows = 0;          // rows streamed so far (live during the run)
  /// True when the whole query was satisfied from an SP host's results
  /// (the root packet attached as a satellite).
  bool fully_shared = false;
  /// CJOIN admission epoch that admitted the query (0 for non-CJOIN runs
  /// and for queries rejected before admission).
  uint64_t admission_epoch = 0;

  /// End-to-end response time in seconds (valid after completion).
  double response_seconds() const {
    return static_cast<double>(finish_nanos - submit_nanos) * 1e-9;
  }
  /// Time spent queued before the work first ran (valid once run_start_nanos
  /// is set; the full response time for queries rejected before running;
  /// 0 while the query is still waiting to be scheduled).
  double queue_wait_seconds() const {
    const int64_t until = run_start_nanos != 0 ? run_start_nanos
                                               : finish_nanos;
    if (until == 0) return 0;  // live snapshot of a still-queued query
    return static_cast<double>(until - submit_nanos) * 1e-9;
  }
  /// Time from first scheduling to completion (0 for never-started queries).
  double run_seconds() const {
    if (run_start_nanos == 0) return 0;
    return static_cast<double>(finish_nanos - run_start_nanos) * 1e-9;
  }
};

/// Shared lifecycle state of one submitted query. Engines drive the
/// engine-side methods; clients observe through QueryTicket. All methods are
/// thread-safe.
class QueryLifecycle {
 public:
  QueryLifecycle(uint64_t qid, SubmitOptions options)
      : options_(std::move(options)) {
    metrics_.qid = qid;
  }

  SDW_DISALLOW_COPY(QueryLifecycle);

  // ------------------------------------------------------------ client side

  /// Blocks until the query is terminal; returns the final status.
  Status Wait() const;

  /// Waits up to `timeout_nanos`; true when the query reached a terminal
  /// state within the timeout.
  bool WaitFor(int64_t timeout_nanos) const;

  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Final status; Ok before completion (check done() to distinguish).
  Status status() const;

  /// Requests cancellation: records the reason, fires the engine's cancel
  /// hook (unblocking a blocked drain), and lets the engines retire the
  /// query's resources at their next check point. A no-op after completion.
  void RequestCancel(Status reason = Status::Cancelled("cancel requested"));

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Rows streamed into the result so far — live progress for streaming
  /// consumers.
  uint64_t rows_streamed() const {
    return rows_.load(std::memory_order_relaxed);
  }

  const SubmitOptions& options() const { return options_; }
  int64_t deadline_nanos() const { return options_.deadline_nanos; }

  /// The result rows. Only valid once done() and status().ok().
  const query::ResultSet& result() const { return result_; }

  QueryMetrics metrics() const;

  // ------------------------------------------------------------ engine side

  /// Completes the query: first caller wins, later calls are no-ops (so a
  /// pipeline error path and the normal drain path can race safely).
  /// Returns true when this call performed the completion.
  bool Finish(Status final_status);

  /// Installs the hook RequestCancel fires (e.g. cancelling the root result
  /// reader so a blocked drain wakes up). Invoked immediately if
  /// cancellation was already requested; dropped at Finish.
  void SetCancelCallback(std::function<void()> cb);

  /// Installs a hook run once when the query reaches a terminal state (or
  /// immediately if it already has). The Scheduler uses it to cancel the
  /// query's deadline timer, so early completions do not leave stale
  /// timers queued until their deadline passes.
  void SetFinishHook(std::function<void()> hook);

  /// True when the client no longer wants output: cancellation requested or
  /// the ticket already completed (e.g. a row_limit truncation). Engines use
  /// this to retire resources early.
  bool Detached() const { return cancel_requested() || done(); }

  /// Engine check point: true when the query should stop producing results,
  /// with `*why` set to the cancel reason or a deadline expiry.
  bool ShouldStop(Status* why) const;

  /// The status an engine-side retire path should complete the ticket with.
  Status cancel_status() const;

  query::ResultSet* mutable_result() { return &result_; }
  void set_submit_nanos(int64_t t) { metrics_.submit_nanos = t; }
  /// Records the first moment the query's work was actually scheduled
  /// (earliest caller wins; later calls are no-ops). Engines call this from
  /// packet workers, CJOIN admission and SP attach points.
  void MarkRunStart();
  void AddPagesRead(uint64_t n) {
    pages_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddRowsStreamed(uint64_t n) {
    rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void SetFullyShared() { fully_shared_.store(true, std::memory_order_relaxed); }
  void SetAdmissionEpoch(uint64_t e) {
    admission_epoch_.store(e, std::memory_order_relaxed);
  }

 private:
  const SubmitOptions options_;

  // Mid-hierarchy: Finish is reached from under the CJOIN pipeline and SP
  // registry locks (FailQuery → Finish), and the hooks it fires afterwards
  // take channel/timer locks — but always OUTSIDE mu_.
  mutable Mutex mu_{lock_rank::Rank::kQueryLifecycle};
  mutable CondVar cv_;
  std::atomic<bool> done_{false};
  std::atomic<bool> cancel_{false};
  Status final_status_ GUARDED_BY(mu_);   // stable once done_ is published
  Status cancel_reason_ GUARDED_BY(mu_);
  std::function<void()> cancel_cb_ GUARDED_BY(mu_);    // fired outside mu_
  std::function<void()> finish_hook_ GUARDED_BY(mu_);  // fired outside mu_

  query::ResultSet result_;  // written only by the engine's drain thread
  // qid/submit_nanos are written before the lifecycle is shared (and so
  // stay unannotated); finish_nanos is written under mu_ at completion.
  QueryMetrics metrics_;
  std::atomic<int64_t> run_start_{0};
  std::atomic<uint64_t> pages_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<bool> fully_shared_{false};
  std::atomic<uint64_t> admission_epoch_{0};
};

/// Copyable client handle on one submitted query.
class QueryTicket {
 public:
  QueryTicket() = default;
  explicit QueryTicket(std::shared_ptr<QueryLifecycle> life)
      : life_(std::move(life)) {}

  bool valid() const { return life_ != nullptr; }

  /// Blocks until terminal; returns the final status.
  Status Wait() const { return life()->Wait(); }

  /// Bounded wait; true when the query completed within the timeout.
  bool WaitFor(int64_t timeout_nanos) const {
    return life()->WaitFor(timeout_nanos);
  }

  bool done() const { return life()->done(); }

  /// Final status; Ok before completion (check done()).
  Status status() const { return life()->status(); }

  /// Non-blocking result access: FailedPrecondition while the query is
  /// still running, the terminal error for a failed/cancelled query, or a
  /// pointer to the completed result set.
  Result<const query::ResultSet*> TryResult() const;

  /// The completed result rows; aborts unless done() and status().ok().
  /// Use TryResult() when failure is expected.
  const query::ResultSet& result() const;

  /// Requests best-effort cancellation; a no-op after completion.
  void Cancel() const { life()->RequestCancel(); }

  /// Live metrics snapshot.
  QueryMetrics metrics() const { return life()->metrics(); }

  /// Rows streamed so far (live progress).
  uint64_t rows_so_far() const { return life()->rows_streamed(); }

  const std::shared_ptr<QueryLifecycle>& lifecycle() const { return life_; }

 private:
  /// All observers route through here so an empty (default-constructed)
  /// ticket fails with a diagnostic instead of a null dereference.
  QueryLifecycle* life() const {
    SDW_CHECK_MSG(life_ != nullptr, "operation on an empty QueryTicket");
    return life_.get();
  }

  std::shared_ptr<QueryLifecycle> life_;
};

/// One query plus its own options — the element of a mixed batch.
struct SubmitRequest {
  query::StarQuery q;
  SubmitOptions opts;
};

/// Engine-side interface every execution backend implements.
class ExecutorClient {
 public:
  virtual ~ExecutorClient() = default;

  /// Submits one query (closed-loop clients).
  virtual QueryTicket Submit(const query::StarQuery& q,
                             const SubmitOptions& opts = SubmitOptions()) = 0;

  /// Submits a batch of concurrent queries ("arrive at the same time").
  virtual std::vector<QueryTicket> SubmitBatch(
      const std::vector<query::StarQuery>& queries,
      const SubmitOptions& opts = SubmitOptions()) = 0;

  /// Submits a batch where every query carries its own options — mixed
  /// priorities/deadlines inside one arrival ("at the same time") batch, so
  /// the scheduler's admission ordering and priority inheritance are
  /// exercised within a single admission pause.
  virtual std::vector<QueryTicket> SubmitRequests(
      const std::vector<SubmitRequest>& requests) = 0;

  /// Blocks until every submitted query is terminal.
  virtual void WaitAll() = 0;

  /// Zeroes backend-specific sharing/statistics counters (between runs).
  virtual void ResetCounters() {}
};

/// Waits on every ticket; returns the first non-OK status (or OK).
Status WaitAllTickets(const std::vector<QueryTicket>& tickets);

}  // namespace sdw::core

#endif  // SDW_CORE_QUERY_TICKET_H_
