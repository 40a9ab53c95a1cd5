// The unified scheduling subsystem: one place that decides *which* pending
// query gets admitted and *which* queued task runs next, everywhere work
// queues up in the system.
//
// When operators are shared across concurrent queries (the paper's premise),
// scheduling one piece of work schedules many queries at once, so the same
// policy must act consistently at every queue or a single FIFO hop ruins the
// priority a client asked for. The Scheduler threads one policy through:
//
//   * ThreadPool run queues (common/run_queue.h) — QPipe stage dispatch and
//     result-sink drains pop by effective priority, with FIFO fairness
//     within a level and aging against starvation;
//   * shared-packet priority inheritance — a host packet's queue entry
//     re-evaluates the max priority of its attached consumers (SpRegistry)
//     at pop time, so a satellite attaching at high priority boosts the
//     host it shares;
//   * CJOIN admission — the pending queue is ordered by (priority, arrival)
//     at every admission pause, so scarce query slots go to the highest
//     bidder instead of the longest waiter;
//   * deadlines — every deadline ticket is registered with the timer queue
//     (common/timer_queue.h), whose thread sleeps until the earliest
//     deadline and fires RequestCancel(kDeadlineExceeded) at expiry: a drain
//     blocked in Next() is unblocked through the cancel hook instead of
//     waiting for a page that may never come.
//
// One Scheduler is owned per core::Engine (tests may share one across
// engines); `priority_enabled = false` degrades every queue to the seed's
// FIFO, which is the bench baseline for bench/fig_priority_mix.

#ifndef SDW_CORE_SCHEDULER_H_
#define SDW_CORE_SCHEDULER_H_

#include <memory>

#include "common/macros.h"
#include "common/run_queue.h"
#include "common/timer_queue.h"
#include "core/query_ticket.h"

namespace sdw::core {

/// Policy knobs for one Scheduler instance.
struct SchedulerOptions {
  /// Master switch: false = seed FIFO ordering everywhere (deadline firing
  /// stays on — FIFO vs. priority is a policy choice, a hung deadline is a
  /// bug).
  bool priority_enabled = true;
};

/// Per-engine scheduling service (see file comment). Thread-safe.
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = SchedulerOptions());

  SDW_DISALLOW_COPY(Scheduler);

  const SchedulerOptions& options() const { return options_; }

  /// Ordering policy handed to every run queue this scheduler governs
  /// (aging keeps RunQueueOptions' default).
  RunQueueOptions run_queue_options() const {
    return RunQueueOptions{.priority_enabled = options_.priority_enabled};
  }

  /// The deadline service.
  TimerQueue& timers() { return timers_; }

  /// Arms a timer to fire RequestCancel(kDeadlineExceeded) at the query's
  /// deadline. A no-op for queries without one. The watch holds only a
  /// weak_ptr; a query that finishes first makes the expiry a no-op
  /// (RequestCancel after Finish does nothing).
  void WatchDeadline(const std::shared_ptr<QueryLifecycle>& life);

  /// The submit-time priority of a query (0 for untracked work).
  static int PriorityOf(const QueryLifecycle* life) {
    return life != nullptr ? life->options().priority : 0;
  }

 private:
  const SchedulerOptions options_;
  TimerQueue timers_;
};

}  // namespace sdw::core

#endif  // SDW_CORE_SCHEDULER_H_
