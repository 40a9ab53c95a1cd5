// Deadline timers: prompt firing without polling.
//
// The seed enforced query deadlines only at admission and between result
// pages, so a drain blocked in Next() noticed an expired deadline only when
// a page happened to arrive. The timer queue closes that gap:
// core::Scheduler registers every deadline ticket here, and at expiry the
// timer thread fires RequestCancel(kDeadlineExceeded), which cancels the
// query's root reader and wakes the blocked drain — no page arrival, no
// polling loop.
//
// Structure: timers ordered by (deadline, id) in one map, and one thread
// that sleeps until the earliest deadline, fires everything due and sleeps
// again. A Schedule that moves the earliest deadline forward wakes it.
//
// Callbacks run on the timer thread, outside the timer lock. They must be
// brief and must not block on work that itself waits for timer callbacks
// (RequestCancel qualifies: it flips lifecycle state and cancels a reader).
// They may re-enter Schedule and Cancel.

#ifndef SDW_COMMON_TIMER_QUEUE_H_
#define SDW_COMMON_TIMER_QUEUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"

namespace sdw {

/// Deadline-ordered timer service with its own timer thread.
class TimerQueue {
 public:
  TimerQueue();
  ~TimerQueue();

  SDW_DISALLOW_COPY(TimerQueue);

  /// Schedules `fn` to fire at `deadline_nanos` (NowNanos() clock; a
  /// deadline in the past fires at once). Never fires early. Returns a
  /// handle for Cancel.
  uint64_t Schedule(int64_t deadline_nanos, std::function<void()> fn);

  /// Cancels a scheduled timer. Returns true when the timer was removed
  /// before firing; false once it was collected as due (or never existed).
  bool Cancel(uint64_t id);

  /// Timers scheduled and not yet fired/cancelled.
  size_t pending() const;

  /// Timers fired so far (diagnostics/tests).
  uint64_t fired() const;

  /// Timer-thread wakeups that evaluated the clock (diagnostics/tests). A
  /// queue holding one far-out timer sleeps straight to its deadline — a
  /// handful of wakeups, not one per millisecond; scheduler_test pins this.
  uint64_t wakeups() const;

 private:
  using Key = std::pair<int64_t, uint64_t>;  // (deadline_nanos, id)

  void Loop();

  // Ranked above the pipeline-level locks: lifecycle finish hooks cancel
  // deadline timers while a pipeline completion path holds its own mutex.
  mutable Mutex mu_{lock_rank::Rank::kTimerQueue};
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  uint64_t fired_ GUARDED_BY(mu_) = 0;
  uint64_t wakeups_ GUARDED_BY(mu_) = 0;
  std::map<Key, std::function<void()>> timers_ GUARDED_BY(mu_);
  /// id → deadline of every live timer: Cancel's route to its map key.
  std::unordered_map<uint64_t, int64_t> deadlines_ GUARDED_BY(mu_);

  std::thread thread_;
};

}  // namespace sdw

#endif  // SDW_COMMON_TIMER_QUEUE_H_
