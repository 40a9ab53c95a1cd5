// Stall watchdog: converts a silently wedged pipeline into explicit
// kDeadlineExceeded failures.
//
// A fault that only slows the storage layer down (a device latency spike, a
// retry storm) produces no error anywhere — queries just stop finishing. The
// watchdog probes a monotone progress counter on the scheduler's timer queue
// every check interval; when the pipeline reports work (busy) but the
// counter stays flat for the stall window, it fires the stall hook — in
// practice CjoinPipeline::CancelActiveQueries(kDeadlineExceeded), which
// unblocks every waiting client through the ordinary cancel machinery
// instead of leaving them hung.

#ifndef SDW_CORE_WATCHDOG_H_
#define SDW_CORE_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/macros.h"
#include "common/status.h"
#include "common/timer_queue.h"

namespace sdw::core {

/// Periodic liveness probe on a TimerQueue. Thread-safe; the probes and the
/// stall hook run on the queue's timer thread.
class StallWatchdog {
 public:
  struct Options {
    /// Probe period.
    int64_t check_interval_nanos = 50'000'000;  // 50 ms
    /// Busy time without progress before the stall hook fires.
    int64_t stall_nanos = 1'000'000'000;  // 1 s
  };

  /// `progress` returns a monotone counter; `busy` whether there is work the
  /// counter should be advancing on. `on_stall` fires (once per stall
  /// episode — the window re-arms after firing) with the kDeadlineExceeded
  /// status to fail the stalled work with. All three must stay valid until
  /// the watchdog is destroyed; the destructor guarantees no probe or hook
  /// runs after it returns, so destroy the watchdog BEFORE what they touch.
  StallWatchdog(TimerQueue* timers, Options options,
                std::function<uint64_t()> progress, std::function<bool()> busy,
                std::function<void(const Status&)> on_stall);
  ~StallWatchdog();

  SDW_DISALLOW_COPY(StallWatchdog);

  /// Stall episodes detected (diagnostics/tests).
  uint64_t stalls_fired() const;

 private:
  struct State;
  /// One probe: evaluates the stall condition, fires the hook if due, and
  /// re-schedules itself. Holds only a weak_ptr so a timer that outlives the
  /// watchdog degenerates to a no-op.
  static void Tick(const std::weak_ptr<State>& weak);

  std::shared_ptr<State> state_;
};

}  // namespace sdw::core

#endif  // SDW_CORE_WATCHDOG_H_
