#include "core/watchdog.h"

#include <string>

#include "common/mutex.h"
#include "common/timing.h"

namespace sdw::core {

struct StallWatchdog::State {
  TimerQueue* timers;
  Options options;
  std::function<uint64_t()> progress;
  std::function<bool()> busy;
  std::function<void(const Status&)> on_stall;

  // Everything below is guarded by mu. The probes and the stall hook are
  // invoked under it too: the destructor sets `stop` under the same lock, so
  // once it holds mu no callback can still be touching the probed objects —
  // that is the "nothing runs after ~StallWatchdog" guarantee.
  // Bottom of the lock hierarchy: ticks call progress()/busy()/on_stall()
  // and re-Schedule while holding mu, reaching pipeline and timer locks.
  Mutex mu{lock_rank::Rank::kWatchdog};
  bool stop GUARDED_BY(mu) = false;
  uint64_t timer_id GUARDED_BY(mu) = 0;
  uint64_t last_progress GUARDED_BY(mu) = 0;
  int64_t flat_since_nanos GUARDED_BY(mu) = 0;  // 0 = progressing (or idle)
  uint64_t stalls_fired GUARDED_BY(mu) = 0;
};

StallWatchdog::StallWatchdog(TimerQueue* timers, Options options,
                             std::function<uint64_t()> progress,
                             std::function<bool()> busy,
                             std::function<void(const Status&)> on_stall)
    : state_(std::make_shared<State>()) {
  SDW_CHECK(options.check_interval_nanos > 0 && options.stall_nanos > 0);
  state_->timers = timers;
  state_->options = options;
  state_->progress = std::move(progress);
  state_->busy = std::move(busy);
  state_->on_stall = std::move(on_stall);
  std::weak_ptr<State> weak = state_;
  MutexLock lock(state_->mu);
  state_->last_progress = state_->progress();
  state_->timer_id =
      timers->Schedule(NowNanos() + options.check_interval_nanos,
                       [weak] { Tick(weak); });
}

StallWatchdog::~StallWatchdog() {
  uint64_t id;
  {
    MutexLock lock(state_->mu);
    state_->stop = true;
    id = state_->timer_id;
  }
  state_->timers->Cancel(id);
  // A tick already collected as due may still run: it locks state->mu, sees
  // stop, and returns without touching the probes. The weak_ptr it captured
  // keeps State alive for exactly that check.
}

uint64_t StallWatchdog::stalls_fired() const {
  MutexLock lock(state_->mu);
  return state_->stalls_fired;
}

void StallWatchdog::Tick(const std::weak_ptr<State>& weak) {
  std::shared_ptr<State> s = weak.lock();
  if (s == nullptr) return;
  MutexLock lock(s->mu);
  if (s->stop) return;
  const int64_t now = NowNanos();
  const uint64_t p = s->progress();
  if (!s->busy() || p != s->last_progress) {
    s->last_progress = p;
    s->flat_since_nanos = 0;
  } else if (s->flat_since_nanos == 0) {
    s->flat_since_nanos = now;
  } else if (now - s->flat_since_nanos >= s->options.stall_nanos) {
    ++s->stalls_fired;
    const int64_t flat_ms = (now - s->flat_since_nanos) / 1'000'000;
    s->flat_since_nanos = 0;  // re-arm: one firing per stall episode
    s->on_stall(Status::DeadlineExceeded(
        "stall watchdog: pipeline busy with no progress for " +
        std::to_string(flat_ms) + " ms"));
  }
  s->timer_id = s->timers->Schedule(now + s->options.check_interval_nanos,
                                    [weak] { Tick(weak); });
}

}  // namespace sdw::core
