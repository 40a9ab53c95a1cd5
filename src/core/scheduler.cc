#include "core/scheduler.h"

namespace sdw::core {

Scheduler::Scheduler(SchedulerOptions options) : options_(options) {}

void Scheduler::WatchDeadline(const std::shared_ptr<QueryLifecycle>& life) {
  if (life == nullptr || life->deadline_nanos() == 0) return;
  std::weak_ptr<QueryLifecycle> weak = life;
  const uint64_t id = timers_.Schedule(life->deadline_nanos(), [weak] {
    if (auto l = weak.lock()) {
      // First-wins with Finish: a query that completed in time ignores this.
      l->RequestCancel(
          Status::DeadlineExceeded("deadline fired by the timer queue"));
    }
  });
  // Disarm at completion: a query finishing ahead of its deadline must not
  // leave a stale timer queued (and firing a useless cancel) until the
  // deadline passes — deadline-heavy closed loops would otherwise
  // accumulate rate × deadline of them. The timer queue outlives every
  // watched lifecycle's terminal transition (engines WaitAll before tearing
  // down), and a post-fire Cancel is a harmless no-op.
  Scheduler* self = this;
  life->SetFinishHook([self, id] { self->timers_.Cancel(id); });
}

}  // namespace sdw::core
