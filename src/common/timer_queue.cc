#include "common/timer_queue.h"

#include <vector>

#include "common/timing.h"

namespace sdw {

TimerQueue::TimerQueue() : thread_([this] { Loop(); }) {}

TimerQueue::~TimerQueue() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
}

uint64_t TimerQueue::Schedule(int64_t deadline_nanos,
                              std::function<void()> fn) {
  uint64_t id;
  bool earliest;
  {
    MutexLock lock(mu_);
    id = next_id_++;
    auto it = timers_.emplace(Key{deadline_nanos, id}, std::move(fn)).first;
    deadlines_.emplace(id, deadline_nanos);
    // The thread sleeps until the first deadline (or idles on an empty
    // map), so only a new first entry changes when it must wake.
    earliest = it == timers_.begin();
  }
  if (earliest) cv_.NotifyOne();
  return id;
}

bool TimerQueue::Cancel(uint64_t id) {
  MutexLock lock(mu_);
  auto it = deadlines_.find(id);
  if (it == deadlines_.end()) return false;
  timers_.erase(Key{it->second, id});
  deadlines_.erase(it);
  return true;
}

size_t TimerQueue::pending() const {
  MutexLock lock(mu_);
  return timers_.size();
}

uint64_t TimerQueue::fired() const {
  MutexLock lock(mu_);
  return fired_;
}

uint64_t TimerQueue::wakeups() const {
  MutexLock lock(mu_);
  return wakeups_;
}

void TimerQueue::Loop() {
  MutexLock lock(mu_);
  while (!stop_) {
    if (timers_.empty()) {
      cv_.Wait(mu_);
      continue;
    }
    ++wakeups_;
    const int64_t now = NowNanos();
    const int64_t first = timers_.begin()->first.first;
    if (first > now) {
      // A stale or spurious wakeup merely re-loops and re-plans.
      cv_.WaitFor(mu_, first - now);
      continue;
    }
    std::vector<std::function<void()>> due;
    for (auto it = timers_.begin();
         it != timers_.end() && it->first.first <= now;) {
      deadlines_.erase(it->first.second);
      due.push_back(std::move(it->second));
      it = timers_.erase(it);
    }
    fired_ += due.size();
    // Fire outside the lock: callbacks take lifecycle/channel locks
    // (RequestCancel → CancelReader) and may re-enter Schedule.
    lock.Unlock();
    for (auto& fn : due) fn();
    due.clear();  // captures are destroyed outside the lock too
    lock.Lock();
  }
}

}  // namespace sdw
