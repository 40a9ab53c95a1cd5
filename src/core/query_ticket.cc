#include "core/query_ticket.h"

#include <chrono>

#include "common/timing.h"

namespace sdw::core {

Status QueryLifecycle::Wait() const {
  MutexLock lock(mu_);
  while (!done_.load(std::memory_order_acquire)) cv_.Wait(mu_);
  return final_status_;
}

bool QueryLifecycle::WaitFor(int64_t timeout_nanos) const {
  MutexLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout_nanos);
  while (!done_.load(std::memory_order_acquire)) {
    if (!cv_.WaitUntil(mu_, deadline)) {
      return done_.load(std::memory_order_acquire);
    }
  }
  return true;
}

Status QueryLifecycle::status() const {
  MutexLock lock(mu_);
  if (!done_.load(std::memory_order_acquire)) return Status::Ok();
  return final_status_;
}

void QueryLifecycle::RequestCancel(Status reason) {
  std::function<void()> cb;
  {
    MutexLock lock(mu_);
    if (!cancel_.load(std::memory_order_relaxed)) {
      cancel_reason_ = std::move(reason);
      cancel_.store(true, std::memory_order_release);
    }
    cb = cancel_cb_;  // fire outside mu_: the hook takes transport locks
  }
  if (cb) cb();
}

bool QueryLifecycle::Finish(Status final_status) {
  std::function<void()> dropped;
  std::function<void()> finish_hook;
  {
    MutexLock lock(mu_);
    if (done_.load(std::memory_order_relaxed)) return false;
    final_status_ = std::move(final_status);
    metrics_.finish_nanos = NowNanos();
    dropped = std::move(cancel_cb_);  // release the hook's resources
    cancel_cb_ = nullptr;
    finish_hook = std::move(finish_hook_);
    finish_hook_ = nullptr;
    done_.store(true, std::memory_order_release);
  }
  cv_.NotifyAll();
  if (finish_hook) finish_hook();  // outside mu_: takes the timer lock
  return true;
}

void QueryLifecycle::SetFinishHook(std::function<void()> hook) {
  bool fire_now = false;
  {
    MutexLock lock(mu_);
    if (done_.load(std::memory_order_relaxed)) {
      fire_now = true;
    } else {
      finish_hook_ = std::move(hook);
    }
  }
  if (fire_now && hook) hook();
}

void QueryLifecycle::SetCancelCallback(std::function<void()> cb) {
  bool fire_now = false;
  {
    MutexLock lock(mu_);
    if (done_.load(std::memory_order_relaxed)) return;
    if (cancel_.load(std::memory_order_relaxed)) {
      fire_now = true;
    } else {
      cancel_cb_ = std::move(cb);
    }
  }
  if (fire_now && cb) cb();
}

bool QueryLifecycle::ShouldStop(Status* why) const {
  if (cancel_requested()) {
    *why = cancel_status();
    return true;
  }
  if (options_.deadline_nanos != 0 && NowNanos() > options_.deadline_nanos) {
    *why = Status::DeadlineExceeded("deadline expired while draining results");
    return true;
  }
  return false;
}

Status QueryLifecycle::cancel_status() const {
  MutexLock lock(mu_);
  if (cancel_.load(std::memory_order_relaxed)) return cancel_reason_;
  return Status::Cancelled("query detached");
}

void QueryLifecycle::MarkRunStart() {
  int64_t expected = 0;
  run_start_.compare_exchange_strong(expected, NowNanos(),
                                     std::memory_order_relaxed);
}

QueryMetrics QueryLifecycle::metrics() const {
  QueryMetrics m;
  {
    MutexLock lock(mu_);
    m = metrics_;
  }
  m.run_start_nanos = run_start_.load(std::memory_order_relaxed);
  m.pages_read = pages_.load(std::memory_order_relaxed);
  m.rows = rows_.load(std::memory_order_relaxed);
  m.fully_shared = fully_shared_.load(std::memory_order_relaxed);
  m.admission_epoch = admission_epoch_.load(std::memory_order_relaxed);
  return m;
}

Result<const query::ResultSet*> QueryTicket::TryResult() const {
  if (!life()->done()) {
    return Status::FailedPrecondition("query still running");
  }
  const Status s = life()->status();
  if (!s.ok()) return s;
  return static_cast<const query::ResultSet*>(&life()->result());
}

const query::ResultSet& QueryTicket::result() const {
  const auto r = TryResult();
  SDW_CHECK_MSG(r.ok(), "QueryTicket::result on %s",
                r.status().ToString().c_str());
  return *r.value();
}

Status WaitAllTickets(const std::vector<QueryTicket>& tickets) {
  Status first = Status::Ok();
  for (const auto& t : tickets) {
    const Status s = t.Wait();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

}  // namespace sdw::core
