// Unit tests for the scheduling primitives behind core::Scheduler:
//  * PriorityRunQueue — priority ordering, FIFO stability within a level,
//    aging against starvation, dynamic (inheritance) providers, and the
//    FIFO degradation switch;
//  * ThreadPool on the priority run queue — capped pools pop by priority,
//    and boosting a queued task's dynamic priority reorders it (the
//    mechanism behind shared-packet priority inheritance);
//  * TimerQueue — expiry-latency bound, never-early firing, cancellation,
//    deadline order across far horizons, prompt firing after idle and after
//    an earlier deadline arrives, sleeping to the next due timer, re-entrant
//    callbacks, and a concurrent schedule/cancel/fire stress run (ASAN+TSAN
//    clean).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include <functional>

#include "common/macros.h"
#include "common/rng.h"
#include "common/run_queue.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer_queue.h"
#include "common/timing.h"
#include "core/scheduler.h"

using namespace sdw;

namespace {

// ------------------------------------------------------------ run queue

void TestRunQueuePriorityOrder() {
  RunQueueOptions opts;
  opts.aging_nanos = 0;  // pure priority for determinism
  PriorityRunQueue q(opts);
  std::vector<int> order;
  // Tags: (priority). Arrival: a(0), b(5), c(1), d(5), e(0).
  q.Push([&] { order.push_back(0); }, 0);
  q.Push([&] { order.push_back(1); }, 5);
  q.Push([&] { order.push_back(2); }, 1);
  q.Push([&] { order.push_back(3); }, 5);
  q.Push([&] { order.push_back(4); }, 0);
  while (!q.empty()) q.Pop()();
  // Priority 5 first (FIFO within the level: 1 before 3), then 1, then the
  // two zeros in arrival order.
  const std::vector<int> expected = {1, 3, 2, 0, 4};
  SDW_CHECK(order == expected);
}

void TestRunQueueFifoWhenDisabled() {
  RunQueueOptions opts;
  opts.priority_enabled = false;
  PriorityRunQueue q(opts);
  std::vector<int> order;
  q.Push([&] { order.push_back(0); }, 0);
  q.Push([&] { order.push_back(1); }, 100);
  q.Push([&] { order.push_back(2); }, 50);
  while (!q.empty()) q.Pop()();
  const std::vector<int> expected = {0, 1, 2};  // seed FIFO: arrival order
  SDW_CHECK(order == expected);
}

void TestRunQueueAgingPreventsStarvation() {
  RunQueueOptions opts;
  opts.aging_nanos = 1'000'000;  // +1 level per ms waited
  PriorityRunQueue q(opts);
  bool low_ran = false;
  q.Push([&] { low_ran = true; }, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // A fresh priority-5 task loses to the 10 ms-old priority-0 task: its
  // effective priority aged past 5.
  q.Push([] {}, 5);
  q.Pop()();
  SDW_CHECK_MSG(low_ran, "aged low-priority task did not pop first");

  // Starvation bound: keep feeding fresh priority-8 tasks; the priority-0
  // task must still pop within a bounded number of rounds because its age
  // boost grows without limit while every competitor starts fresh.
  PriorityRunQueue q2(opts);
  bool starved_ran = false;
  q2.Push([&] { starved_ran = true; }, 0);
  int rounds = 0;
  while (!starved_ran) {
    SDW_CHECK_MSG(++rounds < 1000, "low-priority task starved");
    q2.Push([] {}, 8);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    q2.Pop()();  // one competitor (or the starved task) runs per round
  }
  std::printf("  aging: starved task ran after %d rounds\n", rounds);
}

void TestRunQueueDynamicPriority() {
  RunQueueOptions opts;
  opts.aging_nanos = 0;
  PriorityRunQueue q(opts);
  std::vector<int> order;
  std::atomic<int> boost{0};
  // a: base 0 with a dynamic provider; b: fixed 3.
  q.Push([&] { order.push_back(0); }, 0, [&] { return boost.load(); });
  q.Push([&] { order.push_back(1); }, 3);
  // Boost AFTER both are queued — pop-time evaluation must see it.
  boost.store(9);
  q.Pop()();
  q.Pop()();
  const std::vector<int> expected = {0, 1};
  SDW_CHECK(order == expected);
}

// The seed's O(n) scan, kept verbatim as the ordering oracle for the
// bucketed Pop: over every queued entry, take max effective priority with
// ties broken by lowest index (earliest arrival).
struct RefQueue {
  struct Ref {
    int tag;
    int priority;
    std::function<int()> dynamic;
    int64_t enqueue_nanos;
  };
  const RunQueueOptions opts;
  std::vector<Ref> entries;

  explicit RefQueue(RunQueueOptions o) : opts(o) {}
  void Push(int tag, int priority, std::function<int()> dynamic) {
    entries.push_back({tag, priority, std::move(dynamic), NowNanos()});
  }
  int Pop() {
    SDW_CHECK(!entries.empty());
    if (!opts.priority_enabled) {
      const int tag = entries.front().tag;
      entries.erase(entries.begin());
      return tag;
    }
    const int64_t now = NowNanos();
    size_t best = 0;
    int64_t best_p = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      int64_t p = entries[i].priority;
      if (entries[i].dynamic) {
        const int64_t dyn = entries[i].dynamic();
        if (dyn > p) p = dyn;
      }
      if (opts.aging_nanos > 0) {
        p += (now - entries[i].enqueue_nanos) / opts.aging_nanos;
      }
      if (i == 0 || p > best_p) {
        best = i;
        best_p = p;
      }
    }
    const int tag = entries[best].tag;
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(best));
    return tag;
  }
};

void TestRunQueueEquivalentToSeedScan() {
  // Randomized push/pop interleave: the bucketed queue must pop the exact
  // sequence the seed's full scan pops. Aging is enabled but its horizon is
  // an hour, so the age contribution is deterministically zero levels and
  // both sides evaluate identical effective priorities; dynamic providers
  // read values mutated between operations (pop-time evaluation on both
  // sides sees the same snapshot).
  for (const bool priority_enabled : {true, false}) {
    RunQueueOptions opts;
    opts.priority_enabled = priority_enabled;
    opts.aging_nanos = 3'600'000'000'000;  // 1 h: enabled, zero levels here
    PriorityRunQueue q(opts);
    RefQueue ref(opts);
    Rng rng(priority_enabled ? 0xc4a05 : 0xf1f0);
    std::vector<int> dyn_values(512, 0);
    std::vector<int> popped;
    int next_tag = 0;
    for (int op = 0; op < 4000; ++op) {
      if (q.empty() || rng.Bernoulli(0.55)) {
        const int tag = next_tag++;
        const int priority = static_cast<int>(rng.Uniform(0, 4));
        std::function<int()> dynamic;
        if (rng.Bernoulli(0.3)) {
          dyn_values[static_cast<size_t>(tag) % dyn_values.size()] =
              static_cast<int>(rng.Uniform(0, 8));
          dynamic = [&dyn_values, tag] {
            return dyn_values[static_cast<size_t>(tag) % dyn_values.size()];
          };
        }
        q.Push([&popped, tag] { popped.push_back(tag); }, priority, dynamic);
        ref.Push(tag, priority, dynamic);
      } else {
        if (rng.Bernoulli(0.1)) {
          // Mutate a provider's value between operations.
          dyn_values[rng.Index(dyn_values.size())] =
              static_cast<int>(rng.Uniform(0, 8));
        }
        q.Pop()();
        const int want = ref.Pop();
        SDW_CHECK_MSG(popped.back() == want,
                      "op %d (priority_enabled=%d): bucketed queue popped "
                      "%d, seed scan popped %d",
                      op, priority_enabled ? 1 : 0, popped.back(), want);
      }
      SDW_CHECK(q.size() == ref.entries.size());
    }
    while (!q.empty()) {
      q.Pop()();
      const int want = ref.Pop();
      SDW_CHECK_MSG(popped.back() == want, "drain: popped %d, want %d",
                    popped.back(), want);
    }
  }
}

// ----------------------------------------------------------- thread pool

/// A gate that holds the pool's only worker busy until released.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    {
      std::unique_lock<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

void TestThreadPoolPriorityPop() {
  ThreadPoolOptions opts;
  opts.max_threads = 1;
  opts.run_queue.aging_nanos = 0;
  ThreadPool pool("sched-test", opts);
  Gate gate;
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::unique_lock<std::mutex> lock(mu);
    order.push_back(tag);
  };
  std::atomic<bool> blocker_running{false};
  pool.Submit([&] {  // occupies the only worker
    blocker_running.store(true);
    gate.Wait();
  });
  while (!blocker_running.load()) std::this_thread::yield();
  pool.Submit([&] { record(0); }, 0);
  pool.Submit([&] { record(1); }, 7);
  pool.Submit([&] { record(2); }, 3);
  gate.Open();
  pool.WaitIdle();
  const std::vector<int> expected = {1, 2, 0};
  SDW_CHECK(order == expected);
  SDW_CHECK(pool.num_threads() == 1);
}

void TestThreadPoolDynamicBoostReorders() {
  // The priority-inheritance mechanism at pool level: a queued task whose
  // dynamic priority rises (a satellite attached to its host) must pop
  // ahead of a task that outranked it at submit time.
  ThreadPoolOptions opts;
  opts.max_threads = 1;
  opts.run_queue.aging_nanos = 0;
  ThreadPool pool("boost-test", opts);
  Gate gate;
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::unique_lock<std::mutex> lock(mu);
    order.push_back(tag);
  };
  std::atomic<int> host_priority{0};
  std::atomic<bool> blocker_running{false};
  pool.Submit([&] {
    blocker_running.store(true);
    gate.Wait();
  });
  while (!blocker_running.load()) std::this_thread::yield();
  pool.Submit([&] { record(0); }, 0, [&] { return host_priority.load(); });
  pool.Submit([&] { record(1); }, 5);
  host_priority.store(9);  // "high-priority satellite attaches"
  gate.Open();
  pool.WaitIdle();
  const std::vector<int> expected = {0, 1};
  SDW_CHECK(order == expected);
}

// ----------------------------------------------------------- timer queue

void TestTimerExpiryLatencyBound() {
  TimerQueue timers;
  constexpr int kTimers = 64;
  std::vector<std::atomic<int64_t>> fired_at(kTimers);
  for (auto& f : fired_at) f.store(0);
  std::vector<int64_t> deadlines(kTimers);
  const int64_t base = NowNanos();
  for (int i = 0; i < kTimers; ++i) {
    // Deadlines spread over 5..69 ms out.
    deadlines[i] = base + (5 + i) * 1'000'000;
    timers.Schedule(deadlines[i],
                    [&fired_at, i] { fired_at[i].store(NowNanos()); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  SDW_CHECK(timers.pending() == 0);
  Stats lat_ms_stats;
  for (int i = 0; i < kTimers; ++i) {
    const int64_t at = fired_at[i].load();
    SDW_CHECK_MSG(at != 0, "timer %d never fired", i);
    // Never early.
    SDW_CHECK_MSG(at >= deadlines[i], "timer %d fired %.3f ms early", i,
                  static_cast<double>(deadlines[i] - at) * 1e-6);
    lat_ms_stats.Add(static_cast<double>(at - deadlines[i]) * 1e-6);
  }
  // The thread wakes at each deadline; the median bound keeps the assertion
  // robust against CI scheduling noise, and the max bound catches a queue
  // that degraded to coarse polling.
  std::printf("  timer expiry latency: median %.3f ms, max %.3f ms\n",
              lat_ms_stats.Percentile(50), lat_ms_stats.Max());
  SDW_CHECK_MSG(lat_ms_stats.Percentile(50) <= 5.0,
                "median expiry latency %.3f ms exceeds 5 ms",
                lat_ms_stats.Percentile(50));
  SDW_CHECK_MSG(lat_ms_stats.Max() <= 60.0,
                "max expiry latency %.3f ms looks like polling",
                lat_ms_stats.Max());
}

void TestTimerCancel() {
  TimerQueue timers;
  std::atomic<bool> fired{false};
  const uint64_t id =
      timers.Schedule(NowNanos() + 20'000'000, [&] { fired.store(true); });
  SDW_CHECK(timers.Cancel(id));
  SDW_CHECK(!timers.Cancel(id));  // second cancel: already gone
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  SDW_CHECK(!fired.load());
  SDW_CHECK(timers.pending() == 0);

  // A timer collected as due can no longer be cancelled.
  std::atomic<bool> ran{false};
  const uint64_t past = timers.Schedule(NowNanos(), [&] { ran.store(true); });
  while (!ran.load()) std::this_thread::yield();
  SDW_CHECK(!timers.Cancel(past));
  SDW_CHECK(timers.fired() == 1);
}

void TestTimerOrderAcrossFarHorizons() {
  // Deadlines 0.6 ms, 20 ms and 820 ms out must fire in deadline order,
  // never early.
  TimerQueue timers;
  std::mutex mu;
  std::vector<int> order;
  const int64_t base = NowNanos();
  struct Probe {
    int tag;
    int64_t nanos_out;
  };
  const std::vector<Probe> probes = {
      {0, 600'000}, {1, 20'000'000}, {2, 820'000'000}};
  // Scheduled far-first so each later Schedule moves the earliest deadline.
  for (auto it = probes.rbegin(); it != probes.rend(); ++it) {
    const Probe p = *it;
    const int64_t deadline = base + p.nanos_out;
    timers.Schedule(deadline, [&mu, &order, p, deadline] {
      SDW_CHECK_MSG(NowNanos() >= deadline, "timer %d fired early", p.tag);
      std::unique_lock<std::mutex> lock(mu);
      order.push_back(p.tag);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  std::unique_lock<std::mutex> lock(mu);
  const std::vector<int> expected = {0, 1, 2};
  SDW_CHECK_MSG(order == expected, "far-horizon firing order wrong (%zu fired)",
                order.size());
}

void TestTimerPromptAfterIdle() {
  // After sitting idle with nothing scheduled, a freshly scheduled short
  // deadline must still fire promptly.
  TimerQueue timers;
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  std::atomic<int64_t> fired_at{0};
  const int64_t deadline = NowNanos() + 10'000'000;  // 10 ms
  timers.Schedule(deadline, [&] { fired_at.store(NowNanos()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SDW_CHECK_MSG(fired_at.load() != 0, "timer after idle gap never fired");
  SDW_CHECK(fired_at.load() >= deadline);
  SDW_CHECK_MSG((fired_at.load() - deadline) < 50'000'000,
                "post-idle fire %.1f ms late",
                static_cast<double>(fired_at.load() - deadline) * 1e-6);
}

void TestTimerEarlierDeadlineWakesSleeper() {
  // The thread sleeps until a 1 s deadline; a 10 ms timer scheduled after
  // it must cut that sleep short and fire on time, not at the 1 s wakeup.
  TimerQueue timers;
  std::atomic<int64_t> far_fired_at{0};
  const uint64_t far = timers.Schedule(NowNanos() + 1'000'000'000,
                                       [&] { far_fired_at.store(NowNanos()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it sleep
  std::atomic<int64_t> fired_at{0};
  const int64_t deadline = NowNanos() + 10'000'000;  // 10 ms
  timers.Schedule(deadline, [&] { fired_at.store(NowNanos()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SDW_CHECK_MSG(fired_at.load() != 0,
                "10 ms timer did not fire while the thread slept on 1 s");
  SDW_CHECK(fired_at.load() >= deadline);  // never early
  SDW_CHECK_MSG((fired_at.load() - deadline) < 50'000'000,
                "10 ms timer fired %.1f ms late behind a 1 s timer",
                static_cast<double>(fired_at.load() - deadline) * 1e-6);
  SDW_CHECK(far_fired_at.load() == 0);
  SDW_CHECK(timers.Cancel(far));
}

void TestTimerIdleSleepsToNextDue() {
  // With one timer 300 ms out, the loop must sleep to its deadline instead
  // of waking every millisecond: ~300 wakeups would mean it regressed to
  // polling.
  TimerQueue timers;
  std::atomic<int64_t> fired_at{0};
  const int64_t deadline = NowNanos() + 300'000'000;
  timers.Schedule(deadline, [&] { fired_at.store(NowNanos()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  SDW_CHECK_MSG(fired_at.load() != 0, "far-out timer never fired");
  SDW_CHECK(fired_at.load() >= deadline);  // never early
  const uint64_t wakeups = timers.wakeups();
  std::printf("  timer wakeups while waiting 300 ms for one timer: %llu\n",
              static_cast<unsigned long long>(wakeups));
  SDW_CHECK_MSG(wakeups <= 50,
                "%llu wakeups for a single 300 ms timer — the idle queue is "
                "polling instead of sleeping to the next deadline",
                static_cast<unsigned long long>(wakeups));
}

void TestTimerReentrantCallbacks() {
  // A callback may Schedule and Cancel on its own queue (the stall watchdog
  // re-arms itself from its probe): a chain of three re-arms fires in turn,
  // and a timer cancelled from inside a callback never fires.
  TimerQueue timers;
  std::atomic<int> chain{0};
  std::atomic<bool> victim_fired{false};
  const uint64_t victim = timers.Schedule(NowNanos() + 10'000'000'000,
                                          [&] { victim_fired.store(true); });
  std::function<void()> step = [&] {
    if (chain.fetch_add(1) == 0) SDW_CHECK(timers.Cancel(victim));
    if (chain.load() < 3) timers.Schedule(NowNanos() + 1'000'000, step);
  };
  timers.Schedule(NowNanos() + 1'000'000, step);
  const int64_t give_up = NowNanos() + 5'000'000'000;
  while (chain.load() < 3 && NowNanos() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SDW_CHECK_MSG(chain.load() == 3, "re-armed chain fired %d of 3 times",
                chain.load());
  SDW_CHECK(!victim_fired.load());
  SDW_CHECK(timers.pending() == 0);
}

void TestTimerConcurrentStress() {
  TimerQueue timers;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<uint64_t> fired{0};
  std::atomic<uint64_t> cancelled{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint64_t> ids;
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t deadline =
            NowNanos() + ((t + i) % 40) * 1'000'000;  // 0..39 ms out
        ids.push_back(timers.Schedule(
            deadline, [&] { fired.fetch_add(1, std::memory_order_relaxed); }));
        if (i % 3 == 0) {
          // Cancel a recent timer; it may already have fired (races are the
          // point — the queue must stay consistent either way).
          if (timers.Cancel(ids[static_cast<size_t>(i) / 2])) {
            cancelled.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SDW_CHECK(timers.pending() == 0);
  SDW_CHECK_MSG(fired.load() + cancelled.load() == kThreads * kPerThread,
                "fired %llu + cancelled %llu != scheduled %d",
                static_cast<unsigned long long>(fired.load()),
                static_cast<unsigned long long>(cancelled.load()),
                kThreads * kPerThread);
  SDW_CHECK(timers.fired() == fired.load());
}

// ------------------------------------------------------------- scheduler

void TestSchedulerWatchDeadline() {
  core::Scheduler sched;
  // A watched deadline completes a lifecycle's pending cancel state.
  core::SubmitOptions soon;
  soon.deadline_nanos = NowNanos() + 10'000'000;
  auto life = std::make_shared<core::QueryLifecycle>(1, soon);
  sched.WatchDeadline(life);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  SDW_CHECK(life->cancel_requested());
  Status why;
  SDW_CHECK(life->ShouldStop(&why));
  SDW_CHECK(why.code() == StatusCode::kDeadlineExceeded);

  // A query that finishes first must NOT be disturbed — and its deadline
  // timer is disarmed at Finish instead of lingering until the deadline.
  core::SubmitOptions later;
  later.deadline_nanos = NowNanos() + 10'000'000'000;
  auto done = std::make_shared<core::QueryLifecycle>(2, later);
  sched.WatchDeadline(done);
  SDW_CHECK(sched.timers().pending() == 1);
  done->Finish(Status::Ok());
  SDW_CHECK_MSG(sched.timers().pending() == 0,
                "finish did not cancel the deadline timer");
  SDW_CHECK(done->status().ok());

  // No deadline → nothing armed.
  auto plain = std::make_shared<core::QueryLifecycle>(3, core::SubmitOptions{});
  sched.WatchDeadline(plain);
  SDW_CHECK(sched.timers().pending() == 0);
}

}  // namespace

int main() {
  std::printf("run queue: priority order\n");
  TestRunQueuePriorityOrder();
  std::printf("run queue: FIFO when disabled\n");
  TestRunQueueFifoWhenDisabled();
  std::printf("run queue: aging prevents starvation\n");
  TestRunQueueAgingPreventsStarvation();
  std::printf("run queue: dynamic priority\n");
  TestRunQueueDynamicPriority();
  std::printf("run queue: bucketed pop ≡ seed scan\n");
  TestRunQueueEquivalentToSeedScan();
  std::printf("thread pool: priority pop\n");
  TestThreadPoolPriorityPop();
  std::printf("thread pool: dynamic boost reorders\n");
  TestThreadPoolDynamicBoostReorders();
  std::printf("timer queue: expiry latency bound\n");
  TestTimerExpiryLatencyBound();
  std::printf("timer queue: cancel\n");
  TestTimerCancel();
  std::printf("timer queue: order across far horizons\n");
  TestTimerOrderAcrossFarHorizons();
  std::printf("timer queue: prompt after idle\n");
  TestTimerPromptAfterIdle();
  std::printf("timer queue: earlier deadline wakes the sleeping thread\n");
  TestTimerEarlierDeadlineWakesSleeper();
  std::printf("timer queue: idle sleeps to next due timer\n");
  TestTimerIdleSleepsToNextDue();
  std::printf("timer queue: re-entrant callbacks\n");
  TestTimerReentrantCallbacks();
  std::printf("timer queue: concurrent stress\n");
  TestTimerConcurrentStress();
  std::printf("scheduler: watch deadline\n");
  TestSchedulerWatchDeadline();
  std::printf("OK\n");
  return 0;
}
