// Stress and semantics tests for the BatchQueue ring:
//  * capacity is the configured value (at least 1), not rounded up,
//  * multi-producer / multi-consumer delivery with no loss or duplication,
//  * FIFO order per producer stream under a single consumer,
//  * Put-after-Close reports the drop (returns false),
//  * Take drains enqueued batches after Close, then returns nullptr,
//  * drop reports after a mid-stream Close rebalance pipeline-style
//    in-flight accounting exactly (delivered + dropped == produced),
//  * the precise notify protocol holds quiescent waiters asleep: zero
//    futile wakeups while the queue is idle (no timed-wait backstop).

#include "cjoin/tuple_batch.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/macros.h"

using namespace sdw;
using cjoin::BatchPool;
using cjoin::BatchPtr;
using cjoin::BatchQueue;
using cjoin::TupleBatch;

static BatchPtr MakeBatch(uint64_t id) {
  auto b = std::make_shared<TupleBatch>();
  b->page_index = id;
  return b;
}

static void TestSingleThreadFifo() {
  BatchQueue q(4);
  for (uint64_t i = 0; i < 4; ++i) SDW_CHECK(q.Put(MakeBatch(i)));
  for (uint64_t i = 0; i < 4; ++i) {
    BatchPtr b = q.Take();
    SDW_CHECK(b != nullptr && b->page_index == i);
  }
}

static void TestCapacityAsConfigured() {
  SDW_CHECK(BatchQueue(0).capacity() == 1);
  SDW_CHECK(BatchQueue(3).capacity() == 3);
  // A capacity-1 queue holds exactly one batch: the second Put blocks until
  // a Take frees the slot.
  BatchQueue q(1);
  SDW_CHECK(q.Put(MakeBatch(0)));
  std::atomic<bool> second_done{false};
  std::thread producer([&] {
    SDW_CHECK(q.Put(MakeBatch(1)));
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  SDW_CHECK(!second_done.load());
  SDW_CHECK(q.Take()->page_index == 0);
  producer.join();
  SDW_CHECK(q.Take()->page_index == 1);
}

static void TestPutAfterCloseReportsDrop() {
  BatchQueue q(4);
  SDW_CHECK(q.Put(MakeBatch(1)));
  q.Close();
  // The drop must be visible to the caller so in-flight accounting can be
  // rebalanced (the seed silently swallowed the batch).
  SDW_CHECK(!q.Put(MakeBatch(2)));
  // Close still drains what was enqueued before it.
  BatchPtr b = q.Take();
  SDW_CHECK(b != nullptr && b->page_index == 1);
  SDW_CHECK(q.Take() == nullptr);
  SDW_CHECK(q.Take() == nullptr);  // idempotent after drain
}

static void TestBlockedPutWakesOnClose() {
  BatchQueue q(2);
  SDW_CHECK(q.Put(MakeBatch(0)));
  SDW_CHECK(q.Put(MakeBatch(1)));
  std::atomic<int> result{-1};
  std::thread blocked([&] {
    // Queue is full: this blocks until Close, then must report the drop.
    result.store(q.Put(MakeBatch(2)) ? 1 : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  SDW_CHECK(result.load() == -1);  // still blocked
  q.Close();
  blocked.join();
  SDW_CHECK(result.load() == 0);
}

static void TestMpmcStress() {
  constexpr size_t kProducers = 4;
  constexpr size_t kConsumers = 4;
  constexpr uint64_t kPerProducer = 20000;
  BatchQueue q(8);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        SDW_CHECK(q.Put(MakeBatch(p * kPerProducer + i)));
      }
    });
  }

  std::vector<std::vector<uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &received, c] {
      while (BatchPtr b = q.Take()) received[c].push_back(b->page_index);
    });
  }

  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  // Every id delivered exactly once.
  std::vector<uint64_t> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  SDW_CHECK_MSG(all.size() == kProducers * kPerProducer,
                "delivered %zu of %llu batches", all.size(),
                static_cast<unsigned long long>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  for (uint64_t i = 0; i < all.size(); ++i) SDW_CHECK(all[i] == i);
}

static void TestPostCloseDropRebalance() {
  // Mirrors CjoinPipeline's in-flight accounting around Put's drop report
  // (ForgetDroppedBatch): every Put is preceded by an in-flight increment; a
  // drop (Put returning false after Close) must rebalance it, and consumers
  // decrement per delivered batch. After a mid-stream Close with producers
  // still blocked on a full ring, the counter must return to zero and every
  // batch must be either delivered or reported dropped — none silently
  // swallowed.
  constexpr size_t kProducers = 3;
  constexpr uint64_t kPerProducer = 200;
  BatchQueue q(4);
  std::atomic<int> in_flight{0};
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> dropped{0};

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &in_flight, &dropped, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        in_flight.fetch_add(1);
        if (!q.Put(MakeBatch(p * kPerProducer + i))) {
          dropped.fetch_add(1);
          in_flight.fetch_sub(1);  // the pipeline's rebalance step
        }
      }
    });
  }
  // A deliberately slow consumer keeps the ring full so Close lands while
  // producers are blocked in Put (the blocked-Put drop path) and while many
  // batches are still unsubmitted (the fast post-Close drop path).
  std::thread consumer([&q, &in_flight, &delivered] {
    while (BatchPtr b = q.Take()) {
      delivered.fetch_add(1);
      in_flight.fetch_sub(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  for (auto& t : producers) t.join();
  consumer.join();

  SDW_CHECK_MSG(in_flight.load() == 0,
                "in-flight accounting leaked %d after drop rebalance",
                in_flight.load());
  SDW_CHECK_MSG(delivered.load() + dropped.load() == kProducers * kPerProducer,
                "delivered %llu + dropped %llu != produced %llu",
                static_cast<unsigned long long>(delivered.load()),
                static_cast<unsigned long long>(dropped.load()),
                static_cast<unsigned long long>(kProducers * kPerProducer));
  // The Close raced a saturated pipeline: both outcomes must have occurred.
  SDW_CHECK(delivered.load() > 0);
  SDW_CHECK(dropped.load() > 0);
}

static void TestQuiescentWaitersNeverWakeSpuriously() {
  // The precise-notify protocol (no timed-wait backstop): waiters parked on
  // a quiescent queue must sleep indefinitely — zero futile wakeups — until
  // real traffic or Close arrives. With the old 1 ms timed-wait backstop
  // these windows would observe hundreds of timeout wakeups.

  {  // Consumers parked on an empty queue.
    BatchQueue q(2);
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c) {
      consumers.emplace_back([&q] { SDW_CHECK(q.Take() == nullptr); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const uint64_t futile = q.futile_wakeups();
    SDW_CHECK_MSG(futile == 0,
                  "empty quiescent queue: %llu futile wakeups (want 0)",
                  static_cast<unsigned long long>(futile));
    q.Close();
    for (auto& t : consumers) t.join();
  }

  {  // Producers parked on a full ring.
    BatchQueue q(2);
    SDW_CHECK(q.Put(MakeBatch(0)));
    SDW_CHECK(q.Put(MakeBatch(1)));
    std::thread p1([&q] { SDW_CHECK(!q.Put(MakeBatch(2))); });
    std::thread p2([&q] { SDW_CHECK(!q.Put(MakeBatch(3))); });
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const uint64_t futile = q.futile_wakeups();
    SDW_CHECK_MSG(futile == 0,
                  "full quiescent queue: %llu futile wakeups (want 0)",
                  static_cast<unsigned long long>(futile));
    q.Close();  // blocked Puts report their drop
    p1.join();
    p2.join();
    SDW_CHECK(q.Take() != nullptr);
    SDW_CHECK(q.Take() != nullptr);
    SDW_CHECK(q.Take() == nullptr);
  }
}

static void TestBatchPoolRecycling() {
  BatchPool pool(2);
  SDW_CHECK(pool.misses() == 0 && pool.hits() == 0);
  BatchPtr a = pool.Acquire();
  BatchPtr b = pool.Acquire();
  SDW_CHECK(pool.misses() == 2);
  TupleBatch* a_raw = a.get();
  a->bits.resize(512);
  pool.Release(std::move(a));
  BatchPtr a2 = pool.Acquire();
  SDW_CHECK(pool.hits() == 1);
  SDW_CHECK(a2.get() == a_raw);            // same object recycled...
  SDW_CHECK(a2->bits.capacity() >= 512);   // ...with its capacity intact
  // A still-referenced batch must not be recycled.
  BatchPtr alias = b;
  pool.Release(std::move(b));
  SDW_CHECK(pool.Acquire().get() != alias.get());
}

int main() {
  TestSingleThreadFifo();
  TestCapacityAsConfigured();
  TestPutAfterCloseReportsDrop();
  TestBlockedPutWakesOnClose();
  TestMpmcStress();
  TestPostCloseDropRebalance();
  TestQuiescentWaitersNeverWakeSpuriously();
  TestBatchPoolRecycling();
  std::printf("batch_queue_stress_test: OK\n");
  return 0;
}
