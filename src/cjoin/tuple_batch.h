// Annotated fact-tuple batches flowing through the CJOIN pipeline, the
// bounded MPMC queue connecting the preprocessor, filter workers and
// distributor parts (paper §2.5, Figure 4), and the batch recycling pool
// that makes the steady-state pipeline allocation-free.

#ifndef SDW_CJOIN_TUPLE_BATCH_H_
#define SDW_CJOIN_TUPLE_BATCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitmap.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "core/page_channel.h"
#include "storage/page.h"

namespace sdw::cjoin {

/// Row index placeholder for "no joined dimension tuple".
inline constexpr uint32_t kNoDimRow = ~uint32_t{0};

/// One fact page's tuples annotated with per-tuple query bitmaps and the
/// joined dimension row ids accumulated as the batch passes the filters.
struct TupleBatch {
  storage::PagePtr fact_page;  // keeps the tuples alive
  uint64_t page_index = 0;     // fact page index (circular scan position)

  uint32_t num_tuples = 0;
  uint32_t words_per_tuple = 0;  // bitmap words per tuple
  uint32_t num_filters = 0;      // width of the dim_rows matrix

  /// num_tuples × words_per_tuple bitmap words (tuple-major).
  std::vector<uint64_t> bits;
  /// num_tuples × num_filters joined dimension row ids (tuple-major).
  std::vector<uint32_t> dim_rows;
  /// WordsFor(num_tuples) liveness words: bit t stays set while tuple t can
  /// still match at least one query. Filters clear the bit the moment a
  /// tuple's bitmap goes empty, so downstream stages skip dead tuples
  /// without touching their (possibly multi-word) bitmap rows.
  std::vector<uint64_t> live;

  uint64_t* tuple_bits(uint32_t t) { return bits.data() + t * words_per_tuple; }
  const uint64_t* tuple_bits(uint32_t t) const {
    return bits.data() + t * words_per_tuple;
  }
  uint32_t* tuple_dim_rows(uint32_t t) {
    return dim_rows.data() + t * num_filters;
  }
  const uint32_t* tuple_dim_rows(uint32_t t) const {
    return dim_rows.data() + t * num_filters;
  }
  uint64_t* live_words() { return live.data(); }
  const uint64_t* live_words() const { return live.data(); }
  bool tuple_live(uint32_t t) const { return bits::Test(live.data(), t); }
  void kill_tuple(uint32_t t) { bits::Clear(live.data(), t); }

  /// Sizes the annotation arrays for a page of `n` tuples, reusing whatever
  /// capacity survived from the batch's previous life in the pool. All
  /// tuples start live; `bits` content is left for the caller to fill.
  void ResetFor(uint32_t n, uint32_t words, uint32_t filters) {
    num_tuples = n;
    words_per_tuple = words;
    num_filters = filters;
    bits.resize(static_cast<size_t>(n) * words);
    dim_rows.assign(static_cast<size_t>(n) * filters, kNoDimRow);
    live.resize(bits::WordsFor(n));
    bits::FillOnes(live.data(), n);
  }
};

using BatchPtr = std::shared_ptr<TupleBatch>;

/// Bounded multi-producer / multi-consumer batch queue: a ring of
/// `capacity` batches under one mutex, with one condition variable per
/// blocking side.
class BatchQueue {
 public:
  /// Holds at most `capacity` batches (raised to 1 when smaller).
  explicit BatchQueue(size_t capacity);
  SDW_DISALLOW_COPY(BatchQueue);

  /// Blocks while full. Returns true when the batch was enqueued; false when
  /// the queue was closed first — the batch is dropped and the caller must
  /// rebalance any in-flight accounting (see CjoinPipeline::DrainPipeline).
  bool Put(BatchPtr batch);

  /// Blocks for the next batch; nullptr once closed and drained.
  BatchPtr Take();

  /// Wakes all waiters; Take drains remaining batches then returns nullptr,
  /// Put returns false.
  void Close();

  size_t capacity() const { return capacity_; }

  /// Wakeups that found neither an item / free slot nor a close and went
  /// back to sleep. A quiescent queue holds its waiters asleep indefinitely
  /// (zero futile wakeups; stress-test asserted). Contended hand-offs can
  /// still produce a few (a woken waiter losing the slot to a thread that
  /// never slept), so this counts occurrences, not errors.
  uint64_t futile_wakeups() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_{lock_rank::Rank::kBatchQueue};
  CondVar not_full_;
  CondVar not_empty_;
  std::vector<BatchPtr> ring_ GUARDED_BY(mu_);  // capacity_ slots
  size_t head_ GUARDED_BY(mu_) = 0;             // oldest batch
  size_t size_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  uint64_t futile_wakeups_ GUARDED_BY(mu_) = 0;
};

/// Per-query output page buffering for the distributor parts.
///
/// A part takes exclusive ownership of one open (partially filled) output
/// page — a pointer swap under the query's output mutex — appends projected
/// tuples to it without the lock, and puts the partial page back; pages that
/// fill up go straight to the query's sink. The buffer holds at most one
/// partial page per distributor part, so the critical section the parts
/// contend on shrinks from "evaluate + project every matching tuple" to two
/// pointer moves per (batch, query) pair.
///
/// Synchronization is the *caller's* job: every method requires the owning
/// query's output mutex to be held.
class SlotOutputBuffer {
 public:
  SlotOutputBuffer() = default;
  SDW_DISALLOW_COPY(SlotOutputBuffer);

  /// Pops an open partial page, or nullptr when none is buffered (the caller
  /// starts a fresh page lazily, outside the lock).
  storage::PagePtr TakePage();

  /// Returns a partial (possibly empty) page for a later emitter to fill.
  void PutBack(storage::PagePtr page);

  /// Sink failure latch: once a Put reports no consumers remain, emitters
  /// stop producing for this query.
  bool ok() const { return ok_; }
  void MarkFailed() { ok_ = false; }

  /// Flushes every buffered non-empty page into `sink` (completion path) and
  /// drops the rest.
  void DrainInto(core::PageSink* sink);

 private:
  std::vector<storage::PagePtr> open_;  // bounded by the distributor parts
  bool ok_ = true;
};

/// Recycling pool for TupleBatch objects: the preprocessor acquires, the
/// distributor releases once a batch retires. Recycled batches keep their
/// vector capacities, so a warm pipeline performs zero heap allocations per
/// batch; the hit/miss counters make that steady state observable
/// (CjoinStats::batch_pool_{hits,misses}).
class BatchPool {
 public:
  /// At most `max_cached` idle batches are retained.
  explicit BatchPool(size_t max_cached) : max_cached_(max_cached) {}
  SDW_DISALLOW_COPY(BatchPool);

  /// Pops a recycled batch, or allocates a fresh one (a pool miss).
  BatchPtr Acquire();

  /// Returns a retired batch to the pool (drops it when the pool is full or
  /// someone else still holds a reference).
  void Release(BatchPtr batch);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  const size_t max_cached_;
  Mutex mu_{lock_rank::Rank::kLeaf};  // terminal: never acquires another lock
  std::vector<BatchPtr> free_ GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace sdw::cjoin

#endif  // SDW_CJOIN_TUPLE_BATCH_H_
