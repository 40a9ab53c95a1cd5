// Page cursors over tables through the buffer pool: a plain one-pass cursor
// (query-centric scans) and a circular cursor that starts at an arbitrary
// page and wraps (shared scans: QPipe's circular scan stage and CJOIN's
// preprocessor both build on it).
//
// Failure semantics: Next() returns Result<const Page*>. Transient read
// errors (kUnavailable / kResourceExhausted) are retried internally with
// capped exponential backoff + jitter (common/retry.h) before surfacing;
// on a surfaced error the cursor has already advanced past the failing
// page, so a caller that treats the error as skippable (CJOIN's shared
// scan skipping a poisoned page) can simply keep calling Next().

#ifndef SDW_STORAGE_SCAN_H_
#define SDW_STORAGE_SCAN_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/retry.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace sdw::storage {

namespace scan_internal {

/// Fetches one page with transient-error retry; shared by both cursors.
inline Result<const Page*> FetchWithRetry(BufferPool* pool, const Table& table,
                                          uint64_t page_idx,
                                          ReadPattern pattern,
                                          const RetryPolicy& policy, Rng* rng,
                                          RetryStats* stats) {
  for (uint32_t attempt = 1;; ++attempt) {
    Result<const Page*> r = pool->FetchPage(table, page_idx, pattern);
    if (r.ok()) return r;
    if (!RetryPolicy::IsTransient(r.status()) ||
        attempt >= policy.max_attempts) {
      if (RetryPolicy::IsTransient(r.status())) {
        stats->giveups.fetch_add(1, std::memory_order_relaxed);
      }
      return r;
    }
    const int64_t backoff = policy.BackoffNanos(attempt, rng);
    stats->retries.fetch_add(1, std::memory_order_relaxed);
    stats->backoff_nanos.fetch_add(backoff, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
  }
}

}  // namespace scan_internal

/// One-pass cursor: pages 0..num_pages-1 in order.
class TableScanCursor {
 public:
  TableScanCursor(const Table* table, BufferPool* pool,
                  RetryPolicy retry = RetryPolicy())
      : table_(table), pool_(pool), retry_(retry), rng_(0x5ca9c0ffee) {}

  /// Next page, Ok(nullptr) at end of table, or the read error after
  /// exhausting transient retries (the cursor skips past the failed page).
  Result<const Page*> Next() {
    if (pos_ >= table_->num_pages()) {
      return static_cast<const Page*>(nullptr);
    }
    return scan_internal::FetchWithRetry(pool_, *table_, pos_++,
                                         ReadPattern::kLinear, retry_, &rng_,
                                         &retry_stats_);
  }

  uint64_t position() const { return pos_; }
  const RetryStats& retry_stats() const { return retry_stats_; }

 private:
  const Table* table_;
  BufferPool* pool_;
  RetryPolicy retry_;
  Rng rng_;
  RetryStats retry_stats_;
  uint64_t pos_ = 0;
};

/// Endless circular cursor starting at `start_page`; the caller decides when
/// a consumer has seen a full cycle (each consumer's point of entry). Its
/// reads are ReadPattern::kCircular: over a table larger than the pool they
/// read through without taking a frame (buffer_pool.h, rule 1).
class CircularPageCursor {
 public:
  CircularPageCursor(const Table* table, BufferPool* pool,
                     uint64_t start_page = 0,
                     RetryPolicy retry = RetryPolicy())
      : table_(table),
        pool_(pool),
        retry_(retry),
        rng_(0xc19c01a5),
        pos_(start_page % PageCount(table)) {}

  /// Fetches the current page and advances (wrapping). Ok(nullptr) only for
  /// empty tables. On error the cursor has advanced past the failed page:
  /// the next call fetches the following page (poisoned-page skip).
  Result<const Page*> Next() {
    if (table_->num_pages() == 0) {
      return static_cast<const Page*>(nullptr);
    }
    const uint64_t page_idx = pos_;
    pos_ = (pos_ + 1) % table_->num_pages();
    return scan_internal::FetchWithRetry(pool_, *table_, page_idx,
                                         ReadPattern::kCircular, retry_, &rng_,
                                         &retry_stats_);
  }

  /// Page index that the next call to Next() will fetch.
  uint64_t position() const { return pos_; }
  const RetryStats& retry_stats() const { return retry_stats_; }

  const Table* table() const { return table_; }

 private:
  static uint64_t PageCount(const Table* t) {
    return t->num_pages() == 0 ? 1 : t->num_pages();
  }

  const Table* table_;
  BufferPool* pool_;
  RetryPolicy retry_;
  Rng rng_;
  RetryStats retry_stats_;
  uint64_t pos_;
};

}  // namespace sdw::storage

#endif  // SDW_STORAGE_SCAN_H_
