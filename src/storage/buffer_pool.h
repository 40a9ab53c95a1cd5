// Database buffer pool. Since table data always lives in RAM (see
// storage_device.h), the pool tracks *residency* and charges the simulated
// device on misses. Replacement follows predicted next use rather than
// recency (after "From Cooperative Scans to Predictive Buffer Management"):
//
//  1. A circular read (CircularPageCursor) of a table larger than the pool
//     is never admitted. Every consumer attached to the scan has just read
//     the page, so nobody needs it again for a full cycle, and the table
//     does not fit anyway. The read still counts; a resident page still hits.
//  2. Otherwise the pool evicts the page whose predicted next use is
//     furthest away. Each page remembers its last access tick (ticks count
//     logical fetches) and each table keeps a running estimate of its
//     re-reference interval; a page's predicted next use is its last access
//     plus that interval. Victims are taken in order: a page overdue by more
//     than one interval (its table stopped being read), then a page of a
//     table with no interval yet, then the page needed furthest ahead. When
//     the incoming page would itself rank first, it is not admitted.
//
// On a loop larger than the pool, rule 2 is Belady's MIN: a fixed set of the
// loop's pages stays resident and hits every pass, where LRU hits nothing.
// docs/STORAGE.md has the measurements. The pool's latch is the point of
// contention that independent concurrent scans exercise and shared scans
// avoid — one of the effects the paper measures.

#ifndef SDW_STORAGE_BUFFER_POOL_H_
#define SDW_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/breakdown.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/storage_device.h"
#include "storage/table.h"

namespace sdw::storage {

/// How a read relates to its reader's next read of the same page.
enum class ReadPattern : uint8_t {
  /// One-pass scans (TableScanCursor) and point reads.
  kLinear,
  /// A circular scan's read (CircularPageCursor): the page's next read by
  /// this scan is a whole cycle away.
  kCircular,
};

/// Predicted-next-use buffer pool over (table, page) keys.
class BufferPool {
 public:
  /// `capacity_bytes` of 0 means "unbounded" (everything stays resident
  /// after first touch — the paper's "large buffer pool that fits the
  /// dataset" configuration). Any other capacity must hold at least one
  /// page; a smaller one aborts.
  BufferPool(StorageDevice* device, size_t capacity_bytes);
  SDW_DISALLOW_COPY(BufferPool);

  /// Makes page `page_idx` of `table` resident (charging device time on a
  /// miss) and returns it; eviction only affects simulated residency, not
  /// the in-memory data. `pattern` feeds rule 1 above. Fallible: an
  /// out-of-range page id is kInvalidArgument, the "storage.read" fault
  /// site covers every logical read, "bufferpool.alloc" covers frame
  /// allocation on the miss path (kResourceExhausted), and device errors
  /// propagate. A page is admitted only after its read succeeds, so a failed
  /// read leaves no false residency and a retry goes back to the device.
  Result<const Page*> FetchPage(const Table& table, uint64_t page_idx,
                                ReadPattern pattern);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Misses whose page was not admitted (rule 1, or rule 2 ranking the
  /// incoming page first).
  uint64_t bypassed() const {
    return bypassed_.load(std::memory_order_relaxed);
  }
  /// Evictions of pages overdue by more than their table's interval.
  uint64_t stale_evictions() const {
    return stale_evictions_.load(std::memory_order_relaxed);
  }
  /// Fetches that returned an error (injected or device-reported).
  uint64_t read_errors() const {
    return read_errors_.load(std::memory_order_relaxed);
  }

  /// Drops all residency and prediction state and zeroes counters (the
  /// paper clears file system caches before every measurement; this is the
  /// equivalent knob).
  void Clear();

  StorageDevice* device() const { return device_; }
  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct PageState {
    uint64_t last_use = 0;  // tick of the last access; 0 = never read
    uint32_t prev = kNil;   // resident list: older neighbour
    uint32_t next = kNil;   // resident list: newer neighbour
    bool resident = false;
  };

  // One table's pages, indexed by page number and sized lazily (a table's
  // page count changes once, in ConvertToColumnar). Resident pages form a
  // list in last-use order: the head is the most overdue page, the tail the
  // one needed furthest ahead.
  struct TableState {
    std::vector<PageState> pages;
    uint32_t head = kNil;
    uint32_t tail = kNil;
    double interval = 0;  // re-reference interval in ticks; 0 = none yet
  };

  // True when rule 1 applies: the read goes to the device and not the pool.
  bool ReadsThrough(const Table& table, ReadPattern pattern) const {
    return pattern == ReadPattern::kCircular && max_pages_ > 0 &&
           table.num_pages() > max_pages_;
  }

  // Records one logical access and returns whether the page is resident
  // (a hit moves it to its table's tail).
  bool Access(const Table& table, uint64_t page_idx) REQUIRES(mu_);
  // Makes the page resident after a successful read, evicting per rule 2;
  // false when the page is not admitted.
  bool Admit(const Table& table, uint64_t page_idx) REQUIRES(mu_);
  // Frees one frame for a page of `incoming`, or returns false when the
  // incoming page ranks first for eviction itself.
  bool MakeRoom(const TableState& incoming) REQUIRES(mu_);
  void Link(TableState* t, uint32_t page) REQUIRES(mu_);
  void Unlink(TableState* t, uint32_t page) REQUIRES(mu_);

  StorageDevice* device_;
  const size_t capacity_bytes_;
  const size_t max_pages_;  // 0 = unbounded

  // The contended latch the paper measures; only replacement bookkeeping
  // under it.
  Mutex mu_{lock_rank::Rank::kBufferPool};
  uint64_t tick_ GUARDED_BY(mu_) = 0;
  size_t resident_ GUARDED_BY(mu_) = 0;
  std::vector<TableState> tables_ GUARDED_BY(mu_);  // indexed by table id

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> bypassed_{0};
  std::atomic<uint64_t> stale_evictions_{0};
  std::atomic<uint64_t> read_errors_{0};
};

}  // namespace sdw::storage

#endif  // SDW_STORAGE_BUFFER_POOL_H_
