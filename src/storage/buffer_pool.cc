#include "storage/buffer_pool.h"

#include <limits>
#include <string>

#include "common/fault_injector.h"

namespace sdw::storage {

namespace {

// Weight of one re-reference sample in a table's interval estimate.
constexpr double kIntervalGain = 1.0 / 8;

}  // namespace

BufferPool::BufferPool(StorageDevice* device, size_t capacity_bytes)
    : device_(device),
      capacity_bytes_(capacity_bytes),
      max_pages_(capacity_bytes / kPageSize) {
  SDW_CHECK_MSG(capacity_bytes == 0 || max_pages_ > 0,
                "buffer pool of %zu bytes holds no %zu-byte page (0 means "
                "unbounded)",
                capacity_bytes, kPageSize);
}

Result<const Page*> BufferPool::FetchPage(const Table& table,
                                          uint64_t page_idx,
                                          ReadPattern pattern) {
  if (page_idx >= table.num_pages()) {
    return Status::InvalidArgument(
        "page " + std::to_string(page_idx) + " out of range for table '" +
        table.name() + "' (" + std::to_string(table.num_pages()) + " pages)");
  }
  const uint64_t key = (static_cast<uint64_t>(table.id()) << 48) | page_idx;
  // Primary read-fault site: fires on every logical read regardless of
  // residency, so chaos schedules reach memory-resident configurations too.
  Status fault = FaultInjector::Global().Check("storage.read", key);
  if (!fault.ok()) {
    read_errors_.fetch_add(1, std::memory_order_relaxed);
    return fault;
  }
  bool resident;
  {
    ScopedWallComponentTimer t(Component::kLocks);
    MutexLock lock(mu_);
    resident = Access(table, page_idx);
  }
  if (resident) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return table.page(page_idx);
  }
  fault = FaultInjector::Global().Check("bufferpool.alloc", key);
  if (fault.ok()) fault = device_->ReadPage(table.id(), page_idx, kPageSize);
  if (!fault.ok()) {
    read_errors_.fetch_add(1, std::memory_order_relaxed);
    return fault;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Note: two threads missing on the same page concurrently both charge the
  // device (the second Admit finds it resident). Admitting only after a
  // successful read is what keeps failed pages non-resident.
  bool admitted = false;
  if (!ReadsThrough(table, pattern)) {
    ScopedWallComponentTimer t(Component::kLocks);
    MutexLock lock(mu_);
    admitted = Admit(table, page_idx);
  }
  if (!admitted) bypassed_.fetch_add(1, std::memory_order_relaxed);
  return table.page(page_idx);
}

bool BufferPool::Access(const Table& table, uint64_t page_idx) {
  if (table.id() >= tables_.size()) tables_.resize(table.id() + size_t{1});
  TableState& t = tables_[table.id()];
  // FetchPage checked page_idx < num_pages(); a table that gained pages in
  // ConvertToColumnar grows its vector here.
  if (page_idx >= t.pages.size()) t.pages.resize(table.num_pages());
  PageState& p = t.pages[page_idx];
  ++tick_;
  if (p.last_use != 0) {
    const double sample = static_cast<double>(tick_ - p.last_use);
    t.interval = t.interval == 0
                     ? sample
                     : t.interval + kIntervalGain * (sample - t.interval);
  }
  p.last_use = tick_;
  if (!p.resident) return false;
  const auto idx = static_cast<uint32_t>(page_idx);
  Unlink(&t, idx);
  Link(&t, idx);
  return true;
}

bool BufferPool::Admit(const Table& table, uint64_t page_idx) {
  // Access() ran first, so the table's state covers the page.
  TableState& t = tables_[table.id()];
  PageState& p = t.pages[page_idx];
  if (p.resident) return true;  // a concurrent miss admitted it first
  if (max_pages_ > 0 && resident_ >= max_pages_ && !MakeRoom(t)) return false;
  // Other pages may have been accessed during the read; restamping keeps the
  // resident list in last-use order.
  p.last_use = tick_;
  Link(&t, static_cast<uint32_t>(page_idx));
  return true;
}

bool BufferPool::MakeRoom(const TableState& incoming) {
  TableState* stale = nullptr;     // most overdue head
  TableState* unknown = nullptr;   // oldest head of a table with no interval
  TableState* furthest = nullptr;  // tail needed furthest ahead
  double most_overdue = 0;
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  double furthest_use = 0;
  for (TableState& t : tables_) {
    if (t.head == kNil) continue;
    const uint64_t head_use = t.pages[t.head].last_use;
    if (t.interval == 0) {
      if (head_use < oldest) {
        oldest = head_use;
        unknown = &t;
      }
      continue;
    }
    const double overdue =
        static_cast<double>(tick_ - head_use) - 2 * t.interval;
    if (overdue > most_overdue) {
      most_overdue = overdue;
      stale = &t;
    }
    const double next_use =
        static_cast<double>(t.pages[t.tail].last_use) + t.interval;
    if (next_use > furthest_use) {
      furthest_use = next_use;
      furthest = &t;
    }
  }
  if (stale != nullptr) {
    stale_evictions_.fetch_add(1, std::memory_order_relaxed);
    Unlink(stale, stale->head);
    return true;
  }
  if (unknown != nullptr) {
    Unlink(unknown, unknown->head);
    return true;
  }
  // Every resident table has an interval. An incoming page without one, or
  // one needed no sooner than every resident page, is the one to drop.
  if (incoming.interval == 0 ||
      static_cast<double>(tick_) + incoming.interval >= furthest_use) {
    return false;
  }
  Unlink(furthest, furthest->tail);
  return true;
}

void BufferPool::Link(TableState* t, uint32_t page) {
  PageState& p = t->pages[page];
  p.prev = t->tail;
  p.next = kNil;
  if (t->tail != kNil) {
    t->pages[t->tail].next = page;
  } else {
    t->head = page;
  }
  t->tail = page;
  p.resident = true;
  ++resident_;
}

void BufferPool::Unlink(TableState* t, uint32_t page) {
  PageState& p = t->pages[page];
  if (p.prev != kNil) {
    t->pages[p.prev].next = p.next;
  } else {
    t->head = p.next;
  }
  if (p.next != kNil) {
    t->pages[p.next].prev = p.prev;
  } else {
    t->tail = p.prev;
  }
  p.prev = p.next = kNil;
  p.resident = false;
  --resident_;
}

void BufferPool::Clear() {
  MutexLock lock(mu_);
  tables_.clear();
  tick_ = 0;
  resident_ = 0;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  bypassed_.store(0, std::memory_order_relaxed);
  stale_evictions_.store(0, std::memory_order_relaxed);
  read_errors_.store(0, std::memory_order_relaxed);
}

}  // namespace sdw::storage
