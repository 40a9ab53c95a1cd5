// Unit tests for src/storage: schemas, pages, tables, the simulated storage
// device (sequential vs seek cost, OS cache, direct I/O) and the buffer pool.

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/timing.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/scan.h"
#include "storage/schema.h"
#include "storage/storage_device.h"
#include "storage/table.h"

namespace sdw::storage {
namespace {

Schema TestSchema() {
  return Schema({Schema::Int32("a"), Schema::Int64("b"), Schema::Double("c"),
                 Schema::Char("d", 8)});
}

TEST(Schema, OffsetsAndWidths) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 4u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 4u);
  EXPECT_EQ(s.offset(2), 12u);
  EXPECT_EQ(s.offset(3), 20u);
  EXPECT_EQ(s.tuple_size(), 28u);
}

TEST(Schema, FieldRoundTrip) {
  const Schema s = TestSchema();
  std::vector<std::byte> buf(s.tuple_size());
  s.SetInt32(buf.data(), 0, -42);
  s.SetInt64(buf.data(), 1, 1234567890123LL);
  s.SetDouble(buf.data(), 2, 2.5);
  s.SetChar(buf.data(), 3, "hi");
  EXPECT_EQ(s.GetInt32(buf.data(), 0), -42);
  EXPECT_EQ(s.GetInt64(buf.data(), 1), 1234567890123LL);
  EXPECT_DOUBLE_EQ(s.GetDouble(buf.data(), 2), 2.5);
  EXPECT_EQ(s.GetChar(buf.data(), 3), "hi");           // trimmed
  EXPECT_EQ(s.GetCharRaw(buf.data(), 3), "hi      ");  // padded
}

TEST(Schema, CharTruncation) {
  const Schema s = TestSchema();
  std::vector<std::byte> buf(s.tuple_size());
  s.SetChar(buf.data(), 3, "exactly-eight-plus");
  EXPECT_EQ(s.GetChar(buf.data(), 3), "exactly-");
}

TEST(Schema, ColumnIndexLookup) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.ColumnIndex("c"), 2);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_EQ(s.MustColumnIndex("d"), 3u);
}

TEST(Page, AppendUntilFull) {
  auto page = Page::Make(100);
  const uint32_t cap = page->capacity();
  EXPECT_EQ(cap, PageCapacityFor(100));
  EXPECT_GT(cap, 300u);  // 32KB / 100B
  uint32_t n = 0;
  while (page->AppendTuple() != nullptr) ++n;
  EXPECT_EQ(n, cap);
  EXPECT_TRUE(page->full());
}

TEST(Page, CloneIsDeep) {
  auto page = Page::Make(8);
  std::byte* t = page->AppendTuple();
  int64_t v = 99;
  std::memcpy(t, &v, 8);
  page->set_seq(7);
  auto copy = Page::Clone(*page);
  v = 11;
  std::memcpy(t, &v, 8);
  int64_t got;
  std::memcpy(&got, copy->tuple(0), 8);
  EXPECT_EQ(got, 99);
  EXPECT_EQ(copy->seq(), 7u);
  EXPECT_EQ(copy->tuple_count(), 1u);
}

TEST(Table, RowIndexingAcrossPages) {
  Table t("t", Schema({Schema::Int64("x")}));
  const size_t n = static_cast<size_t>(t.rows_per_page()) * 3 + 5;
  for (size_t i = 0; i < n; ++i) {
    std::byte* row = t.AppendRow();
    t.schema().SetInt64(row, 0, static_cast<int64_t>(i));
  }
  EXPECT_EQ(t.num_rows(), n);
  EXPECT_EQ(t.num_pages(), 4u);
  for (size_t i : {size_t{0}, static_cast<size_t>(t.rows_per_page()) + 1,
                   n - 1}) {
    EXPECT_EQ(t.schema().GetInt64(t.row(i), 0), static_cast<int64_t>(i));
  }
}

TEST(Catalog, RegisterAndLookup) {
  Catalog c;
  auto* t1 = c.AddTable(std::make_unique<Table>("one", TestSchema()));
  auto* t2 = c.AddTable(std::make_unique<Table>("two", TestSchema()));
  EXPECT_EQ(c.GetTable("one"), t1);
  EXPECT_EQ(c.GetTable("absent"), nullptr);
  EXPECT_EQ(c.GetTableById(t2->id()), t2);
  EXPECT_EQ(c.num_tables(), 2u);
}

TEST(StorageDevice, MemoryResidentIsFree) {
  StorageDevice dev({.memory_resident = true});
  const int64_t start = NowNanos();
  for (int i = 0; i < 100; ++i) dev.ReadPage(1, static_cast<uint64_t>(i), kPageSize);
  EXPECT_LT(NowNanos() - start, 50'000'000);  // far under any disk time
  EXPECT_EQ(dev.device_bytes_read(), 0u);
  EXPECT_EQ(dev.logical_reads(), 100u);
}

TEST(StorageDevice, SequentialFasterThanRandom) {
  DeviceOptions opts;
  opts.memory_resident = false;
  opts.seq_bandwidth_mbps = 5000;  // make seeks dominate
  opts.seek_latency_us = 2000;
  {
    StorageDevice dev(opts);
    WallTimer t;
    for (int i = 0; i < 20; ++i) dev.ReadPage(1, static_cast<uint64_t>(i), kPageSize);
    const double seq = t.ElapsedSeconds();
    EXPECT_LT(seq, 0.02);  // one seek + cheap transfers
  }
  {
    StorageDevice dev(opts);
    WallTimer t;
    for (int i = 0; i < 20; ++i) {
      dev.ReadPage(1, static_cast<uint64_t>((i * 7) % 20), kPageSize);
    }
    const double random = t.ElapsedSeconds();
    EXPECT_GT(random, 0.03);  // ~20 seeks at 2ms
  }
}

TEST(StorageDevice, OsCacheAbsorbsRereads) {
  DeviceOptions opts;
  opts.memory_resident = false;
  opts.seq_bandwidth_mbps = 10000;
  opts.seek_latency_us = 100;
  opts.os_cache_bytes = 100 * kPageSize;
  StorageDevice dev(opts);
  for (int i = 0; i < 10; ++i) dev.ReadPage(1, static_cast<uint64_t>(i), kPageSize);
  const uint64_t cold = dev.device_bytes_read();
  for (int i = 0; i < 10; ++i) dev.ReadPage(1, static_cast<uint64_t>(i), kPageSize);
  EXPECT_EQ(dev.device_bytes_read(), cold);  // all hits
  EXPECT_EQ(dev.cache_hit_bytes(), 10 * kPageSize);
}

TEST(StorageDevice, DirectIoBypassesCache) {
  DeviceOptions opts;
  opts.memory_resident = false;
  opts.seq_bandwidth_mbps = 10000;
  opts.seek_latency_us = 10;
  opts.os_cache_bytes = 100 * kPageSize;
  opts.direct_io = true;
  StorageDevice dev(opts);
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < 10; ++i) dev.ReadPage(1, static_cast<uint64_t>(i), kPageSize);
  }
  EXPECT_EQ(dev.device_bytes_read(), 20 * kPageSize);
  EXPECT_EQ(dev.cache_hit_bytes(), 0u);
}

TEST(StorageDevice, CacheEvictsAtCapacity) {
  DeviceOptions opts;
  opts.memory_resident = false;
  opts.seq_bandwidth_mbps = 10000;
  opts.seek_latency_us = 10;
  opts.os_cache_bytes = 4 * kPageSize;
  StorageDevice dev(opts);
  for (int i = 0; i < 8; ++i) dev.ReadPage(1, static_cast<uint64_t>(i), kPageSize);
  // Page 0 was evicted; re-reading misses.
  const uint64_t before = dev.device_bytes_read();
  dev.ReadPage(1, 0, kPageSize);
  EXPECT_EQ(dev.device_bytes_read(), before + kPageSize);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : table_(MakeTable("t", 3, 10)) {}

  static std::unique_ptr<Table> MakeTable(const std::string& name,
                                          uint16_t id, size_t pages) {
    auto table = std::make_unique<Table>(name, Schema({Schema::Int64("x")}));
    const size_t rows = static_cast<size_t>(table->rows_per_page()) * pages;
    for (size_t i = 0; i < rows; ++i) {
      table->schema().SetInt64(table->AppendRow(), 0, static_cast<int64_t>(i));
    }
    table->set_id(id);
    return table;
  }

  // A one-pass (non-circular) read of page `p` of the 10-page table.
  Result<const Page*> Fetch(BufferPool* pool, uint64_t p) {
    return pool->FetchPage(*table_, p, ReadPattern::kLinear);
  }

  // Reads every page of `table` once in order; returns the hits it scored.
  static uint64_t Pass(BufferPool* pool, const Table& table) {
    const uint64_t before = pool->hits();
    TableScanCursor cursor(&table, pool);
    while (cursor.Next().value() != nullptr) {
    }
    return pool->hits() - before;
  }

  std::unique_ptr<Table> table_;
};

TEST_F(BufferPoolTest, HitsAfterFirstTouch) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  for (int r = 0; r < 2; ++r) {
    for (uint64_t p = 0; p < table_->num_pages(); ++p) {
      EXPECT_EQ(Fetch(&pool, p).value(), table_->page(p));
    }
  }
  EXPECT_EQ(pool.misses(), table_->num_pages());
  EXPECT_EQ(pool.hits(), table_->num_pages());
}

TEST_F(BufferPoolTest, BoundedPoolEvicts) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 4 * kPageSize);
  for (int r = 0; r < 2; ++r) {
    for (uint64_t p = 0; p < 10; ++p) Fetch(&pool, p);
  }
  // Capacity 4 over a 10-page loop read twice. The first pass fills the pool
  // and, with no re-reference interval known yet, keeps its last four pages.
  // On the second pass every other page is predicted to be needed later
  // than those four, so it is read without being admitted, and the four
  // resident pages hit (LRU would miss all 20 reads).
  EXPECT_EQ(pool.misses(), 16u);
  EXPECT_EQ(pool.hits(), 4u);
  EXPECT_EQ(pool.bypassed(), 6u);
  EXPECT_EQ(pool.stale_evictions(), 0u);
}

TEST_F(BufferPoolTest, ClearForgetsResidency) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  Fetch(&pool, 0);
  pool.Clear();
  Fetch(&pool, 0);
  EXPECT_EQ(pool.misses(), 1u);  // counters were reset by Clear
}

TEST_F(BufferPoolTest, ClearForgetsPredictions) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 4 * kPageSize);
  for (int r = 0; r < 2; ++r) Pass(&pool, *table_);
  ASSERT_GT(pool.bypassed(), 0u);
  pool.Clear();
  // A pool that still knew the loop's interval would read most of this pass
  // through; a cleared one admits every page as on a cold start.
  EXPECT_EQ(Pass(&pool, *table_), 0u);
  EXPECT_EQ(pool.misses(), 10u);
  EXPECT_EQ(pool.bypassed(), 0u);
  EXPECT_EQ(pool.stale_evictions(), 0u);
}

TEST_F(BufferPoolTest, CircularScanReadsThroughSmallTableStaysResident) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 4 * kPageSize);
  const auto small = MakeTable("small", 4, 3);
  CircularPageCursor circular(table_.get(), &pool);
  constexpr uint64_t kRounds = 5;
  for (uint64_t r = 0; r < kRounds; ++r) {
    // One cycle of the 10-page table, larger than the 4-page pool: each read
    // goes to the device and takes no frame...
    for (uint64_t p = 0; p < table_->num_pages(); ++p) {
      ASSERT_TRUE(circular.Next().ok());
    }
    // ...so the 3-page table read between cycles hits after its first pass.
    EXPECT_EQ(Pass(&pool, *small), r == 0 ? 0u : 3u) << "round " << r;
  }
  EXPECT_EQ(pool.hits(), 3 * (kRounds - 1));
  EXPECT_EQ(pool.misses(), 10 * kRounds + 3);
  EXPECT_EQ(pool.bypassed(), 10 * kRounds);
}

TEST_F(BufferPoolTest, OverduePagesYieldToNewLoop) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 4 * kPageSize);
  const auto old_loop = MakeTable("old", 4, 4);
  const auto new_loop = MakeTable("new", 5, 3);
  // The old loop fills the pool and then stops being read.
  for (int r = 0; r < 5; ++r) Pass(&pool, *old_loop);
  ASSERT_EQ(Pass(&pool, *old_loop), 4u);
  // The new loop's first pages are read through while the old pages are
  // still expected back; once an old page is overdue by more than its
  // interval (4 reads), it gives up its frame. After that the new loop
  // stays resident and hits every pass.
  for (int r = 0; r < 3; ++r) Pass(&pool, *new_loop);
  EXPECT_EQ(pool.stale_evictions(), 3u);
  EXPECT_EQ(Pass(&pool, *new_loop), 3u);
  EXPECT_EQ(Pass(&pool, *new_loop), 3u);
}

TEST_F(BufferPoolTest, CursorsIterateAllPages) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  TableScanCursor cursor(table_.get(), &pool);
  size_t pages = 0;
  while (cursor.Next().value() != nullptr) ++pages;
  EXPECT_EQ(pages, table_->num_pages());

  CircularPageCursor circular(table_.get(), &pool, /*start_page=*/7);
  std::set<uint64_t> seen;
  for (size_t i = 0; i < table_->num_pages(); ++i) {
    EXPECT_EQ(circular.position(), (7 + i) % table_->num_pages());
    const Page* p = circular.Next().value();
    ASSERT_NE(p, nullptr);
    seen.insert(p->seq());
  }
  EXPECT_EQ(seen.size(), table_->num_pages());  // full wrap, each page once
}

// ----------------------------------------------------------- failure paths

/// Arms the process-wide injector for one test and guarantees it is
/// disarmed (and all schedules forgotten) on every exit path.
class ScopedFaults {
 public:
  explicit ScopedFaults(uint64_t seed) { FaultInjector::Global().Enable(seed); }
  ~ScopedFaults() { FaultInjector::Global().Disable(); }
};

TEST_F(BufferPoolTest, FetchPageRejectsOutOfRangePageId) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  const Result<const Page*> r = Fetch(&pool, table_->num_pages());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BufferPoolTest, PersistentTransientFaultSurfacesAndLeavesNoResidency) {
  // Both fault sites, in an unbounded pool and in a full 4-page one. The
  // "bufferpool.alloc" site fires after the access has been recorded, on
  // the miss path, so it also covers a device read failing mid-fetch.
  for (const char* site : {"storage.read", "bufferpool.alloc"}) {
    for (const size_t capacity : {size_t{0}, 4 * kPageSize}) {
      SCOPED_TRACE(std::string(site) + " capacity " +
                   std::to_string(capacity));
      StorageDevice dev({.memory_resident = true});
      BufferPool pool(&dev, capacity);
      for (uint64_t p = 1; p <= 4; ++p) ASSERT_TRUE(Fetch(&pool, p).ok());
      ScopedFaults faults(7);
      FaultSpec spec;
      spec.kind = FaultKind::kTransient;
      spec.every_nth = 1;  // every read fails
      spec.message = "short read: 512 of 32768 bytes";
      FaultInjector::Global().Arm(site, spec);
      const Result<const Page*> r = Fetch(&pool, 0);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      EXPECT_NE(r.status().message().find("short read"), std::string::npos);
      EXPECT_GE(pool.read_errors(), 1u);
      FaultInjector::Global().ClearSite(site);
      // Admit-after-read: the failed fetch took no frame (the four resident
      // pages still hit) and left no false residency (page 0 misses).
      for (uint64_t p = 1; p <= 4; ++p) ASSERT_TRUE(Fetch(&pool, p).ok());
      EXPECT_EQ(pool.hits(), 4u);
      ASSERT_TRUE(Fetch(&pool, 0).ok());
      EXPECT_EQ(pool.hits(), 4u);
      EXPECT_EQ(pool.misses(), 5u);
    }
  }
}

TEST(BufferPoolDeathTest, RejectsPoolSmallerThanOnePage) {
  StorageDevice dev({.memory_resident = true});
  // Such a pool would evict every page it admits and silently never hit.
  EXPECT_DEATH(BufferPool(&dev, kPageSize - 1), "holds no");
  EXPECT_DEATH(BufferPool(&dev, 1), "holds no");
  BufferPool unbounded(&dev, 0);
  BufferPool one_page(&dev, kPageSize);
  EXPECT_EQ(one_page.capacity_bytes(), kPageSize);
}

TEST_F(BufferPoolTest, CursorRetriesAbsorbOneShotTransientFault) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  ScopedFaults faults(7);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.one_shot_at = 1;  // first read fails once, the retry succeeds
  FaultInjector::Global().Arm("storage.read", spec);
  TableScanCursor cursor(table_.get(), &pool);
  const Result<const Page*> r = cursor.Next();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), table_->page(0));
  EXPECT_GE(cursor.retry_stats().retries.load(), 1u);
  EXPECT_EQ(cursor.retry_stats().giveups.load(), 0u);
}

TEST_F(BufferPoolTest, AllocFailureReturnsResourceExhausted) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 4 * kPageSize);
  ScopedFaults faults(7);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.code = StatusCode::kResourceExhausted;  // frame allocation failure
  spec.one_shot_at = 1;
  FaultInjector::Global().Arm("bufferpool.alloc", spec);
  const Result<const Page*> r = Fetch(&pool, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // The failure is a Status, not an abort, and the pool stays usable.
  EXPECT_TRUE(Fetch(&pool, 0).ok());
}

TEST_F(BufferPoolTest, CircularCursorSkipsPermanentlyPoisonedPage) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  ScopedFaults faults(7);
  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  spec.one_shot_at = 1;
  FaultInjector::Global().Arm("storage.read", spec);
  CircularPageCursor cursor(table_.get(), &pool, /*start_page=*/2);
  const Result<const Page*> r = cursor.Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  // Permanent errors are not retried...
  EXPECT_EQ(cursor.retry_stats().retries.load(), 0u);
  // ...and the cursor has advanced past the poisoned page: the next call
  // serves the following page instead of failing forever.
  EXPECT_EQ(cursor.position(), 3u);
  const Result<const Page*> next = cursor.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), table_->page(3));
}

TEST_F(BufferPoolTest, LatencyFaultDelaysButSucceeds) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  ScopedFaults faults(7);
  FaultSpec spec;
  spec.kind = FaultKind::kLatency;
  spec.latency_nanos = 20'000'000;  // 20 ms
  spec.one_shot_at = 1;
  FaultInjector::Global().Arm("storage.read", spec);
  WallTimer t;
  ASSERT_TRUE(Fetch(&pool, 0).ok());
  EXPECT_GT(t.ElapsedSeconds(), 0.015);
}

TEST_F(BufferPoolTest, KeyRangeRestrictsFaultToTargetPages) {
  StorageDevice dev({.memory_resident = true});
  BufferPool pool(&dev, 0);
  ScopedFaults faults(7);
  // The storage.read key is (table_id << 48) | page_idx; restricting the
  // spec to page 5 of table 3 leaves every other page untouched.
  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  spec.every_nth = 1;
  spec.key_lo = (uint64_t{3} << 48) | 5;
  spec.key_hi = (uint64_t{3} << 48) | 5;
  FaultInjector::Global().Arm("storage.read", spec);
  for (uint64_t p = 0; p < table_->num_pages(); ++p) {
    const Result<const Page*> r = Fetch(&pool, p);
    if (p == 5) {
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
    } else {
      EXPECT_TRUE(r.ok());
    }
  }
}

}  // namespace
}  // namespace sdw::storage
