// Differential suite for the PAX page layout and its hot-path kernels. Every
// fact-page reader runs one body on either layout (fields located through
// Page::column / Page::field); its results over a PAX fact must be
// BIT-IDENTICAL to those over the same rows stored row-major, at every
// level:
//
//  * PageLayout geometry: 64-byte-aligned minipage bases, non-overlapping
//    minipages, capacity accounting; Clone copies only the used payload
//    prefix (stat-asserted through Page::clone_payload_bytes);
//  * ConvertToColumnar preserves every field of every row;
//  * Predicate::Bound::EvalAt verdicts across layouts (int32/int64/double/
//    char atoms, trailing-space stripping);
//  * FlatInt64HashTable's batched probe vs the chained Int64HashTable's
//    ForEachMatch over adversarial key sets (dense, sparse, negative,
//    high-collision, all-missing);
//  * Filter::Process over a PAX fact vs the same filter over the row-major
//    fact and vs ProcessScalar on both, per global fact row (the two
//    layouts' page geometries differ, so comparison is row-indexed), over
//    slots {1, 64, 65, 256} and full/random/all-dead/stale-bit batches —
//    plus the zero-steady-state-allocation property of the filter scratch;
//  * whole engines: columnar_pages=true vs false on identical SSB catalogs,
//    checked against each other and a Volcano oracle.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/volcano.h"
#include "cjoin/filter.h"
#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/engine.h"
#include "qpipe/flat_hash_table.h"
#include "qpipe/hash_table.h"
#include "query/predicate.h"
#include "query/result.h"
#include "ssb/ssb_schema.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/storage_device.h"
#include "storage/table.h"
#include "test_util.h"

using namespace sdw;
using cjoin::BatchPtr;
using cjoin::Filter;
using cjoin::FilterScratch;
using cjoin::TupleBatch;

namespace {

// --------------------------------------------- PageLayout / convert / Clone

storage::Schema MixedSchema() {
  return storage::Schema({storage::Schema::Int32("a"),
                          storage::Schema::Char("tag", 7),
                          storage::Schema::Int64("b"),
                          storage::Schema::Double("d")});
}

std::unique_ptr<storage::Table> MakeMixedTable(uint32_t rows, Rng* rng) {
  auto table = std::make_unique<storage::Table>("mixed", MixedSchema());
  const storage::Schema& s = table->schema();
  const char* tags[] = {"x", "abc", "abc  ", "zz zz  "};
  for (uint32_t r = 0; r < rows; ++r) {
    std::byte* row = table->AppendRow();
    s.SetInt32(row, 0, static_cast<int32_t>(rng->Uniform(-100, 100)));
    s.SetChar(row, 1, tags[rng->Index(4)]);
    s.SetInt64(row, 2, rng->Uniform(-5000, 5000));
    s.SetDouble(row, 3, rng->NextDouble() * 10.0);
  }
  return table;
}

void PageLayoutAndClone() {
  Rng rng(11);
  const storage::Schema schema = MixedSchema();
  storage::PageLayout layout(schema);

  // Geometry: every minipage base is 64-byte aligned, minipages do not
  // overlap, and the whole plan fits the payload.
  SDW_CHECK(layout.capacity() > 0);
  SDW_CHECK(layout.capacity() <=
            (storage::kPageSize - sizeof(storage::Page)) / schema.tuple_size());
  for (size_t c = 0; c < layout.num_columns(); ++c) {
    SDW_CHECK_MSG(layout.column_offset(c) % storage::kPageAlign == 0,
                  "minipage %zu base not 64-byte aligned", c);
    const size_t end = layout.column_offset(c) +
                       size_t{layout.capacity()} * layout.column_width(c);
    SDW_CHECK(end <= storage::kPageSize - sizeof(storage::Page));
    for (size_t o = 0; o < layout.num_columns(); ++o) {
      if (o == c) continue;
      const size_t o_end = layout.column_offset(o) +
                           size_t{layout.capacity()} * layout.column_width(o);
      SDW_CHECK_MSG(
          layout.column_offset(o) >= end || o_end <= layout.column_offset(c),
          "minipages %zu and %zu overlap", c, o);
    }
  }

  // ConvertToColumnar preserves every field of every row, in row order.
  const uint32_t kRows = 4000;
  auto table = MakeMixedTable(kRows, &rng);
  std::vector<std::string> before;
  before.reserve(kRows);
  for (uint32_t r = 0; r < kRows; ++r) {
    before.emplace_back(reinterpret_cast<const char*>(table->row(r)),
                        schema.tuple_size());
  }
  table->ConvertToColumnar();
  SDW_CHECK(table->columnar());
  SDW_CHECK(table->rows_per_page() == table->page_layout()->capacity());
  uint32_t row = 0;
  for (size_t pi = 0; pi < table->num_pages(); ++pi) {
    const storage::Page* page = table->page(pi);
    SDW_CHECK(page->columnar());
    // Minipage bases must be 64-byte aligned addresses, not just offsets,
    // and a minipage's values are contiguous (stride == value width).
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const storage::Page::ColumnView col = page->column(schema, c);
      SDW_CHECK(reinterpret_cast<uintptr_t>(col.first) % storage::kPageAlign ==
                0);
      SDW_CHECK(col.stride == schema.column(c).width());
    }
    for (uint32_t i = 0; i < page->tuple_count(); ++i, ++row) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        SDW_CHECK_MSG(
            std::memcmp(page->field(schema, c, i),
                        before[row].data() + schema.offset(c),
                        schema.column(c).width()) == 0,
            "converted field differs (row %u col %zu)", row, c);
      }
    }
  }
  SDW_CHECK(row == kRows);
  // Converting again is a no-op.
  const size_t pages_before = table->num_pages();
  table->ConvertToColumnar();
  SDW_CHECK(table->num_pages() == pages_before);

  // Clone copies the header plus only the used payload prefix — the stat
  // counter proves a nearly-empty page moves its used bytes, not kPageSize.
  {
    auto rows_table = MakeMixedTable(3, &rng);  // 3 tuples on one page
    const storage::Page* src = rows_table->page(0);
    const uint64_t base = storage::Page::clone_payload_bytes();
    storage::PagePtr copy = storage::Page::Clone(*src);
    const uint64_t delta = storage::Page::clone_payload_bytes() - base;
    SDW_CHECK_MSG(delta == src->used_bytes(),
                  "row-major clone copied %llu bytes, used %zu",
                  static_cast<unsigned long long>(delta), src->used_bytes());
    SDW_CHECK(delta < storage::kPageSize / 2);
    SDW_CHECK(copy->tuple_count() == src->tuple_count());
    SDW_CHECK(copy->seq() == src->seq());
    SDW_CHECK(std::memcmp(copy->tuple(0), src->tuple(0), src->used_bytes()) ==
              0);
    // A row-major column steps one tuple at a time.
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const storage::Page::ColumnView col = src->column(schema, c);
      SDW_CHECK(col.first == src->tuple(0) + schema.offset(c));
      SDW_CHECK(col.stride == schema.tuple_size());
    }
  }
  {
    auto pax_table = MakeMixedTable(5, &rng);
    pax_table->ConvertToColumnar();
    const storage::Page* src = pax_table->page(0);
    const uint64_t base = storage::Page::clone_payload_bytes();
    storage::PagePtr copy = storage::Page::Clone(*src);
    const uint64_t delta = storage::Page::clone_payload_bytes() - base;
    size_t expect = 0;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      expect += size_t{src->tuple_count()} * schema.column(c).width();
    }
    SDW_CHECK_MSG(delta == expect,
                  "PAX clone copied %llu bytes, used prefix %zu",
                  static_cast<unsigned long long>(delta), expect);
    SDW_CHECK(copy->columnar());
    for (uint32_t i = 0; i < src->tuple_count(); ++i) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        SDW_CHECK(std::memcmp(copy->field(schema, c, i),
                              src->field(schema, c, i),
                              schema.column(c).width()) == 0);
      }
    }
  }
}

// ------------------------------------------------------ EvalAt row vs PAX

void EvalAtRowVsPax() {
  Rng rng(23);
  auto row_table = MakeMixedTable(2000, &rng);
  Rng rng2(23);
  auto pax_table = MakeMixedTable(2000, &rng2);
  pax_table->ConvertToColumnar();
  const storage::Schema& schema = row_table->schema();

  std::vector<query::Predicate> preds;
  {
    query::Predicate p;  // int32 range AND int64 bound
    p.And(query::AtomicPred::Int("a", query::CompareOp::kGe, -20));
    p.And(query::AtomicPred::Int("b", query::CompareOp::kLt, 1000));
    preds.push_back(std::move(p));
  }
  {
    query::Predicate p;  // char equality: stored values carry trailing pad
    p.And(query::AtomicPred::Str("tag", query::CompareOp::kEq, "abc"));
    preds.push_back(std::move(p));
  }
  {
    query::Predicate p;  // OR-clause mixing types, plus a double compare
    p.AndAnyOf({query::AtomicPred::Str("tag", query::CompareOp::kEq, "zz zz"),
                query::AtomicPred::Int("a", query::CompareOp::kGt, 50)});
    p.And(query::AtomicPred::Int("d", query::CompareOp::kLe, 7));
    preds.push_back(std::move(p));
  }

  for (const query::Predicate& p : preds) {
    const query::Predicate::Bound bound = p.Bind(schema);
    uint32_t global = 0;
    for (size_t pi = 0; pi < pax_table->num_pages(); ++pi) {
      const storage::Page* page = pax_table->page(pi);
      for (uint32_t i = 0; i < page->tuple_count(); ++i, ++global) {
        const bool row_verdict = bound.Eval(schema, row_table->row(global));
        const bool pax_verdict = bound.EvalAt(schema, *page, i);
        SDW_CHECK_MSG(row_verdict == pax_verdict,
                      "EvalAt verdict differs at row %u", global);
        // Row-major EvalAt must agree with Eval too.
        const storage::Page* rp =
            row_table->page(global / row_table->rows_per_page());
        SDW_CHECK(bound.EvalAt(
                      schema, *rp,
                      static_cast<uint32_t>(global %
                                            row_table->rows_per_page())) ==
                  row_verdict);
      }
    }
  }
}

// --------------------------------------------------- flat vs chained probe

void FlatVsChainedProbe() {
  Rng rng(31);
  auto check_set = [&](const std::vector<int64_t>& keys, const char* what) {
    qpipe::Int64HashTable chained;
    qpipe::FlatInt64HashTable flat;
    uint64_t next = 0;
    for (int64_t k : keys) {
      bool inserted;
      const uint64_t v = flat.FindOrInsert(k, next, &inserted);
      if (inserted) {
        chained.Insert(qpipe::HashKey(k), k, next);
        ++next;
      } else {
        // Duplicate key: FindOrInsert must return the first binding.
        SDW_CHECK_MSG(v < next, "%s: duplicate returned a fresh value", what);
      }
    }
    chained.Build();
    SDW_CHECK(flat.size() == chained.size());

    // Probe the inserted keys, never-inserted keys, and a shuffled mix.
    std::vector<int64_t> probes = keys;
    for (int t = 0; t < 500; ++t) {
      probes.push_back(rng.Uniform(-1000000, 1000000));
    }
    std::vector<uint64_t> flat_vals(probes.size());
    flat.ProbeBatch(probes.data(), probes.size(), flat_vals.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      // Keys are unique in the chained table, so a hit has one match.
      uint64_t chained_val = qpipe::FlatInt64HashTable::kMissValue;
      size_t matches = 0;
      chained.ForEachMatch(qpipe::HashKey(probes[i]), probes[i],
                           [&](uint64_t v) {
                             chained_val = v;
                             ++matches;
                           });
      SDW_CHECK(matches <= 1);
      SDW_CHECK_MSG(flat_vals[i] == chained_val,
                    "%s: probe %zu differs (key %lld)", what, i,
                    static_cast<long long>(probes[i]));
      SDW_CHECK(flat.Find(probes[i]) == flat_vals[i]);
    }
  };

  std::vector<int64_t> dense;
  for (int64_t k = 0; k < 2000; ++k) dense.push_back(k);
  check_set(dense, "dense");

  std::vector<int64_t> sparse;
  for (int64_t k = 0; k < 1500; ++k) sparse.push_back(k * 7919 + 13);
  check_set(sparse, "sparse");

  std::vector<int64_t> negative;
  for (int64_t k = 0; k < 1000; ++k) negative.push_back(-k * 3 - 1);
  check_set(negative, "negative");

  // High collision pressure: keys striding by a power of two march straight
  // into the same low hash bits pre-mix; with duplicates layered on top.
  std::vector<int64_t> colliding;
  for (int64_t k = 0; k < 800; ++k) {
    colliding.push_back(k * 4096);
    if (k % 3 == 0) colliding.push_back(k * 4096);  // duplicate
  }
  check_set(colliding, "colliding");

  // All-missing probes against an empty-ish table.
  check_set({42}, "singleton");
}

// ----------------------------------------------- Filter: row vs PAX kernels

constexpr int64_t kDimRows = 500;
constexpr int64_t kKeySpace = 1200;  // wider than the dims, so FKs miss
constexpr uint32_t kFactRows = 4000;

enum class Fill { kFull, kRandom, kAllDead, kStaleBits };

std::unique_ptr<storage::Table> MakeDimTable(const std::string& name,
                                             Rng* rng) {
  storage::Schema schema(
      {storage::Schema::Int32("pk"), storage::Schema::Int32("attr")});
  auto table = std::make_unique<storage::Table>(name, schema);
  std::vector<size_t> pks = rng->SampleDistinct(kKeySpace, kDimRows);
  for (int64_t r = 0; r < kDimRows; ++r) {
    std::byte* row = table->AppendRow();
    schema.SetInt32(row, 0, static_cast<int32_t>(pks[r]));
    schema.SetInt32(row, 1, static_cast<int32_t>(rng->Uniform(0, 99)));
  }
  return table;
}

struct FactData {
  std::vector<int32_t> fk1;
  std::vector<int64_t> fk2;
  std::vector<double> val;
};

FactData MakeFactData(Rng* rng) {
  FactData d;
  for (uint32_t r = 0; r < kFactRows; ++r) {
    d.fk1.push_back(static_cast<int32_t>(rng->Uniform(0, kKeySpace - 1)));
    d.fk2.push_back(rng->Uniform(0, kKeySpace - 1));
    d.val.push_back(rng->NextDouble());
  }
  return d;
}

std::unique_ptr<storage::Table> MakeFactTable(const FactData& d) {
  storage::Schema schema({storage::Schema::Int32("fk1"),
                          storage::Schema::Int64("fk2"),
                          storage::Schema::Double("val")});
  auto table = std::make_unique<storage::Table>("fact", schema);
  for (uint32_t r = 0; r < kFactRows; ++r) {
    std::byte* row = table->AppendRow();
    schema.SetInt32(row, 0, d.fk1[r]);
    schema.SetInt64(row, 1, d.fk2[r]);
    schema.SetDouble(row, 2, d.val[r]);
  }
  return table;
}

/// Per-global-fact-row processing outcome: the page geometries of the two
/// layouts differ, so results are compared row-indexed, not page-indexed.
struct RowOutcome {
  std::vector<uint64_t> bits;
  std::vector<uint32_t> dims;
  bool live = false;

  bool operator==(const RowOutcome&) const = default;
};

/// Runs the two-filter chain over every page of `fact`, seeding each tuple's
/// bitmap from `init_bits` / `init_live` (indexed by global row), and
/// returns per-global-row outcomes. `scalar` selects ProcessScalar.
std::vector<RowOutcome> RunChain(const storage::Table* fact, Filter* f1,
                                 Filter* f2, size_t words,
                                 const std::vector<uint64_t>& init_bits,
                                 const std::vector<bool>& init_live,
                                 bool scalar, FilterScratch* scratch) {
  std::vector<RowOutcome> out(kFactRows);
  uint64_t row_base = 0;
  for (size_t pi = 0; pi < fact->num_pages(); ++pi) {
    auto batch = std::make_shared<TupleBatch>();
    batch->fact_page = fact->SharePage(pi);
    batch->page_index = pi;
    batch->ResetFor(batch->fact_page->tuple_count(),
                    static_cast<uint32_t>(words), /*filters=*/2);
    for (uint32_t i = 0; i < batch->num_tuples; ++i) {
      const size_t row = row_base + i;
      std::memcpy(batch->tuple_bits(i), init_bits.data() + row * words,
                  words * sizeof(uint64_t));
      if (!init_live[row]) batch->kill_tuple(i);
    }
    if (scalar) {
      f1->ProcessScalar(batch.get(), fact->schema(), 0);
      f2->ProcessScalar(batch.get(), fact->schema(), 1);
    } else {
      f1->Process(batch.get(), scratch);
      f2->Process(batch.get(), scratch);
    }
    for (uint32_t i = 0; i < batch->num_tuples; ++i) {
      RowOutcome& r = out[row_base + i];
      r.bits.assign(batch->tuple_bits(i), batch->tuple_bits(i) + words);
      r.dims.assign(batch->tuple_dim_rows(i), batch->tuple_dim_rows(i) + 2);
      r.live = batch->tuple_live(i);
    }
    row_base += batch->num_tuples;
  }
  SDW_CHECK(row_base == kFactRows);
  return out;
}

void FilterRowVsPax(size_t slots, uint64_t seed, Fill fill) {
  Rng rng(seed);
  storage::DeviceOptions dev_opts;
  storage::StorageDevice device(dev_opts);
  storage::BufferPool pool(&device, 0);

  auto dim1 = MakeDimTable("dim1", &rng);
  auto dim2 = MakeDimTable("dim2", &rng);
  const FactData data = MakeFactData(&rng);
  auto fact_row = MakeFactTable(data);
  auto fact_pax = MakeFactTable(data);
  fact_pax->ConvertToColumnar();
  SDW_CHECK(fact_pax->rows_per_page() < fact_row->rows_per_page());
  const size_t words = bits::WordsFor(slots);

  Filter f1(dim1.get(), "fk1", "pk", 0, slots);
  Filter f2(dim2.get(), "fk2", "pk", 1, slots);
  f1.BindFactColumn(fact_row->schema());
  f2.BindFactColumn(fact_row->schema());

  for (size_t s = 0; s < slots; ++s) {
    // Slot 0 always joins both dims so even slots=1 exercises real entries.
    const bool active = s == 0 || rng.Bernoulli(0.6);
    const int64_t which = s == 0 ? 2 : rng.Uniform(0, 2);
    auto pred = [&] {
      query::Predicate p;
      p.And(query::AtomicPred::Int("attr", query::CompareOp::kLe,
                                   rng.Uniform(0, 99)));
      return p;
    };
    if (active && (which == 0 || which == 2)) {
      f1.AdmitQuery(static_cast<uint32_t>(s), pred(), &pool);
    } else {
      f1.SetPass(static_cast<uint32_t>(s));
    }
    if (active && (which == 1 || which == 2)) {
      f2.AdmitQuery(static_cast<uint32_t>(s), pred(), &pool);
    } else {
      f2.SetPass(static_cast<uint32_t>(s));
    }
  }
  SDW_CHECK(f1.num_entries() > 0 && f2.num_entries() > 0);

  // Initial bitmaps per global fact row — identical seeds for every layout.
  std::vector<uint64_t> init_bits(kFactRows * words, 0);
  std::vector<bool> init_live(kFactRows, false);
  for (uint32_t r = 0; r < kFactRows; ++r) {
    uint64_t* tb = init_bits.data() + size_t{r} * words;
    switch (fill) {
      case Fill::kAllDead:
        break;
      case Fill::kFull:
        bits::FillOnes(tb, slots);
        break;
      case Fill::kRandom:
      case Fill::kStaleBits:
        if (rng.Bernoulli(0.05)) break;  // born dead
        for (size_t s = 0; s < slots; ++s) {
          if (rng.Bernoulli(0.7)) bits::Set(tb, s);
        }
        break;
    }
    init_live[r] = bits::Any(tb, words);
  }
  if (fill == Fill::kStaleBits) {
    // Dead tuples keeping stale non-empty bitmaps: the kernels must trust
    // the live mask, never the bits.
    for (uint32_t r = 0; r < kFactRows; ++r) {
      if (init_live[r] && rng.Bernoulli(0.2)) init_live[r] = false;
    }
  }

  FilterScratch scratch;
  const auto row_batched = RunChain(fact_row.get(), &f1, &f2, words, init_bits,
                                    init_live, /*scalar=*/false, &scratch);
  const auto pax_batched = RunChain(fact_pax.get(), &f1, &f2, words, init_bits,
                                    init_live, /*scalar=*/false, &scratch);
  const auto row_scalar = RunChain(fact_row.get(), &f1, &f2, words, init_bits,
                                   init_live, /*scalar=*/true, &scratch);
  const auto pax_scalar = RunChain(fact_pax.get(), &f1, &f2, words, init_bits,
                                   init_live, /*scalar=*/true, &scratch);
  for (uint32_t r = 0; r < kFactRows; ++r) {
    SDW_CHECK_MSG(row_batched[r] == pax_batched[r],
                  "row vs PAX batched differ at fact row %u (slots=%zu)", r,
                  slots);
    SDW_CHECK_MSG(row_batched[r] == row_scalar[r],
                  "row batched vs scalar differ at fact row %u (slots=%zu)", r,
                  slots);
    SDW_CHECK_MSG(pax_batched[r] == pax_scalar[r],
                  "PAX batched vs scalar differ at fact row %u (slots=%zu)", r,
                  slots);
    // Live bit iff non-empty bitmap — but only for tuples that entered the
    // chain live: dead tuples are skipped wholesale, so a stale-bits fill
    // legitimately leaves dead tuples with non-empty bitmaps.
    if (init_live[r]) {
      SDW_CHECK(pax_batched[r].live ==
                bits::Any(pax_batched[r].bits.data(), words));
    }
  }

  // Zero-allocation steady state: the scratch has seen both layouts'
  // high-water batch shapes; replays must not grow its vectors.
  const size_t caps[3] = {scratch.rows.capacity(), scratch.keys.capacity(),
                          scratch.values.capacity()};
  RunChain(fact_pax.get(), &f1, &f2, words, init_bits, init_live,
           /*scalar=*/false, &scratch);
  RunChain(fact_row.get(), &f1, &f2, words, init_bits, init_live,
           /*scalar=*/false, &scratch);
  SDW_CHECK_MSG(scratch.rows.capacity() == caps[0] &&
                    scratch.keys.capacity() == caps[1] &&
                    scratch.values.capacity() == caps[2],
                "warm filter scratch grew (slots=%zu)", slots);
}

// ------------------------------------------------------------ engine layer

std::vector<query::StarQuery> EngineQueries() {
  std::vector<query::StarQuery> queries;
  for (int year : {1993, 1995}) {
    query::StarQuery q;
    q.fact_table = ssb::kLineorder;
    query::DimJoin d;
    d.dim_table = ssb::kDate;
    d.fact_fk_column = "lo_orderdate";
    d.dim_pk_column = "d_datekey";
    d.pred.And(query::AtomicPred::Int("d_year", query::CompareOp::kGe, year));
    d.payload_columns.push_back("d_year");
    q.dims.push_back(std::move(d));
    q.group_by.push_back("d_year");
    query::AggSpec a;
    a.kind = query::AggSpec::Kind::kSum;
    a.col_a = "lo_revenue";
    a.out_name = "rev";
    q.aggregates.push_back(std::move(a));
    queries.push_back(std::move(q));
  }
  {
    // Two dimensions, char dim payload in the group key, and a fact
    // predicate — the EmitGroup/FoldBatch EvalAt paths over PAX pages.
    query::StarQuery q;
    q.fact_table = ssb::kLineorder;
    query::DimJoin s;
    s.dim_table = ssb::kSupplier;
    s.fact_fk_column = "lo_suppkey";
    s.dim_pk_column = "s_suppkey";
    s.pred.And(
        query::AtomicPred::Str("s_region", query::CompareOp::kEq, "ASIA"));
    s.payload_columns.push_back("s_nation");
    q.dims.push_back(std::move(s));
    query::DimJoin d;
    d.dim_table = ssb::kDate;
    d.fact_fk_column = "lo_orderdate";
    d.dim_pk_column = "d_datekey";
    d.payload_columns.push_back("d_year");
    q.dims.push_back(std::move(d));
    q.fact_pred.And(
        query::AtomicPred::Int("lo_quantity", query::CompareOp::kLt, 25));
    q.group_by = {"s_nation", "d_year"};
    query::AggSpec a1;
    a1.kind = query::AggSpec::Kind::kSumProduct;
    a1.col_a = "lo_extendedprice";
    a1.col_b = "lo_discount";
    a1.out_name = "rev";
    query::AggSpec a2;
    a2.kind = query::AggSpec::Kind::kCount;
    a2.out_name = "cnt";
    q.aggregates = {std::move(a1), std::move(a2)};
    queries.push_back(std::move(q));
  }
  return queries;
}

void EngineRowVsColumnar() {
  // Separate catalogs from identical seeds: conversion mutates the fact
  // table in place, so the row-major engine needs its own copy.
  auto row_db = testing::MakeSsbDb(0.01);
  auto col_db = testing::MakeSsbDb(0.01);
  const std::vector<query::StarQuery> queries = EngineQueries();

  auto run = [&](testing::TestDb* db, bool columnar) {
    core::EngineOptions opts;
    opts.config = core::EngineConfig::kCjoin;
    opts.columnar_pages = columnar;
    opts.cjoin.max_queries = 32;
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    auto tickets = engine.SubmitBatch(queries);
    std::vector<query::ResultSet> results;
    for (auto& t : tickets) {
      SDW_CHECK_MSG(t.Wait().ok(), "query failed (columnar=%d)", columnar);
      results.push_back(t.result());
    }
    return results;
  };

  const auto row_results = run(row_db.get(), false);
  SDW_CHECK(!row_db->catalog.MustGetTable(ssb::kLineorder)->columnar());
  const auto col_results = run(col_db.get(), true);
  SDW_CHECK(col_db->catalog.MustGetTable(ssb::kLineorder)->columnar());
  SDW_CHECK(row_results.size() == col_results.size());
  for (size_t i = 0; i < row_results.size(); ++i) {
    const std::string diff =
        query::DiffResults(row_results[i], col_results[i], 1e-9);
    SDW_CHECK_MSG(diff.empty(), "engine row vs columnar, query %zu: %s", i,
                  diff.c_str());
  }

  // Volcano oracle on the untouched row-major catalog pins absolute
  // correctness, not just cross-engine agreement.
  const baseline::VolcanoEngine oracle(&row_db->catalog, row_db->pool.get());
  for (size_t i = 0; i < queries.size(); ++i) {
    const query::ResultSet expected = oracle.Execute(queries[i]);
    const std::string diff = query::DiffResults(expected, col_results[i], 1e-9);
    SDW_CHECK_MSG(diff.empty(), "oracle vs columnar engine, query %zu: %s", i,
                  diff.c_str());
  }
}

}  // namespace

int main() {
  PageLayoutAndClone();
  EvalAtRowVsPax();
  FlatVsChainedProbe();
  // 1 slot (degenerate), 64 (one word), 65 (two words), 256 (four words):
  // Filter::Process's W = 1, 2 and 4 bitmap loops.
  for (size_t slots : {size_t{1}, size_t{64}, size_t{65}, size_t{256}}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      FilterRowVsPax(slots, seed * 1000 + slots, Fill::kRandom);
    }
    FilterRowVsPax(slots, 9000 + slots, Fill::kFull);
    FilterRowVsPax(slots, 9100 + slots, Fill::kAllDead);
    FilterRowVsPax(slots, 9200 + slots, Fill::kStaleBits);
  }
  EngineRowVsColumnar();
  std::printf("columnar_differential_test: OK\n");
  return 0;
}
