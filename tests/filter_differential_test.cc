// Differential test for the batched CJOIN filter hot path: Filter::Process
// (batched gather + ProbeBatch + live-mask maintenance) must produce
// bit-identical bitmaps, dim_rows and live masks to the retained scalar
// reference Filter::ProcessScalar, across randomized batches, single- and
// multi-word bitmaps, partially-dead and all-dead batches, and a chain of
// two filters.

#include <cstdio>
#include <cstring>
#include <vector>

#include "cjoin/filter.h"
#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "common/macros.h"
#include "common/rng.h"
#include "query/predicate.h"
#include "storage/buffer_pool.h"
#include "storage/storage_device.h"
#include "storage/table.h"

using namespace sdw;
using cjoin::BatchPtr;
using cjoin::Filter;
using cjoin::FilterScratch;
using cjoin::TupleBatch;

namespace {

constexpr int64_t kDimRows = 500;
constexpr int64_t kKeySpace = 1200;  // > kDimRows, so some fact FKs miss
constexpr uint32_t kFactRows = 4000;

std::unique_ptr<storage::Table> MakeDimTable(const std::string& name,
                                             Rng* rng) {
  storage::Schema schema({storage::Schema::Int32("pk"),
                          storage::Schema::Int32("attr")});
  auto table = std::make_unique<storage::Table>(name, schema);
  // Unique PKs drawn from a key space wider than the table, shuffled.
  std::vector<size_t> pks = rng->SampleDistinct(kKeySpace, kDimRows);
  for (int64_t r = 0; r < kDimRows; ++r) {
    std::byte* row = table->AppendRow();
    schema.SetInt32(row, 0, static_cast<int32_t>(pks[r]));
    schema.SetInt32(row, 1, static_cast<int32_t>(rng->Uniform(0, 99)));
  }
  return table;
}

// `pad_width` > 0 appends a char column to change the page geometry; 491
// makes exactly 64 tuples fit per page, so full pages hit the
// num_tuples % 64 == 0 edge of the all-live fast-path detection.
std::unique_ptr<storage::Table> MakeFactTable(Rng* rng,
                                              uint32_t pad_width = 0) {
  std::vector<storage::Column> cols = {storage::Schema::Int32("fk1"),
                                       storage::Schema::Int64("fk2"),
                                       storage::Schema::Double("val")};
  if (pad_width > 0) cols.push_back(storage::Schema::Char("pad", pad_width));
  storage::Schema schema(cols);
  auto table = std::make_unique<storage::Table>("fact", schema);
  const uint32_t rows = pad_width > 0 ? 1024 : kFactRows;
  for (uint32_t r = 0; r < rows; ++r) {
    std::byte* row = table->AppendRow();
    schema.SetInt32(row, 0,
                    static_cast<int32_t>(rng->Uniform(0, kKeySpace - 1)));
    schema.SetInt64(row, 1, rng->Uniform(0, kKeySpace - 1));
    schema.SetDouble(row, 2, rng->NextDouble());
  }
  return table;
}

BatchPtr MakeBatch(const storage::Table* fact, size_t page_idx, size_t words,
                   size_t num_filters, size_t slots, Rng* rng,
                   bool all_dead) {
  auto batch = std::make_shared<TupleBatch>();
  batch->fact_page = fact->SharePage(page_idx);
  batch->page_index = page_idx;
  batch->ResetFor(batch->fact_page->tuple_count(),
                  static_cast<uint32_t>(words),
                  static_cast<uint32_t>(num_filters));
  for (uint32_t i = 0; i < batch->num_tuples; ++i) {
    uint64_t* tb = batch->tuple_bits(i);
    bits::Zero(tb, words);
    if (!all_dead && !rng->Bernoulli(0.05)) {  // 5% born-dead tuples
      for (size_t s = 0; s < slots; ++s) {
        if (rng->Bernoulli(0.7)) bits::Set(tb, s);
      }
    }
    if (!bits::Any(tb, words)) batch->kill_tuple(i);
  }
  return batch;
}

BatchPtr CloneBatch(const TupleBatch& src) {
  auto copy = std::make_shared<TupleBatch>();
  copy->fact_page = src.fact_page;
  copy->page_index = src.page_index;
  copy->num_tuples = src.num_tuples;
  copy->words_per_tuple = src.words_per_tuple;
  copy->num_filters = src.num_filters;
  copy->bits = src.bits;
  copy->dim_rows = src.dim_rows;
  copy->live = src.live;
  return copy;
}

void CheckIdentical(const TupleBatch& a, const TupleBatch& b,
                    const char* what) {
  SDW_CHECK_MSG(a.bits == b.bits, "%s: bitmap words differ", what);
  SDW_CHECK_MSG(a.dim_rows == b.dim_rows, "%s: dim_rows differ", what);
  SDW_CHECK_MSG(a.live == b.live, "%s: live masks differ", what);
}

void RunTrial(size_t slots, uint64_t seed, bool all_dead,
              uint32_t pad_width = 0) {
  Rng rng(seed);
  storage::DeviceOptions dev_opts;
  storage::StorageDevice device(dev_opts);
  storage::BufferPool pool(&device, 0);

  auto dim1 = MakeDimTable("dim1", &rng);
  auto dim2 = MakeDimTable("dim2", &rng);
  auto fact = MakeFactTable(&rng, pad_width);
  if (pad_width > 0) {
    // The padded geometry exists to exercise full pages whose tuple count
    // is an exact multiple of 64 (the all-live fast-path tail edge).
    SDW_CHECK(fact->rows_per_page() == 64);
  }
  const storage::Schema& fact_schema = fact->schema();
  const size_t words = bits::WordsFor(slots);

  Filter f1(dim1.get(), "fk1", "pk", 0, slots);
  Filter f2(dim2.get(), "fk2", "pk", 1, slots);
  f1.BindFactColumn(fact_schema);
  f2.BindFactColumn(fact_schema);

  // Admit a random set of queries: each references f1, f2 or both, with a
  // random selection on the dimension attribute; pass-through elsewhere.
  for (size_t s = 0; s < slots; ++s) {
    if (!rng.Bernoulli(0.6)) {  // inactive slot: pass everywhere
      f1.SetPass(static_cast<uint32_t>(s));
      f2.SetPass(static_cast<uint32_t>(s));
      continue;
    }
    const int64_t which = rng.Uniform(0, 2);  // 0: f1, 1: f2, 2: both
    auto pred = [&] {
      query::Predicate p;
      p.And(query::AtomicPred::Int("attr", query::CompareOp::kLe,
                                   rng.Uniform(0, 99)));
      return p;
    };
    if (which == 0 || which == 2) {
      f1.AdmitQuery(static_cast<uint32_t>(s), pred(), &pool);
    } else {
      f1.SetPass(static_cast<uint32_t>(s));
    }
    if (which == 1 || which == 2) {
      f2.AdmitQuery(static_cast<uint32_t>(s), pred(), &pool);
    } else {
      f2.SetPass(static_cast<uint32_t>(s));
    }
  }
  SDW_CHECK(f1.num_entries() > 0 && f2.num_entries() > 0);

  FilterScratch scratch;
  for (size_t pi = 0; pi < fact->num_pages(); ++pi) {
    BatchPtr batched = MakeBatch(fact.get(), pi, words, 2, slots, &rng,
                                 all_dead);
    BatchPtr scalar = CloneBatch(*batched);

    // Full chain through both filters on each side.
    f1.Process(batched.get(), &scratch);
    f2.Process(batched.get(), &scratch);
    f1.ProcessScalar(scalar.get(), fact_schema, 0);
    f2.ProcessScalar(scalar.get(), fact_schema, 1);
    CheckIdentical(*batched, *scalar, all_dead ? "all-dead" : "random");

    // Invariant: live bit set iff the tuple's bitmap is non-empty.
    for (uint32_t i = 0; i < batched->num_tuples; ++i) {
      SDW_CHECK(batched->tuple_live(i) ==
                bits::Any(batched->tuple_bits(i), words));
    }
  }
}

}  // namespace

int main() {
  // One-word bitmaps (the W = 1 loop) and three words (the run-time width).
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunTrial(64, seed, /*all_dead=*/false);
    RunTrial(192, seed, /*all_dead=*/false);
  }
  // All-dead batches: every tuple skipped, nothing may be touched.
  RunTrial(64, 9, /*all_dead=*/true);
  RunTrial(192, 9, /*all_dead=*/true);
  // Pages holding exactly 64 tuples: num_tuples % 64 == 0, so the all-live
  // detection has no partial tail word to lean on and must scan every word.
  for (uint64_t seed : {4u, 5u}) {
    RunTrial(64, seed, /*all_dead=*/false, /*pad_width=*/491);
    RunTrial(192, seed, /*all_dead=*/false, /*pad_width=*/491);
  }
  RunTrial(64, 9, /*all_dead=*/true, /*pad_width=*/491);
  std::printf("filter_differential_test: OK\n");
  return 0;
}
