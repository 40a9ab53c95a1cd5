// Google-benchmark microbenchmarks for the primitives underlying the paper's
// effects: page transport (FIFO put/get, SPL put/get with N readers, the
// push-model deep copy), query-bitmap operations (the shared-operator
// bookkeeping), hash table build/probe, predicate evaluation, the CJOIN
// filter hot path (scalar reference vs. the batched/prefetching
// implementation), the distributor slot-grouping hot path (per-batch map vs.
// the recycled arena scratch), the shared aggregation fold (one fold per
// group vs. one scalar pass per member query), admission latency (serial
// vs. one-scan
// batched epochs), and the steady-state recycling rates. These are the
// ablation-level numbers behind the figure-level benches; see bench/README.md
// for how to read the Hashing/Joins buckets and the baseline workflow.

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cjoin/filter.h"
#include "cjoin/pipeline.h"
#include "cjoin/shared_agg.h"
#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "common/rng.h"
#include "common/timing.h"
#include "core/engine.h"
#include "core/shared_pages_list.h"
#include "harness/driver.h"
#include "qpipe/fifo_buffer.h"
#include "qpipe/flat_hash_table.h"
#include "qpipe/hash_table.h"
#include "query/predicate.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "storage/page.h"
#include "storage/storage_device.h"
#include "storage/table.h"

namespace sdw {
namespace {

storage::PagePtr MakePage() {
  auto page = storage::Page::Make(64);
  while (std::byte* t = page->AppendTuple()) {
    std::memset(t, 7, 64);
  }
  return page;
}

void BM_PageClone(benchmark::State& state) {
  auto page = MakePage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Page::Clone(*page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(storage::kPageSize));
}
BENCHMARK(BM_PageClone);

void BM_FifoPutGet(benchmark::State& state) {
  auto page = MakePage();
  for (auto _ : state) {
    qpipe::FifoBuffer fifo(0);
    for (int i = 0; i < 64; ++i) fifo.Put(page);
    fifo.Close();
    while (fifo.Next() != nullptr) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FifoPutGet);

// SPL with N concurrent readers: producer-side cost must stay flat in N
// (the whole point of pull-based SP).
void BM_SplProducerWithReaders(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  auto page = MakePage();
  for (auto _ : state) {
    state.PauseTiming();
    core::SharedPagesList spl(0);  // unbounded: producer never blocks
    std::vector<std::unique_ptr<core::SharedPagesList::Reader>> rs;
    for (int r = 0; r < readers; ++r) rs.push_back(spl.TryAttachFromStart());
    std::vector<std::thread> consumers;
    for (auto& r : rs) {
      consumers.emplace_back([&r] {
        while (r->Next() != nullptr) {
        }
      });
    }
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) spl.Put(page);
    state.PauseTiming();
    spl.Close();
    for (auto& c : consumers) c.join();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SplProducerWithReaders)->Arg(1)->Arg(4)->Arg(16);

// Push-model producer: deep-copies into per-satellite FIFOs — cost grows
// linearly with the satellite count (the serialization point).
void BM_PushProducerWithSatellites(benchmark::State& state) {
  const int satellites = static_cast<int>(state.range(0));
  auto page = MakePage();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::shared_ptr<qpipe::FifoBuffer>> fifos;
    std::vector<std::thread> consumers;
    for (int s = 0; s < satellites; ++s) {
      fifos.push_back(std::make_shared<qpipe::FifoBuffer>(size_t{0}));
      consumers.emplace_back([f = fifos.back()] {
        while (f->Next() != nullptr) {
        }
      });
    }
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      for (auto& f : fifos) f->Put(storage::Page::Clone(*page));
    }
    state.PauseTiming();
    for (auto& f : fifos) f->Close();
    for (auto& c : consumers) c.join();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PushProducerWithSatellites)->Arg(1)->Arg(4)->Arg(16);

void BM_BitmapAndWithOr(benchmark::State& state) {
  const size_t words = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> dst(words, ~0ull), a(words, 0x5555555555555555ull),
      b(words, 0x0F0F0F0F0F0F0F0Full);
  for (auto _ : state) {
    bits::AndWithOr(dst.data(), a.data(), b.data(), words);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapAndWithOr)->Arg(1)->Arg(4)->Arg(16);  // 64..1024 queries

// The filter's pass-2 word loop (AND two sources into dst, report any-set)
// and the distributor's seen-mask OR-accumulate, in isolation at a run-time
// word count. Arg = bitmap words (4 = 256 query slots).
void BM_BitmapAndScalar(benchmark::State& state) {
  const size_t words = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> dst(words, ~0ull), a(words, 0x5555555555555555ull),
      b(words, 0x0F0F0F0F0F0F0F0Full);
  uint64_t any = 0;
  for (auto _ : state) {
    any |= bits::AndWithOrAny(dst.data(), a.data(), b.data(), words);
    benchmark::DoNotOptimize(dst.data());
  }
  benchmark::DoNotOptimize(any);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapAndScalar)->Arg(1)->Arg(4)->Arg(16);

void BM_BitmapOrAccumScalar(benchmark::State& state) {
  const size_t words = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> acc(words, 0), src(words, 0x5555555555555555ull);
  uint64_t any = 0;
  for (auto _ : state) {
    for (size_t w = 0; w < words; ++w) {
      acc[w] |= src[w];
      any |= src[w];
    }
    benchmark::DoNotOptimize(acc.data());
  }
  benchmark::DoNotOptimize(any);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapOrAccumScalar)->Arg(1)->Arg(4)->Arg(16);

void BM_HashTableBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    qpipe::Int64HashTable ht;
    for (int64_t k = 0; k < n; ++k) {
      ht.Insert(qpipe::HashKey(k), k, static_cast<uint64_t>(k));
    }
    ht.Build();
    benchmark::DoNotOptimize(ht.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashTableBuild)->Arg(1000)->Arg(100000);

void BM_HashTableProbe(benchmark::State& state) {
  const int64_t n = state.range(0);
  qpipe::Int64HashTable ht;
  for (int64_t k = 0; k < n; ++k) {
    ht.Insert(qpipe::HashKey(k), k, static_cast<uint64_t>(k));
  }
  ht.Build();
  int64_t probe = 0;
  for (auto _ : state) {
    uint64_t sum = 0;
    ht.ForEachMatch(qpipe::HashKey(probe % (2 * n)), probe % (2 * n),
                    [&](uint64_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
    ++probe;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableProbe)->Arg(1000)->Arg(100000);

void BM_PredicateEval(benchmark::State& state) {
  const storage::Schema schema = ssb::CustomerSchema();
  std::vector<std::byte> tuple(schema.tuple_size());
  schema.SetChar(tuple.data(), schema.MustColumnIndex("c_nation"),
                 "UNITED STATES");
  query::Predicate pred;
  pred.AndAnyOf({query::AtomicPred::Str("c_nation", query::CompareOp::kEq,
                                        "UNITED KINGDOM"),
                 query::AtomicPred::Str("c_nation", query::CompareOp::kEq,
                                        "UNITED STATES")});
  const auto bound = pred.Bind(schema);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound.Eval(schema, tuple.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredicateEval);

// ---------------------------------------------------------------------------
// CJOIN filter hot path: batched probe and batch recycling (this repo's
// zero-allocation filter rework). Compare the *Scalar / *Batched pairs —
// the acceptance bar for the rework was batched >= 1.5x scalar tuples/sec
// on the 64-slot (one bitmap word) fast path.

// The chained table's per-key ForEachMatch loop (the QPipe hash join's
// probe) vs. the flat table's batched, prefetching ProbeBatch (the probe of
// every CJOIN filter), 4096 keys per iteration, ~75% hits over a 100k-entry
// table (out of cache).
class ProbeFixture {
 public:
  static constexpr size_t kEntries = 100000;
  static constexpr size_t kKeys = 4096;

  ProbeFixture() {
    Rng rng(42);
    for (size_t v = 0; v < kEntries; ++v) {
      const int64_t key = static_cast<int64_t>(v) * 7 + 3;
      ht_.Insert(qpipe::HashKey(key), key, v);
    }
    ht_.Build();
    keys_.resize(kKeys);
    for (auto& k : keys_) {
      k = rng.Bernoulli(0.75)
              ? static_cast<int64_t>(rng.Index(kEntries)) * 7 + 3
              : -static_cast<int64_t>(rng.Next() % kEntries) - 1;
    }
    out_.resize(kKeys);
  }

  static ProbeFixture& Get() {
    static ProbeFixture f;
    return f;
  }

  qpipe::Int64HashTable ht_;
  std::vector<int64_t> keys_;
  std::vector<uint64_t> out_;
};

void BM_HashProbeScalar(benchmark::State& state) {
  ProbeFixture& f = ProbeFixture::Get();
  for (auto _ : state) {
    for (size_t i = 0; i < ProbeFixture::kKeys; ++i) {
      uint64_t v = ~uint64_t{0};
      f.ht_.ForEachMatch(qpipe::HashKey(f.keys_[i]), f.keys_[i],
                         [&](uint64_t value) { v = value; });
      f.out_[i] = v;
    }
    benchmark::DoNotOptimize(f.out_.data());
  }
  state.SetItemsProcessed(state.iterations() * ProbeFixture::kKeys);
}
BENCHMARK(BM_HashProbeScalar);

// The same 100k entries in the flat open-addressing table: one slot array,
// no per-entry indirection, so the batched probe issues one prefetchable
// cache line per key.
class FlatProbeFixture {
 public:
  FlatProbeFixture() {
    const ProbeFixture& src = ProbeFixture::Get();
    for (size_t v = 0; v < ProbeFixture::kEntries; ++v) {
      const int64_t key = static_cast<int64_t>(v) * 7 + 3;
      bool inserted;
      flat_.FindOrInsert(key, v, &inserted);
    }
    out_.resize(src.keys_.size());
  }

  static FlatProbeFixture& Get() {
    static FlatProbeFixture f;
    return f;
  }

  qpipe::FlatInt64HashTable flat_;
  std::vector<uint64_t> out_;
};

void BM_ProbeFlat(benchmark::State& state) {
  ProbeFixture& f = ProbeFixture::Get();
  FlatProbeFixture& flat = FlatProbeFixture::Get();
  for (auto _ : state) {
    flat.flat_.ProbeBatch(f.keys_.data(), ProbeFixture::kKeys,
                          flat.out_.data());
    benchmark::DoNotOptimize(flat.out_.data());
  }
  state.SetItemsProcessed(state.iterations() * ProbeFixture::kKeys);
}
BENCHMARK(BM_ProbeFlat);

// The full filter step on real 32 KB fact pages. Scalar = the per-tuple
// reference (GetIntAny decode, one unbatched Find, per-call heap match
// vector); batched = Process: fixed-stride key gather + ProbeBatch +
// branchless sentinel pass 2 + reusable scratch. Arg = query slots (64 ->
// one bitmap word, 128 -> two (the width bench/e2e runs), 256 -> four).
// Manual timing: re-priming the batch bitmaps between runs is excluded.
class FilterFixture {
 public:
  explicit FilterFixture(size_t slots, bool columnar = false)
      : slots_(slots) {
    constexpr int64_t kDimRows = 30000;
    constexpr int64_t kKeySpace = 40000;
    constexpr uint32_t kFactRows = 64 * 1024;
    Rng rng(7);
    words_ = bits::WordsFor(slots);

    storage::Schema dim_schema({storage::Schema::Int32("pk"),
                                storage::Schema::Int32("attr")});
    dim_ = std::make_unique<storage::Table>("dim", dim_schema);
    for (int64_t r = 0; r < kDimRows; ++r) {
      std::byte* row = dim_->AppendRow();
      dim_schema.SetInt32(row, 0, static_cast<int32_t>(r));
      dim_schema.SetInt32(row, 1, static_cast<int32_t>(rng.Uniform(0, 99)));
    }

    storage::Schema fact_schema({storage::Schema::Int32("fk"),
                                 storage::Schema::Int64("other"),
                                 storage::Schema::Double("val")});
    fact_ = std::make_unique<storage::Table>("fact", fact_schema);
    for (uint32_t r = 0; r < kFactRows; ++r) {
      std::byte* row = fact_->AppendRow();
      fact_schema.SetInt32(
          row, 0, static_cast<int32_t>(rng.Uniform(0, kKeySpace - 1)));
      fact_schema.SetInt64(row, 1, rng.Uniform(0, kKeySpace - 1));
      fact_schema.SetDouble(row, 2, rng.NextDouble());
    }

    if (columnar) fact_->ConvertToColumnar();

    storage::DeviceOptions dev_opts;
    device_ = std::make_unique<storage::StorageDevice>(dev_opts);
    pool_ = std::make_unique<storage::BufferPool>(device_.get(), 0);

    filter_ = std::make_unique<cjoin::Filter>(dim_.get(), "fk", "pk", 0,
                                              slots);
    filter_->BindFactColumn(fact_->schema());
    // Every fourth slot runs a query on this dimension; the rest pass.
    for (size_t s = 0; s < slots; ++s) {
      if (s % 4 == 0) {
        query::Predicate p;
        p.And(query::AtomicPred::Int(
            "attr", query::CompareOp::kLe,
            static_cast<int64_t>(rng.Uniform(20, 90))));
        filter_->AdmitQuery(static_cast<uint32_t>(s), p, pool_.get());
      } else {
        filter_->SetPass(static_cast<uint32_t>(s));
      }
    }

    for (size_t pi = 0; pi < fact_->num_pages(); ++pi) {
      auto b = std::make_shared<cjoin::TupleBatch>();
      b->fact_page = fact_->SharePage(pi);
      b->page_index = pi;
      b->ResetFor(b->fact_page->tuple_count(),
                  static_cast<uint32_t>(words_), 1);
      tuples_per_pass_ += b->num_tuples;
      batches_.push_back(std::move(b));
    }
    template_bits_.assign(words_, 0);
    bits::FillOnes(template_bits_.data(), slots);
  }

  /// One fixture per (slots, layout), built on first use. The columnar one
  /// has the same dims, predicates and fact data, with the fact table
  /// rebuilt in the PAX layout (page geometry differs — tuples/sec is the
  /// comparable unit).
  static FilterFixture& Get(size_t slots, bool columnar = false) {
    static std::map<std::pair<size_t, bool>, std::unique_ptr<FilterFixture>>
        fixtures;
    auto& f = fixtures[{slots, columnar}];
    if (f == nullptr) f = std::make_unique<FilterFixture>(slots, columnar);
    return *f;
  }

  void Prime(cjoin::TupleBatch* b) const {
    if (words_ == 1) {
      std::fill(b->bits.begin(), b->bits.end(), template_bits_[0]);
    } else {
      for (uint32_t i = 0; i < b->num_tuples; ++i) {
        bits::Copy(b->tuple_bits(i), template_bits_.data(), words_);
      }
    }
    std::fill(b->dim_rows.begin(), b->dim_rows.end(), cjoin::kNoDimRow);
    bits::FillOnes(b->live.data(), b->num_tuples);
  }

  const size_t slots_;
  size_t words_ = 0;
  uint64_t tuples_per_pass_ = 0;
  std::unique_ptr<storage::Table> dim_;
  std::unique_ptr<storage::Table> fact_;
  std::unique_ptr<storage::StorageDevice> device_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<cjoin::Filter> filter_;
  std::vector<cjoin::BatchPtr> batches_;
  std::vector<uint64_t> template_bits_;
};

void BM_FilterProcessScalar(benchmark::State& state) {
  FilterFixture& f = FilterFixture::Get(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    int64_t nanos = 0;
    for (auto& b : f.batches_) {
      f.Prime(b.get());
      const int64_t t0 = NowNanos();
      f.filter_->ProcessScalar(b.get(), f.fact_->schema(), 0);
      nanos += NowNanos() - t0;
    }
    state.SetIterationTime(static_cast<double>(nanos) * 1e-9);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_per_pass_));
}
BENCHMARK(BM_FilterProcessScalar)->Arg(64)->Arg(256)->UseManualTime();

void BM_FilterProcessBatched(benchmark::State& state) {
  FilterFixture& f = FilterFixture::Get(static_cast<size_t>(state.range(0)));
  cjoin::FilterScratch scratch;
  for (auto _ : state) {
    int64_t nanos = 0;
    for (auto& b : f.batches_) {
      f.Prime(b.get());
      const int64_t t0 = NowNanos();
      f.filter_->Process(b.get(), &scratch);
      nanos += NowNanos() - t0;
    }
    state.SetIterationTime(static_cast<double>(nanos) * 1e-9);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_per_pass_));
}
BENCHMARK(BM_FilterProcessBatched)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->UseManualTime();

// Columnar (PAX) variants of the two filter benches above: the same code
// over the same rows, stored in minipages, so the batched key gather is a
// contiguous read of the FK minipage. Compare tuples/sec with the row-major
// pair to see what the layout alone buys.
void BM_FilterProcessScalarColumnar(benchmark::State& state) {
  FilterFixture& f = FilterFixture::Get(static_cast<size_t>(state.range(0)),
                                        /*columnar=*/true);
  for (auto _ : state) {
    int64_t nanos = 0;
    for (auto& b : f.batches_) {
      f.Prime(b.get());
      const int64_t t0 = NowNanos();
      f.filter_->ProcessScalar(b.get(), f.fact_->schema(), 0);
      nanos += NowNanos() - t0;
    }
    state.SetIterationTime(static_cast<double>(nanos) * 1e-9);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_per_pass_));
}
BENCHMARK(BM_FilterProcessScalarColumnar)->Arg(64)->Arg(256)->UseManualTime();

void BM_FilterProcessBatchedColumnar(benchmark::State& state) {
  FilterFixture& f = FilterFixture::Get(static_cast<size_t>(state.range(0)),
                                        /*columnar=*/true);
  cjoin::FilterScratch scratch;
  for (auto _ : state) {
    int64_t nanos = 0;
    for (auto& b : f.batches_) {
      f.Prime(b.get());
      const int64_t t0 = NowNanos();
      f.filter_->Process(b.get(), &scratch);
      nanos += NowNanos() - t0;
    }
    state.SetIterationTime(static_cast<double>(nanos) * 1e-9);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_per_pass_));
}
BENCHMARK(BM_FilterProcessBatchedColumnar)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->UseManualTime();

// ---------------------------------------------------------------------------
// CJOIN distributor hot path: grouping a batch's live tuples by query slot.
// Scalar = the seed's per-batch rebuilt unordered_map<slot, vector>; batched
// = the recycled flat counting-sort scratch (DistributorScratch). The
// acceptance bar for the rework was batched >= 1.3x scalar tuples/sec at 64
// slots. Arg = query slots (64 -> one bitmap word, 128 -> two, 256 -> four).

class DistributorFixture {
 public:
  static constexpr uint32_t kTuplesPerBatch = 4096;
  static constexpr size_t kBatches = 8;

  explicit DistributorFixture(size_t slots) {
    Rng rng(13);
    const size_t words = bits::WordsFor(slots);
    // Mimic a post-filter population: ~1/8 of the slots active, ~70% of the
    // tuples still live, each live tuple matching a random subset of the
    // active slots.
    std::vector<uint32_t> active;
    for (size_t s = 0; s < slots; ++s) {
      if (s % 8 == 0) active.push_back(static_cast<uint32_t>(s));
    }
    for (size_t b = 0; b < kBatches; ++b) {
      auto batch = std::make_shared<cjoin::TupleBatch>();
      batch->ResetFor(kTuplesPerBatch, static_cast<uint32_t>(words), 1);
      for (uint32_t i = 0; i < kTuplesPerBatch; ++i) {
        uint64_t* tb = batch->tuple_bits(i);
        bits::Zero(tb, words);
        if (rng.Bernoulli(0.7)) {
          for (uint32_t s : active) {
            if (rng.Bernoulli(0.5)) bits::Set(tb, s);
          }
        }
        if (!bits::Any(tb, words)) batch->kill_tuple(i);
      }
      tuples_per_pass_ += kTuplesPerBatch;
      batches_.push_back(std::move(batch));
    }
  }

  static DistributorFixture& Get(size_t slots) {
    static std::map<size_t, std::unique_ptr<DistributorFixture>> fixtures;
    auto& f = fixtures[slots];
    if (f == nullptr) f = std::make_unique<DistributorFixture>(slots);
    return *f;
  }

  uint64_t tuples_per_pass_ = 0;
  std::vector<cjoin::BatchPtr> batches_;
};

void BM_DistributePartScalar(benchmark::State& state) {
  DistributorFixture& f =
      DistributorFixture::Get(static_cast<size_t>(state.range(0)));
  std::unordered_map<uint32_t, std::vector<uint32_t>> by_slot;
  uint64_t pairs = 0;
  for (auto _ : state) {
    for (const auto& b : f.batches_) {
      cjoin::DistributePartScalar(*b, &by_slot);
      pairs += by_slot.size();
    }
  }
  benchmark::DoNotOptimize(pairs);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_per_pass_));
}
BENCHMARK(BM_DistributePartScalar)->Arg(64)->Arg(256);

void BM_DistributePartBatched(benchmark::State& state) {
  DistributorFixture& f =
      DistributorFixture::Get(static_cast<size_t>(state.range(0)));
  cjoin::DistributorScratch scratch;
  uint64_t pairs = 0;
  for (auto _ : state) {
    for (const auto& b : f.batches_) {
      pairs += cjoin::DistributePartBatched(*b, &scratch);
    }
  }
  benchmark::DoNotOptimize(pairs);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_per_pass_));
  state.counters["scratch_grows"] = static_cast<double>(scratch.grows);
}
BENCHMARK(BM_DistributePartBatched)->Arg(64)->Arg(128)->Arg(256);

// ---------------------------------------------------------------------------
// Shared aggregation hot path: folding one distributed batch ONCE for a
// group with N member queries (SharedAggregator::FoldBatch — one accumulator
// update per distinct (group key, member bitmap) per tuple) vs. the scalar
// reference running one private aggregation pass per member
// (AggregateScalar). Member predicate verdicts are pre-applied to the
// bitmaps (the §3.2 preprocessor variant), isolating the aggregation work
// itself — per-tuple predicate evaluation is per-member on either path.
// items/sec is batch tuples per pass for BOTH sides, so the shared side
// should stay roughly flat in N while the scalar side's rate drops
// ~linearly — the ablation-level number behind fig_shared_agg.

class SharedAggFixture {
 public:
  static constexpr size_t kSlots = 64;  // one bitmap word

  explicit SharedAggFixture(size_t members)
      : schema_({storage::Schema::Int32("k1"), storage::Schema::Int32("v1")}),
        agg_(/*num_parts=*/1, bits::WordsFor(kSlots)) {
    Rng rng(21);
    auto page = storage::Page::Make(schema_.tuple_size());
    while (std::byte* t = page->AppendTuple()) {
      schema_.SetInt32(t, 0, static_cast<int32_t>(rng.Uniform(0, 4)));
      schema_.SetInt32(t, 1, static_cast<int32_t>(rng.Uniform(0, 99)));
    }
    batch_.fact_page = page;
    batch_.ResetFor(page->tuple_count(),
                    static_cast<uint32_t>(bits::WordsFor(kSlots)), 1);
    tuples_ = batch_.num_tuples;

    group_ = agg_.CreateGroup("bench_shape");
    group_->join_schema = schema_;
    group_->join_row_size = schema_.tuple_size();
    group_->moves = {{/*from_fact=*/true, 0, /*src_col=*/0, 0, 0, schema_.tuple_size()}};
    group_->group_cols = {0};
    group_->aggs = {{query::AggSpec::Kind::kSum, 1, -1, -1,
                     /*integer_exact=*/true, "s"},
                    {query::AggSpec::Kind::kCount, -1, -1, -1, false, "c"}};
    group_->out_schema = storage::Schema({storage::Schema::Int32("k1"),
                                          storage::Schema::Int64("s"),
                                          storage::Schema::Int64("c")});
    group_->key_width = schema_.column(0).width();
    // Distinct per-member selectivities (the predicates are on v1 only, so
    // the fold's bitmap-key space stays bounded across iterations).
    for (size_t s = 0; s < members; ++s) {
      query::Predicate p;
      p.And(query::AtomicPred::Int("v1", query::CompareOp::kLe,
                                   static_cast<int64_t>(30 + s % 60)));
      members_.push_back({static_cast<uint32_t>(s),
                          static_cast<uint32_t>(s),
                          false,
                          p.Bind(schema_),
                          {}});
      agg_.AddMember(group_, members_.back().slot, members_.back().fact_pred);
    }
    // Pre-apply the member verdicts to the bitmaps (the preprocessor
    // variant): bit s set iff member s's predicate admits the tuple.
    for (uint32_t i = 0; i < batch_.num_tuples; ++i) {
      uint64_t* tb = batch_.tuple_bits(i);
      bits::Zero(tb, bits::WordsFor(kSlots));
      const std::byte* t = page->tuple(i);
      for (const auto& m : members_) {
        if (m.fact_pred.Eval(schema_, t)) bits::Set(tb, m.slot);
      }
      if (!bits::Any(tb, bits::WordsFor(kSlots))) batch_.kill_tuple(i);
    }
  }

  static SharedAggFixture& Get(size_t members) {
    static SharedAggFixture f1(1);
    static SharedAggFixture f16(16);
    static SharedAggFixture f64(64);
    return members == 1 ? f1 : members == 16 ? f16 : f64;
  }

  storage::Schema schema_;
  cjoin::SharedAggregator agg_;
  cjoin::SharedAggregator::Group* group_ = nullptr;
  std::vector<cjoin::SharedAggregator::Member> members_;
  cjoin::TupleBatch batch_;
  uint64_t tuples_ = 0;
};

void BM_SharedAggFoldBatch(benchmark::State& state) {
  SharedAggFixture& f =
      SharedAggFixture::Get(static_cast<size_t>(state.range(0)));
  cjoin::SharedAggregator::FoldScratch scratch;
  for (auto _ : state) {
    f.agg_.FoldBatch(f.group_, f.batch_, f.schema_, nullptr, /*part=*/0,
                     /*preds_pre_applied=*/true, &scratch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_));
}
BENCHMARK(BM_SharedAggFoldBatch)->Arg(1)->Arg(16)->Arg(64);

void BM_SharedAggScalarRef(benchmark::State& state) {
  SharedAggFixture& f =
      SharedAggFixture::Get(static_cast<size_t>(state.range(0)));
  std::vector<cjoin::SharedAggregator::AccTable> tables(f.members_.size());
  for (auto _ : state) {
    for (size_t m = 0; m < f.members_.size(); ++m) {
      cjoin::AggregateScalar(*f.group_, f.members_[m], f.batch_, f.schema_,
                             nullptr, /*preds_pre_applied=*/true, &tables[m]);
    }
    benchmark::DoNotOptimize(tables.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tuples_));
}
BENCHMARK(BM_SharedAggScalarRef)->Arg(1)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Admission latency: K pending queries admitted serially (one dimension scan
// each, the seed behavior) vs. as one AdmitQueryBatch epoch (ONE scan for
// all K) vs. re-admitted from the selection cache (no scan). items/sec is
// admitted queries; the batched side should scale with K while serial stays
// flat.

class AdmissionFixture {
 public:
  static constexpr int64_t kDimRows = 30000;

  AdmissionFixture() {
    Rng rng(99);
    storage::Schema dim_schema(
        {storage::Schema::Int32("pk"), storage::Schema::Int32("attr")});
    dim_ = std::make_unique<storage::Table>("dim", dim_schema);
    for (int64_t r = 0; r < kDimRows; ++r) {
      std::byte* row = dim_->AppendRow();
      dim_schema.SetInt32(row, 0, static_cast<int32_t>(r));
      dim_schema.SetInt32(row, 1, static_cast<int32_t>(rng.Uniform(0, 99)));
    }
    device_ = std::make_unique<storage::StorageDevice>(storage::DeviceOptions{});
    pool_ = std::make_unique<storage::BufferPool>(device_.get(), 0);
    for (size_t k = 0; k < 64; ++k) {
      query::Predicate p;
      p.And(query::AtomicPred::Int("attr", query::CompareOp::kLe,
                                   static_cast<int64_t>(rng.Uniform(20, 90))));
      preds_.push_back(std::move(p));
    }
  }

  static AdmissionFixture& Get() {
    static AdmissionFixture f;
    return f;
  }

  std::unique_ptr<storage::Table> dim_;
  std::unique_ptr<storage::StorageDevice> device_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::vector<query::Predicate> preds_;
};

void BM_AdmitSerial(benchmark::State& state) {
  AdmissionFixture& f = AdmissionFixture::Get();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    cjoin::Filter filter(f.dim_.get(), "fk", "pk", 0, 64);
    for (size_t q = 0; q < k; ++q) {
      filter.AdmitQuery(static_cast<uint32_t>(q), f.preds_[q], f.pool_.get());
    }
    benchmark::DoNotOptimize(filter.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
}
BENCHMARK(BM_AdmitSerial)->Arg(1)->Arg(8)->Arg(32);

void BM_AdmitBatched(benchmark::State& state) {
  AdmissionFixture& f = AdmissionFixture::Get();
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<cjoin::Filter::AdmitRequest> reqs;
  for (size_t q = 0; q < k; ++q) {
    reqs.push_back({static_cast<uint32_t>(q), &f.preds_[q]});
  }
  for (auto _ : state) {
    cjoin::Filter filter(f.dim_.get(), "fk", "pk", 0, 64);
    filter.AdmitQueryBatch(reqs.data(), reqs.size(), f.pool_.get());
    benchmark::DoNotOptimize(filter.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
}
BENCHMARK(BM_AdmitBatched)->Arg(1)->Arg(8)->Arg(32);

// The same K predicates re-admitted into a warm filter: every request hits
// the selection cache, so admission reads no dimension page and evaluates no
// predicate — it sets one bit per cached entry. The `scans` counter stays at
// 1 (the warm-up).
void BM_AdmitCached(benchmark::State& state) {
  AdmissionFixture& f = AdmissionFixture::Get();
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<cjoin::Filter::AdmitRequest> reqs;
  for (size_t q = 0; q < k; ++q) {
    reqs.push_back({static_cast<uint32_t>(q), &f.preds_[q]});
  }
  cjoin::Filter filter(f.dim_.get(), "fk", "pk", 0, 64);
  filter.AdmitQueryBatch(reqs.data(), reqs.size(), f.pool_.get());
  for (auto _ : state) {
    filter.AdmitQueryBatch(reqs.data(), reqs.size(), f.pool_.get());
    benchmark::DoNotOptimize(filter.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
  state.counters["scans"] = static_cast<double>(filter.admission_scans());
}
BENCHMARK(BM_AdmitCached)->Arg(1)->Arg(8)->Arg(32);

// Steady-state CJOIN pipeline over a small SSB instance: items/sec is fact
// pages through the GQP; the pool_hit_rate counter is the batch recycling
// rate (1.0 == zero per-batch heap allocation on a warm pipeline).
void BM_CjoinPipelineSteady(benchmark::State& state) {
  static storage::Catalog* catalog = [] {
    auto* c = new storage::Catalog();
    ssb::BuildSsbDatabase(c, {0.02, 42});
    return c;
  }();
  storage::DeviceOptions dev_opts;
  storage::StorageDevice device(dev_opts);
  storage::BufferPool pool(&device, 0);
  core::EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  opts.cjoin.max_queries = 64;
  core::Engine engine(catalog, &pool, opts);
  const auto queries = ssb::RandomQ32Workload(8, 5);
  // Warm-up: fills the batch pool.
  harness::RunBatch(&engine, &pool, queries, true, nullptr);

  uint64_t pages = 0, hits = 0, misses = 0;
  uint64_t scratch_reuses = 0, scratch_grows = 0;
  for (auto _ : state) {
    harness::RunMetrics m =
        harness::RunBatch(&engine, &pool, queries, true, nullptr);
    pages += m.cjoin.fact_pages_scanned;
    hits += m.cjoin.batch_pool_hits;
    misses += m.cjoin.batch_pool_misses;
    scratch_reuses += m.cjoin.distributor_scratch_reuses;
    scratch_grows += m.cjoin.distributor_scratch_grows;
  }
  state.SetItemsProcessed(static_cast<int64_t>(pages));
  state.counters["pool_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  state.counters["pool_misses"] = static_cast<double>(misses);
  // Distributor analogue of the pool hit rate: 1.0 means the grouping
  // scratch never grew (zero per-batch heap allocation) on the warm runs.
  state.counters["scratch_reuse_rate"] =
      scratch_reuses + scratch_grows == 0
          ? 0.0
          : static_cast<double>(scratch_reuses) /
                static_cast<double>(scratch_reuses + scratch_grows);
}
// Real time: the pipeline's work happens in its own threads, so CPU-time
// budgeting would run this for far more iterations than needed.
BENCHMARK(BM_CjoinPipelineSteady)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace sdw

BENCHMARK_MAIN();
