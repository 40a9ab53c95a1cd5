// Property tests over randomized query structures: star queries with
// randomly generated predicate shapes (random columns, operators,
// disjunction widths, dimension subsets) must produce identical results on
// every engine configuration and the Volcano oracle. This explores corners
// of the predicate/plan space that the fixed SSB templates never hit.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "baseline/volcano.h"
#include "cjoin/filter.h"
#include "cjoin/pipeline.h"
#include "cjoin/shared_agg.h"
#include "cjoin/tuple_batch.h"
#include "common/bitmap.h"
#include "common/rng.h"
#include "core/engine.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "test_util.h"

namespace sdw {
namespace {

using core::CommModel;
using core::EngineConfig;
using testing::SharedSsbDb;
using testing::TestDb;

// Random atomic predicate on one of the (queryable) columns of `table`.
query::AtomicPred RandomAtom(const storage::Table* table, Rng* rng) {
  const storage::Schema& s = table->schema();
  // Restrict to columns with enough duplication to make predicates
  // interesting (skip wide uniques like names/addresses/phones).
  std::vector<size_t> candidates;
  for (size_t c = 0; c < s.num_columns(); ++c) {
    const std::string& n = s.column(c).name;
    if (n.find("name") != std::string::npos ||
        n.find("address") != std::string::npos ||
        n.find("phone") != std::string::npos ||
        n.find("date") == 0) {
      continue;
    }
    candidates.push_back(c);
  }
  const size_t col = candidates[rng->Index(candidates.size())];
  const auto op = static_cast<query::CompareOp>(rng->Index(6));
  if (s.column(col).type == storage::ColumnType::kChar) {
    // Sample a live value from the table so equality predicates can hit.
    const size_t row = rng->Index(table->num_rows());
    return query::AtomicPred::Str(s.column(col).name, op,
                                  std::string(s.GetChar(table->row(row), col)));
  }
  const size_t row = rng->Index(table->num_rows());
  const int64_t v = s.GetIntAny(table->row(row), col);
  return query::AtomicPred::Int(s.column(col).name, op, v);
}

query::Predicate RandomPredicate(const storage::Table* table, Rng* rng) {
  query::Predicate p;
  const size_t clauses = rng->Index(3);  // 0..2 (0 = always true)
  for (size_t c = 0; c < clauses; ++c) {
    std::vector<query::AtomicPred> clause;
    const size_t atoms = 1 + rng->Index(3);
    for (size_t a = 0; a < atoms; ++a) {
      clause.push_back(RandomAtom(table, rng));
    }
    p.AndAnyOf(std::move(clause));
  }
  return p;
}

// A random star query over a random subset of dimensions, with random
// predicates, random payload columns and random grouping.
query::StarQuery RandomStarQuery(const storage::Catalog& catalog, Rng* rng) {
  query::StarQuery q;
  q.fact_table = ssb::kLineorder;

  struct DimSpec {
    const char* table;
    const char* fk;
    const char* pk;
    const char* payload;  // a groupable payload column
  };
  const DimSpec specs[] = {
      {ssb::kSupplier, "lo_suppkey", "s_suppkey", "s_nation"},
      {ssb::kCustomer, "lo_custkey", "c_custkey", "c_region"},
      {ssb::kDate, "lo_orderdate", "d_datekey", "d_year"},
      {ssb::kPart, "lo_partkey", "p_partkey", "p_mfgr"},
  };
  for (const auto& spec : specs) {
    if (!rng->Bernoulli(0.6)) continue;
    const storage::Table* dim = catalog.MustGetTable(spec.table);
    query::DimJoin join;
    join.dim_table = spec.table;
    join.fact_fk_column = spec.fk;
    join.dim_pk_column = spec.pk;
    join.pred = RandomPredicate(dim, rng);
    if (rng->Bernoulli(0.7)) join.payload_columns.push_back(spec.payload);
    q.dims.push_back(std::move(join));
  }

  // Random fact predicate on quantity/discount.
  if (rng->Bernoulli(0.5)) {
    q.fact_pred.And(query::AtomicPred::Int(
        "lo_quantity",
        rng->Bernoulli(0.5) ? query::CompareOp::kLt : query::CompareOp::kGe,
        rng->Uniform(1, 50)));
  }

  // Group by the payload columns we carried (if any), plus an aggregate.
  for (const auto& d : q.dims) {
    for (const auto& p : d.payload_columns) q.group_by.push_back(p);
  }
  query::AggSpec agg;
  if (rng->Bernoulli(0.5)) {
    agg.kind = query::AggSpec::Kind::kSum;
    agg.col_a = "lo_revenue";
  } else {
    agg.kind = query::AggSpec::Kind::kCount;
  }
  agg.out_name = "m";
  q.aggregates.push_back(std::move(agg));
  if (!q.group_by.empty() && rng->Bernoulli(0.5)) {
    q.order_by.push_back({q.group_by.front(), rng->Bernoulli(0.5)});
  }
  return q;
}

class RandomQueryProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomQueryProperty, AllEnginesAgreeWithOracle) {
  TestDb* db = SharedSsbDb();
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);

  std::vector<query::StarQuery> queries;
  for (int i = 0; i < 4; ++i) {
    query::StarQuery q = RandomStarQuery(db->catalog, &rng);
    if (q.dims.empty()) continue;  // CJOIN needs at least one join
    queries.push_back(std::move(q));
  }
  if (queries.empty()) GTEST_SKIP() << "no joinable queries drawn";

  const baseline::VolcanoEngine oracle(&db->catalog, db->pool.get());
  std::vector<query::ResultSet> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) expected.push_back(oracle.Execute(q));

  for (EngineConfig config :
       {EngineConfig::kQpipeSp, EngineConfig::kCjoin,
        EngineConfig::kCjoinSp}) {
    for (CommModel comm : {CommModel::kPull, CommModel::kPush}) {
      core::EngineOptions opts;
      opts.config = config;
      opts.comm = comm;
      opts.cjoin.max_queries = 32;
      core::Engine engine(&db->catalog, db->pool.get(), opts);
      const auto handles = engine.SubmitBatch(queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(handles[i].Wait().ok());
        EXPECT_EQ(query::DiffResults(expected[i], handles[i].result()), "")
            << core::EngineConfigName(config) << "/"
            << core::CommModelName(comm) << " query " << i << " sig "
            << queries[i].Signature();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryProperty, ::testing::Range(0, 10));

// Live-tuple mask invariants through the filter→distributor hot path: after
// a chain of filters, (a) a tuple is live iff its bitmap is non-empty, (b)
// the distributor's grouping covers exactly the live tuples — dead tuples
// never reach an output group, and the number of distinct distributed tuples
// equals the popcount of the live mask — and (c) every (slot, tuple) pair
// the grouping emits is backed by that tuple's bitmap bit.
class DistributorLiveMaskProperty : public ::testing::TestWithParam<int> {};

TEST_P(DistributorLiveMaskProperty, LiveMaskMatchesDistribution) {
  TestDb* db = SharedSsbDb();
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const storage::Table* fact = db->catalog.MustGetTable(ssb::kLineorder);
  const storage::Schema& fs = fact->schema();
  constexpr size_t kSlots = 64;

  // Two filters with randomized per-slot predicates; unreferenced slots
  // pass. Batched admission: all of a filter's queries share one scan.
  cjoin::Filter f1(db->catalog.MustGetTable(ssb::kSupplier), "lo_suppkey",
                   "s_suppkey", 0, kSlots);
  cjoin::Filter f2(db->catalog.MustGetTable(ssb::kCustomer), "lo_custkey",
                   "c_custkey", 1, kSlots);
  f1.BindFactColumn(fs);
  f2.BindFactColumn(fs);
  std::vector<query::Predicate> preds(2 * kSlots);
  std::vector<cjoin::Filter::AdmitRequest> reqs1, reqs2;
  for (size_t s = 0; s < kSlots; ++s) {
    for (size_t which = 0; which < 2; ++which) {
      cjoin::Filter& f = which == 0 ? f1 : f2;
      if (!rng.Bernoulli(0.5)) {
        f.SetPass(static_cast<uint32_t>(s));
        continue;
      }
      query::Predicate& p = preds[which * kSlots + s];
      p.And(query::AtomicPred::Str(
          which == 0 ? "s_region" : "c_region", query::CompareOp::kEq,
          std::string(ssb::RegionName(rng.Index(5)))));
      (which == 0 ? reqs1 : reqs2)
          .push_back({static_cast<uint32_t>(s), &p});
    }
  }
  f1.AdmitQueryBatch(reqs1.data(), reqs1.size(), db->pool.get());
  f2.AdmitQueryBatch(reqs2.data(), reqs2.size(), db->pool.get());
  EXPECT_EQ(f1.admission_scans(), 1u);
  EXPECT_EQ(f2.admission_scans(), 1u);

  cjoin::FilterScratch fscratch;
  cjoin::DistributorScratch dscratch;
  const size_t pages = std::min<size_t>(fact->num_pages(), 8);
  for (size_t pi = 0; pi < pages; ++pi) {
    cjoin::TupleBatch batch;
    batch.fact_page = fact->SharePage(pi);
    batch.ResetFor(batch.fact_page->tuple_count(), /*words=*/1,
                   /*filters=*/2);
    bits::FillOnes(batch.bits.data(), batch.bits.size() * 64);
    f1.Process(&batch, &fscratch);
    f2.Process(&batch, &fscratch);

    // (a) live bit iff non-empty bitmap.
    for (uint32_t i = 0; i < batch.num_tuples; ++i) {
      ASSERT_EQ(batch.tuple_live(i),
                bits::Any(batch.tuple_bits(i), batch.words_per_tuple))
          << "page " << pi << " tuple " << i;
    }

    const size_t pairs = cjoin::DistributePartBatched(batch, &dscratch);
    std::set<uint32_t> distributed;
    size_t seen_pairs = 0;
    for (size_t g = 0; g < dscratch.num_groups(); ++g) {
      const uint32_t slot = dscratch.group_slot(g);
      for (size_t k = 0; k < dscratch.group_size(g); ++k) {
        const uint32_t i = dscratch.group_begin(g)[k];
        ++seen_pairs;
        distributed.insert(i);
        // (c) the pair is backed by the tuple's bitmap, and the tuple is
        // live — a dead tuple never reaches an output group.
        ASSERT_TRUE(batch.tuple_live(i)) << "dead tuple distributed";
        ASSERT_TRUE(bits::Test(batch.tuple_bits(i), slot));
      }
    }
    EXPECT_EQ(seen_pairs, pairs);

    // (b) distributed tuples == live tuples, exactly.
    const size_t live_count =
        bits::Popcount(batch.live_words(), bits::WordsFor(batch.num_tuples));
    EXPECT_EQ(distributed.size(), live_count) << "page " << pi;
    for (uint32_t i = 0; i < batch.num_tuples; ++i) {
      EXPECT_EQ(distributed.count(i) != 0, batch.tuple_live(i))
          << "page " << pi << " tuple " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributorLiveMaskProperty,
                         ::testing::Range(0, 6));

// Admission selection cache invariant: a Filter driven through a seeded
// sequence of admission epochs — repeated and fresh predicates (TRUE among
// them), pass-through slots, slot recycling through RemoveQuery/CleanSlot,
// and more distinct selections than the cache bound holds, so LRU eviction
// fires — must join every fact tuple exactly like a brute-force evaluation
// of each slot's predicate on the tuple's dimension row: same bitmap, same
// joined row, same live bit.
class FilterSelectionCacheProperty : public ::testing::TestWithParam<int> {};

TEST_P(FilterSelectionCacheProperty, CacheHitsEqualBruteForceJoin) {
  TestDb* db = SharedSsbDb();
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 11);
  const storage::Table* dim = db->catalog.MustGetTable(ssb::kSupplier);
  const storage::Table* fact = db->catalog.MustGetTable(ssb::kLineorder);
  const storage::Schema& ds = dim->schema();
  const size_t rows = dim->num_rows();
  constexpr size_t kSlots = 96;  // straddles two bitmap words
  const size_t words = bits::WordsFor(kSlots);

  cjoin::Filter filter(dim, "lo_suppkey", "s_suppkey", 0, kSlots);
  filter.BindFactColumn(fact->schema());

  // Predicate pool: TRUE, random predicates, and random key ranges (broad
  // selections, so the cached indices outgrow the bound), with each one's
  // verdict on every dimension row precomputed (the brute-force side of the
  // join).
  std::vector<query::Predicate> preds = {query::Predicate::True()};
  for (size_t k = 0; k < 100; ++k) preds.push_back(RandomPredicate(dim, &rng));
  for (size_t k = 0; k < 100; ++k) {
    const int64_t lo = rng.Uniform(1, static_cast<int64_t>(rows));
    query::Predicate p;
    p.And(query::AtomicPred::Int("s_suppkey", query::CompareOp::kGe, lo));
    p.And(query::AtomicPred::Int("s_suppkey", query::CompareOp::kLe,
                                 rng.Uniform(lo, static_cast<int64_t>(rows))));
    preds.push_back(std::move(p));
  }
  std::vector<std::vector<bool>> verdict(preds.size(), std::vector<bool>(rows));
  for (size_t k = 0; k < preds.size(); ++k) {
    for (size_t r = 0; r < rows; ++r) verdict[k][r] = preds[k].Eval(ds, dim->row(r));
  }
  std::unordered_map<int64_t, size_t> row_of_pk;
  const size_t pk_col = ds.MustColumnIndex("s_suppkey");
  for (size_t r = 0; r < rows; ++r) row_of_pk[ds.GetIntAny(dim->row(r), pk_col)] = r;

  // Slot model: unused, pass-through, or selecting with preds[pred[s]].
  enum class Use { kFree, kDirty, kPass, kSelect };
  std::vector<Use> use(kSlots, Use::kFree);
  std::vector<size_t> pred(kSlots, 0);
  std::vector<bool> ever_selected(rows, false);  // rows that own an entry

  constexpr size_t kEpochs = 120;
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    // Retire some queries: out of the pass mask now, bits cleaned on reuse.
    for (size_t s = 0; s < kSlots; ++s) {
      if ((use[s] == Use::kPass || use[s] == Use::kSelect) &&
          rng.Bernoulli(0.3)) {
        filter.RemoveQuery(static_cast<uint32_t>(s));
        use[s] = Use::kDirty;
      }
    }
    // Admit a batch: a hot set of 8 predicates repeats, the rest are fresh
    // draws from the whole pool.
    std::vector<cjoin::Filter::AdmitRequest> reqs;
    const size_t admits = 1 + rng.Index(12);
    for (size_t a = 0; a < admits; ++a) {
      std::vector<size_t> open;
      for (size_t s = 0; s < kSlots; ++s) {
        if (use[s] == Use::kFree || use[s] == Use::kDirty) open.push_back(s);
      }
      if (open.empty()) break;
      const size_t s = open[rng.Index(open.size())];
      if (use[s] == Use::kDirty) filter.CleanSlot(static_cast<uint32_t>(s));
      if (rng.Bernoulli(0.15)) {
        filter.SetPass(static_cast<uint32_t>(s));
        use[s] = Use::kPass;
        continue;
      }
      pred[s] = rng.Bernoulli(0.3) ? rng.Index(8) : rng.Index(preds.size());
      use[s] = Use::kSelect;
      reqs.push_back({static_cast<uint32_t>(s), &preds[pred[s]]});
      for (size_t r = 0; r < rows; ++r) {
        if (verdict[pred[s]][r]) ever_selected[r] = true;
      }
    }
    ASSERT_TRUE(filter.AdmitQueryBatch(reqs.data(), reqs.size(),
                                       db->pool.get()).ok());

    // Join two random fact pages with random starting bitmaps over the
    // occupied slots and compare every tuple with the brute-force join.
    for (size_t b = 0; b < 2; ++b) {
      cjoin::TupleBatch batch;
      batch.fact_page = fact->SharePage(rng.Index(fact->num_pages()));
      batch.ResetFor(batch.fact_page->tuple_count(),
                     static_cast<uint32_t>(words), /*filters=*/1);
      const uint32_t n = batch.num_tuples;
      std::vector<uint64_t> start(size_t{n} * words, 0);
      for (uint32_t i = 0; i < n; ++i) {
        for (size_t s = 0; s < kSlots; ++s) {
          if ((use[s] == Use::kPass || use[s] == Use::kSelect) &&
              rng.Bernoulli(0.8)) {
            bits::Set(start.data() + size_t{i} * words, s);
          }
        }
      }
      std::copy(start.begin(), start.end(), batch.bits.begin());
      cjoin::FilterScratch scratch;
      filter.Process(&batch, &scratch);

      const storage::Schema& fs = fact->schema();
      const size_t fk_col = fs.MustColumnIndex("lo_suppkey");
      for (uint32_t i = 0; i < n; ++i) {
        const int64_t fk = batch.fact_page->GetIntAny(fs, fk_col, i);
        const auto found = row_of_pk.find(fk);
        const bool joins = found != row_of_pk.end();
        const size_t r = joins ? found->second : 0;
        std::vector<uint64_t> want(words, 0);
        for (size_t s = 0; s < kSlots; ++s) {
          if (!bits::Test(start.data() + size_t{i} * words, s)) continue;
          const bool keep = use[s] == Use::kPass ||
                            (use[s] == Use::kSelect && joins && verdict[pred[s]][r]);
          if (keep) bits::Set(want.data(), s);
        }
        for (size_t w = 0; w < words; ++w) {
          ASSERT_EQ(batch.tuple_bits(i)[w], want[w])
              << "epoch " << epoch << " tuple " << i << " word " << w;
        }
        ASSERT_EQ(batch.tuple_live(i), bits::Any(want.data(), words))
            << "epoch " << epoch << " tuple " << i;
        const uint32_t want_row = joins && ever_selected[r]
                                      ? static_cast<uint32_t>(r)
                                      : cjoin::kNoDimRow;
        ASSERT_EQ(batch.tuple_dim_rows(i)[0], want_row)
            << "epoch " << epoch << " tuple " << i;
      }
    }
  }
  EXPECT_GT(filter.selection_hits(), 0u);
  EXPECT_GT(filter.selection_evictions(), 0u) << "the cache bound never bit";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterSelectionCacheProperty,
                         ::testing::Range(0, 4));

// Shared-aggregation slice invariant (the bitmap ∧ group property): for any
// member of a shared aggregation group, SliceSlot over the folded table must
// equal a direct aggregation of EXACTLY that member's qualifying tuples —
// live, bitmap bit set, fact predicate satisfied — computed here by brute
// force per tuple, with no batching, partials or bitmap keying involved.
class SharedAggSliceProperty : public ::testing::TestWithParam<int> {};

TEST_P(SharedAggSliceProperty, SliceEqualsQualifyingTuples) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 52711 + 3);
  const storage::Schema fs({storage::Schema::Int32("g"),
                            storage::Schema::Int32("v"),
                            storage::Schema::Double("d")});
  constexpr size_t kSlots = 96;  // straddles two bitmap words
  constexpr size_t kParts = 2;

  cjoin::SharedAggregator agg(kParts, bits::WordsFor(kSlots));
  cjoin::SharedAggregator::Group* g = agg.CreateGroup("prop");
  g->join_schema = fs;
  g->join_row_size = fs.tuple_size();
  g->moves = {{/*from_fact=*/true, 0, /*src_col=*/0, 0, 0, fs.tuple_size()}};
  g->group_cols = {0};
  g->aggs = {{query::AggSpec::Kind::kSum, 1, -1, -1, /*integer_exact=*/true,
              "s"},
             {query::AggSpec::Kind::kAvg, 2, -1, -1, false, "a"}};
  g->out_schema = storage::Schema({storage::Schema::Int32("g"),
                                   storage::Schema::Int64("s"),
                                   storage::Schema::Double("a")});
  g->key_width = fs.column(0).width();

  std::vector<query::Predicate::Bound> preds(kSlots);
  for (size_t s = 0; s < kSlots; ++s) {
    query::Predicate p;
    if (rng.Bernoulli(0.5)) {
      p.And(query::AtomicPred::Int(
          "v", static_cast<query::CompareOp>(rng.Index(6)),
          rng.Uniform(0, 50)));
    }
    preds[s] = p.Bind(fs);
    agg.AddMember(g, static_cast<uint32_t>(s), preds[s]);
  }

  // Fold random batches, retaining every batch for the brute-force pass.
  std::vector<cjoin::TupleBatch> history(4);
  cjoin::SharedAggregator::FoldScratch scratch;
  for (size_t b = 0; b < history.size(); ++b) {
    cjoin::TupleBatch& batch = history[b];
    const uint32_t n = static_cast<uint32_t>(rng.Uniform(0, 200));
    batch.fact_page = storage::Page::Make(fs.tuple_size());
    for (uint32_t i = 0; i < n; ++i) {
      std::byte* t = batch.fact_page->AppendTuple();
      fs.SetInt32(t, 0, static_cast<int32_t>(rng.Uniform(0, 5)));
      fs.SetInt32(t, 1, static_cast<int32_t>(rng.Uniform(0, 50)));
      fs.SetDouble(t, 2, rng.NextDouble());
    }
    batch.ResetFor(n, bits::WordsFor(kSlots), /*filters=*/1);
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t* tb = batch.tuple_bits(i);
      bits::Zero(tb, batch.words_per_tuple);
      for (size_t s = 0; s < kSlots; ++s) {
        if (rng.Bernoulli(0.4)) bits::Set(tb, s);
      }
      if (!bits::Any(tb, batch.words_per_tuple)) batch.kill_tuple(i);
    }
    agg.FoldBatch(g, batch, fs, nullptr, b % kParts,
                  /*preds_pre_applied=*/false, &scratch);
  }
  cjoin::SharedAggregator::MergePartials(g);

  for (size_t s = 0; s < kSlots; ++s) {
    cjoin::SharedAggregator::AccTable slice;
    cjoin::SharedAggregator::SliceSlot(*g, static_cast<uint32_t>(s), &slice);

    // Brute force: one accumulator table over exactly the qualifying tuples.
    cjoin::SharedAggregator::AccTable want;
    for (const cjoin::TupleBatch& batch : history) {
      for (uint32_t i = 0; i < batch.num_tuples; ++i) {
        if (!batch.tuple_live(i)) continue;
        if (!bits::Test(batch.tuple_bits(i), s)) continue;
        const std::byte* t = batch.fact_page->tuple(i);  // row-major fact
        if (!preds[s].IsTrue() && !preds[s].Eval(fs, t)) continue;
        std::string key(reinterpret_cast<const char*>(t + fs.offset(0)),
                        fs.column(0).width());
        auto& accs = want[key];
        accs.resize(g->aggs.size());
        for (size_t a = 0; a < g->aggs.size(); ++a) {
          query::UpdateAcc(g->aggs[a], fs, t, &accs[a]);
        }
      }
    }

    ASSERT_EQ(slice.size(), want.size()) << "slot " << s;
    for (const auto& [key, accs] : want) {
      auto it = slice.find(key);
      ASSERT_NE(it, slice.end()) << "slot " << s;
      ASSERT_EQ(it->second.size(), accs.size());
      for (size_t a = 0; a < accs.size(); ++a) {
        EXPECT_EQ(it->second[a].i, accs[a].i) << "slot " << s << " agg " << a;
        EXPECT_EQ(it->second[a].count, accs[a].count)
            << "slot " << s << " agg " << a;
        EXPECT_NEAR(it->second[a].d, accs[a].d,
                    1e-9 * std::max(1.0, std::fabs(accs[a].d)))
            << "slot " << s << " agg " << a;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedAggSliceProperty,
                         ::testing::Range(0, 6));

// Mid-cycle detachment property: cancelling a random subset of the members
// of a live shared aggregation group (same-shape Q3.2 instances bound to one
// group) must never perturb the survivors — every uncancelled query still
// matches the oracle exactly.
class SharedAggCancelProperty : public ::testing::TestWithParam<int> {};

TEST_P(SharedAggCancelProperty, CancelNeverPerturbsSurvivors) {
  TestDb* db = SharedSsbDb();
  Rng rng(static_cast<uint64_t>(GetParam()) * 9851 + 17);

  const auto queries =
      ssb::SimilarQ32Workload(12, /*distinct_plans=*/3,
                              static_cast<uint64_t>(GetParam()) * 31 + 5);
  core::EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  opts.cjoin.max_queries = 32;
  core::Engine engine(&db->catalog, db->pool.get(), opts);
  auto tickets = engine.SubmitBatch(queries);

  std::vector<bool> cancelled(queries.size(), false);
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (rng.Bernoulli(0.4)) {
      tickets[i].Cancel();
      cancelled[i] = true;
    }
  }
  engine.WaitAll();

  const baseline::VolcanoEngine oracle(&db->catalog, db->pool.get());
  for (size_t i = 0; i < tickets.size(); ++i) {
    const Status st = tickets[i].Wait();
    if (cancelled[i]) continue;  // a cancel may land before or after finish
    ASSERT_TRUE(st.ok()) << "survivor " << i << ": " << st.ToString();
    EXPECT_EQ(query::DiffResults(oracle.Execute(queries[i]),
                                 tickets[i].result()),
              "")
        << "survivor " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedAggCancelProperty,
                         ::testing::Range(0, 6));

// --------------------------------------------------- predicate containment

// Soundness oracle for query::PredicateContains: sweep every row of `table`
// and refute the claim "every tuple satisfying p2 satisfies p1" if any row
// disagrees. The prover must never claim containment this sweep refutes —
// that is the invariant the folding admission pass stands on.
bool SweepContains(const storage::Table* table, const query::Predicate& p1,
                   const query::Predicate& p2) {
  const storage::Schema& schema = table->schema();
  const query::Predicate::Bound b1 = p1.Bind(schema);
  const query::Predicate::Bound b2 = p2.Bind(schema);
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (b2.Eval(schema, table->row(r)) && !b1.Eval(schema, table->row(r))) {
      return false;
    }
  }
  return true;
}

class PredicateContainsProperty : public ::testing::TestWithParam<int> {};

TEST_P(PredicateContainsProperty, NeverClaimsWhatASweepRefutes) {
  TestDb* db = SharedSsbDb();
  Rng rng(static_cast<uint64_t>(GetParam()) * 7717 + 3);

  const char* tables[] = {ssb::kSupplier, ssb::kCustomer, ssb::kDate,
                          ssb::kPart};
  size_t claims = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const storage::Table* table =
        db->catalog.MustGetTable(tables[rng.Index(4)]);
    query::Predicate p1 = RandomPredicate(table, &rng);
    query::Predicate p2;
    if (rng.Bernoulli(0.5)) {
      // Biased pair: p2 strengthens p1 with extra clauses, so the claim
      // p2 ⊆ p1 is semantically true and often provable — this drives the
      // prover down its "claim" path instead of vacuous conservative-false.
      p2 = p1;
      const size_t extra = 1 + rng.Index(2);
      for (size_t e = 0; e < extra; ++e) p2.And(RandomAtom(table, &rng));
    } else {
      p2 = RandomPredicate(table, &rng);
    }
    const bool claimed = query::PredicateContains(p1, p2);
    if (claimed) {
      ++claims;
      EXPECT_TRUE(SweepContains(table, p1, p2))
          << "unsound claim (trial " << trial
          << "): p1=" << p1.Signature() << " p2=" << p2.Signature();
    }
  }
  // The prover is allowed to be conservative, not vacuous: the biased pairs
  // must produce real claims or this test proves nothing.
  EXPECT_GT(claims, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateContainsProperty,
                         ::testing::Range(0, 8));

// The exact narrowing shapes the folding workload relies on (IN-list subset
// and interval inclusion) must be PROVABLE — conservative-false here would
// silently disable folding for its headline use case.
TEST(PredicateContains, ProvesWorkloadNarrowing) {
  // Wide: s_nation IN {A,B,C}; narrow: s_nation IN {A,C}.
  query::Predicate wide_in;
  wide_in.AndAnyOf({query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                                           "UNITED STATES"),
                    query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                                           "FRANCE"),
                    query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                                           "CHINA")});
  query::Predicate narrow_in;
  narrow_in.AndAnyOf({query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                                             "UNITED STATES"),
                      query::AtomicPred::Str("s_nation", query::CompareOp::kEq,
                                             "CHINA")});
  EXPECT_TRUE(query::PredicateContains(wide_in, narrow_in));
  EXPECT_FALSE(query::PredicateContains(narrow_in, wide_in));

  // Wide: d_year in [1992, 1998]; narrow: [1994, 1995].
  query::Predicate wide_year;
  wide_year.And(query::AtomicPred::Int("d_year", query::CompareOp::kGe, 1992));
  wide_year.And(query::AtomicPred::Int("d_year", query::CompareOp::kLe, 1998));
  query::Predicate narrow_year;
  narrow_year.And(
      query::AtomicPred::Int("d_year", query::CompareOp::kGe, 1994));
  narrow_year.And(
      query::AtomicPred::Int("d_year", query::CompareOp::kLe, 1995));
  EXPECT_TRUE(query::PredicateContains(wide_year, narrow_year));
  EXPECT_FALSE(query::PredicateContains(narrow_year, wide_year));

  // Reflexivity on the provable shapes, and TRUE's special role: the empty
  // predicate contains everything; nothing non-trivial contains TRUE.
  EXPECT_TRUE(query::PredicateContains(wide_in, wide_in));
  EXPECT_TRUE(query::PredicateContains(wide_year, wide_year));
  const query::Predicate always_true;
  EXPECT_TRUE(query::PredicateContains(always_true, wide_year));
  EXPECT_TRUE(query::PredicateContains(always_true, always_true));
  EXPECT_FALSE(query::PredicateContains(wide_year, always_true));
}

}  // namespace
}  // namespace sdw
