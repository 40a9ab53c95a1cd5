// Dynamic query folding differential suite: the folded engine against the
// unfolded oracle.
//
// Folding (CjoinOptions::query_folding) subsumes a pending query onto an
// in-flight slot whose predicates provably contain it — the satellite rides
// the host's filter verdicts with its own fact predicate and dimension
// residuals re-applied. Nothing about that may be observable in RESULTS:
//
//   * folded vs unfolded engines are bit-exact over the similarity-skewed
//     SSB workload, across seeds and slot caps (including caps tight enough
//     that the unfolded run rejects what folding absorbs);
//   * a host retiring mid-stream — client finishing first, cancellation,
//     deadline expiry — promotes its satellites, whose results still match
//     the standalone oracle;
//   * query_folding=false reproduces the baseline stats exactly (every fold
//     counter zero).
//
// Assert-based like the other differential suites (SDW_CHECK, no gtest).

#include <cstdio>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "core/engine.h"
#include "query/result.h"
#include "ssb/ssb_queries.h"
#include "ssb/workload.h"
#include "test_util.h"

namespace sdw {
namespace {

using core::Engine;
using core::EngineOptions;
using core::QueryTicket;
using core::SubmitOptions;

testing::TestDb* Db() {
  // Big enough that a host's scan cycle outlives a second submission batch
  // (the staged fold tests below), small enough for the 120 s ctest budget.
  static testing::TestDb* db = testing::MakeSsbDb(0.02, 42).release();
  return db;
}

EngineOptions FoldOptions(bool folding, size_t slot_cap) {
  EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  opts.cjoin.query_folding = folding;
  opts.cjoin.max_queries = slot_cap;
  opts.cjoin.fold_bits = 256;
  return opts;
}

// ------------------------------------------------- folded vs unfolded sweep

// Runs the similarity-skewed workload through a folded and an unfolded
// engine. The unfolded run at a generous cap is the oracle: every query the
// folded engine completes must match it bit-exactly; at the generous cap the
// folded engine must complete ALL queries (nothing rejected, folds absorb
// the similarity); at tight caps completions may differ but never results.
void FoldedVsUnfolded(uint64_t seed, size_t folded_cap) {
  testing::TestDb* db = Db();
  constexpr size_t kQueries = 40;
  const auto queries = ssb::FoldableQ32Workload(kQueries, 0.8, seed);

  auto run = [&](bool folding, size_t cap) {
    Engine engine(&db->catalog, db->pool.get(), FoldOptions(folding, cap));
    auto tickets = engine.SubmitBatch(queries);
    std::vector<Status> statuses;
    std::vector<query::ResultSet> results;
    for (auto& t : tickets) {
      statuses.push_back(t.Wait());
      results.push_back(statuses.back().ok() ? t.result()
                                             : query::ResultSet());
    }
    const cjoin::CjoinStats stats = engine.cjoin_stats();
    if (folding) {
      SDW_CHECK_MSG(stats.fold_checks >= stats.queries_folded,
                    "fold_checks < queries_folded");
      SDW_CHECK_MSG(stats.queries_folded >= 1,
                    "similarity-skewed workload produced no folds (seed %llu)",
                    static_cast<unsigned long long>(seed));
    } else {
      // The unfolded engine must not even LOOK at folding: baseline stats
      // reproduce exactly.
      SDW_CHECK(stats.queries_folded == 0);
      SDW_CHECK(stats.fold_checks == 0);
      SDW_CHECK(stats.fold_promotions == 0);
    }
    return std::make_pair(std::move(statuses), std::move(results));
  };

  const auto [oracle_status, oracle] = run(/*folding=*/false, kQueries + 8);
  for (size_t i = 0; i < kQueries; ++i) {
    SDW_CHECK_MSG(oracle_status[i].ok(), "oracle query %zu failed: %s", i,
                  oracle_status[i].ToString().c_str());
  }

  const auto [folded_status, folded] = run(/*folding=*/true, folded_cap);
  size_t compared = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    if (!folded_status[i].ok()) {
      // Only capacity rejection may drop a query at a tight cap.
      SDW_CHECK_MSG(
          folded_status[i].code() == StatusCode::kResourceExhausted,
          "folded query %zu failed unexpectedly: %s", i,
          folded_status[i].ToString().c_str());
      continue;
    }
    ++compared;
    const std::string diff = query::DiffResults(oracle[i], folded[i], 1e-9);
    SDW_CHECK_MSG(diff.empty(), "folded vs oracle, query %zu (seed %llu): %s",
                  i, static_cast<unsigned long long>(seed), diff.c_str());
  }
  if (folded_cap >= kQueries) {
    SDW_CHECK_MSG(compared == kQueries,
                  "generous cap still dropped queries (%zu of %zu)", compared,
                  kQueries);
  } else {
    SDW_CHECK_MSG(compared >= folded_cap,
                  "folding admitted less than the slot cap");
  }
}

// ------------------------------------------- staged folds + host retirement

ssb::Q32SelectivityParams HostParams() {
  ssb::Q32SelectivityParams p;
  p.cust_nations = {0, 1, 2, 3, 4, 5};
  p.supp_nations = {0, 1, 2, 3, 4, 5};
  p.year_lo = 1992;
  p.year_hi = 1998;
  return p;
}

std::vector<query::StarQuery> SatelliteQueries() {
  std::vector<query::StarQuery> sats;
  ssb::Q32SelectivityParams s1;
  s1.cust_nations = {1, 3};
  s1.supp_nations = {0, 2, 4};
  s1.year_lo = 1993;
  s1.year_hi = 1996;
  sats.push_back(ssb::MakeQ32Selectivity(s1));
  ssb::Q32SelectivityParams s2;
  s2.cust_nations = {5};
  s2.supp_nations = {1, 5};
  s2.year_lo = 1995;
  s2.year_hi = 1995;
  sats.push_back(ssb::MakeQ32Selectivity(s2));
  return sats;
}

// Standalone oracle results for the satellites (fresh unfolded engine).
std::vector<query::ResultSet> SatelliteOracle() {
  testing::TestDb* db = Db();
  static std::vector<query::ResultSet>* oracle = [] {
    auto* out = new std::vector<query::ResultSet>();
    Engine engine(&Db()->catalog, Db()->pool.get(),
                  FoldOptions(/*folding=*/false, 16));
    for (auto& t : engine.SubmitBatch(SatelliteQueries())) {
      SDW_CHECK(t.Wait().ok());
      out->push_back(t.result());
    }
    return out;
  }();
  (void)db;
  return *oracle;
}

// How a staged-fold trial retires the host mid-stream.
enum class HostEnd { kCompletes, kCancelled, kExpires };

// Submits a wide host, then — while its scan cycle is still in flight —
// a batch of provably-contained satellites, which must fold onto it. The
// host then retires per `end`; the satellites must complete with
// oracle-exact results regardless (the promotion path when the host goes
// first).
void StagedFoldTrial(HostEnd end) {
  testing::TestDb* db = Db();
  Engine engine(&db->catalog, db->pool.get(),
                FoldOptions(/*folding=*/true, 16));

  SubmitOptions host_opts;
  if (end == HostEnd::kExpires) {
    // Comfortably past admission, comfortably before a 0.02-SF scan cycle
    // ends (tens of ms on any machine this runs on).
    host_opts.deadline_nanos = NowNanos() + 20'000'000;  // 20 ms
  }
  QueryTicket host =
      engine.Submit(ssb::MakeQ32Selectivity(HostParams()), host_opts);

  // Second arrival batch: the admission pause happens mid-cycle, so the
  // satellites fold onto the already-running host.
  auto sat_tickets = engine.SubmitBatch(SatelliteQueries());

  if (end == HostEnd::kCancelled) {
    // Cancel only once the satellites have actually folded. An earlier
    // cancel races admission: a retiring host is correctly skipped as a
    // fold target, so the satellites would take their own slots and the
    // trial would no longer exercise promotion under riders.
    const int64_t give_up = NowNanos() + 5'000'000'000;
    while (engine.cjoin_stats().queries_folded < sat_tickets.size() &&
           NowNanos() < give_up) {
      std::this_thread::yield();
    }
    host.Cancel();
  }

  const Status host_status = host.Wait();
  std::vector<query::ResultSet> sat_results;
  for (auto& t : sat_tickets) {
    const Status s = t.Wait();
    SDW_CHECK_MSG(s.ok(), "satellite failed after host end=%d: %s",
                  static_cast<int>(end), s.ToString().c_str());
    sat_results.push_back(t.result());
  }

  const cjoin::CjoinStats stats = engine.cjoin_stats();
  switch (end) {
    case HostEnd::kCompletes:
      SDW_CHECK_MSG(host_status.ok(), "host failed: %s",
                    host_status.ToString().c_str());
      break;
    case HostEnd::kCancelled:
      // The cancel races the host's own completion; either terminal state
      // is legal, losing results is not.
      SDW_CHECK(host_status.ok() ||
                host_status.code() == StatusCode::kCancelled);
      break;
    case HostEnd::kExpires:
      SDW_CHECK_MSG(host_status.code() == StatusCode::kDeadlineExceeded ||
                        host_status.ok(),
                    "expiring host ended %s", host_status.ToString().c_str());
      break;
  }

  // The satellites must have actually folded (the host was mid-cycle when
  // they arrived) and must match their standalone oracle bit-exactly.
  SDW_CHECK_MSG(stats.queries_folded == sat_tickets.size(),
                "expected %zu folds, saw %llu", sat_tickets.size(),
                static_cast<unsigned long long>(stats.queries_folded));
  const auto oracle = SatelliteOracle();
  for (size_t i = 0; i < sat_results.size(); ++i) {
    const std::string diff =
        query::DiffResults(oracle[i], sat_results[i], 1e-9);
    SDW_CHECK_MSG(diff.empty(), "satellite %zu after host end=%d: %s", i,
                  static_cast<int>(end), diff.c_str());
  }
  // A host retiring before its riders promotes them instead of freeing the
  // slot out from under them.
  if (!host_status.ok()) {
    SDW_CHECK_MSG(stats.fold_promotions >= 1,
                  "host retired first but no promotion was counted");
  }
}

}  // namespace
}  // namespace sdw

int main() {
  // Caps: generous (everything admitted both modes), tight (the unfolded
  // oracle still generous; folding runs at 8 slots and absorbs the rest).
  for (uint64_t seed : {11u, 22u, 33u}) {
    std::fprintf(stderr, "folded vs unfolded: seed %llu\n",
                static_cast<unsigned long long>(seed));
    sdw::FoldedVsUnfolded(seed, /*folded_cap=*/48);
    sdw::FoldedVsUnfolded(seed, /*folded_cap=*/8);
  }
  std::fprintf(stderr, "staged fold: host completes\n");
  sdw::StagedFoldTrial(sdw::HostEnd::kCompletes);
  std::fprintf(stderr, "staged fold: host cancelled\n");
  sdw::StagedFoldTrial(sdw::HostEnd::kCancelled);
  std::fprintf(stderr, "staged fold: host expires\n");
  sdw::StagedFoldTrial(sdw::HostEnd::kExpires);
  std::printf("fold_differential_test: OK\n");
  return 0;
}
