// Figure 12 (paper §5.2.2): high concurrency at 30% selectivity.
//
// The counterpart of Figure 11: with many concurrent queries the
// query-centric operators of QPipe-SP contend for resources (their CPU
// components scale with the query count) while CJOIN's shared hashing stays
// flat — shared operators prevail.

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

struct PointResult {
  double response = 0;
  double hashing = 0;
  std::array<double, kNumComponents> breakdown{};
};

PointResult RunPoint(BenchDb* db, core::EngineConfig config, size_t queries,
                     uint64_t seed, int iterations) {
  Stats means;
  Stats hashing;
  PointResult r;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = config;
    opts.cjoin.max_queries = std::max<size_t>(128, queries * 2);
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    const auto m = harness::RunBatch(
        &engine, db->pool.get(),
        ssb::SelectivityQ32Workload(queries, 0.30,
                                    seed + static_cast<uint64_t>(it)));
    if (it > 0) {
      means.Add(m.response_seconds.Mean());
      r.breakdown = m.breakdown_seconds;
      hashing.Add(
          m.breakdown_seconds[static_cast<size_t>(Component::kHashing)]);
    }
  }
  r.response = means.Min();
  // CPU-clock readings jitter under a saturated 2-core box: average the
  // hashing bucket across iterations rather than sampling one run.
  r.hashing = hashing.Mean();
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.03);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 2));
  const size_t max_queries = static_cast<size_t>(
      flags.GetInt("max-queries", static_cast<int64_t>(8 * Cores())));
  flags.RejectUnread();

  PrintHeader(
      "Figure 12: 30% selectivity at high concurrency (modified SSB Q3.2)",
      "SSB SF=10 memory-resident, 16..256 queries, 24 cores",
      StrPrintf("SSB SF=%.3g in memory, up to %zu queries", sf, max_queries)
          .c_str(),
      "query-centric operators contend (their CPU components scale "
      "superlinearly with queries) while CJOIN's hashing CPU stays at the "
      "same level irrespective of the query count — shared operators "
      "prevail at high concurrency");

  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/true);

  // Start where the union of 30%-selectivity queries is already wide, as in
  // the paper's 16..256 grid: below that, CJOIN's probe count still grows
  // with the union selectivity rather than staying saturated.
  std::vector<size_t> grid;
  for (size_t q = std::max<size_t>(4, 2 * Cores()); q <= max_queries;
       q *= 2) {
    grid.push_back(q);
  }

  harness::ReportTable table({"queries", "QPipe-SP", "CJOIN",
                              "QPipe-SP hashing CPU", "CJOIN hashing CPU"});
  std::vector<PointResult> sp_points, cj_points;
  for (size_t q : grid) {
    const auto sp = RunPoint(db.get(), core::EngineConfig::kQpipeSp, q,
                             700 + q, iterations);
    const auto cj =
        RunPoint(db.get(), core::EngineConfig::kCjoin, q, 700 + q, iterations);
    sp_points.push_back(sp);
    cj_points.push_back(cj);
    table.AddRow({std::to_string(q), StrPrintf("%.3fs", sp.response),
                  StrPrintf("%.3fs", cj.response),
                  StrPrintf("%.2fs", sp.hashing),
                  StrPrintf("%.2fs", cj.hashing)});
  }
  std::printf("Figure 12 (response time and hashing CPU vs concurrency):\n");
  table.Print();

  harness::ShapeChecker checker;
  checker.Leq("CJOIN <= QPipe-SP at max concurrency (shared operators "
              "prevail)",
              cj_points.back().response, sp_points.back().response, 0.10);
  checker.Check(
      "QPipe-SP hashing CPU grows with the query count",
      sp_points.back().hashing > sp_points.front().hashing * 1.3,
      StrPrintf("%.2fs -> %.2fs", sp_points.front().hashing,
                sp_points.back().hashing));
  checker.Check(
      "CJOIN hashing CPU stays at the same level irrespective of queries "
      "(per-query shared hashing falls superlinearly)",
      cj_points.back().hashing / static_cast<double>(grid.back()) <=
          cj_points.front().hashing / static_cast<double>(grid.front()) *
              0.7,
      StrPrintf("%.2fs -> %.2fs over a %zux query increase",
                cj_points.front().hashing, cj_points.back().hashing,
                grid.back() / grid.front()));
  checker.Check(
      "QPipe-SP hashing grows faster than CJOIN's",
      sp_points.back().hashing - sp_points.front().hashing >
          cj_points.back().hashing - cj_points.front().hashing,
      StrPrintf("deltas: %.2fs vs %.2fs",
                sp_points.back().hashing - sp_points.front().hashing,
                cj_points.back().hashing - cj_points.front().hashing));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
