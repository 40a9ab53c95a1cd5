// Figure 14 (paper §5.2.3): impact of similarity — 16 possible query plans.
//
// Disk-resident database; concurrent Q3.2 instances drawn from 16 distinct
// parameterizations. QPipe-SP re-uses results across identical plans and
// overtakes CJOIN (which evaluates identical queries redundantly); CJOIN-SP
// shares CJOIN packets and wins overall. The table prints the SP sharing
// opportunities the paper reports.

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

struct PointResult {
  double response = 0;
  qpipe::SpCounters sp;
  uint64_t cjoin_shares = 0;
};

PointResult RunPoint(BenchDb* db, core::EngineConfig config, size_t queries,
                     size_t plans, uint64_t seed, int iterations) {
  Stats means;
  PointResult r;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = config;
    opts.cjoin.max_queries = std::max<size_t>(128, queries * 2);
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    const auto m = harness::RunBatch(
        &engine, db->pool.get(),
        ssb::SimilarQ32Workload(queries, plans,
                                seed + static_cast<uint64_t>(it)));
    if (it > 0) {
      means.Add(m.response_seconds.Mean());
      r.sp = m.sp;
      r.cjoin_shares = m.cjoin_shares;
    }
  }
  r.response = means.Min();
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.02);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 2));
  const size_t max_queries = static_cast<size_t>(
      flags.GetInt("max-queries", static_cast<int64_t>(16 * Cores())));
  const size_t plans = static_cast<size_t>(flags.GetInt("plans", 16));
  flags.RejectUnread();

  PrintHeader(
      "Figure 14: impact of similarity (16 possible query plans)",
      "SSB SF=1 disk-resident, 1..256 queries from 16 plans, 24 cores",
      StrPrintf("SSB SF=%.3g on simulated disk, up to %zu queries from %zu "
                "plans",
                sf, max_queries, plans)
          .c_str(),
      "QPipe-SP evaluates at most 16 distinct plans and re-uses results, "
      "outperforming CJOIN which evaluates identical queries redundantly; "
      "CJOIN-SP shares CJOIN packets and outperforms all configurations");

  DiskProfile disk;
  disk.seek_latency_us = 1500;
  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/false, disk);
  db->pool = std::make_unique<storage::BufferPool>(
      db->device.get(), db->catalog.total_bytes() / 2);

  std::vector<size_t> grid;
  for (size_t q = 4; q <= max_queries; q *= 2) grid.push_back(q);

  constexpr core::EngineConfig kConfigs[] = {
      core::EngineConfig::kQpipeCs, core::EngineConfig::kQpipeSp,
      core::EngineConfig::kCjoin, core::EngineConfig::kCjoinSp};

  harness::ReportTable table(
      {"queries", "QPipe-CS", "QPipe-SP", "CJOIN", "CJOIN-SP"});
  std::vector<std::array<PointResult, 4>> points;
  for (size_t q : grid) {
    std::array<PointResult, 4> row{};
    std::vector<std::string> cells{std::to_string(q)};
    for (int c = 0; c < 4; ++c) {
      row[static_cast<size_t>(c)] =
          RunPoint(db.get(), kConfigs[c], q, plans, 900 + q, iterations);
      cells.push_back(StrPrintf("%.3fs", row[static_cast<size_t>(c)].response));
    }
    points.push_back(row);
    table.AddRow(std::move(cells));
  }
  std::printf("Figure 14 (response time vs concurrency, %zu plans):\n", plans);
  table.Print();

  const auto& top = points.back();
  std::printf(
      "\nSharing opportunities at %zu queries: QPipe-SP hash-join shares "
      "1st/2nd/3rd = %llu/%llu/%llu, CJOIN-SP packet shares = %llu\n\n",
      grid.back(),
      static_cast<unsigned long long>(top[1].sp.join_shares_by_depth[0]),
      static_cast<unsigned long long>(top[1].sp.join_shares_by_depth[1]),
      static_cast<unsigned long long>(top[1].sp.join_shares_by_depth[2]),
      static_cast<unsigned long long>(top[3].cjoin_shares));

  harness::ShapeChecker checker;
  checker.Leq("QPipe-SP <= QPipe-CS at max concurrency (SP exploits the 16 "
              "common plans)",
              top[1].response, top[0].response, 0.10);
  checker.Leq("QPipe-SP <= CJOIN at max concurrency (CJOIN evaluates "
              "identical queries redundantly)",
              top[1].response, top[2].response, 0.10);
  checker.Leq("CJOIN-SP <= CJOIN at max concurrency (SP de-duplicates CJOIN "
              "packets)",
              top[3].response, top[2].response, 0.10);
  checker.Check(
      "CJOIN-SP shares most packets (queries - distinct plans)",
      top[3].cjoin_shares >= grid.back() - plans - 2,
      StrPrintf("%llu shares of %zu queries",
                static_cast<unsigned long long>(top[3].cjoin_shares),
                grid.back()));
  checker.Check(
      "QPipe-SP shares deep join sub-plans",
      top[1].sp.join_shares_by_depth[2] > 0,
      StrPrintf("%llu third-join shares", static_cast<unsigned long long>(
                                              top[1].sp.join_shares_by_depth[2])));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
