// Figure 10 (paper §5.2.1): impact of concurrency, memory- and disk-resident.
//
// Concurrent SSB Q3.2 instances with random predicates (selectivity
// 0.02-0.16 %), configurations QPipe / QPipe-CS / QPipe-SP / CJOIN, sweeping
// the number of concurrent queries; plus the paper's measurement table
// (avg cores used, avg device read rate) at the top concurrency.

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

struct PointResult {
  double response = 0;
  double cores = 0;
  double read_mbps = 0;
};

PointResult RunPoint(BenchDb* db, core::EngineConfig config, size_t queries,
                     uint64_t seed, int iterations) {
  Stats means;
  PointResult r;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = config;
    opts.cjoin.max_queries = std::max<size_t>(128, queries * 2);
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    const auto m = harness::RunBatch(
        &engine, db->pool.get(),
        ssb::RandomQ32Workload(queries, seed + static_cast<uint64_t>(it)));
    if (it > 0) {
      means.Add(m.response_seconds.Mean());
      r.cores = m.avg_cores;
      r.read_mbps = m.read_mbps;
    }
  }
  r.response = means.Min();
  return r;
}

void RunSweep(BenchDb* db, const char* title,
              const std::vector<size_t>& grid, int iterations,
              harness::ShapeChecker* checker, bool disk) {
  constexpr core::EngineConfig kConfigs[] = {
      core::EngineConfig::kQpipe, core::EngineConfig::kQpipeCs,
      core::EngineConfig::kQpipeSp, core::EngineConfig::kCjoin};

  harness::ReportTable table(
      {"queries", "QPipe", "QPipe-CS", "QPipe-SP", "CJOIN"});
  std::vector<std::array<PointResult, 4>> points;
  for (size_t q : grid) {
    std::array<PointResult, 4> row{};
    std::vector<std::string> cells{std::to_string(q)};
    for (int c = 0; c < 4; ++c) {
      row[static_cast<size_t>(c)] =
          RunPoint(db, kConfigs[c], q, 1000 + q, iterations);
      cells.push_back(
          StrPrintf("%.3fs", row[static_cast<size_t>(c)].response));
    }
    points.push_back(row);
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", title);
  table.Print();

  // Paper's measurement table at the top concurrency.
  harness::ReportTable meas({"measurement", "QPipe", "QPipe-CS", "QPipe-SP",
                             "CJOIN"});
  const auto& top = points.back();
  meas.AddRow({"Avg. # cores used", StrPrintf("%.2f", top[0].cores),
               StrPrintf("%.2f", top[1].cores), StrPrintf("%.2f", top[2].cores),
               StrPrintf("%.2f", top[3].cores)});
  if (disk) {
    meas.AddRow({"Avg. read rate (MB/s)", StrPrintf("%.1f", top[0].read_mbps),
                 StrPrintf("%.1f", top[1].read_mbps),
                 StrPrintf("%.1f", top[2].read_mbps),
                 StrPrintf("%.1f", top[3].read_mbps)});
  }
  std::printf("\nMeasurements at %zu concurrent queries:\n", grid.back());
  meas.Print();
  std::printf("\n");

  const char* suffix = disk ? " (disk)" : " (memory)";
  checker->Leq(std::string("QPipe-CS <= QPipe at max concurrency") + suffix,
               top[1].response, top[0].response, 0.10);
  checker->Leq(std::string("QPipe-SP <= QPipe-CS at max concurrency") + suffix,
               top[2].response, top[1].response, 0.10);
  checker->Leq(std::string("CJOIN <= QPipe-SP at max concurrency (shared "
                           "operators win under contention)") +
                   suffix,
               top[3].response, top[2].response, 0.10);
  if (!disk) {
    // The bookkeeping overhead is a CPU effect; on disk a single query is
    // I/O-bound and the comparison is noise.
    checker->Leq(
        std::string("QPipe-SP <= CJOIN at 1 query (shared-operator "
                    "bookkeeping hurts at low concurrency)") +
            suffix,
        points[0][2].response, points[0][3].response, 0.10);
  }
  if (disk) {
    checker->FactorAtLeast(
        "shared scans cut disk response times at max concurrency "
        "(paper: 80-97%)",
        top[0].response, top[1].response, 1.5);
  }
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.02);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 2));
  const size_t max_queries = static_cast<size_t>(
      flags.GetInt("max-queries", static_cast<int64_t>(16 * Cores())));
  flags.RejectUnread();

  PrintHeader(
      "Figure 10: impact of concurrency (SSB Q3.2, random predicates)",
      "SSB SF=1, 1..256 queries, memory-resident (RAM drive) and "
      "disk-resident, 24 cores",
      StrPrintf("SSB SF=%.3g, 1..%zu queries", sf, max_queries).c_str(),
      "QPipe saturates CPUs; circular scans reduce contention; SP "
      "eliminates common sub-plans; CJOIN's shared operators are most "
      "efficient at high concurrency but trail query-centric operators at "
      "1 query; on disk, shared scans cut response times 80-97%");

  std::vector<size_t> grid;
  for (size_t q = 1; q <= max_queries; q *= 4) grid.push_back(q);
  if (grid.back() != max_queries) grid.push_back(max_queries);

  harness::ShapeChecker checker;
  {
    auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/true);
    RunSweep(db.get(), "Figure 10 (left): memory-resident database", grid,
             iterations, &checker, /*disk=*/false);
  }
  {
    // Disk-resident: the buffer pool holds ~10% of the dataset, so
    // independent scans that drift apart re-read evicted pages with seeks
    // while the shared scan stays sequential (DESIGN.md §3 device model).
    DiskProfile disk;
    disk.seek_latency_us = 1500;
    auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/false, disk);
    const size_t pool_bytes = db->catalog.total_bytes() / 10;
    db->pool = std::make_unique<storage::BufferPool>(db->device.get(),
                                                     pool_bytes);
    RunSweep(db.get(), "Figure 10 (right): disk-resident database", grid,
             iterations, &checker, /*disk=*/true);
  }
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
