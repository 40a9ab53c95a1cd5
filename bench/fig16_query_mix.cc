// Figure 16 (paper §5.3): SSB query mix (Q1.1, Q2.1, Q3.2 round-robin),
// disk-resident — response time (simultaneous batch) and throughput
// (closed-loop clients) for QPipe-SP, CJOIN-SP, and the query-centric
// comparator (the paper used PostgreSQL; we substitute the Volcano engine,
// see DESIGN.md §3).

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

double RunEnginePoint(BenchDb* db, core::EngineConfig config, size_t queries,
                      uint64_t seed, int iterations) {
  Stats means;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = config;
    opts.cjoin.max_queries = std::max<size_t>(128, queries * 2);
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    const auto m = harness::RunBatch(
        &engine, db->pool.get(),
        ssb::MixedWorkload(queries, seed + static_cast<uint64_t>(it)));
    if (it > 0) means.Add(m.response_seconds.Mean());
  }
  return means.Min();
}

double RunVolcanoPoint(BenchDb* db, size_t queries, uint64_t seed,
                       int iterations) {
  baseline::VolcanoEngine volcano(&db->catalog, db->pool.get());
  Stats means;
  for (int it = 0; it < iterations + 1; ++it) {
    const auto m = harness::RunBatch(
        &volcano, db->pool.get(),
        ssb::MixedWorkload(queries, seed + static_cast<uint64_t>(it)));
    if (it > 0) means.Add(m.response_seconds.Mean());
  }
  return means.Min();
}

double RunEngineThroughput(BenchDb* db, core::EngineConfig config,
                           size_t clients, double seconds) {
  core::EngineOptions opts;
  opts.config = config;
  opts.cjoin.max_queries = std::max<size_t>(128, clients * 4);
  core::Engine engine(&db->catalog, db->pool.get(), opts);
  const auto m = harness::RunClosedLoop(
      &engine, db->pool.get(),
      [](size_t i) { return ssb::MixedWorkload(1, 9000 + i)[0]; }, clients,
      seconds);
  return m.throughput_qph;
}

double RunVolcanoThroughput(BenchDb* db, size_t clients, double seconds) {
  baseline::VolcanoEngine volcano(&db->catalog, db->pool.get());
  const auto m = harness::RunClosedLoop(
      &volcano, db->pool.get(),
      [](size_t i) { return ssb::MixedWorkload(1, 9000 + i)[0]; }, clients,
      seconds);
  return m.throughput_qph;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.05);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 2));
  const size_t max_queries = static_cast<size_t>(
      flags.GetInt("max-queries", static_cast<int64_t>(16 * Cores())));
  const size_t max_clients = static_cast<size_t>(
      flags.GetInt("max-clients", static_cast<int64_t>(8 * Cores())));
  const double loop_seconds = flags.GetDouble("loop-seconds", 3.0);
  flags.RejectUnread();

  PrintHeader(
      "Figure 16: SSB query mix (Q1.1 / Q2.1 / Q3.2 round-robin)",
      "SSB SF=30 disk-resident (buffer pool fits 10%), 1..256 queries / "
      "clients; QPipe-SP vs CJOIN-SP vs PostgreSQL",
      StrPrintf("SSB SF=%.3g on simulated disk, up to %zu queries / %zu "
                "clients; Volcano engine substitutes PostgreSQL",
                sf, max_queries, max_clients)
          .c_str(),
      "the query-centric engine contends for resources at high concurrency; "
      "QPipe-SP does better via circular scans + SP; CJOIN-SP is best, and "
      "its throughput keeps rising with more clients while query-centric "
      "throughput ultimately degrades");

  DiskProfile disk;
  disk.seek_latency_us = 1200;
  disk.os_cache_bytes = 1ull << 32;
  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/false, disk);
  db->pool = std::make_unique<storage::BufferPool>(
      db->device.get(), db->catalog.total_bytes() / 10);

  // Response-time experiment.
  std::vector<size_t> grid;
  for (size_t q = 1; q <= max_queries; q *= 4) grid.push_back(q);
  if (grid.back() != max_queries) grid.push_back(max_queries);

  harness::ReportTable resp(
      {"queries", "Volcano(Postgres-sub)", "QPipe-SP", "CJOIN-SP"});
  struct Row {
    double volcano, sp, cjsp;
  };
  std::vector<Row> rows;
  for (size_t q : grid) {
    Row row{};
    row.volcano = RunVolcanoPoint(db.get(), q, 3000 + q, iterations);
    row.sp = RunEnginePoint(db.get(), core::EngineConfig::kQpipeSp, q,
                            3000 + q, iterations);
    row.cjsp = RunEnginePoint(db.get(), core::EngineConfig::kCjoinSp, q,
                              3000 + q, iterations);
    rows.push_back(row);
    resp.AddRow({std::to_string(q), StrPrintf("%.3fs", row.volcano),
                 StrPrintf("%.3fs", row.sp), StrPrintf("%.3fs", row.cjsp)});
  }
  std::printf("Figure 16 (left): response time\n");
  resp.Print();

  // Throughput experiment (closed loop).
  std::vector<size_t> clients_grid;
  for (size_t c = 1; c <= max_clients; c *= 4) clients_grid.push_back(c);
  if (clients_grid.back() != max_clients) clients_grid.push_back(max_clients);

  harness::ReportTable thr(
      {"clients", "Volcano(q/h)", "QPipe-SP(q/h)", "CJOIN-SP(q/h)"});
  struct ThrRow {
    double volcano, sp, cjsp;
  };
  std::vector<ThrRow> thr_rows;
  for (size_t c : clients_grid) {
    ThrRow row{};
    row.volcano = RunVolcanoThroughput(db.get(), c, loop_seconds);
    row.sp = RunEngineThroughput(db.get(), core::EngineConfig::kQpipeSp, c,
                                 loop_seconds);
    row.cjsp = RunEngineThroughput(db.get(), core::EngineConfig::kCjoinSp, c,
                                   loop_seconds);
    thr_rows.push_back(row);
    thr.AddRow({std::to_string(c), StrPrintf("%.0f", row.volcano),
                StrPrintf("%.0f", row.sp), StrPrintf("%.0f", row.cjsp)});
  }
  std::printf("\nFigure 16 (right): throughput (closed loop, %.1fs per "
              "point)\n",
              loop_seconds);
  thr.Print();

  harness::ShapeChecker checker;
  checker.Leq(
      "QPipe-SP <= query-centric comparator at max concurrency (sharing "
      "pays off)",
      rows.back().sp, rows.back().volcano, 0.10);
  checker.Leq("CJOIN-SP <= QPipe-SP at max concurrency (shared operators "
              "are most efficient)",
              rows.back().cjsp, rows.back().sp, 0.10);
  checker.Check(
      "CJOIN-SP throughput rises with more clients",
      thr_rows.back().cjsp >= thr_rows.front().cjsp,
      StrPrintf("%.0f -> %.0f q/h", thr_rows.front().cjsp,
                thr_rows.back().cjsp));
  checker.Check(
      "CJOIN-SP sustains the best throughput at max clients",
      thr_rows.back().cjsp >= thr_rows.back().sp * 0.9 &&
          thr_rows.back().cjsp >= thr_rows.back().volcano * 0.9,
      StrPrintf("CJOIN-SP %.0f vs QPipe-SP %.0f vs Volcano %.0f",
                thr_rows.back().cjsp, thr_rows.back().sp,
                thr_rows.back().volcano));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
