// Figure 6 (paper §4): push-based vs pull-based Simultaneous Pipelining.
//
// Multiple identical TPC-H Q1 queries, memory-resident database, SP enabled
// only for the table-scan stage (circular scans, "CS"). Four configurations:
//   No SP (FIFO), CS (FIFO)  — push-only model, copies to satellites
//   No SP (SPL),  CS (SPL)   — pull-based shared pages lists
// Plus (c) the sharing speedup (No SP / CS) for both transports, and the §4
// SPL maximum-size sweep (8 queries, size barely matters).

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

harness::RunMetrics RunPoint(BenchDb* db, bool cs, core::CommModel comm,
                             size_t queries, int iterations) {
  harness::RunMetrics last;
  Stats batch_means;
  // One discarded warmup iteration, then `iterations` measured ones; the
  // point value is the minimum batch mean (robust to scheduler noise).
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = cs ? core::EngineConfig::kQpipeCs : core::EngineConfig::kQpipe;
    opts.comm = comm;
    opts.fact_table = ssb::kLineitem;
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    last = harness::RunBatch(&engine, db->pool.get(),
                             ssb::IdenticalQ1Workload(queries));
    if (it > 0) batch_means.Add(last.response_seconds.Mean());
  }
  Stats point;
  point.Add(batch_means.Min());
  last.response_seconds = point;
  return last;
}

double RunSplSizePoint(BenchDb* db, size_t queries, size_t spl_bytes,
                       int iterations) {
  Stats means;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = core::EngineConfig::kQpipeCs;
    opts.comm = core::CommModel::kPull;
    opts.fact_table = ssb::kLineitem;
    opts.channel_bytes = spl_bytes;
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    const auto m = harness::RunBatch(&engine, db->pool.get(),
                                     ssb::IdenticalQ1Workload(queries));
    if (it > 0) means.Add(m.response_seconds.Mean());
  }
  return means.Min();
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.05);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 3));
  const size_t max_queries = static_cast<size_t>(
      flags.GetInt("max-queries", static_cast<int64_t>(16 * Cores())));
  flags.RejectUnread();

  PrintHeader(
      "Figure 6: evaluating identical TPC-H Q1 queries with push-based SP "
      "(FIFO) vs pull-based SP (SPL)",
      "TPC-H SF=1 in a RAM drive, 1..64 identical Q1, 24 cores; SP only at "
      "the table-scan stage",
      StrPrintf("TPC-H SF=%.3g in memory, 1..%zu identical Q1", sf,
                max_queries)
          .c_str(),
      "CS(FIFO) serializes on the producer and can lose to not sharing at "
      "low concurrency; CS(SPL) is always >= not sharing and cuts response "
      "times by 82-86%% at 64 queries (24 cores; the factor shrinks with "
      "fewer cores, the ordering does not)");

  auto db = MakeTpchBenchDb(sf, 7);

  std::vector<size_t> grid;
  for (size_t q = 1; q <= max_queries; q *= 2) grid.push_back(q);

  harness::ReportTable table(
      {"queries", "NoSP(FIFO)", "CS(FIFO)", "NoSP(SPL)", "CS(SPL)",
       "speedup(FIFO)", "speedup(SPL)"});
  struct Point {
    double nosp_fifo, cs_fifo, nosp_spl, cs_spl;
  };
  std::vector<Point> points;
  for (size_t q : grid) {
    Point p{};
    p.nosp_fifo =
        RunPoint(db.get(), false, core::CommModel::kPush, q, iterations)
            .response_seconds.Mean();
    p.cs_fifo = RunPoint(db.get(), true, core::CommModel::kPush, q, iterations)
                    .response_seconds.Mean();
    p.nosp_spl =
        RunPoint(db.get(), false, core::CommModel::kPull, q, iterations)
            .response_seconds.Mean();
    p.cs_spl = RunPoint(db.get(), true, core::CommModel::kPull, q, iterations)
                   .response_seconds.Mean();
    points.push_back(p);
    table.AddRow({std::to_string(q), StrPrintf("%.3fs", p.nosp_fifo),
                  StrPrintf("%.3fs", p.cs_fifo), StrPrintf("%.3fs", p.nosp_spl),
                  StrPrintf("%.3fs", p.cs_spl),
                  StrPrintf("%.2fx", p.nosp_fifo / p.cs_fifo),
                  StrPrintf("%.2fx", p.nosp_spl / p.cs_spl)});
  }
  std::printf("Figure 6a/6b (response time) and 6c (speedup of sharing):\n");
  table.Print();

  // §4 size sweep: SPL maximum size does not heavily affect performance.
  const size_t size_queries = std::min<size_t>(8, max_queries);
  harness::ReportTable sizes({"SPL max size", "CS(SPL) response"});
  std::vector<double> size_times;
  for (size_t kb : {64, 256, 1024, 4096}) {
    const double t =
        RunSplSizePoint(db.get(), size_queries, kb * 1024, iterations);
    size_times.push_back(t);
    sizes.AddRow({StrPrintf("%zu KB", kb), StrPrintf("%.3fs", t)});
  }
  std::printf("\nSection 4 SPL maximum-size sweep (%zu queries):\n",
              size_queries);
  sizes.Print();

  harness::ShapeChecker checker;
  const Point& hi = points.back();
  // "Never hurts" across the whole sweep: the 1-2 query points carry no
  // sharing at all (pure noise comparison), so they get wider slack than
  // the points where satellites exist.
  checker.Leq("CS(SPL) <= NoSP(SPL) at every concurrency (sharing with SPL "
              "never hurts)",
              [&] {
                double worst = 0;
                for (size_t i = 0; i < grid.size(); ++i) {
                  const double slack_adjust = grid[i] < 4 ? 0.85 : 1.0;
                  worst = std::max(
                      worst, points[i].cs_spl / points[i].nosp_spl *
                                 slack_adjust);
                }
                return worst;
              }(),
              1.0, 0.10);
  checker.Leq("CS(SPL) <= CS(FIFO) at max concurrency (pull removes the "
              "forwarding cost)",
              hi.cs_spl, hi.cs_fifo, 0.05);
  // The paper's 82-86% cut needs 24 idle cores for the satellites; with
  // both cores saturated either way, sharing saves the duplicated
  // scan+selection work — assert a measurable, never-negative gain.
  checker.FactorAtLeast(
      "CS(SPL) beats NoSP at max concurrency (sharing pays off; factor "
      "scales with cores)",
      hi.nosp_spl, hi.cs_spl, 1.05);
  // Fig 6c's push-vs-pull gap: once satellites exist (>= 4 queries), the
  // pull model must never lose to the push model — the producer-side copy
  // serialization only ever costs.
  {
    double worst = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
      if (grid[i] < 4) continue;
      worst = std::max(worst, points[i].cs_spl / points[i].cs_fifo);
    }
    checker.Leq(
        "CS(SPL) <= CS(FIFO) wherever satellites exist (Fig 6c: the push "
        "serialization point only costs)",
        worst, 1.0, 0.15);
  }
  const double size_min = *std::min_element(size_times.begin(), size_times.end());
  const double size_max = *std::max_element(size_times.begin(), size_times.end());
  checker.Check("SPL max size does not heavily affect performance (§4)",
                size_max <= size_min * 1.75,
                StrPrintf("min %.3fs max %.3fs", size_min, size_max));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
