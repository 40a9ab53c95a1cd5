// Shared aggregation: aggregation work scales with DISTINCT SHAPES, not
// with concurrent query count.
//
// Not a paper figure — the paper's CJOIN stops at the distributor and runs
// one aggregation operator per query. This experiment measures the repo's
// shared aggregation stage (cjoin/shared_agg.h): concurrent Q3.2-structure
// queries drawn from K distinct aggregation shapes (ShapeSkewedQ32Workload)
// bind to K shared groups; each distributed batch folds once per GROUP, and
// per-query results are sliced at completion. Two sweeps:
//
//   A. Fixed query count, shapes 1..8: fold work (agg_batches_folded, the
//      per-group batch folds the distributor performs) grows with the shape
//      count while the sharing counter absorbs the rest of the queries.
//   B. Fixed shapes, queries 8..N: fold work stays roughly FLAT as query
//      count grows — the queries-axis cost is slicing, not aggregation —
//      while the scalar reference (shared_aggregation=false, one QPipe
//      aggregation packet per query) pays per query.

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

struct PointResult {
  double response = 0;
  uint64_t folds = 0;         // CjoinStats::agg_batches_folded
  uint64_t groups_shared = 0; // CjoinStats::agg_groups_shared
  uint64_t slice_emits = 0;   // CjoinStats::agg_slice_emits
};

PointResult RunPoint(BenchDb* db, size_t queries, size_t shapes, bool shared,
                     uint64_t seed, int iterations) {
  Stats means;
  PointResult r;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = core::EngineConfig::kCjoin;
    opts.shared_aggregation = shared;
    opts.cjoin.max_queries = std::max<size_t>(128, queries * 2);
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    const auto m = harness::RunBatch(
        &engine, db->pool.get(),
        ssb::ShapeSkewedQ32Workload(queries, shapes,
                                    seed + static_cast<uint64_t>(it)));
    if (it > 0) {
      means.Add(m.response_seconds.Mean());
      r.folds = m.cjoin.agg_batches_folded;
      r.groups_shared = m.cjoin.agg_groups_shared;
      r.slice_emits = m.cjoin.agg_slice_emits;
    }
  }
  r.response = means.Min();
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.05);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 2));
  const size_t max_queries =
      static_cast<size_t>(flags.GetInt("max-queries", 64));
  const size_t fixed_shapes = static_cast<size_t>(flags.GetInt("shapes", 4));
  flags.RejectUnread();

  PrintHeader(
      "Shared aggregation: work scales with distinct shapes, not queries",
      "n/a (extension beyond the paper's per-query aggregation operators)",
      StrPrintf("SSB SF=%.3g memory-resident, CJOIN, up to %zu queries",
                sf, max_queries)
          .c_str(),
      "each distributed batch is aggregated once per distinct (group-by, "
      "aggregate) shape; adding same-shape queries adds slices, not folds");

  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/true);

  // Sweep A: fixed queries, growing shape diversity.
  harness::ReportTable ta({"shapes", "shared", "scalar-ref", "folds",
                           "groups-shared", "slices"});
  std::vector<PointResult> by_shapes;
  const std::vector<size_t> shape_grid = {1, 2, 4, 8};
  for (size_t shapes : shape_grid) {
    const PointResult s =
        RunPoint(db.get(), max_queries, shapes, /*shared=*/true,
                 1200 + shapes, iterations);
    const PointResult ref =
        RunPoint(db.get(), max_queries, shapes, /*shared=*/false,
                 1200 + shapes, iterations);
    by_shapes.push_back(s);
    ta.AddRow({std::to_string(shapes), StrPrintf("%.3fs", s.response),
               StrPrintf("%.3fs", ref.response),
               std::to_string(s.folds), std::to_string(s.groups_shared),
               std::to_string(s.slice_emits)});
  }
  std::printf("Sweep A (%zu queries, 1..8 distinct shapes):\n", max_queries);
  ta.Print();

  // Sweep B: fixed shapes, growing query count.
  harness::ReportTable tb({"queries", "shared", "scalar-ref", "folds",
                           "groups-shared", "slices"});
  std::vector<PointResult> by_queries;
  std::vector<size_t> query_grid;
  for (size_t q = 8; q <= max_queries; q *= 2) query_grid.push_back(q);
  for (size_t q : query_grid) {
    const PointResult s = RunPoint(db.get(), q, fixed_shapes, /*shared=*/true,
                                   3400 + q, iterations);
    const PointResult ref = RunPoint(db.get(), q, fixed_shapes,
                                     /*shared=*/false, 3400 + q, iterations);
    by_queries.push_back(s);
    tb.AddRow({std::to_string(q), StrPrintf("%.3fs", s.response),
               StrPrintf("%.3fs", ref.response), std::to_string(s.folds),
               std::to_string(s.groups_shared),
               std::to_string(s.slice_emits)});
  }
  std::printf("\nSweep B (%zu distinct shapes, %zu..%zu queries):\n",
              fixed_shapes, query_grid.front(), query_grid.back());
  tb.Print();
  std::printf("\n");

  harness::ShapeChecker checker;
  // A: every query beyond the first of a shape attaches to the shape's
  // group rather than creating one.
  checker.Check(
      "sharing counter absorbs same-shape queries (queries - shapes)",
      by_shapes.front().groups_shared >= max_queries - shape_grid.front() &&
          by_shapes.back().groups_shared >= max_queries - shape_grid.back(),
      StrPrintf("%llu shared at %zu shapes, %llu at %zu",
                static_cast<unsigned long long>(
                    by_shapes.front().groups_shared),
                shape_grid.front(),
                static_cast<unsigned long long>(by_shapes.back().groups_shared),
                shape_grid.back()));
  // A: fold work grows with shape diversity (8 shapes fold ~8x the groups
  // of 1 shape over the same scan; allow slack for extra scan cycles).
  checker.Check(
      "fold work grows with distinct shapes",
      by_shapes.back().folds >= 3 * by_shapes.front().folds,
      StrPrintf("%llu folds at %zu shapes vs %llu at %zu",
                static_cast<unsigned long long>(by_shapes.back().folds),
                shape_grid.back(),
                static_cast<unsigned long long>(by_shapes.front().folds),
                shape_grid.front()));
  // B: fold work is flat in query count at fixed shapes — the defining
  // property of the shared stage. Admission timing can add scan cycles, so
  // "flat" means well under proportional (8x queries, < 3x folds).
  checker.Check(
      "fold work ~flat in query count at fixed shapes",
      by_queries.back().folds <
          3 * std::max<uint64_t>(1, by_queries.front().folds),
      StrPrintf("%llu folds at %zu queries vs %llu at %zu",
                static_cast<unsigned long long>(by_queries.back().folds),
                query_grid.back(),
                static_cast<unsigned long long>(by_queries.front().folds),
                query_grid.front()));
  // B: every completed query got exactly one slice emission.
  checker.Check("one slice per query",
                by_queries.back().slice_emits >= query_grid.back(),
                StrPrintf("%llu slices for %zu queries",
                          static_cast<unsigned long long>(
                              by_queries.back().slice_emits),
                          query_grid.back()));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
