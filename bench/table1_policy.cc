// Table 1 (paper §1.4/§7): the rules of thumb for when and how to share,
// validated empirically: at low concurrency the policy recommends
// query-centric operators + SP and that configuration must win; at high
// concurrency it recommends GQP + SP and that must win.

#include "bench_common.h"
#include "core/engine.h"
#include "core/sharing_policy.h"

namespace sdw::bench {
namespace {

double RunConfig(BenchDb* db, core::EngineConfig config, size_t queries,
                 uint64_t seed, int iterations) {
  Stats means;
  for (int it = 0; it < iterations + 1; ++it) {
    core::EngineOptions opts;
    opts.config = config;
    opts.cjoin.max_queries = std::max<size_t>(128, queries * 2);
    core::Engine engine(&db->catalog, db->pool.get(), opts);
    // Table 1 targets typical ad-hoc mixes: random predicates (extreme
    // similarity is Figure 14/15's territory, where SP alone can prevail).
    const auto m = harness::RunBatch(
        &engine, db->pool.get(),
        ssb::RandomQ32Workload(queries, seed + static_cast<uint64_t>(it)));
    if (it > 0) means.Add(m.response_seconds.Mean());
  }
  return means.Min();
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.05);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 2));
  const size_t low = static_cast<size_t>(
      flags.GetInt("low-queries", static_cast<int64_t>(std::max<size_t>(1, Cores() / 2))));
  const size_t high = static_cast<size_t>(
      flags.GetInt("high-queries", static_cast<int64_t>(24 * Cores())));
  flags.RejectUnread();

  PrintHeader(
      "Table 1: rules of thumb for when and how to share",
      "low concurrency -> query-centric operators + SP; high concurrency -> "
      "GQP (shared operators) + SP; shared scans in the I/O layer always",
      StrPrintf("SSB SF=%.3g in memory; low=%zu, high=%zu queries", sf, low,
                high)
          .c_str(),
      "the recommended configuration must be the faster one on each side of "
      "the saturation point");

  std::printf("Table 1 (the policy itself):\n");
  harness::ReportTable t1({"When", "Execution engine", "I/O layer"});
  t1.AddRow({"Low concurrency", "Query-centric operators + SP",
             "Shared scans"});
  t1.AddRow({"High concurrency", "GQP (shared operators) + SP",
             "Shared scans"});
  t1.Print();

  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/true);

  harness::ShapeChecker checker;
  harness::ReportTable results(
      {"workload", "policy recommends", "QPipe-SP", "CJOIN-SP"});
  for (const auto& [label, queries] :
       {std::pair<const char*, size_t>{"low concurrency", low},
        std::pair<const char*, size_t>{"high concurrency", high}}) {
    core::WorkloadProfile profile;
    profile.concurrent_queries = queries;
    const auto decision = core::RecommendSharing(profile);
    const double sp = RunConfig(db.get(), core::EngineConfig::kQpipeSp,
                                queries, 5000 + queries, iterations);
    const double cjsp = RunConfig(db.get(), core::EngineConfig::kCjoinSp,
                                  queries, 5000 + queries, iterations);
    results.AddRow({label, core::EngineConfigName(decision.config),
                    StrPrintf("%.3fs", sp), StrPrintf("%.3fs", cjsp)});
    const double recommended =
        decision.config == core::EngineConfig::kCjoinSp ? cjsp : sp;
    const double other =
        decision.config == core::EngineConfig::kCjoinSp ? sp : cjsp;
    checker.Leq(StrPrintf("policy pick (%s) wins at %s",
                          core::EngineConfigName(decision.config), label),
                recommended, other, 0.10);
    std::printf("\n%s rationale: %s\n", label, decision.rationale.c_str());
  }
  std::printf("\nMeasured validation:\n");
  results.Print();
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
