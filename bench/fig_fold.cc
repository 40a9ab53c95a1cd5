// Dynamic query folding: subsumed queries ride in-flight slots, so a fixed
// slot budget admits a multiple of its capacity when the workload is
// similarity-skewed.
//
// Not a paper figure — CJOIN as published admits every query into its own
// slot and rejects at capacity. This experiment measures the repo's
// admission fold pass (CjoinOptions::query_folding) on a burst of
// FoldableQ31Workload queries — wide "template" instances plus, at the
// containment-rate knob, provably narrowed instances of them — at slot caps
// {64, 256}, against the DISK-RESIDENT simulated device (the paper's
// setting: the shared circular scan is the dominant per-cycle cost, which
// is exactly why admitting more queries per cycle pays). Q3.1's nation
// grain keeps per-query result materialization (~250 group rows) small
// relative to that scan; at Q3.2's city grain the experiment would measure
// result rendering, not admission capacity. Two measurements per
// (cap, containment, mode) cell:
//
//   * one-shot: the whole burst submitted at once. With folding on, each
//     narrowed instance rides a subsuming in-flight query's slot as a
//     post-filter (no slot, no dimension scans); with folding off, the
//     burst beyond the slot cap is rejected with ResourceExhausted. This is
//     the capacity-rejection measurement.
//   * serve rate: queries served per second of total service time for the
//     WHOLE burst. Folding serves it in one admission (when nothing is
//     rejected); the unfolded baseline is modeled as the best possible
//     admission-aware client — cap-sized waves submitted back to back, so
//     it never wastes time on rejected submissions or retry backoff. Beating
//     that client by 2x is therefore a lower bound on the folding win
//     against any real unfolded client.
//
// Expectations (the shape checks below): at cap 64 under high containment,
// folding serves >= 2x the queries/sec of the wave baseline and one-shot
// capacity rejections are driven to ~0 (the unfolded one-shot rejects most
// of the burst); folding off leaves every fold counter at zero (the
// unfolded path is byte-identical to the pre-folding pipeline).

#include <algorithm>

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

struct PointResult {
  double oneshot_makespan = 0;
  double serve_seconds = 0;   // whole burst served (waves when unfolded)
  double served_per_sec = 0;
  size_t waves = 0;
  uint64_t admitted = 0;      // one-shot
  uint64_t folded = 0;        // one-shot
  uint64_t fold_checks = 0;   // one-shot
  uint64_t rejected = 0;      // one-shot CjoinStats::queries_rejected
  uint64_t completed = 0;     // one-shot
  uint64_t served = 0;        // waves (whole burst)
};

core::EngineOptions MakeOptions(size_t slot_cap, size_t queries,
                                bool folding) {
  core::EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  opts.cjoin.query_folding = folding;
  opts.cjoin.max_queries = slot_cap;
  // Enough fold bits for the whole burst to ride as aggregates; the knob
  // under test is the SLOT cap. Not wider: every extra fold word lengthens
  // the member-bitmap tail of every accumulator key.
  opts.cjoin.fold_bits = queries;
  return opts;
}

PointResult RunPoint(BenchDb* db, size_t queries, size_t slot_cap,
                     double containment, bool folding, uint64_t seed,
                     int iterations) {
  Stats rate;
  PointResult r;
  for (int it = 0; it < iterations + 1; ++it) {
    const auto workload = ssb::FoldableQ31Workload(
        queries, containment, seed + static_cast<uint64_t>(it));

    // One-shot: the whole burst against one admission window.
    {
      core::Engine engine(&db->catalog, db->pool.get(),
                          MakeOptions(slot_cap, queries, folding));
      const auto m = harness::RunBatch(&engine, db->pool.get(), workload);
      if (it > 0) {
        r.oneshot_makespan = m.makespan_seconds;
        r.admitted = m.cjoin.queries_admitted;
        r.folded = m.cjoin.queries_folded;
        r.fold_checks = m.cjoin.fold_checks;
        r.rejected = m.cjoin.queries_rejected;
        r.completed = m.completed;
      }
    }

    // Serve the whole burst. Folding: one admission absorbs everything (as
    // long as nothing was rejected, which the checks assert for the
    // headline cells). Unfolded: back-to-back cap-sized waves — the optimal
    // rejection-free client at this slot cap.
    {
      core::Engine engine(&db->catalog, db->pool.get(),
                          MakeOptions(slot_cap, queries, folding));
      const size_t wave_size = folding ? queries : slot_cap;
      double total = 0;
      uint64_t served = 0;
      size_t waves = 0;
      for (size_t at = 0; at < workload.size(); at += wave_size, ++waves) {
        const std::vector<query::StarQuery> wave(
            workload.begin() + static_cast<ptrdiff_t>(at),
            workload.begin() +
                static_cast<ptrdiff_t>(
                    std::min(at + wave_size, workload.size())));
        const auto m = harness::RunBatch(&engine, db->pool.get(), wave);
        total += m.makespan_seconds;
        served += m.completed;
      }
      if (it > 0) {
        r.serve_seconds = total;
        r.served = served;
        r.waves = waves;
        if (total > 0) rate.Add(static_cast<double>(served) / total);
      }
    }
  }
  r.served_per_sec = rate.Max();
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  // SF 0.1: the shared circular scan must dominate the per-cycle cost for
  // the capacity claim to be about admission, not result materialization —
  // at smaller scale the measured ratio sits within noise of the 2x bar on
  // a shared 1-core container.
  const double sf = flags.GetDouble("sf", 0.1);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 1));
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 512));
  flags.RejectUnread();

  PrintHeader(
      "Dynamic query folding: subsumed queries ride in-flight slots",
      "n/a (extension: CJOIN as published rejects at slot capacity)",
      StrPrintf("SSB SF=%.3g disk-resident (simulated array), CJOIN, "
                "%zu-query Q3.1-grain burst, slot caps {64, 256}, unfolded "
                "baseline = cap-sized waves",
                sf, queries)
          .c_str(),
      "folding serves >= 2x concurrent queries/sec at cap 64 under high "
      "containment, with one-shot capacity rejections driven to ~0");

  auto db = MakeSsbBenchDb(sf, 42, /*memory_resident=*/false);

  const std::vector<size_t> caps = {64, 256};
  const std::vector<double> rates = {0.0, 0.5, 0.9};
  harness::ReportTable table({"cap", "containment", "folding", "folded",
                              "rejected", "served", "waves", "serve_s",
                              "q/s"});
  // [cap][rate] -> (folding-on, folding-off)
  std::vector<std::vector<std::pair<PointResult, PointResult>>> grid;
  for (size_t cap : caps) {
    grid.emplace_back();
    for (double c : rates) {
      const uint64_t seed = 7100 + cap + static_cast<uint64_t>(c * 100);
      const PointResult on =
          RunPoint(db.get(), queries, cap, c, /*folding=*/true, seed,
                   iterations);
      const PointResult off =
          RunPoint(db.get(), queries, cap, c, /*folding=*/false, seed,
                   iterations);
      grid.back().emplace_back(on, off);
      for (const auto* p : {&on, &off}) {
        table.AddRow({std::to_string(cap), StrPrintf("%.1f", c),
                      p == &on ? "on" : "off", std::to_string(p->folded),
                      std::to_string(p->rejected), std::to_string(p->served),
                      std::to_string(p->waves),
                      StrPrintf("%.3fs", p->serve_seconds),
                      StrPrintf("%.1f", p->served_per_sec)});
      }
    }
  }
  table.Print();
  std::printf("\n");

  const auto& [on64, off64] = grid[0][2];    // cap 64, containment 0.9
  const auto& [on256, off256] = grid[1][2];  // cap 256, containment 0.9
  (void)off256;

  harness::ShapeChecker checker;
  checker.Check(
      "folding serves >= 2x queries/sec at cap 64, containment 0.9",
      on64.served_per_sec >= 2.0 * off64.served_per_sec,
      StrPrintf("%.1f q/s folded (%zu wave) vs %.1f unfolded (%zu waves)",
                on64.served_per_sec, on64.waves, off64.served_per_sec,
                off64.waves));
  checker.Check(
      "folding drives capacity rejections to ~0 at cap 64, containment 0.9",
      on64.rejected <= queries / 50,
      StrPrintf("%llu rejected of %zu (unfolded one-shot rejects %llu)",
                static_cast<unsigned long long>(on64.rejected), queries,
                static_cast<unsigned long long>(off64.rejected)));
  checker.Check(
      "unfolded one-shot is slot-capacity bound at cap 64",
      off64.rejected >= queries / 2,
      StrPrintf("%llu rejected of %zu",
                static_cast<unsigned long long>(off64.rejected), queries));
  checker.Check(
      "folds actually happen under containment",
      on64.folded >= queries / 2 && on256.folded >= queries / 2,
      StrPrintf("%llu folded at cap 64, %llu at cap 256",
                static_cast<unsigned long long>(on64.folded),
                static_cast<unsigned long long>(on256.folded)));
  checker.Check(
      "folding off reproduces the unfolded counters exactly",
      off64.folded == 0 && off64.fold_checks == 0 && off256.folded == 0,
      "fold counters must be zero with query_folding=false");
  checker.Check(
      "no slot pressure at cap 256, containment 0.9: folding rejects nothing",
      on256.rejected == 0 && on256.served == queries,
      StrPrintf("%llu rejected, %llu of %zu served",
                static_cast<unsigned long long>(on256.rejected),
                static_cast<unsigned long long>(on256.served), queries));
  return checker.Summarize() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
