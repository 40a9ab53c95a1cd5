// Priority-mix scheduling figure (PR 4, beyond the paper's experiments):
// p99 latency of HIGH-priority queries under a LOW-priority flood, scheduler
// (priority run queues + aging) vs. the seed's FIFO ordering.
//
// Shape: a closed loop of `clients` threads — `high` of them submit at
// priority 10, the rest flood at priority 0 — against the QPipe engine with
// its scan stage capped at `workers` workers. Every query is a scan-only
// star query (one packet), so the capped pool is the single point of
// contention: under FIFO a high-priority arrival waits behind the whole
// flood's queue; with the scheduler it pops next. Scan-only plans keep the
// cap deadlock-free (packets in the capped pool never feed each other; see
// ThreadPoolOptions).
//
//   ./fig_priority_mix [--sf=0.05] [--clients=10] [--high=2] [--workers=2]
//                      [--seconds=2] [--seed=42]
//
// Emits per-class p50/p99 and queue-wait means for both policies plus
// machine-readable `name=value` lines (merged into BENCH_baseline.json as
// pseudo-benchmarks; see bench/README.md).

#include "bench_common.h"
#include "core/engine.h"

namespace sdw::bench {
namespace {

/// One-packet flood query: scan lineorder under a selective predicate (the
/// result is empty — all the cost is the scan itself).
query::StarQuery ScanOnlyQuery() {
  query::StarQuery q;
  q.fact_table = ssb::kLineorder;
  q.fact_pred.And(
      query::AtomicPred::Int("lo_quantity", query::CompareOp::kLe, 0));
  return q;
}

struct PolicyResult {
  harness::RunMetrics m;
};

PolicyResult RunPolicy(BenchDb* db, bool priority_enabled, size_t clients,
                       size_t high, size_t workers, double seconds) {
  core::EngineOptions opts;
  opts.config = core::EngineConfig::kQpipe;  // no sharing: a pure flood
  opts.sched.priority_enabled = priority_enabled;
  opts.stage_max_workers = workers;
  core::Engine engine(&db->catalog, db->pool.get(), opts);

  harness::ClosedLoopOptions loop;
  loop.clients = clients;
  loop.high_priority_clients = high;
  loop.high_priority = 10;
  loop.low_priority = 0;
  loop.duration_seconds = seconds;
  const query::StarQuery q = ScanOnlyQuery();
  PolicyResult r;
  r.m = harness::RunClosedLoop(&engine, db->pool.get(),
                               [&](size_t) { return q; }, loop);
  return r;
}

void PrintClass(const char* label, const Stats& s) {
  if (s.empty()) {
    std::printf("  %-14s (no completions)\n", label);
    return;
  }
  std::printf("  %-14s n=%-5zu p50=%7.1f ms  p99=%7.1f ms  max=%7.1f ms\n",
              label, s.count(), s.Percentile(50) * 1e3,
              s.Percentile(99) * 1e3, s.Max() * 1e3);
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double sf = flags.GetDouble("sf", 0.05);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const size_t clients = static_cast<size_t>(flags.GetInt("clients", 10));
  const size_t high = static_cast<size_t>(flags.GetInt("high", 2));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 2));
  const double seconds = flags.GetDouble("seconds", 2.0);
  flags.RejectUnread();

  PrintHeader(
      "Priority mix: high-priority p99 under a low-priority flood",
      "n/a — scheduling figure introduced by the Scheduler refactor (PR 4)",
      StrPrintf("SSB sf=%.2f, %zu clients (%zu high-priority), scan stage "
                "capped at %zu workers, %.1fs closed loop",
                sf, clients, high, workers, seconds)
          .c_str(),
      "priority scheduling should cut high-priority tail latency vs. FIFO "
      "without collapsing flood throughput");

  auto db = MakeSsbBenchDb(sf, seed, /*memory_resident=*/true);

  std::printf("policy: seed FIFO\n");
  const PolicyResult fifo =
      RunPolicy(db.get(), false, clients, high, workers, seconds);
  PrintClass("high-priority", fifo.m.response_seconds_high);
  PrintClass("low-priority", fifo.m.response_seconds_low);
  std::printf("  queue wait mean %.1f ms; completed %llu\n\n",
              fifo.m.queue_wait_seconds.Mean() * 1e3,
              static_cast<unsigned long long>(fifo.m.completed));

  std::printf("policy: scheduler (priority + aging)\n");
  const PolicyResult sched =
      RunPolicy(db.get(), true, clients, high, workers, seconds);
  PrintClass("high-priority", sched.m.response_seconds_high);
  PrintClass("low-priority", sched.m.response_seconds_low);
  std::printf("  queue wait mean %.1f ms; completed %llu\n\n",
              sched.m.queue_wait_seconds.Mean() * 1e3,
              static_cast<unsigned long long>(sched.m.completed));

  if (!fifo.m.response_seconds_high.empty() &&
      !sched.m.response_seconds_high.empty()) {
    const double fifo_p99 = fifo.m.response_seconds_high.Percentile(99);
    const double sched_p99 = sched.m.response_seconds_high.Percentile(99);
    std::printf("high-priority p99: FIFO %.1f ms -> scheduler %.1f ms "
                "(%.2fx)\n",
                fifo_p99 * 1e3, sched_p99 * 1e3,
                sched_p99 > 0 ? fifo_p99 / sched_p99 : 0.0);
  }

  // Machine-readable lines for the baseline file.
  auto emit = [](const char* name, double v) {
    std::printf("BASELINE %s=%.6f\n", name, v);
  };
  emit("fig_priority_mix/fifo/high_p99_ms",
       fifo.m.response_seconds_high.Percentile(99) * 1e3);
  emit("fig_priority_mix/fifo/low_p99_ms",
       fifo.m.response_seconds_low.Percentile(99) * 1e3);
  emit("fig_priority_mix/fifo/completed",
       static_cast<double>(fifo.m.completed));
  emit("fig_priority_mix/sched/high_p99_ms",
       sched.m.response_seconds_high.Percentile(99) * 1e3);
  emit("fig_priority_mix/sched/low_p99_ms",
       sched.m.response_seconds_low.Percentile(99) * 1e3);
  emit("fig_priority_mix/sched/completed",
       static_cast<double>(sched.m.completed));
  return 0;
}

}  // namespace
}  // namespace sdw::bench

int main(int argc, char** argv) { return sdw::bench::Main(argc, argv); }
