// Chaos suite: the engine under injected storage faults, overload and
// stalls. Four phases, all seeded and replayable (the schedule seed is
// printed before each randomized run — rerun with --seed=N to reproduce):
//
//  A. Deterministic fault isolation. A one-shot *permanent* fact-page error
//     fails exactly the queries attached to the scan at that epoch
//     (kDataLoss) while the scan skips the poisoned page and keeps serving:
//     the next batch completes kOk and matches the Volcano oracle. The same
//     fault under an active shared aggregation group fails only the group's
//     members and leaves the aggregator clean for same-signature
//     readmissions. A one-shot permanent error on a *dimension* page fails
//     only the admission epoch's queries that missed the filter's selection
//     cache on that dimension; cached predicates read no dimension page and
//     cannot fault. A one-shot *transient* error is absorbed by the cursor's
//     retry/backoff and never reaches a client.
//  B. Overload shedding. With an admission memory budget of 4 queries, a
//     12-query batch sees exactly 4 admitted and 8 shed kResourceExhausted
//     with a machine-readable retry_after hint; resubmitting after the
//     survivors complete succeeds (the budget was released).
//  C. Stall watchdog. A latency fault freezes every fact-page read; the
//     watchdog detects busy-without-progress and converts the stall into
//     kDeadlineExceeded cancels instead of a hang.
//  D. Randomized schedules. Mixed priority/deadline/cancel workloads under
//     probabilistic transient/permanent/latency faults: every ticket
//     reaches exactly one terminal status from the documented taxonomy,
//     every kOk result equals the oracle, nothing hangs (the ctest timeout
//     is the hang guard) and teardown is clean. Run under ASAN/TSAN in CI.
//
// Usage: chaos_test [--seed=N] [--schedules=N]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baseline/volcano.h"
#include "common/fault_injector.h"
#include "common/macros.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/timing.h"
#include "core/engine.h"
#include "core/query_ticket.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "ssb/workload.h"
#include "storage/buffer_pool.h"
#include "storage/storage_device.h"

using namespace sdw;

namespace {

struct Db {
  storage::Catalog catalog;
  std::unique_ptr<storage::StorageDevice> device;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<baseline::VolcanoEngine> oracle;
  uint16_t fact_id = 0;
};

std::unique_ptr<Db> MakeDb() {
  auto db = std::make_unique<Db>();
  ssb::SsbOptions opts;
  opts.scale_factor = 0.01;
  ssb::BuildSsbDatabase(&db->catalog, opts);
  db->device =
      std::make_unique<storage::StorageDevice>(storage::DeviceOptions{});
  db->pool = std::make_unique<storage::BufferPool>(db->device.get(), 0);
  db->oracle =
      std::make_unique<baseline::VolcanoEngine>(&db->catalog, db->pool.get());
  db->fact_id = db->catalog.MustGetTable("lineorder")->id();
  return db;
}

/// Disarms the process-wide injector on every exit path of a phase.
class ScopedFaults {
 public:
  explicit ScopedFaults(uint64_t seed) { FaultInjector::Global().Enable(seed); }
  ~ScopedFaults() { FaultInjector::Global().Disable(); }
};

/// The "storage.read" key range covering every page of one table and
/// nothing else.
void RestrictToTable(FaultSpec* spec, uint16_t table_id) {
  spec->key_lo = static_cast<uint64_t>(table_id) << 48;
  spec->key_hi = (static_cast<uint64_t>(table_id) << 48) | 0xFFFFFFFFFFFFull;
}

/// The fact table's key range — dimension scans and the oracle stay
/// untouched.
void RestrictToFactTable(FaultSpec* spec, const Db& db) {
  RestrictToTable(spec, db.fact_id);
}

core::EngineOptions CjoinOpts() {
  core::EngineOptions o;
  o.config = core::EngineConfig::kCjoin;
  return o;
}

void CheckOracleEqual(Db* db, const query::StarQuery& q,
                      const core::QueryTicket& t, const char* what) {
  const std::string diff =
      query::DiffResults(db->oracle->Execute(q), t.result());
  SDW_CHECK_MSG(diff.empty(), "%s: result mismatch: %s", what, diff.c_str());
}

// Phase A1: a permanent fact-page error fails ONLY the queries attached at
// that scan epoch; the scan skips the poisoned page and the next batch is
// served correctly.
void TestPermanentFaultFailsOnlyAttachedEpoch(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(), CjoinOpts());
  ScopedFaults faults(101);
  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  spec.one_shot_at = 1;  // the scan's first fact-page read
  spec.message = "chaos: simulated media error";
  RestrictToFactTable(&spec, *db);
  FaultInjector::Global().Arm("storage.read", spec);

  const auto queries = ssb::RandomQ32Workload(4, 9100);
  const auto tickets = engine.SubmitBatch(queries);
  for (const auto& t : tickets) {
    const Status s = t.Wait();
    SDW_CHECK_MSG(s.code() == StatusCode::kDataLoss,
                  "epoch query finished %s (want kDataLoss)",
                  s.ToString().c_str());
    SDW_CHECK_MSG(
        s.message().find("simulated media error") != std::string::npos,
        "fault detail lost from message: %s", s.message().c_str());
  }
  engine.WaitAll();
  const cjoin::CjoinStats mid = engine.cjoin_stats();
  SDW_CHECK_MSG(mid.queries_failed == 4, "want 4 failed, got %llu",
                static_cast<unsigned long long>(mid.queries_failed));
  SDW_CHECK(mid.scan_read_errors >= 1);
  SDW_CHECK(FaultInjector::Global().injected("storage.read") == 1);

  // Fault isolation: the one-shot is spent, the scan survived — a new batch
  // on the SAME engine completes and matches the oracle.
  FaultInjector::Global().ClearSite("storage.read");
  const auto queries2 = ssb::RandomQ32Workload(4, 9200);
  const auto tickets2 = engine.SubmitBatch(queries2);
  for (size_t i = 0; i < tickets2.size(); ++i) {
    const Status s = tickets2[i].Wait();
    SDW_CHECK_MSG(s.ok(), "post-fault query finished %s", s.ToString().c_str());
    CheckOracleEqual(db, queries2[i], tickets2[i], "post-fault batch");
  }
  engine.WaitAll();
  SDW_CHECK(engine.cjoin_stats().queries_completed == 4);
}

// Phase A3: a permanent fact-page fault under an ACTIVE shared aggregation
// group. All queries share one group (same Q3.2 shape — one AggSignature);
// the fault must fail exactly the attached members (kDataLoss) and retire
// them through the group's fault path (RetireSlot on a poisoned stream must
// not corrupt the aggregator), after which a second wave binding the SAME
// signature completes oracle-equal on the same engine.
void TestSharedAggFaultIsolation(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(), CjoinOpts());
  ScopedFaults faults(104);
  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  spec.one_shot_at = 1;
  spec.message = "chaos: simulated media error";
  RestrictToFactTable(&spec, *db);
  FaultInjector::Global().Arm("storage.read", spec);

  // distinct_plans=1: every instance is plan-identical, so with CJOIN (no
  // SP) all 6 bind as members of ONE shared aggregation group.
  const auto queries = ssb::SimilarQ32Workload(6, 1, 9600);
  const auto tickets = engine.SubmitBatch(queries);
  for (const auto& t : tickets) {
    const Status s = t.Wait();
    SDW_CHECK_MSG(s.code() == StatusCode::kDataLoss,
                  "shared-agg member finished %s (want kDataLoss)",
                  s.ToString().c_str());
  }
  engine.WaitAll();
  const cjoin::CjoinStats mid = engine.cjoin_stats();
  SDW_CHECK_MSG(mid.agg_groups_shared >= 5,
                "6 same-shape queries shared %llu times (want >= 5)",
                static_cast<unsigned long long>(mid.agg_groups_shared));
  SDW_CHECK(mid.queries_failed == 6);

  // Same signature, fresh members: the group was fully retired with its
  // last member, so a new wave re-binds cleanly and completes oracle-equal.
  FaultInjector::Global().ClearSite("storage.read");
  const auto queries2 = ssb::SimilarQ32Workload(6, 1, 9700);
  const auto tickets2 = engine.SubmitBatch(queries2);
  for (size_t i = 0; i < tickets2.size(); ++i) {
    const Status s = tickets2[i].Wait();
    SDW_CHECK_MSG(s.ok(), "post-fault shared-agg query finished %s",
                  s.ToString().c_str());
    CheckOracleEqual(db, queries2[i], tickets2[i], "shared-agg second wave");
  }
  engine.WaitAll();
  const cjoin::CjoinStats after = engine.cjoin_stats();
  SDW_CHECK(after.queries_completed == 6);
  SDW_CHECK(after.agg_slice_emits >= 6);
}

// Phase A4: a permanent fact-page fault under ACTIVE dynamic query folding.
// A wide host query is admitted first; two provably-contained satellites
// arrive mid-cycle and fold onto its slot (no slots of their own). The
// fault then poisons the tail of the epoch: host AND riders must fail with
// the host's kDataLoss together — a satellite must never hang waiting on a
// scan that died, and never emit a partial result. Resubmitting the same
// satellites on the same engine must complete oracle-equal: the fold bits
// and the shared aggregation group recycle cleanly after a faulted fold.
void TestFoldedSatellitesShareHostFault(Db* db) {
  core::EngineOptions opts = CjoinOpts();
  opts.cjoin.query_folding = true;
  opts.cjoin.fold_bits = 64;
  core::Engine engine(&db->catalog, db->pool.get(), opts);
  ScopedFaults faults(105);
  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  // Fire on the LAST fact page of the host's cycle: the satellites fold at
  // an admission pause within the first few pages, so by then every rider
  // is attached and mid-cycle (pages_remaining > 0) — all take the fault.
  spec.one_shot_at =
      db->catalog.MustGetTable("lineorder")->num_pages();
  spec.message = "chaos: simulated media error under folding";
  RestrictToFactTable(&spec, *db);
  FaultInjector::Global().Arm("storage.read", spec);

  ssb::Q32SelectivityParams wide;
  wide.cust_nations = {0, 1, 2, 3, 4, 5};
  wide.supp_nations = {0, 1, 2, 3, 4, 5};
  wide.year_lo = 1992;
  wide.year_hi = 1998;
  ssb::Q32SelectivityParams n1;
  n1.cust_nations = {1, 3};
  n1.supp_nations = {0, 2, 4};
  n1.year_lo = 1993;
  n1.year_hi = 1996;
  ssb::Q32SelectivityParams n2;
  n2.cust_nations = {5};
  n2.supp_nations = {1, 5};
  n2.year_lo = 1995;
  n2.year_hi = 1995;
  const std::vector<query::StarQuery> sats = {ssb::MakeQ32Selectivity(n1),
                                              ssb::MakeQ32Selectivity(n2)};

  core::QueryTicket host = engine.Submit(ssb::MakeQ32Selectivity(wide));
  auto sat_tickets = engine.SubmitBatch(sats);

  const Status host_status = host.Wait();
  SDW_CHECK_MSG(host_status.code() == StatusCode::kDataLoss,
                "faulted fold host finished %s (want kDataLoss)",
                host_status.ToString().c_str());
  for (const auto& t : sat_tickets) {
    const Status s = t.Wait();
    SDW_CHECK_MSG(s.code() == StatusCode::kDataLoss,
                  "folded satellite finished %s (want host's kDataLoss)",
                  s.ToString().c_str());
  }
  engine.WaitAll();
  const cjoin::CjoinStats mid = engine.cjoin_stats();
  SDW_CHECK_MSG(mid.queries_folded == sats.size(),
                "expected %zu folds before the fault, saw %llu", sats.size(),
                static_cast<unsigned long long>(mid.queries_folded));
  SDW_CHECK(mid.queries_failed == 1 + sats.size());

  // Re-admission after the fault: same satellites, same engine, clean run.
  FaultInjector::Global().ClearSite("storage.read");
  auto tickets2 = engine.SubmitBatch(sats);
  for (size_t i = 0; i < tickets2.size(); ++i) {
    const Status s = tickets2[i].Wait();
    SDW_CHECK_MSG(s.ok(), "post-fault satellite resubmission finished %s",
                  s.ToString().c_str());
    CheckOracleEqual(db, sats[i], tickets2[i], "post-fault fold resubmit");
  }
  engine.WaitAll();
}

// Phase A5: a permanent fault on a dimension page during admission. Only the
// epoch's requests that missed the filter's selection cache scan the
// dimension, so only the queries that missed on the faulted dimension fail
// (kDataLoss); a query of the same epoch whose predicates were all cached
// admits and completes. The failed scan caches nothing — once the fault is
// cleared, the failed predicates scan again — and a cached predicate never
// reads a dimension page, so a re-armed fault cannot reach it.
void TestDimensionScanFaultFailsOnlyMisses(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(), CjoinOpts());
  ScopedFaults faults(106);
  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  spec.one_shot_at = 1;  // the first customer page read after arming
  spec.message = "chaos: simulated dimension media error";
  RestrictToTable(&spec, db->catalog.MustGetTable("customer")->id());

  ssb::Q32SelectivityParams warm;
  warm.cust_nations = {0, 1};
  warm.supp_nations = {2};
  warm.year_lo = 1993;
  warm.year_hi = 1995;
  const query::StarQuery cached = ssb::MakeQ32Selectivity(warm);
  // miss1 repeats the cached supplier and date predicates with a new
  // customer one; miss2 also brings a new supplier predicate, whose scan
  // (a healthy dimension) succeeds and is cached in the failing epoch.
  ssb::Q32SelectivityParams p1 = warm;
  p1.cust_nations = {7};
  ssb::Q32SelectivityParams p2 = warm;
  p2.cust_nations = {8, 9};
  p2.supp_nations = {10};
  const std::vector<query::StarQuery> misses = {ssb::MakeQ32Selectivity(p1),
                                                ssb::MakeQ32Selectivity(p2)};

  // Warm-up on a healthy device: every predicate of `cached` enters the
  // caches.
  {
    const core::QueryTicket t = engine.Submit(cached);
    SDW_CHECK_MSG(t.Wait().ok(), "warm-up query failed");
    CheckOracleEqual(db, cached, t, "dimension-fault warm-up");
  }
  engine.WaitAll();

  // 1 + 2: one epoch carrying the cached query and both misses.
  FaultInjector::Global().Arm("storage.read", spec);
  const cjoin::CjoinStats s0 = engine.cjoin_stats();
  const auto tickets = engine.SubmitBatch({cached, misses[0], misses[1]});
  for (size_t i = 1; i < tickets.size(); ++i) {
    const Status s = tickets[i].Wait();
    SDW_CHECK_MSG(s.code() == StatusCode::kDataLoss,
                  "query that missed on the faulted dimension finished %s "
                  "(want kDataLoss)",
                  s.ToString().c_str());
    SDW_CHECK_MSG(s.message().find("dimension 'customer'") !=
                          std::string::npos &&
                      s.message().find("simulated dimension media error") !=
                          std::string::npos,
                  "fault detail lost from message: %s", s.message().c_str());
  }
  const Status cached_status = tickets[0].Wait();
  SDW_CHECK_MSG(cached_status.ok(), "cached query in the faulted epoch "
                "finished %s", cached_status.ToString().c_str());
  engine.WaitAll();
  SDW_CHECK(FaultInjector::Global().injected("storage.read") == 1);
  FaultInjector::Global().ClearSite("storage.read");
  CheckOracleEqual(db, cached, tickets[0], "cached query in faulted epoch");
  const cjoin::CjoinStats s1 = engine.cjoin_stats();
  SDW_CHECK(s1.queries_failed - s0.queries_failed == 2);
  // The failed customer scan and miss2's supplier scan.
  SDW_CHECK_MSG(s1.admission_dim_scans - s0.admission_dim_scans == 2,
                "faulted epoch did %llu dimension scans (want 2)",
                static_cast<unsigned long long>(s1.admission_dim_scans -
                                                s0.admission_dim_scans));

  // 3: the failed scan left no cache entry — resubmitting the failed
  // predicates scans the customer dimension again (and only it: miss2's
  // supplier selection was cached by its successful scan).
  const auto retry = engine.SubmitBatch(misses);
  for (size_t i = 0; i < retry.size(); ++i) {
    const Status s = retry[i].Wait();
    SDW_CHECK_MSG(s.ok(), "resubmitted query finished %s",
                  s.ToString().c_str());
    CheckOracleEqual(db, misses[i], retry[i], "resubmitted after fault");
  }
  engine.WaitAll();
  const cjoin::CjoinStats s2 = engine.cjoin_stats();
  SDW_CHECK_MSG(s2.admission_dim_scans - s1.admission_dim_scans == 1,
                "resubmission did %llu dimension scans (want 1)",
                static_cast<unsigned long long>(s2.admission_dim_scans -
                                                s1.admission_dim_scans));

  // 4: with the fault armed again, cached predicates admit without a read.
  FaultInjector::Global().Arm("storage.read", spec);
  const uint64_t injected = FaultInjector::Global().injected("storage.read");
  const auto again = engine.SubmitBatch({cached, misses[0], misses[1]});
  for (const auto& t : again) {
    const Status s = t.Wait();
    SDW_CHECK_MSG(s.ok(), "cached query under an armed dimension fault "
                  "finished %s", s.ToString().c_str());
  }
  engine.WaitAll();
  SDW_CHECK_MSG(FaultInjector::Global().injected("storage.read") == injected,
                "a cached admission read a faulted dimension page");
  FaultInjector::Global().ClearSite("storage.read");
  CheckOracleEqual(db, cached, again[0], "cached under armed fault");
  for (size_t i = 0; i < misses.size(); ++i) {
    CheckOracleEqual(db, misses[i], again[i + 1], "cached under armed fault");
  }
  SDW_CHECK(engine.cjoin_stats().admission_dim_scans ==
            s2.admission_dim_scans);
}

// Phase A2: a transient read error is retried inside the cursor and never
// surfaces — queries complete kOk, the retry telemetry shows the absorb.
void TestTransientFaultAbsorbedByRetry(Db* db) {
  core::Engine engine(&db->catalog, db->pool.get(), CjoinOpts());
  ScopedFaults faults(102);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.one_shot_at = 1;
  spec.message = "chaos: simulated I/O timeout";
  RestrictToFactTable(&spec, *db);
  FaultInjector::Global().Arm("storage.read", spec);

  const auto queries = ssb::RandomQ32Workload(2, 9300);
  const auto tickets = engine.SubmitBatch(queries);
  for (size_t i = 0; i < tickets.size(); ++i) {
    const Status s = tickets[i].Wait();
    SDW_CHECK_MSG(s.ok(), "transient-fault query finished %s",
                  s.ToString().c_str());
    CheckOracleEqual(db, queries[i], tickets[i], "transient batch");
  }
  engine.WaitAll();
  const cjoin::CjoinStats stats = engine.cjoin_stats();
  SDW_CHECK_MSG(stats.scan_read_retries >= 1,
                "transient fault was not retried (retries=%llu)",
                static_cast<unsigned long long>(stats.scan_read_retries));
  SDW_CHECK(stats.scan_read_errors == 0);  // never surfaced past the cursor
  SDW_CHECK(stats.queries_failed == 0);
}

// Phase B: memory-budget overload shedding with a retry_after hint, and
// successful resubmission once the budget frees up.
void TestOverloadSheddingAndResubmit(Db* db) {
  core::EngineOptions opts = CjoinOpts();
  opts.resilience.memory_budget_bytes =
      4 * cjoin::CjoinPipeline::kAdmissionCostBytes;
  opts.cjoin.overload_retry_after_nanos = 2'000'000;
  core::Engine engine(&db->catalog, db->pool.get(), opts);

  const auto queries = ssb::RandomQ32Workload(12, 9400);
  const auto tickets = engine.SubmitBatch(queries);
  std::vector<size_t> shed;
  size_t ok = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const Status s = tickets[i].Wait();
    if (s.ok()) {
      ++ok;
      CheckOracleEqual(db, queries[i], tickets[i], "overload survivor");
    } else {
      SDW_CHECK_MSG(s.code() == StatusCode::kResourceExhausted,
                    "shed query finished %s", s.ToString().c_str());
      SDW_CHECK_MSG(RetryAfterNanosFrom(s) > 0,
                    "overload rejection carries no retry_after hint: %s",
                    s.message().c_str());
      shed.push_back(i);
    }
  }
  SDW_CHECK_MSG(ok == 4 && shed.size() == 8,
                "budget of 4: %zu admitted, %zu shed", ok, shed.size());
  engine.WaitAll();
  SDW_CHECK(engine.cjoin_stats().queries_rejected_overload == 8);
  SDW_CHECK(engine.memory_budget() != nullptr &&
            engine.memory_budget()->used() == 0);

  // The hint is honest: shed queries eventually complete by resubmitting
  // after waiting it out. Each round frees the whole budget (WaitAll), so
  // each round admits at least 4 of the remainder — 2 rounds here.
  std::vector<query::StarQuery> again;
  for (const size_t i : shed) again.push_back(queries[i]);
  int rounds = 0;
  while (!again.empty()) {
    SDW_CHECK_MSG(++rounds <= 10, "overload resubmission did not converge");
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(opts.cjoin.overload_retry_after_nanos));
    const auto tickets2 = engine.SubmitBatch(again);
    std::vector<query::StarQuery> still_shed;
    for (size_t i = 0; i < tickets2.size(); ++i) {
      const Status s = tickets2[i].Wait();
      if (s.ok()) {
        CheckOracleEqual(db, again[i], tickets2[i], "overload resubmit");
      } else {
        SDW_CHECK_MSG(s.code() == StatusCode::kResourceExhausted,
                      "resubmitted query finished %s", s.ToString().c_str());
        still_shed.push_back(again[i]);
      }
    }
    engine.WaitAll();
    again = std::move(still_shed);
  }
  SDW_CHECK_MSG(rounds >= 2, "12 queries through a budget of 4 in one round");
}

// Phase C: a latency fault freezes fact-page reads; the stall watchdog
// converts busy-without-progress into kDeadlineExceeded instead of a hang.
void TestWatchdogConvertsStallIntoDeadline(Db* db) {
  core::EngineOptions opts = CjoinOpts();
  opts.resilience.scan_stall_nanos = 100'000'000;  // 100 ms flat
  opts.resilience.watchdog_check_interval_nanos = 20'000'000;
  core::Engine engine(&db->catalog, db->pool.get(), opts);
  SDW_CHECK(engine.watchdog() != nullptr);

  ScopedFaults faults(103);
  FaultSpec spec;
  spec.kind = FaultKind::kLatency;
  spec.latency_nanos = 250'000'000;  // every fact read sleeps 250 ms
  spec.every_nth = 1;
  RestrictToFactTable(&spec, *db);
  FaultInjector::Global().Arm("storage.read", spec);

  const auto queries = ssb::RandomQ32Workload(2, 9500);
  const auto tickets = engine.SubmitBatch(queries);
  for (const auto& t : tickets) {
    const Status s = t.Wait();
    SDW_CHECK_MSG(s.code() == StatusCode::kDeadlineExceeded,
                  "stalled query finished %s (want kDeadlineExceeded)",
                  s.ToString().c_str());
  }
  SDW_CHECK(engine.watchdog()->stalls_fired() >= 1);
  // Un-freeze the scan so the cancelled slots retire promptly.
  FaultInjector::Global().ClearSite("storage.read");
  engine.WaitAll();
}

// Phase D: one randomized schedule — mixed priorities, deadlines and
// mid-flight cancels under probabilistic transient/permanent/latency
// faults. Invariants: every ticket terminal with a taxonomy status, kOk
// results equal the oracle, accounting balances, clean teardown.
void RunRandomSchedule(Db* db, uint64_t seed) {
  std::printf("chaos schedule seed=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  core::Engine engine(&db->catalog, db->pool.get(), CjoinOpts());
  ScopedFaults faults(seed);
  {
    FaultSpec transient;
    transient.kind = FaultKind::kTransient;
    transient.probability = 0.02;
    transient.message = "chaos: random transient";
    FaultInjector::Global().Arm("storage.read", transient);

    FaultSpec permanent;  // rare, anywhere: fact pages AND dimension scans
    permanent.kind = FaultKind::kPermanent;
    permanent.probability = 0.001;
    permanent.message = "chaos: random permanent";
    FaultInjector::Global().Arm("storage.read", permanent);

    FaultSpec latency;
    latency.kind = FaultKind::kLatency;
    latency.probability = 0.01;
    latency.latency_nanos = 500'000;  // 0.5 ms hiccup
    FaultInjector::Global().Arm("storage.read", latency);
  }

  // Two arrival waves of 8, different priorities; wave 2 carries a deadline
  // generous enough to normally complete but breachable under faults.
  const auto wave1 = ssb::RandomQ32Workload(8, seed ^ 0x9e3779b97f4a7c15ull);
  const auto wave2 =
      ssb::SimilarQ32Workload(8, 3, seed ^ 0xbf58476d1ce4e5b9ull);
  std::vector<core::SubmitRequest> requests;
  for (const auto& q : wave1) {
    core::SubmitRequest r;
    r.q = q;
    r.opts.priority = static_cast<int>(rng.Uniform(0, 3));
    requests.push_back(r);
  }
  for (const auto& q : wave2) {
    core::SubmitRequest r;
    r.q = q;
    r.opts.priority = 5;
    r.opts.deadline_nanos = NowNanos() + 10'000'000'000;  // 10 s
    requests.push_back(r);
  }
  const auto tickets = engine.SubmitRequests(requests);

  // Cancel a random quarter mid-flight.
  std::vector<bool> cancelled(tickets.size(), false);
  for (const size_t i : rng.SampleDistinct(tickets.size(), 4)) {
    tickets[i].Cancel();
    cancelled[i] = true;
  }

  size_t ok = 0, faulted = 0, cancelled_seen = 0, other = 0;
  std::vector<size_t> ok_idx;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const Status s = tickets[i].Wait();  // every ticket must turn terminal
    switch (s.code()) {
      case StatusCode::kOk:
        ++ok;
        ok_idx.push_back(i);
        break;
      case StatusCode::kUnavailable:
      case StatusCode::kDataLoss:
        ++faulted;
        break;
      case StatusCode::kCancelled:
        SDW_CHECK_MSG(cancelled[i], "uncancelled ticket %zu got kCancelled",
                      i);
        ++cancelled_seen;
        break;
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kResourceExhausted:
        ++other;
        break;
      default:
        SDW_CHECK_MSG(false, "ticket %zu: status outside the taxonomy: %s", i,
                      s.ToString().c_str());
    }
  }
  engine.WaitAll();

  // Exactly-once completion accounting: every admitted query retired
  // through exactly one of the terminal paths.
  const cjoin::CjoinStats stats = engine.cjoin_stats();
  SDW_CHECK_MSG(
      stats.queries_admitted <= stats.queries_completed +
                                    stats.queries_cancelled +
                                    stats.queries_failed,
      "admission accounting leak: admitted=%llu done=%llu cancelled=%llu "
      "failed=%llu",
      static_cast<unsigned long long>(stats.queries_admitted),
      static_cast<unsigned long long>(stats.queries_completed),
      static_cast<unsigned long long>(stats.queries_cancelled),
      static_cast<unsigned long long>(stats.queries_failed));

  // Oracle equality for every kOk ticket, with injection OFF (the oracle
  // must not itself run under faults).
  FaultInjector::Global().Disable();
  for (const size_t i : ok_idx) {
    CheckOracleEqual(db, requests[i].q, tickets[i], "random schedule");
  }
  std::printf(
      "  seed=%llu: %zu ok, %zu faulted, %zu cancelled, %zu other; "
      "retries=%llu giveups=%llu injected=%llu\n",
      static_cast<unsigned long long>(seed), ok, faulted, cancelled_seen,
      other, static_cast<unsigned long long>(stats.scan_read_retries),
      static_cast<unsigned long long>(stats.scan_retry_giveups),
      static_cast<unsigned long long>(
          FaultInjector::Global().injected_total()));
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 20260808;
  size_t schedules = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--schedules=", 12) == 0) {
      schedules = std::strtoull(argv[i] + 12, nullptr, 10);
    }
  }

  auto db = MakeDb();
  TestPermanentFaultFailsOnlyAttachedEpoch(db.get());
  TestSharedAggFaultIsolation(db.get());
  TestFoldedSatellitesShareHostFault(db.get());
  TestDimensionScanFaultFailsOnlyMisses(db.get());
  TestTransientFaultAbsorbedByRetry(db.get());
  TestOverloadSheddingAndResubmit(db.get());
  TestWatchdogConvertsStallIntoDeadline(db.get());
  for (size_t s = 0; s < schedules; ++s) {
    RunRandomSchedule(db.get(), seed + s * 7919);
  }
  std::printf("chaos_test: OK (base seed=%llu, %zu random schedules)\n",
              static_cast<unsigned long long>(seed), schedules);
  return 0;
}
