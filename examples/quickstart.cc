// Quickstart: build a small Star Schema Benchmark database, start the
// integrated engine in its recommended configuration, run one analytical
// query through the asynchronous ticket API, and print the results.
//
//   $ ./quickstart
//
// The public API in five steps:
//   1. storage::Catalog + ssb::BuildSsbDatabase     — load data
//   2. storage::StorageDevice + BufferPool          — I/O layer (memory mode)
//   3. core::Engine with EngineOptions              — pick a configuration
//      (Engine is a core::ExecutorClient — swap in baseline::VolcanoEngine
//      or any future backend without touching client code)
//   4. ssb::MakeQ32 / query::StarQuery              — describe the query
//   5. engine.Submit(query, SubmitOptions) -> QueryTicket
//      ticket.Wait() -> Status, ticket.result()     — run and read results
//
// The ticket is the whole client lifecycle: Wait() returns the terminal
// Status (OK / CANCELLED / DEADLINE_EXCEEDED / ... — see common/status.h),
// ticket.Cancel() detaches mid-flight, SubmitOptions carries per-query
// deadlines and row limits, and ticket.metrics() reports timing and
// sharing for this one query.
//
// Step 6 shows the scheduler: SubmitOptions{priority} actually changes
// completion order (a capped stage pops the highest-priority packet first)
// and SubmitOptions{deadline_nanos} is enforced by the timer queue — the
// expired ticket completes DEADLINE_EXCEEDED promptly, even if no result
// page ever arrives to notice it on.
//
// Step 7 shows the failure semantics: storage faults surface as terminal
// ticket statuses from the taxonomy in common/status.h (DATA_LOSS /
// UNAVAILABLE for unreadable data, RESOURCE_EXHAUSTED + retry_after for
// overload, DEADLINE_EXCEEDED for stalls), and a fault is isolated to the
// queries attached to the shared scan when it struck — the engine itself
// keeps serving. The demo uses the deterministic FaultInjector the chaos
// suite is built on (common/fault_injector.h); EngineOptions::resilience
// holds the admission memory budget and stall-watchdog knobs.
//
// Step 8 shows shared aggregation: two queries with the same (group-by,
// aggregate) shape but different predicate constants fold into ONE shared
// group-by table — CjoinStats::agg_groups_shared counts the second query
// attaching instead of aggregating privately.
//
// Step 9 shows the PAX page layout: EngineOptions::columnar_pages = true
// rebuilds the fact table column-major-within-page at engine construction
// (docs/STORAGE.md), so the filter/scan kernels read only the columns they
// touch. Only the storage format changes: the same code reads either
// layout, and results are bit-identical.
//
// Step 10 shows dynamic query folding: CjoinOptions::query_folding = true
// (default false) lets a query whose predicates are provably contained in
// an in-flight query's ride that query's slot as a post-filter instead of
// consuming a slot and dimension hash tables of its own —
// CjoinStats::queries_folded counts it (docs/FOLDING.md).

#include <cstdio>

#include "common/fault_injector.h"
#include "common/timing.h"
#include "core/engine.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_schema.h"
#include "ssb/ssb_queries.h"

int main() {
  using namespace sdw;

  // 1. Load a scale-factor-0.1 SSB database (~600k fact rows).
  storage::Catalog catalog;
  ssb::BuildSsbDatabase(&catalog, {.scale_factor = 0.1, .seed = 42});
  std::printf("Loaded SSB: %zu lineorder rows, %zu tables\n",
              catalog.MustGetTable(ssb::kLineorder)->num_rows(),
              catalog.num_tables());

  // 2. Memory-resident I/O layer (paper's RAM-drive setup).
  storage::StorageDevice device({.memory_resident = true});
  storage::BufferPool pool(&device, /*capacity_bytes=*/0);

  // 3. The integrated engine: QPipe-SP = query-centric operators with
  //    Simultaneous Pipelining over pull-based Shared Pages Lists.
  core::EngineOptions options;
  options.config = core::EngineConfig::kQpipeSp;
  options.comm = core::CommModel::kPull;
  core::Engine engine(&catalog, &pool, options);

  // 4. SSB Q3.2: revenue by (customer city, supplier city, year).
  ssb::Q32Params params;
  params.cust_nation = 23;  // UNITED KINGDOM
  params.supp_nation = 24;  // UNITED STATES
  params.year_lo = 1992;
  params.year_hi = 1997;
  const query::StarQuery q = ssb::MakeQ32(params);

  // 5. Submit asynchronously, wait for the terminal status, read results.
  //    SubmitOptions could add a deadline (deadline_nanos), a row_limit, or
  //    a client_tag here; ticket.Cancel() would detach the query mid-run.
  core::SubmitOptions submit_opts;
  submit_opts.client_tag = "quickstart";
  core::QueryTicket ticket = engine.Submit(q, submit_opts);
  const Status status = ticket.Wait();
  if (!status.ok()) {
    std::printf("query failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const query::ResultSet& result = ticket.result();
  const core::QueryMetrics metrics = ticket.metrics();

  std::printf("\nSSB Q3.2 returned %zu rows in %.1f ms (%llu result pages):\n",
              result.num_rows(), metrics.response_seconds() * 1e3,
              static_cast<unsigned long long>(metrics.pages_read));
  std::printf("  %-12s %-12s %-6s %s\n", "c_city", "s_city", "year",
              "revenue");
  const size_t show = result.num_rows() < 10 ? result.num_rows() : 10;
  for (size_t i = 0; i < show; ++i) {
    std::printf("  %s\n", result.FormatRow(i).c_str());
  }
  if (result.num_rows() > show) {
    std::printf("  ... (%zu more)\n", result.num_rows() - show);
  }

  // 6. Scheduling: SubmitOptions{priority} actually changes run order, and
  //    SubmitOptions{deadline_nanos} is enforced by the timer queue.
  //
  //    Plain-QPipe engine, scan stage capped at ONE worker, three scan-only
  //    queries in one arrival batch (one packet each, so the cap is safe —
  //    see ThreadPoolOptions). The priority-10 query arrives LAST but runs
  //    FIRST once the worker frees: watch the queue waits.
  core::EngineOptions sched_opts;
  sched_opts.config = core::EngineConfig::kQpipe;
  sched_opts.stage_max_workers = 1;
  core::Engine sched_engine(&catalog, &pool, sched_opts);
  query::StarQuery scan_q;  // full fact scan, empty result: pure work
  scan_q.fact_table = ssb::kLineorder;
  scan_q.fact_pred.And(
      query::AtomicPred::Int("lo_quantity", query::CompareOp::kLe, 0));
  std::vector<core::SubmitRequest> requests(3);
  const int priorities[3] = {0, 0, 10};  // the high one arrives LAST
  for (size_t i = 0; i < 3; ++i) {
    requests[i].q = scan_q;
    requests[i].opts.priority = priorities[i];
  }
  auto tickets = sched_engine.SubmitRequests(requests);
  for (auto& t : tickets) t.Wait();
  std::printf("\nScheduling: 3 scans, one scan worker — the scheduler pops "
              "by (priority, arrival):\n");
  for (size_t i = 0; i < 3; ++i) {
    const auto m = tickets[i].metrics();
    std::printf("  arrival %zu, priority %2d: queue wait %6.1f ms, run "
                "%6.1f ms\n",
                i, priorities[i], m.queue_wait_seconds() * 1e3,
                m.run_seconds() * 1e3);
  }

  //    Deadlines: queue a scan behind a running one with a 5 ms budget.
  //    The timer queue fires RequestCancel(DEADLINE_EXCEEDED) at expiry —
  //    the ticket completes in ~5 ms even though its packet never ran and
  //    no result page ever arrived to notice the deadline on.
  auto blocker = sched_engine.Submit(scan_q);  // occupies the one worker
  core::SubmitOptions with_deadline;
  with_deadline.deadline_nanos = NowNanos() + 5'000'000;  // 5 ms
  core::QueryTicket expiring = sched_engine.Submit(scan_q, with_deadline);
  const Status expired = expiring.Wait();
  blocker.Wait();
  std::printf("Deadline: 5 ms budget behind a busy stage -> %s after "
              "%.1f ms\n",
              expired.ToString().c_str(),
              expiring.metrics().response_seconds() * 1e3);

  // 7. Failure semantics. A CJOIN engine shares ONE circular fact-table
  //    scan across all concurrent queries; a permanent page error must not
  //    take the engine down with it. Inject one (seeded, replayable — this
  //    is exactly how tests/chaos_test.cc drives the engine), watch the
  //    attached query fail DATA_LOSS, then run the same query again: the
  //    scan skipped the poisoned page and keeps serving later admissions.
  //
  //    EngineOptions::resilience adds the other two failure modes:
  //      .memory_budget_bytes  — admission sheds RESOURCE_EXHAUSTED with a
  //                              [retry_after_ms=N] hint instead of queueing
  //                              unboundedly (see common/retry.h);
  //      .scan_stall_nanos     — a watchdog converts busy-without-progress
  //                              into DEADLINE_EXCEEDED instead of a hang.
  core::EngineOptions cjoin_opts;
  cjoin_opts.config = core::EngineConfig::kCjoin;
  core::Engine cjoin_engine(&catalog, &pool, cjoin_opts);
  FaultInjector::Global().Enable(/*seed=*/42);
  FaultSpec media_error;
  media_error.kind = FaultKind::kPermanent;
  media_error.one_shot_at = 1;  // the next fact-page read fails, once
  media_error.message = "quickstart: simulated media error";
  const auto fact_id =
      static_cast<uint64_t>(catalog.MustGetTable(ssb::kLineorder)->id());
  media_error.key_lo = fact_id << 48;  // only lineorder pages
  media_error.key_hi = (fact_id << 48) | 0xFFFFFFFFFFFFull;
  FaultInjector::Global().Arm("storage.read", media_error);

  const Status faulted = cjoin_engine.Submit(q).Wait();
  FaultInjector::Global().Disable();
  const Status after = cjoin_engine.Submit(q).Wait();
  std::printf("\nFault isolation: query under injected page fault -> %s\n"
              "                 same query, same engine, afterwards -> %s\n",
              faulted.ToString().c_str(), after.ToString().c_str());
  if (!after.ok()) return 1;

  // 8. Shared aggregation (on by default in CJOIN engines;
  //    EngineOptions::shared_aggregation = false selects the per-query
  //    reference path). Two Q3.2 instances with the same aggregation shape
  //    — same group-by columns and aggregates, different nation/year
  //    constants — bind to ONE shared group: each scanned batch is folded
  //    into its group-by table once, and each query's result is sliced out
  //    by its predicate bitmap at completion.
  ssb::Q32Params other = params;
  other.cust_nation = 6;  // FRANCE — same shape, different constants
  other.year_lo = 1994;
  auto shared_tickets =
      cjoin_engine.SubmitBatch({ssb::MakeQ32(params), ssb::MakeQ32(other)});
  for (auto& t : shared_tickets) {
    if (!t.Wait().ok()) return 1;
  }
  const cjoin::CjoinStats agg_stats = cjoin_engine.cjoin_stats();
  std::printf("\nShared aggregation: 2 same-shape queries -> %llu shared "
              "group bind(s),\n"
              "                    %llu batch folds, %llu per-query slices "
              "(%zu + %zu rows)\n",
              static_cast<unsigned long long>(agg_stats.agg_groups_shared),
              static_cast<unsigned long long>(agg_stats.agg_batches_folded),
              static_cast<unsigned long long>(agg_stats.agg_slice_emits),
              shared_tickets[0].result().num_rows(),
              shared_tickets[1].result().num_rows());
  if (agg_stats.agg_groups_shared < 1) return 1;

  // 9. The PAX page layout (docs/STORAGE.md). columnar_pages = true makes
  //    the engine rebuild the fact table's pages column-major-within-page
  //    before any stage captures page pointers: each column becomes a
  //    64-byte-aligned minipage, so the filter's FK gather and predicate
  //    evaluation read only the cache lines of the columns they touch. The
  //    kernels are the same ones the row-major engine above ran; only the
  //    storage format differs. Page geometry changes — slightly fewer rows
  //    per page from alignment padding — and results stay identical.
  const storage::Table* fact = catalog.MustGetTable(ssb::kLineorder);
  const uint32_t rows_per_page_before = fact->rows_per_page();
  core::EngineOptions columnar_opts;
  columnar_opts.config = core::EngineConfig::kCjoin;
  columnar_opts.columnar_pages = true;
  core::Engine columnar_engine(&catalog, &pool, columnar_opts);
  core::QueryTicket columnar_ticket = columnar_engine.Submit(q);
  if (!columnar_ticket.Wait().ok()) return 1;
  std::printf("\nPAX layout: lineorder %u -> %u rows/page (columnar=%s), "
              "Q3.2 rows %zu (row-major engine: %zu)\n",
              rows_per_page_before, fact->rows_per_page(),
              fact->columnar() ? "true" : "false",
              columnar_ticket.result().num_rows(), result.num_rows());
  if (columnar_ticket.result().num_rows() != result.num_rows()) return 1;

  // 10. Dynamic query folding (docs/FOLDING.md). The wide query scans two
  //     customer nations; the narrow one scans a subset of its nations and
  //     years, so query::QuerySubsumes proves containment and admission
  //     folds it onto the wide query's slot: no slot, no dimension scans —
  //     just memoized residual predicate bits over the host's verdicts.
  //     The narrow query still gets its own exact result, sliced out of
  //     the shared aggregation group by its private member bit.
  core::EngineOptions fold_opts;
  fold_opts.config = core::EngineConfig::kCjoin;
  fold_opts.cjoin.query_folding = true;
  core::Engine fold_engine(&catalog, &pool, fold_opts);
  ssb::Q32SelectivityParams wide;
  wide.cust_nations = {6, 23};  // FRANCE, UNITED KINGDOM
  wide.supp_nations = {24};     // UNITED STATES
  wide.year_lo = 1992;
  wide.year_hi = 1997;
  ssb::Q32SelectivityParams narrow = wide;
  narrow.cust_nations = {23};  // subset of the wide query's nations...
  narrow.year_lo = 1993;       // ...and a sub-range of its years
  narrow.year_hi = 1995;
  auto fold_tickets = fold_engine.SubmitBatch(
      {ssb::MakeQ32Selectivity(wide), ssb::MakeQ32Selectivity(narrow)});
  for (auto& t : fold_tickets) {
    if (!t.Wait().ok()) return 1;
  }
  const cjoin::CjoinStats fold_stats = fold_engine.cjoin_stats();
  std::printf("\nQuery folding: wide + contained narrow -> %llu of 2 "
              "folded (%llu checks), %zu + %zu result rows\n",
              static_cast<unsigned long long>(fold_stats.queries_folded),
              static_cast<unsigned long long>(fold_stats.fold_checks),
              fold_tickets[0].result().num_rows(),
              fold_tickets[1].result().num_rows());
  return fold_stats.queries_folded >= 1 ? 0 : 1;
}
