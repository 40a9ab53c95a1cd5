// End-to-end scheduling stress suite for the core::Scheduler refactor:
//
//  A. CJOIN admission priority ordering — at one admission pause with more
//     pending queries than free slots, the scarce slots go to the highest
//     priorities, FIFO within a level (arrival breaks ties), and the rest
//     are rejected kResourceExhausted. With priority_admission off the same
//     pause admits in arrival order (the seed behavior).
//  B. Shared-packet priority inheritance — CJOIN-SP with ONE query slot: a
//     low-priority host whose satellite attached at high priority outbids a
//     medium-priority rival inside the same admission pause; flipping the
//     scheduler to FIFO flips the outcome. Results verified against the
//     Volcano oracle.
//  C. Blocked-drain deadline — over a slow simulated device, an
//     empty-result query's drain blocks in Next() with no page or EOS
//     coming; the timer queue must fire the deadline promptly (the ticket
//     completes kDeadlineExceeded in ~deadline time, far below the scan
//     cycle the seed would have waited for).
//  D. Mixed-priority closed loop — structural check of the harness driver's
//     two-class mode (per-class stats populated, queue-wait recorded).
//
// Runs under ASAN and TSAN in CI; every wait is bounded by the ctest
// timeout so a scheduling deadlock fails fast instead of hanging.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "baseline/volcano.h"
#include "cjoin/pipeline.h"
#include "common/macros.h"
#include "common/timing.h"
#include "core/engine.h"
#include "harness/driver.h"
#include "query/plan.h"
#include "query/result.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "storage/buffer_pool.h"
#include "storage/storage_device.h"

using namespace sdw;

namespace {

/// Sink that drops all output (these tests assert scheduling outcomes, not
/// tuples — except where the Volcano oracle is consulted).
class NullSink : public core::PageSink {
 public:
  bool Put(storage::PagePtr) override { return true; }
  void Close() override {}
};

struct Db {
  storage::Catalog catalog;
  std::unique_ptr<storage::StorageDevice> device;
  std::unique_ptr<storage::BufferPool> pool;
};

std::unique_ptr<Db> MakeDb(double sf, storage::DeviceOptions dev_opts = {}) {
  auto db = std::make_unique<Db>();
  ssb::SsbOptions ssb_opts;
  ssb_opts.scale_factor = sf;
  ssb::BuildSsbDatabase(&db->catalog, ssb_opts);
  db->device = std::make_unique<storage::StorageDevice>(dev_opts);
  db->pool = std::make_unique<storage::BufferPool>(db->device.get(), 0);
  return db;
}

// ---------------------------------------------------- A: admission ordering

void TestAdmissionPriorityOrdering(Db* db, bool priority_admission) {
  cjoin::CjoinOptions opts;
  opts.max_queries = 4;  // scarce: 8 pending will compete for 4 slots
  opts.priority_admission = priority_admission;
  cjoin::CjoinPipeline pipeline(&db->catalog, db->pool.get(),
                                db->catalog.MustGetTable(ssb::kLineorder),
                                opts);
  const query::Planner planner(&db->catalog);

  // Priorities in arrival order; with 4 slots the priority policy admits
  // the three 9s plus the FIRST 5 (arrival breaks the tie among 5s), while
  // FIFO admits simply the first four arrivals.
  const std::vector<int> priorities = {5, 9, 0, 5, 9, 1, 5, 9};
  const std::vector<query::StarQuery> queries =
      ssb::RandomQ32Workload(priorities.size(), /*seed=*/71);

  std::vector<std::shared_ptr<core::QueryLifecycle>> lives;
  std::vector<cjoin::CjoinPipeline::Submission> subs;
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t done = 0;
  // Terminal status per query, recorded by on_complete (the direct-pipeline
  // completion signal; the qpipe drain, absent here, is what would Finish
  // the lifecycle of a successful query).
  std::vector<Status> finals(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    core::SubmitOptions so;
    so.priority = priorities[i];
    auto life = std::make_shared<core::QueryLifecycle>(i + 1, so);
    life->set_submit_nanos(NowNanos());
    lives.push_back(life);
    cjoin::CjoinPipeline::Submission sub;
    sub.q = queries[i];
    sub.out_schema = planner.JoinOutputSchema(queries[i]);
    sub.sink = std::make_shared<NullSink>();
    sub.life = life;
    sub.on_complete = [&, i](const Status& s) {
      std::unique_lock<std::mutex> lock(done_mu);
      finals[i] = s;
      ++done;
      done_cv.notify_all();
    };
    subs.push_back(std::move(sub));
  }
  pipeline.SubmitMany(std::move(subs));
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done == queries.size(); });
  }
  pipeline.WaitIdle();

  std::vector<bool> admitted(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (finals[i].ok()) {
      admitted[i] = true;
    } else {
      SDW_CHECK_MSG(finals[i].code() == StatusCode::kResourceExhausted,
                    "query %zu: unexpected status %s", i,
                    finals[i].ToString().c_str());
    }
  }
  const std::vector<bool> expect_priority = {true,  true,  false, false,
                                             true,  false, false, true};
  const std::vector<bool> expect_fifo = {true,  true,  true,  true,
                                         false, false, false, false};
  const auto& expect = priority_admission ? expect_priority : expect_fifo;
  for (size_t i = 0; i < queries.size(); ++i) {
    SDW_CHECK_MSG(admitted[i] == expect[i],
                  "%s admission: query %zu (priority %d) %s but expected %s",
                  priority_admission ? "priority" : "fifo", i, priorities[i],
                  admitted[i] ? "admitted" : "rejected",
                  expect[i] ? "admitted" : "rejected");
  }
  const auto stats = pipeline.stats();
  SDW_CHECK(stats.queries_admitted == 4);
  SDW_CHECK(stats.queries_rejected == 4);
}

// ------------------------------------------------ B: priority inheritance

void TestSharedPacketPriorityInheritance(Db* db, bool priority_enabled) {
  core::EngineOptions opts;
  opts.config = core::EngineConfig::kCjoinSp;
  opts.cjoin.max_queries = 1;  // ONE slot: the admission pause must choose
  opts.sched.priority_enabled = priority_enabled;
  core::Engine engine(&db->catalog, db->pool.get(), opts);
  baseline::VolcanoEngine oracle(&db->catalog, db->pool.get());

  ssb::Q32Params pa;  // the shared plan (host + satellite)
  ssb::Q32Params pb;  // the rival
  pb.cust_nation = 10;
  pb.supp_nation = 11;
  const query::StarQuery qa = ssb::MakeQ32(pa);
  const query::StarQuery qb = ssb::MakeQ32(pb);

  // Arrival order: rival (5) first, then the host (0), then the satellite
  // (9) which attaches to the host inside the same batch. With priority
  // inheritance the host bids max(0, 9) = 9 and wins the only slot; under
  // FIFO the rival's earlier arrival wins and the host+satellite are
  // rejected.
  std::vector<core::SubmitRequest> requests(3);
  requests[0].q = qb;
  requests[0].opts.priority = 5;
  requests[1].q = qa;
  requests[1].opts.priority = 0;
  requests[2].q = qa;
  requests[2].opts.priority = 9;
  auto tickets = engine.SubmitRequests(requests);
  const Status sb = tickets[0].Wait();
  const Status sa_host = tickets[1].Wait();
  const Status sa_sat = tickets[2].Wait();
  engine.WaitAll();

  SDW_CHECK_MSG(engine.cjoin_shares() == 1,
                "expected exactly one satellite attach, saw %llu",
                static_cast<unsigned long long>(engine.cjoin_shares()));
  if (priority_enabled) {
    SDW_CHECK_MSG(sa_host.ok() && sa_sat.ok(),
                  "inheritance: boosted host lost the slot (host %s, sat %s)",
                  sa_host.ToString().c_str(), sa_sat.ToString().c_str());
    SDW_CHECK(sb.code() == StatusCode::kResourceExhausted);
    // Both consumers of the shared packet must see the oracle's rows.
    const query::ResultSet expected = oracle.Execute(qa);
    for (size_t i : {size_t{1}, size_t{2}}) {
      const std::string diff =
          query::DiffResults(expected, tickets[i].result());
      SDW_CHECK_MSG(diff.empty(), "shared result mismatch: %s", diff.c_str());
    }
  } else {
    SDW_CHECK_MSG(sb.ok(), "fifo: first arrival should win (%s)",
                  sb.ToString().c_str());
    SDW_CHECK(sa_host.code() == StatusCode::kResourceExhausted);
    SDW_CHECK(sa_sat.code() == StatusCode::kResourceExhausted);
  }
}

// ------------------------------------------- C: blocked-drain deadline gap

void TestBlockedDrainDeadlineFiresViaTimer() {
  // Slow device: ~3 MB/s sequential, so one circular-scan cycle over the
  // SF-0.01 fact table takes seconds of simulated wall time.
  storage::DeviceOptions dev;
  dev.memory_resident = false;
  dev.seq_bandwidth_mbps = 3.0;
  dev.seek_latency_us = 0.0;
  auto db = MakeDb(0.01, dev);

  core::EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  core::Engine engine(&db->catalog, db->pool.get(), opts);

  // An empty-result query: the date predicate matches no dimension row, so
  // the drain sees NO page and NO EOS until the scan cycle ends — exactly
  // the gap where the seed could only time out on page arrival.
  ssb::Q32Params p;
  p.year_lo = 3000;
  p.year_hi = 3001;
  const query::StarQuery empty_q = ssb::MakeQ32(p);

  core::SubmitOptions so;
  const int64_t kDeadlineNanos = 250'000'000;  // 250 ms
  so.deadline_nanos = NowNanos() + kDeadlineNanos;
  const int64_t t0 = NowNanos();
  auto ticket = engine.Submit(empty_q, so);
  const Status s = ticket.Wait();
  const double waited = static_cast<double>(NowNanos() - t0) * 1e-9;
  engine.WaitAll();

  SDW_CHECK_MSG(s.code() == StatusCode::kDeadlineExceeded,
                "expected DEADLINE_EXCEEDED, got %s", s.ToString().c_str());
  // The timer fires at the deadline; allow generous scheduling slack but
  // stay far below the multi-second scan cycle the seed would need.
  SDW_CHECK_MSG(waited >= 0.25, "completed before the deadline (%.3f s)",
                waited);
  SDW_CHECK_MSG(waited < 1.2,
                "deadline took %.3f s — the timer did not unblock the drain",
                waited);
  std::printf("  blocked drain unblocked %.1f ms after its 250 ms deadline\n",
              (waited - 0.25) * 1e3);

  // Metrics split: the expired query never left the queue-wait... it DID
  // run (admitted) — run_start must be set and ordered.
  const auto m = ticket.metrics();
  SDW_CHECK(m.run_start_nanos >= m.submit_nanos);
  SDW_CHECK(m.finish_nanos >= m.run_start_nanos);

  // Sanity: without a deadline the same query completes Ok and empty
  // (second cycle reads through the now-warm buffer pool, so this is fast).
  auto ok_ticket = engine.Submit(empty_q);
  SDW_CHECK(ok_ticket.Wait().ok());
  SDW_CHECK(ok_ticket.result().num_rows() == 0);
  engine.WaitAll();
}

// ------------------------------------------- D: mixed-priority closed loop

void TestMixedPriorityClosedLoop(Db* db) {
  core::EngineOptions opts;
  opts.config = core::EngineConfig::kCjoin;
  core::Engine engine(&db->catalog, db->pool.get(), opts);

  harness::ClosedLoopOptions loop;
  loop.clients = 4;
  loop.high_priority_clients = 1;
  loop.duration_seconds = 0.3;
  const auto queries = ssb::RandomQ32Workload(16, /*seed=*/5);
  const auto m = harness::RunClosedLoop(
      &engine, db->pool.get(),
      [&](size_t i) { return queries[i % queries.size()]; }, loop);

  SDW_CHECK(m.completed > 0);
  SDW_CHECK_MSG(!m.response_seconds_high.empty(),
                "high-priority class recorded no completions");
  SDW_CHECK(!m.response_seconds_low.empty());
  SDW_CHECK(m.response_seconds_high.count() + m.response_seconds_low.count() ==
            m.completed);
  // Queue wait is recorded per completed query and can never exceed the
  // response time.
  SDW_CHECK(m.queue_wait_seconds.count() == m.completed);
  SDW_CHECK(m.queue_wait_seconds.Max() <= m.response_seconds.Max() + 1e-9);
}

}  // namespace

int main() {
  auto db = MakeDb(0.01);
  std::printf("A: CJOIN admission priority ordering (priority)\n");
  TestAdmissionPriorityOrdering(db.get(), /*priority_admission=*/true);
  std::printf("A: CJOIN admission ordering (seed FIFO)\n");
  TestAdmissionPriorityOrdering(db.get(), /*priority_admission=*/false);
  std::printf("B: shared-packet priority inheritance (scheduler on)\n");
  TestSharedPacketPriorityInheritance(db.get(), /*priority_enabled=*/true);
  std::printf("B: shared-packet inheritance flipped off (seed FIFO)\n");
  TestSharedPacketPriorityInheritance(db.get(), /*priority_enabled=*/false);
  std::printf("C: blocked-drain deadline fires via the timer queue\n");
  TestBlockedDrainDeadlineFiresViaTimer();
  std::printf("D: mixed-priority closed loop\n");
  TestMixedPriorityClosedLoop(db.get());
  std::printf("OK\n");
  return 0;
}
