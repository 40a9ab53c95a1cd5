// Tests for the QPipe staged engine and the core facade: SP attach
// accounting, sharing behavior per configuration, policy rules, and harness
// metrics plumbing.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharing_policy.h"
#include "harness/driver.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "test_util.h"

namespace sdw {
namespace {

using core::CommModel;
using core::EngineConfig;
using testing::SharedSsbDb;
using testing::SharedTpchDb;
using testing::TestDb;

core::EngineOptions Opts(EngineConfig config,
                         CommModel comm = CommModel::kPull) {
  core::EngineOptions o;
  o.config = config;
  o.comm = comm;
  o.cjoin.max_queries = 64;
  return o;
}

TEST(QpipeEngine, NoSharingConfigNeverShares) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(), Opts(EngineConfig::kQpipe));
  const auto handles =
      engine.SubmitBatch(ssb::SimilarQ32Workload(6, 1, 50));
  for (const auto& h : handles) ASSERT_TRUE(h.Wait().ok());
  const qpipe::SpCounters c = engine.sp_counters();
  EXPECT_EQ(c.scan_shares, 0u);
  EXPECT_EQ(c.join_shares_total(), 0u);
}

TEST(QpipeEngine, CsSharesScansButNotJoins) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeCs));
  const auto handles = engine.SubmitBatch(ssb::SimilarQ32Workload(6, 1, 51));
  for (const auto& h : handles) ASSERT_TRUE(h.Wait().ok());
  const qpipe::SpCounters c = engine.sp_counters();
  EXPECT_GT(c.scan_shares, 0u);
  EXPECT_EQ(c.join_shares_total(), 0u);
}

TEST(QpipeEngine, SpSharesJoinsByDepth) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeSp));
  // Two distinct plans x several instances: the deepest shared stage is the
  // full 3-join sub-plan for instances of the same plan.
  const auto handles = engine.SubmitBatch(ssb::SimilarQ32Workload(8, 2, 52));
  for (const auto& h : handles) ASSERT_TRUE(h.Wait().ok());
  const qpipe::SpCounters c = engine.sp_counters();
  EXPECT_EQ(c.join_shares_by_depth[2], 6u);  // 8 queries - 2 hosts
}

TEST(QpipeEngine, PartialOverlapSharesShallowerJoin) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeSp));
  // Same supplier nation and year range, different customer nation: only
  // the first join (fact ⋈ supplier) is common.
  ssb::Q32Params a, b;
  a.cust_nation = 1;
  b.cust_nation = 2;
  const auto handles =
      engine.SubmitBatch({ssb::MakeQ32(a), ssb::MakeQ32(b)});
  for (const auto& h : handles) ASSERT_TRUE(h.Wait().ok());
  const qpipe::SpCounters c = engine.sp_counters();
  EXPECT_EQ(c.join_shares_by_depth[0], 1u);
  EXPECT_EQ(c.join_shares_by_depth[1], 0u);
  EXPECT_EQ(c.join_shares_by_depth[2], 0u);
}

TEST(QpipeEngine, WopClosedForLateArrivals) {
  // Submitting sequentially with waits: the host finishes before the
  // second arrives; no sharing, correct results (verified by integration
  // tests), and counters stay at zero.
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeSp));
  const auto q = ssb::SimilarQ32Workload(1, 1, 53)[0];
  auto h1 = engine.Submit(q);
  ASSERT_TRUE(h1.Wait().ok());
  auto h2 = engine.Submit(q);
  ASSERT_TRUE(h2.Wait().ok());
  EXPECT_EQ(engine.sp_counters().join_shares_total(), 0u);
}

TEST(CjoinEngine, AdmissionBatchesSingleSubmissionBatch) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(), Opts(EngineConfig::kCjoin));
  const auto handles = engine.SubmitBatch(ssb::RandomQ32Workload(6, 55));
  for (const auto& h : handles) ASSERT_TRUE(h.Wait().ok());
  const cjoin::CjoinStats stats = engine.cjoin_stats();
  EXPECT_EQ(stats.queries_admitted, 6u);
  // All queries arrive before the pipeline starts: one admission batch.
  EXPECT_EQ(stats.admission_batches, 1u);
}

TEST(CjoinEngine, SharesOnlyIdenticalPackets) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kCjoinSp));
  // 3 distinct plans over 9 queries: 6 CJOIN packets are satellites.
  const auto handles = engine.SubmitBatch(ssb::SimilarQ32Workload(9, 3, 56));
  for (const auto& h : handles) ASSERT_TRUE(h.Wait().ok());
  EXPECT_EQ(engine.cjoin_shares(), 6u);
  EXPECT_EQ(engine.cjoin_stats().queries_admitted, 3u);
}

TEST(SharingPolicy, Table1Rules) {
  core::WorkloadProfile low;
  low.concurrent_queries = 2;
  low.hardware_contexts = 24;
  const auto d1 = core::RecommendSharing(low);
  EXPECT_EQ(d1.config, EngineConfig::kQpipeSp);
  EXPECT_TRUE(d1.shared_scans);

  core::WorkloadProfile high;
  high.concurrent_queries = 256;
  high.hardware_contexts = 24;
  const auto d2 = core::RecommendSharing(high);
  EXPECT_EQ(d2.config, EngineConfig::kCjoinSp);
  EXPECT_TRUE(d2.shared_scans);

  core::WorkloadProfile oltp;
  oltp.concurrent_queries = 256;
  oltp.hardware_contexts = 24;
  oltp.scan_heavy = false;
  EXPECT_EQ(core::RecommendSharing(oltp).config, EngineConfig::kQpipeSp);
}

TEST(Harness, RunBatchCollectsMetricsAndVerifies) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeSp));
  const baseline::VolcanoEngine oracle(&db->catalog, db->pool.get());
  const auto queries = ssb::RandomQ32Workload(4, 57);
  const harness::RunMetrics m =
      harness::RunBatch(&engine, db->pool.get(), queries, true, &oracle);
  EXPECT_EQ(m.completed, 4u);
  EXPECT_EQ(m.response_seconds.count(), 4u);
  EXPECT_GT(m.makespan_seconds, 0.0);
  EXPECT_GT(m.response_seconds.Mean(), 0.0);
  EXPECT_LE(m.response_seconds.Max(), m.makespan_seconds * 1.5);
}

TEST(Harness, ClosedLoopCompletesQueries) {
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeSp));
  const auto m = harness::RunClosedLoop(
      &engine, db->pool.get(),
      [](size_t i) {
        return ssb::RandomQ32Workload(1, 60 + i)[0];
      },
      /*clients=*/2, /*duration_seconds=*/0.5);
  EXPECT_GT(m.completed, 0u);
  EXPECT_GT(m.throughput_qph, 0.0);
}

TEST(Harness, VolcanoBackendRunsThroughGenericDrivers) {
  // The Volcano comparator is an ExecutorClient too: the SAME RunBatch that
  // measures the integrated engine drives it (one thread per query).
  TestDb* db = SharedSsbDb();
  baseline::VolcanoEngine volcano(&db->catalog, db->pool.get());
  const auto m = harness::RunBatch(&volcano, db->pool.get(),
                                   ssb::RandomQ32Workload(3, 58));
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.response_seconds.count(), 3u);
}

TEST(Harness, ClosedLoopClientDeadlineReportsTailBehavior) {
  // A 1 ns per-client deadline expires every request at admission: the run
  // reports them as expired, not completed, and nothing hangs.
  TestDb* db = SharedSsbDb();
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeSp));
  harness::ClosedLoopOptions opts;
  opts.clients = 2;
  opts.duration_seconds = 0.2;
  opts.client_deadline_nanos = 1;
  const auto m = harness::RunClosedLoop(
      &engine, db->pool.get(),
      [](size_t i) { return ssb::RandomQ32Workload(1, 70 + i)[0]; }, opts);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_GT(m.expired, 0u);
  EXPECT_EQ(m.response_seconds.count(), 0u);
}

TEST(Device, DiskResidentEngineChargesIo) {
  // Disk-mode run reports a nonzero read rate; circular scans make a
  // multi-query batch read each table roughly once.
  auto db = testing::MakeSsbDb(0.01, 42, /*memory_resident=*/false);
  core::Engine engine(&db->catalog, db->pool.get(),
                      Opts(EngineConfig::kQpipeCs));
  const auto queries = ssb::RandomQ32Workload(4, 59);
  const auto m = harness::RunBatch(&engine, db->pool.get(), queries);
  EXPECT_GT(m.device_bytes, 0u);
  const size_t total = db->catalog.total_bytes();
  EXPECT_LT(m.device_bytes, total * 2);  // ~one pass, not 4 passes
}

}  // namespace
}  // namespace sdw
