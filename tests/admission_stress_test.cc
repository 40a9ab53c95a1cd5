// Admission churn stress test for the CJOIN pipeline's batched (epoch)
// admission and the zero-allocation distributor:
//  * deterministic epochs: K queries submitted together land in ONE
//    admission pause costing exactly one dimension scan per distinct
//    referenced dimension with a predicate no earlier epoch admitted — the
//    others are served by the filters' selection caches (stat-asserted via
//    CjoinStats::admission_dim_scans, admission_selection_{hits,misses} and
//    admission_batches against a test-side model of the caches), while the
//    pipeline is still serving the previous epoch's queries;
//  * batch-admitted queries produce results identical to the same queries
//    admitted serially (one epoch each) and to the Volcano oracle — no lost
//    or duplicated tuples;
//  * an epoch whose predicates are all cached costs no dimension scan and
//    still matches the oracle;
//  * concurrent churn: several submitter threads admit and finish queries
//    against the running pipeline; every result still matches the oracle;
//  * steady state: with the distributor scratch at its high-water mark, a
//    repeat run performs zero scratch growth (zero per-batch heap
//    allocation, CjoinStats::distributor_scratch_{reuses,grows}).

#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/volcano.h"
#include "cjoin/pipeline.h"
#include "common/macros.h"
#include "common/rng.h"
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

/// Thread-safe sink accumulating every emitted page for later verification.
class CollectSink : public core::PageSink {
 public:
  bool Put(storage::PagePtr page) override {
    std::lock_guard<std::mutex> lock(mu_);
    pages_.push_back(std::move(page));
    return true;
  }
  void Close() override {}

  query::ResultSet ToResultSet(const storage::Schema& schema) const {
    std::lock_guard<std::mutex> lock(mu_);
    query::ResultSet rs(schema);
    for (const auto& page : pages_) {
      for (uint32_t t = 0; t < page->tuple_count(); ++t) {
        rs.AddRow(page->tuple(t));
      }
    }
    return rs;
  }

 private:
  mutable std::mutex mu_;
  std::vector<storage::PagePtr> pages_;
};

struct Submitted {
  query::StarQuery q;
  storage::Schema schema;
  std::shared_ptr<CollectSink> sink;
};

/// What one admission epoch costs according to the cache model.
struct EpochCost {
  uint64_t scans = 0;   // distinct dimensions with an unseen predicate
  uint64_t hits = 0;    // (query, dimension) requests with a seen predicate
  uint64_t misses = 0;  // (query, dimension) requests with an unseen one
};

/// Test-side model of the filters' admission selection caches: the
/// predicate signatures already admitted, per dimension. Nothing is evicted
/// at this scale (the SF 0.01 selections stay far below the per-filter
/// bound of Filter::kCachedIndicesPerRow indices per row), so a predicate
/// once admitted stays cached.
class CacheModel {
 public:
  /// Costs one epoch carrying `queries` and records their predicates as
  /// admitted. Call only for queries that are actually admitted.
  EpochCost Admit(const std::vector<query::StarQuery>& queries) {
    const auto before = admitted_;
    EpochCost cost;
    std::set<DimKey> scanned;
    for (const auto& q : queries) {
      for (const auto& d : q.dims) {
        const DimKey key{d.dim_table, d.fact_fk_column, d.dim_pk_column};
        const std::string sig = d.pred.Signature();
        const auto it = before.find(key);
        if (it != before.end() && it->second.count(sig) != 0) {
          ++cost.hits;
          continue;
        }
        ++cost.misses;
        scanned.insert(key);
        admitted_[key].insert(sig);
      }
    }
    cost.scans = scanned.size();
    return cost;
  }

 private:
  using DimKey = std::tuple<std::string, std::string, std::string>;
  std::map<DimKey, std::set<std::string>> admitted_;
};

/// Asserts one epoch's measured admission counters equal the model's cost.
void CheckEpochCost(const cjoin::CjoinStats& before,
                    const cjoin::CjoinStats& after, const EpochCost& want,
                    const char* what) {
  const uint64_t scans = after.admission_dim_scans - before.admission_dim_scans;
  const uint64_t hits =
      after.admission_selection_hits - before.admission_selection_hits;
  const uint64_t misses =
      after.admission_selection_misses - before.admission_selection_misses;
  SDW_CHECK_MSG(scans == want.scans && hits == want.hits &&
                    misses == want.misses,
                "%s: %llu scans, %llu cache hits, %llu misses (want %llu, "
                "%llu, %llu)",
                what, static_cast<unsigned long long>(scans),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(want.scans),
                static_cast<unsigned long long>(want.hits),
                static_cast<unsigned long long>(want.misses));
}

class Harness {
 public:
  Harness() {
    ssb::SsbOptions ssb_opts;
    ssb_opts.scale_factor = 0.01;
    ssb::BuildSsbDatabase(&catalog_, ssb_opts);
    device_ = std::make_unique<storage::StorageDevice>(storage::DeviceOptions{});
    pool_ = std::make_unique<storage::BufferPool>(device_.get(), 0);
    oracle_ = std::make_unique<baseline::VolcanoEngine>(&catalog_, pool_.get());
    planner_ = std::make_unique<query::Planner>(&catalog_);

    cjoin::CjoinOptions opts;
    opts.max_queries = 32;
    opts.filter_threads = 2;
    opts.distributor_parts = 2;
    pipeline_ = std::make_unique<cjoin::CjoinPipeline>(
        &catalog_, pool_.get(), catalog_.MustGetTable(ssb::kLineorder), opts);
  }

  /// Submits all queries as one atomic batch (one admission epoch).
  /// `lives` (optional, parallel to queries) attaches client lifecycles —
  /// used by the deadline-expiry phase.
  std::vector<Submitted> SubmitEpoch(
      const std::vector<query::StarQuery>& queries,
      const std::vector<std::shared_ptr<core::QueryLifecycle>>& lives = {}) {
    std::vector<Submitted> out;
    std::vector<cjoin::CjoinPipeline::Submission> subs;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto& q = queries[i];
      Submitted s{q, planner_->JoinOutputSchema(q),
                  std::make_shared<CollectSink>()};
      cjoin::CjoinPipeline::Submission sub;
      sub.q = q;
      sub.out_schema = s.schema;
      sub.sink = s.sink;
      if (!lives.empty()) sub.life = lives[i];
      sub.on_complete = [this](const Status&) {
        std::lock_guard<std::mutex> lock(done_mu_);
        ++done_;
        done_cv_.notify_all();
      };
      subs.push_back(std::move(sub));
      out.push_back(std::move(s));
    }
    pipeline_->SubmitMany(std::move(subs));
    return out;
  }

  /// Blocks until the pipeline has admitted `target` queries in total.
  void WaitAdmitted(uint64_t target) {
    while (pipeline_->stats().queries_admitted +
               admitted_before_reset_ < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Blocks until `target` queries have completed in total.
  void WaitDone(size_t target) {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return done_ >= target; });
  }

  void ResetStats() {
    admitted_before_reset_ += pipeline_->stats().queries_admitted;
    pipeline_->ResetStats();
  }

  /// Asserts the submitted query's collected output equals the oracle's
  /// join sub-plan result (multiset compare: catches loss AND duplication).
  void VerifyAgainstOracle(const Submitted& s, const char* what) {
    const query::ResultSet actual = s.sink->ToResultSet(s.schema);
    const auto plan = planner_->BuildJoinPlan(s.q);
    const query::ResultSet expected = oracle_->ExecutePlan(*plan);
    const std::string diff = query::DiffResults(expected, actual);
    SDW_CHECK_MSG(diff.empty(), "%s: %s (query %s)", what, diff.c_str(),
                  s.q.Signature().c_str());
  }

  storage::Catalog catalog_;
  std::unique_ptr<storage::StorageDevice> device_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<baseline::VolcanoEngine> oracle_;
  std::unique_ptr<query::Planner> planner_;
  std::unique_ptr<cjoin::CjoinPipeline> pipeline_;
  CacheModel cache_model_;  // every admitted query's predicates

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  size_t done_ = 0;
  uint64_t admitted_before_reset_ = 0;
};

// Phase A: N deterministic epochs of K queries each, submitted while the
// pipeline is still serving earlier epochs. Each epoch must cost one
// admission batch and one dimension scan per distinct referenced dimension
// with a predicate not admitted before — regardless of K.
void PhaseDeterministicEpochs(Harness* h, std::vector<Submitted>* all) {
  constexpr size_t kEpochs = 4;
  uint64_t submitted = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    // Heterogeneous epochs: Q3.2 variants share supplier/customer/date;
    // Q2.1 adds the part dimension in epoch 1 (dynamic filter creation).
    std::vector<query::StarQuery> qs = ssb::RandomQ32Workload(3, 100 + e);
    if (e == 1) qs.push_back(ssb::MakeQ21({}));
    const cjoin::CjoinStats before = h->pipeline_->stats();
    auto subs = h->SubmitEpoch(qs);
    submitted += qs.size();
    h->WaitAdmitted(submitted);
    const cjoin::CjoinStats after = h->pipeline_->stats();

    SDW_CHECK_MSG(after.admission_batches == before.admission_batches + 1,
                  "epoch %zu split into %llu admission batches", e,
                  static_cast<unsigned long long>(after.admission_batches -
                                                  before.admission_batches));
    CheckEpochCost(before, after, h->cache_model_.Admit(qs),
                   "deterministic epoch");
    for (auto& s : subs) all->push_back(std::move(s));
  }
}

// Phase B: the same K queries admitted once as a batch and once serially
// (one epoch each) must produce identical results. The serial pass comes
// second, so every one of its predicates is cached: it scans nothing.
void PhaseBatchVsSerial(Harness* h, size_t* done_target) {
  const auto qs = ssb::RandomQ32Workload(4, 777);

  // What admitting the same queries serially would have cost from the
  // pre-batch cache state: one scan per (query, dim) with a predicate no
  // earlier admission selected.
  uint64_t serial_scans_cold = 0;
  {
    CacheModel serial_model = h->cache_model_;
    for (const auto& q : qs) serial_scans_cold += serial_model.Admit({q}).scans;
  }

  const cjoin::CjoinStats b0 = h->pipeline_->stats();
  auto batched = h->SubmitEpoch(qs);
  *done_target += qs.size();
  h->WaitDone(*done_target);
  const cjoin::CjoinStats b1 = h->pipeline_->stats();
  const uint64_t batched_scans = b1.admission_dim_scans - b0.admission_dim_scans;
  SDW_CHECK(b1.admission_batches == b0.admission_batches + 1);
  CheckEpochCost(b0, b1, h->cache_model_.Admit(qs), "batched epoch");

  std::vector<Submitted> serial;
  for (const auto& q : qs) {
    const cjoin::CjoinStats s0 = h->pipeline_->stats();
    auto one = h->SubmitEpoch({q});
    *done_target += 1;
    h->WaitDone(*done_target);  // full completion => guaranteed own epoch
    CheckEpochCost(s0, h->pipeline_->stats(), h->cache_model_.Admit({q}),
                   "serial re-admission");
    serial.push_back(std::move(one.front()));
  }
  // The batch amortized shared dimensions into single scans: fewer than
  // the same queries admitted one epoch each from the same cache state.
  SDW_CHECK_MSG(batched_scans < serial_scans_cold,
                "batched admission did not amortize dimension scans "
                "(%llu batched vs %llu serial)",
                static_cast<unsigned long long>(batched_scans),
                static_cast<unsigned long long>(serial_scans_cold));

  for (size_t i = 0; i < qs.size(); ++i) {
    h->VerifyAgainstOracle(batched[i], "batch-admitted");
    h->VerifyAgainstOracle(serial[i], "serially admitted");
    const query::ResultSet rb = batched[i].sink->ToResultSet(batched[i].schema);
    const query::ResultSet rs = serial[i].sink->ToResultSet(serial[i].schema);
    const std::string diff = query::DiffResults(rb, rs);
    SDW_CHECK_MSG(diff.empty(), "batch vs serial results differ: %s",
                  diff.c_str());
  }
}

// Phase C: concurrent submitter threads churn admissions and completions
// against the running pipeline.
void PhaseConcurrentChurn(Harness* h, std::vector<Submitted>* all,
                          size_t* done_target) {
  constexpr size_t kThreads = 3;
  constexpr size_t kPerThread = 6;
  std::mutex collected_mu;
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([h, t, all, &collected_mu] {
      Rng rng(9000 + t);
      for (size_t i = 0; i < kPerThread; ++i) {
        std::vector<query::StarQuery> qs;
        switch (rng.Index(3)) {
          case 0:
            qs = ssb::RandomQ32Workload(1, 5000 + t * 100 + i);
            break;
          case 1:
            qs.push_back(ssb::MakeQ11({}));
            break;
          default:
            qs.push_back(ssb::MakeQ21({}));
            break;
        }
        auto subs = h->SubmitEpoch(qs);
        {
          std::lock_guard<std::mutex> lock(collected_mu);
          h->cache_model_.Admit(qs);
          for (auto& s : subs) all->push_back(std::move(s));
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(0, 500)));
      }
    });
  }
  for (auto& t : submitters) t.join();
  *done_target += kThreads * kPerThread;
  h->WaitDone(*done_target);
}

// Phase D: steady-state zero-allocation. Running an identical epoch twice,
// the second pass must reuse the distributor scratch without a single
// growth event.
void PhaseSteadyStateScratch(Harness* h, size_t* done_target) {
  const auto qs = ssb::RandomQ32Workload(4, 4242);

  auto warm = h->SubmitEpoch(qs);  // warms the scratch to its high-water mark
  *done_target += qs.size();
  h->WaitDone(*done_target);
  h->cache_model_.Admit(qs);

  h->ResetStats();
  auto steady = h->SubmitEpoch(qs);
  *done_target += qs.size();
  h->WaitDone(*done_target);

  const cjoin::CjoinStats s = h->pipeline_->stats();
  SDW_CHECK_MSG(s.distributor_scratch_grows == 0,
                "steady-state distributor grew its scratch %llu times",
                static_cast<unsigned long long>(s.distributor_scratch_grows));
  SDW_CHECK_MSG(s.distributor_scratch_reuses > 0,
                "no distributor batches observed in steady state");
  SDW_CHECK(s.distributor_scratch_reuses >= s.fact_pages_scanned);

  for (auto& sub : warm) h->VerifyAgainstOracle(sub, "warm epoch");
  for (auto& sub : steady) h->VerifyAgainstOracle(sub, "steady epoch");
}

// Phase E: deadline-driven admission. An epoch mixing expired and valid
// deadlines must reject the expired queries before they cost a slot or a
// dimension scan — the scans are those the SURVIVING queries' predicates
// cost — and must complete every rejected query's lifecycle with
// kDeadlineExceeded (no ticket left unsatisfied).
void PhaseDeadlineExpiry(Harness* h, size_t* done_target) {
  using sdw::core::QueryLifecycle;
  using sdw::core::SubmitOptions;

  // E1: an all-expired epoch — zero admissions, zero dimension scans.
  {
    const auto qs = ssb::RandomQ32Workload(3, 8100);
    std::vector<std::shared_ptr<QueryLifecycle>> lives;
    for (size_t i = 0; i < qs.size(); ++i) {
      SubmitOptions opts;
      opts.deadline_nanos = 1;  // expired long ago
      lives.push_back(std::make_shared<QueryLifecycle>(8100 + i, opts));
    }
    const cjoin::CjoinStats before = h->pipeline_->stats();
    h->SubmitEpoch(qs, lives);
    *done_target += qs.size();
    h->WaitDone(*done_target);  // on_complete ran for every rejection
    for (const auto& life : lives) {
      const Status s = life->Wait();
      SDW_CHECK_MSG(s.code() == sdw::StatusCode::kDeadlineExceeded,
                    "expired query finished %s", s.ToString().c_str());
    }
    const cjoin::CjoinStats after = h->pipeline_->stats();
    SDW_CHECK(after.queries_expired == before.queries_expired + qs.size());
    SDW_CHECK(after.queries_admitted == before.queries_admitted);
    SDW_CHECK_MSG(
        after.admission_dim_scans == before.admission_dim_scans,
        "expired admissions cost %llu dimension scans (want 0)",
        static_cast<unsigned long long>(after.admission_dim_scans -
                                        before.admission_dim_scans));
  }

  // E2: a mixed epoch — the expired half is rejected scan-free, the valid
  // half is admitted, completes, and matches the oracle.
  {
    const auto qs = ssb::RandomQ32Workload(4, 8200);
    std::vector<std::shared_ptr<QueryLifecycle>> lives;
    for (size_t i = 0; i < qs.size(); ++i) {
      SubmitOptions opts;
      if (i % 2 == 0) opts.deadline_nanos = 1;  // every other query expired
      lives.push_back(std::make_shared<QueryLifecycle>(8200 + i, opts));
    }
    std::vector<query::StarQuery> survivors;
    for (size_t i = 1; i < qs.size(); i += 2) survivors.push_back(qs[i]);

    const cjoin::CjoinStats before = h->pipeline_->stats();
    auto subs = h->SubmitEpoch(qs, lives);
    *done_target += qs.size();
    h->WaitDone(*done_target);
    const cjoin::CjoinStats after = h->pipeline_->stats();

    SDW_CHECK(after.queries_expired == before.queries_expired + qs.size() / 2);
    SDW_CHECK(after.queries_admitted ==
              before.queries_admitted + qs.size() / 2);
    CheckEpochCost(before, after, h->cache_model_.Admit(survivors),
                   "deadline-mixed epoch (survivors only)");
    for (size_t i = 0; i < qs.size(); ++i) {
      if (i % 2 == 0) {
        const Status s = lives[i]->Wait();
        SDW_CHECK(s.code() == sdw::StatusCode::kDeadlineExceeded);
      } else {
        // The pipeline completes lifecycles only on error/cancel paths; OK
        // completion belongs to the client's result drain (absent in this
        // direct-pipeline harness), so the survivor must still be open.
        SDW_CHECK(!lives[i]->done());
        h->VerifyAgainstOracle(subs[i], "deadline-mixed survivor");
      }
    }
  }
}

// Phase F: an epoch whose every predicate an earlier epoch admitted — phase
// A's first epoch again, plus the Q2.1 it carried in its second — costs no
// dimension scan: every request is a selection-cache hit, and the results
// still match the oracle.
void PhaseAllCachedEpoch(Harness* h, size_t* done_target) {
  std::vector<query::StarQuery> qs = ssb::RandomQ32Workload(3, 100);
  qs.push_back(ssb::MakeQ21({}));

  const cjoin::CjoinStats before = h->pipeline_->stats();
  auto subs = h->SubmitEpoch(qs);
  *done_target += qs.size();
  h->WaitDone(*done_target);
  const cjoin::CjoinStats after = h->pipeline_->stats();

  SDW_CHECK(after.admission_batches == before.admission_batches + 1);
  const EpochCost want = h->cache_model_.Admit(qs);
  SDW_CHECK_MSG(want.scans == 0 && want.misses == 0,
                "phase F queries were not all admitted before");
  CheckEpochCost(before, after, want, "all-cached epoch");
  for (const auto& s : subs) h->VerifyAgainstOracle(s, "all-cached epoch");
}

}  // namespace

int main() {
  Harness h;
  std::vector<Submitted> all;
  size_t done_target = 0;

  PhaseDeterministicEpochs(&h, &all);
  done_target += all.size();
  h.WaitDone(done_target);

  PhaseBatchVsSerial(&h, &done_target);
  PhaseConcurrentChurn(&h, &all, &done_target);

  // Every query admitted in phases A and C: results exactly match the
  // oracle — no lost and no duplicated tuples under churn.
  for (const auto& s : all) h.VerifyAgainstOracle(s, "churn");

  PhaseSteadyStateScratch(&h, &done_target);
  PhaseDeadlineExpiry(&h, &done_target);
  PhaseAllCachedEpoch(&h, &done_target);

  const cjoin::CjoinStats final_stats = h.pipeline_->stats();
  SDW_CHECK(h.pipeline_->num_active_queries() == 0);
  (void)final_stats;
  std::printf("admission_stress_test: OK (%zu queries)\n", done_target);
  return 0;
}
