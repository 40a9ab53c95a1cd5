// CJOIN as a QPipe stage (paper §3.2-3.3).
//
// Installed as the QpipeEngine's join delegate, the stage routes every join
// sub-plan to the shared CJOIN pipeline instead of query-centric join
// packets. With SP enabled, identical star queries (same dimensions,
// predicates and projection — equal join-sub-plan signatures) are detected
// with a step WoP: only one CJOIN packet enters the pipeline and satellites
// reuse its output, avoiding the redundant admission, bitmap and bitwise-AND
// costs the paper enumerates in §3.1.

#ifndef SDW_CORE_CJOIN_STAGE_H_
#define SDW_CORE_CJOIN_STAGE_H_

#include <atomic>
#include <memory>

#include "cjoin/pipeline.h"
#include "qpipe/engine.h"

namespace sdw::core {

/// Bridges the QPipe engine to the CJOIN pipeline.
class CjoinStage {
 public:
  /// `sp_enabled` turns on SP over CJOIN packets (the CJOIN-SP config).
  CjoinStage(cjoin::CjoinPipeline* pipeline, CommModel comm,
             size_t channel_bytes, bool sp_enabled)
      : pipeline_(pipeline),
        comm_(comm),
        channel_bytes_(channel_bytes),
        sp_enabled_(sp_enabled) {}

  SDW_DISALLOW_COPY(CjoinStage);

  /// The join delegate to install on the QpipeEngine.
  qpipe::QpipeEngine::JoinDelegate MakeDelegate();

  /// The aggregate delegate (EngineOptions::shared_aggregation): routes
  /// whole aggregate-over-join sub-plans into the pipeline, which folds
  /// same-shape queries onto one shared aggregation group. With SP enabled,
  /// byte-identical aggregate sub-plans (equal signatures, constants
  /// included) additionally share one CJOIN packet outright.
  qpipe::QpipeEngine::AggDelegate MakeAggDelegate();

  /// Hands all staged submissions to the pipeline as one admission batch;
  /// installed as the QpipeEngine's batch-flush hook.
  void FlushStaged();

  /// Satellite attachments to CJOIN packets (the paper's "CJOIN packets
  /// shared N times" measurements).
  uint64_t shares() const { return shares_.load(std::memory_order_relaxed); }
  void ResetShares() { shares_.store(0, std::memory_order_relaxed); }

  cjoin::CjoinPipeline* pipeline() const { return pipeline_; }

 private:
  /// Common delegate body: MakeDelegate stages join-output submissions,
  /// MakeAggDelegate the same submissions with the aggregate flag set (the
  /// sub-plan root's out_schema is then the aggregation output schema).
  qpipe::QpipeEngine::JoinDelegate MakeSubplanDelegate(bool aggregate);

  cjoin::CjoinPipeline* pipeline_;
  const CommModel comm_;
  const size_t channel_bytes_;
  const bool sp_enabled_;

  qpipe::SpRegistry registry_;
  std::atomic<uint64_t> shares_{0};

  // Only ever wraps the vector push/swap; never another acquisition.
  Mutex staged_mu_{lock_rank::Rank::kCjoinStage};
  std::vector<cjoin::CjoinPipeline::Submission> staged_ GUARDED_BY(staged_mu_);
};

}  // namespace sdw::core

#endif  // SDW_CORE_CJOIN_STAGE_H_
