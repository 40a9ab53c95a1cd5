#include "core/cjoin_stage.h"

namespace sdw::core {

namespace {

/// Adapts an Exchange's sink to shared ownership for the pipeline: the
/// exchange must outlive the CJOIN query, which holds this handle.
class ExchangeSinkHolder : public PageSink {
 public:
  explicit ExchangeSinkHolder(std::shared_ptr<qpipe::Exchange> ex)
      : ex_(std::move(ex)) {}

  bool Put(storage::PagePtr page) override {
    return ex_->sink()->Put(std::move(page));
  }
  void Close() override { ex_->sink()->Close(); }

 private:
  std::shared_ptr<qpipe::Exchange> ex_;
};

}  // namespace

qpipe::QpipeEngine::JoinDelegate CjoinStage::MakeDelegate() {
  return MakeSubplanDelegate(/*aggregate=*/false);
}

qpipe::QpipeEngine::AggDelegate CjoinStage::MakeAggDelegate() {
  return MakeSubplanDelegate(/*aggregate=*/true);
}

qpipe::QpipeEngine::JoinDelegate CjoinStage::MakeSubplanDelegate(
    bool aggregate) {
  return [this, aggregate](qpipe::QueryContext* ctx,
                           const query::PlanNode* sub_root,
                           std::vector<std::function<void()>>* deferred)
             -> std::unique_ptr<PageSource> {
    const std::string& sig = sub_root->signature;

    // SP over CJOIN packets: step WoP on the packet's output exchange. The
    // satellite's lifecycle is recorded against the host, so the packet
    // retires early only when EVERY consumer detaches.
    if (sp_enabled_) {
      if (auto src = registry_.TryAttach(sig, ctx->life)) {
        shares_.fetch_add(1, std::memory_order_relaxed);
        ctx->life->MarkRunStart();  // scheduled with the host's packet
        return src;
      }
    }

    std::shared_ptr<qpipe::Exchange> ex =
        qpipe::MakeExchange(comm_, channel_bytes_);
    auto primary = ex->OpenPrimaryReader();
    if (sp_enabled_) registry_.Register(sig, ex, ctx->life);

    // Defer the pipeline submission to the dispatch phase so that every
    // satellite in the batch attaches before the GQP starts producing; the
    // deferred step only *stages* the submission — FlushStaged (the engine's
    // batch-flush hook) hands the whole batch to the pipeline at once, so
    // it lands in a single admission pause (paper §3.2).
    const query::StarQuery q = ctx->query;
    const storage::Schema out_schema = sub_root->out_schema;
    std::shared_ptr<QueryLifecycle> life = ctx->life;
    deferred->push_back([this, aggregate, q, out_schema, ex, sig, life] {
      cjoin::CjoinPipeline::Submission sub;
      sub.q = q;
      sub.aggregate = aggregate;
      sub.out_schema = out_schema;
      sub.sink = std::make_shared<ExchangeSinkHolder>(ex);
      sub.life = life;
      if (sp_enabled_) {
        // Detach-on-host-cancel: the shared packet serves every attached
        // query, so the pipeline's cancel signal is "all consumers
        // detached", not the host's own lifecycle — a cancelled host
        // merely stops reading while satellites keep the slot alive.
        sub.cancelled = [this, sig, ex] {
          return registry_.AllConsumersDetached(sig, ex.get());
        };
        // Priority inheritance at admission: the shared packet bids with
        // the max priority over its attached consumers, evaluated at the
        // admission pause — a high-priority satellite boosts the host.
        const int base =
            life != nullptr ? life->options().priority : 0;
        sub.priority_fn = [this, sig, ex, base] {
          return registry_.MaxConsumerPriority(sig, ex.get(), base);
        };
        sub.on_complete = [this, sig, ex](const Status& s) {
          // A failed/rejected shared packet must fail every consumer — a
          // satellite draining the truncated stream as success would report
          // an empty result as kOk. The removal and the consumer failure
          // must be one atomic registry operation, or a satellite attaching
          // between them (the WoP is still open: nothing was emitted and
          // the sink closes only after this hook returns) slips past both.
          if (!s.ok()) {
            registry_.UnregisterAborted(sig, ex.get(), s);
          } else {
            registry_.Unregister(sig, ex.get());
          }
        };
      }
      MutexLock lock(staged_mu_);
      staged_.push_back(std::move(sub));
    });
    return primary;
  };
}

void CjoinStage::FlushStaged() {
  std::vector<cjoin::CjoinPipeline::Submission> batch;
  {
    MutexLock lock(staged_mu_);
    batch.swap(staged_);
  }
  if (batch.empty()) return;
  pipeline_->SubmitMany(std::move(batch));
}

}  // namespace sdw::core
