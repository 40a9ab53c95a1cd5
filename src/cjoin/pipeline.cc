#include "cjoin/pipeline.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/breakdown.h"
#include "common/timing.h"

namespace sdw::cjoin {

CjoinPipeline::CjoinPipeline(const storage::Catalog* catalog,
                             storage::BufferPool* pool,
                             const storage::Table* fact_table,
                             CjoinOptions options)
    : catalog_(catalog),
      pool_(pool),
      fact_(fact_table),
      options_(options),
      words_(bits::WordsFor(options.max_queries)),
      member_words_(
          bits::WordsFor(options.max_queries) +
          (options.query_folding
               ? bits::WordsFor(options.fold_bits != 0 ? options.fold_bits
                                                       : 3 * options.max_queries)
               : 0)),
      slots_(options.max_queries),
      active_mask_(options.max_queries),
      shared_agg_(options.distributor_parts, bits::WordsFor(options.max_queries),
                  member_words_),
      to_filters_(options.queue_capacity),
      to_distributor_(options.queue_capacity),
      // Upper bound on batches alive at once: both queues full plus one in
      // the hands of every stage thread. Sizing the pool to that high-water
      // mark makes the steady state allocation-free.
      batch_pool_(2 * to_filters_.capacity() + options.filter_threads +
                  options.distributor_parts + 1),
      cursor_(fact_table, pool) {
  free_slots_.reserve(options_.max_queries);
  for (size_t s = options_.max_queries; s > 0; --s) {
    free_slots_.push_back(static_cast<uint32_t>(s - 1));
  }
  // Fold-bit pool for folded aggregate members, descending so the lowest
  // bit is claimed first (fold bits live beyond the slot range).
  free_fold_bits_.reserve((member_words_ - words_) * 64);
  for (size_t b = member_words_ * 64; b > words_ * 64; --b) {
    free_fold_bits_.push_back(static_cast<uint32_t>(b - 1));
  }
  // Joined-dimension row resolution for aggregation-group row
  // materialization. filters_ only grows at admission pauses, so reading it
  // from a part thread holding a batch is safe (same contract as EmitGroup).
  dim_row_fn_ = [this](size_t filter_pos, uint32_t row) {
    return filters_[filter_pos]->dim_table()->row(row);
  };
  preprocessor_ = std::thread([this] { PreprocessorLoop(); });
  for (size_t i = 0; i < options_.filter_threads; ++i) {
    workers_.emplace_back([this] { FilterWorkerLoop(); });
  }
  for (size_t i = 0; i < options_.distributor_parts; ++i) {
    parts_.emplace_back([this, i] { DistributorPartLoop(i); });
  }
}

CjoinPipeline::~CjoinPipeline() {
  {
    MutexLock lock(mu_);
    stop_.store(true);
    SDW_CHECK_MSG(active_count_ == 0 && pending_.empty(),
                  "CjoinPipeline destroyed with queries in flight");
  }
  work_cv_.NotifyAll();
  preprocessor_.join();
  to_filters_.Close();
  for (auto& w : workers_) w.join();
  to_distributor_.Close();
  for (auto& p : parts_) p.join();
}

void CjoinPipeline::Submit(const query::StarQuery& q,
                           storage::Schema out_schema,
                           std::shared_ptr<core::PageSink> sink,
                           std::function<void(const Status&)> on_complete) {
  Submission one;
  one.q = q;
  one.out_schema = std::move(out_schema);
  one.sink = std::move(sink);
  one.on_complete = std::move(on_complete);
  std::vector<Submission> subs;
  subs.push_back(std::move(one));
  SubmitMany(std::move(subs));
}

void CjoinPipeline::SubmitMany(std::vector<Submission> submissions) {
  if (submissions.empty()) return;
  {
    MutexLock lock(mu_);
    for (auto& s : submissions) {
      if (s.priority == 0 && s.life != nullptr) {
        s.priority = s.life->options().priority;
      }
      pending_.push_back(std::move(s));
    }
  }
  work_cv_.NotifyAll();
}

CjoinStats CjoinPipeline::stats() const {
  MutexLock lock(mu_);
  CjoinStats s = stats_;
  s.batch_pool_hits = batch_pool_.hits() - pool_hits_base_;
  s.batch_pool_misses = batch_pool_.misses() - pool_misses_base_;
  s.distributor_scratch_reuses =
      dist_scratch_reuses_.value() - dist_reuses_base_;
  s.distributor_scratch_grows = dist_scratch_grows_.value() - dist_grows_base_;
  s.agg_batches_folded = agg_batches_folded_.value() - agg_folds_base_;
  uint64_t scans = 0, hits = 0, misses = 0;
  for (const auto& f : filters_) {
    scans += f->admission_scans();
    hits += f->selection_hits();
    misses += f->selection_misses();
  }
  s.admission_dim_scans = scans - admission_scans_base_;
  s.admission_selection_hits = hits - selection_hits_base_;
  s.admission_selection_misses = misses - selection_misses_base_;
  const RetryStats& rs = cursor_.retry_stats();
  s.scan_read_retries =
      rs.retries.load(std::memory_order_relaxed) - retry_retries_base_;
  s.scan_retry_giveups =
      rs.giveups.load(std::memory_order_relaxed) - retry_giveups_base_;
  s.scan_backoff_nanos =
      rs.backoff_nanos.load(std::memory_order_relaxed) - retry_backoff_base_;
  return s;
}

void CjoinPipeline::ResetStats() {
  MutexLock lock(mu_);
  stats_ = CjoinStats{};
  pool_hits_base_ = batch_pool_.hits();
  pool_misses_base_ = batch_pool_.misses();
  dist_reuses_base_ = dist_scratch_reuses_.value();
  dist_grows_base_ = dist_scratch_grows_.value();
  agg_folds_base_ = agg_batches_folded_.value();
  admission_scans_base_ = 0;
  selection_hits_base_ = 0;
  selection_misses_base_ = 0;
  for (const auto& f : filters_) {
    admission_scans_base_ += f->admission_scans();
    selection_hits_base_ += f->selection_hits();
    selection_misses_base_ += f->selection_misses();
  }
  const RetryStats& rs = cursor_.retry_stats();
  retry_retries_base_ = rs.retries.load(std::memory_order_relaxed);
  retry_giveups_base_ = rs.giveups.load(std::memory_order_relaxed);
  retry_backoff_base_ = rs.backoff_nanos.load(std::memory_order_relaxed);
}

size_t CjoinPipeline::num_filters() const {
  MutexLock lock(mu_);
  return filters_.size();
}

size_t CjoinPipeline::num_active_queries() const {
  MutexLock lock(mu_);
  return active_count_;
}

void CjoinPipeline::WaitIdle() {
  MutexLock lock(mu_);
  while (!(active_count_ == 0 && pending_.empty())) idle_cv_.Wait(mu_);
}

bool CjoinPipeline::busy() const {
  MutexLock lock(mu_);
  return active_count_ > 0 || !pending_.empty();
}

void CjoinPipeline::CancelActiveQueries(const Status& why) {
  // Snapshot the lifecycles under mu_, cancel outside it: RequestCancel
  // fires client callbacks that must not run under the pipeline lock.
  std::vector<std::shared_ptr<core::QueryLifecycle>> lives;
  {
    MutexLock lock(mu_);
    for (size_t s = active_mask_.FindNextSet(0); s < active_mask_.size();
         s = active_mask_.FindNextSet(s + 1)) {
      ActiveQuery* aq = slots_[s].get();
      if (aq == nullptr) continue;
      if (aq->life != nullptr) lives.push_back(aq->life);
      for (const auto& sat : aq->satellites) {
        if (sat->life != nullptr) lives.push_back(sat->life);
      }
    }
    for (const auto& p : pending_) {
      if (p.life != nullptr) lives.push_back(p.life);
    }
  }
  for (const auto& life : lives) life->RequestCancel(why);
}

// ------------------------------------------------------------- preprocessor

void CjoinPipeline::PreprocessorLoop() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (!pending_.empty() || !completions_due_.empty()) {
        // Pause the pipeline: drain in-flight batches, then adapt the GQP.
        lock.Unlock();
        DrainPipeline();
        lock.Lock();
        DoCompletionsLocked();
        DoAdmissionsLocked();
        if (active_count_ == 0 && pending_.empty()) idle_cv_.NotifyAll();
      }
      if (stop_.load()) return;
      if (active_count_ == 0) {
        while (!stop_.load() && pending_.empty()) work_cv_.Wait(mu_);
        continue;
      }
    }

    // Produce one page: the circular scan of the fact table. Transient read
    // errors retry inside the cursor; an error surfacing here is terminal
    // for this page — the cursor has already advanced past it, so the scan
    // skips the poisoned page and keeps serving (fault isolation: only the
    // queries attached right now are failed, by HandleScanFault).
    const uint64_t page_index = cursor_.position();
    const Result<const storage::Page*> fetched = [&] {
      ScopedComponentTimer t(Component::kScans);
      return cursor_.Next();
    }();
    if (!fetched.ok()) {
      HandleScanFault(page_index, fetched.status());
      continue;
    }
    const storage::Page* raw = fetched.value();
    if (raw == nullptr) continue;  // empty fact table

    BatchPtr batch = batch_pool_.Acquire();
    batch->fact_page = fact_->SharePage(page_index);
    batch->page_index = page_index;
    {
      // Annotate every tuple with the active-query bitmap (paper: the
      // preprocessor attaches the bitmaps). The batch comes from the
      // recycling pool, so in steady state these resizes stay within the
      // vectors' retained capacity — no allocation.
      ScopedComponentTimer t(Component::kMisc);
      batch->ResetFor(raw->tuple_count(), static_cast<uint32_t>(words_),
                      static_cast<uint32_t>(filters_.size()));
      // One loop at any width: copy the mask into the first tuple, then
      // double the filled prefix until every tuple carries it.
      uint64_t* out = batch->bits.data();
      const size_t total = batch->bits.size();
      if (total != 0) bits::Copy(out, active_mask_.words(), words_);
      for (size_t done = words_; done < total; done *= 2) {
        bits::Copy(out + done, out, std::min(done, total - done));
      }
      if (options_.fact_preds_in_preprocessor) {
        // §3.2 variant: the preprocessor evaluates fact predicates per
        // query per tuple — fewer tuples flow, but the single-threaded
        // pipeline head slows down (the paper rejected this trade).
        const storage::Schema& fs = fact_->schema();
        for (size_t s = active_mask_.FindNextSet(0); s < active_mask_.size();
             s = active_mask_.FindNextSet(s + 1)) {
          const ActiveQuery* aq = slots_[s].get();
          if (aq == nullptr || aq->fact_pred.IsTrue()) continue;
          for (uint32_t i = 0; i < batch->num_tuples; ++i) {
            if (!aq->fact_pred.EvalAt(fs, *batch->fact_page, i)) {
              bits::Clear(batch->tuple_bits(i), s);
            }
          }
        }
        // Re-derive liveness: tuples failing every query's predicate are
        // dead before they reach the first filter.
        for (uint32_t i = 0; i < batch->num_tuples; ++i) {
          if (!bits::Any(batch->tuple_bits(i), words_)) batch->kill_tuple(i);
        }
      }
    }

    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (!to_filters_.Put(std::move(batch))) {
      // Queue closed mid-shutdown: the batch will never reach the
      // distributor, so rebalance the in-flight count here or DrainPipeline
      // would hang forever waiting on the dropped batch.
      ForgetDroppedBatch();
    }

    progress_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      ++stats_.fact_pages_scanned;
      for (size_t s = active_mask_.FindNextSet(0); s < active_mask_.size();
           s = active_mask_.FindNextSet(s + 1)) {
        ActiveQuery* aq = slots_[s].get();
        if (aq == nullptr || aq->completion_queued) continue;
        // Cycle complete, or the query's consumers detached (cancel,
        // deadline, row-limit truncation): either way the slot retires at
        // the next pause instead of scanning on. Group (SP) signals are
        // re-evaluated every K pages only — the cached atomic answers in
        // between, keeping the registry lock off the per-page path. Folded
        // satellites keep their own page counts and detach signals: any due
        // rider queues the slot once; CompleteQueryLocked sorts out which
        // riders actually finish.
        bool due = false;
        if (!aq->client_done &&
            (--aq->pages_remaining == 0 || aq->DetachedThrottled())) {
          due = true;
        }
        for (auto& sat : aq->satellites) {
          if (--sat->pages_remaining == 0 || sat->DetachedThrottled()) {
            due = true;
          }
        }
        if (due) {
          aq->completion_queued = true;
          completions_due_.push_back(static_cast<uint32_t>(s));
        }
      }
    }
  }
}

void CjoinPipeline::HandleScanFault(uint64_t page_index, const Status& why) {
  // Taxonomy mapping (common/status.h): a permanent page fault is data loss
  // for the queries attached to this scan epoch; anything else that escaped
  // the cursor's transient retries surfaces as kUnavailable (retryable by
  // resubmission — the page range may come back).
  const StatusCode code = why.code() == StatusCode::kDataLoss
                              ? StatusCode::kDataLoss
                              : StatusCode::kUnavailable;
  const Status fault(code, "CJOIN scan: fact page " +
                               std::to_string(page_index) + " of '" +
                               fact_->name() + "' unreadable: " +
                               why.message());
  progress_.fetch_add(1, std::memory_order_relaxed);  // the page was skipped
  MutexLock lock(mu_);
  ++stats_.scan_read_errors;
  for (size_t s = active_mask_.FindNextSet(0); s < active_mask_.size();
       s = active_mask_.FindNextSet(s + 1)) {
    ActiveQuery* aq = slots_[s].get();
    if (aq == nullptr) continue;
    // Fail every rider attached at this epoch — the slot's own query and
    // its folded satellites: their result streams already miss the page's
    // tuples. The fault status wins over the cancel status in
    // CompleteQueryLocked; the cached detach bit stops the distributor from
    // emitting more of their output meanwhile. Riders that already finished
    // their cycle (pages_remaining == 0), already faulted, or already
    // detached are past this epoch's page and keep their own status.
    bool any_marked = false;
    auto mark = [&](ActiveQuery* r) {
      if (!r->fault_status.ok() || r->pages_remaining == 0 ||
          r->detached_cache.load(std::memory_order_relaxed)) {
        return;
      }
      r->fault_status = fault;
      r->detached_cache.store(true, std::memory_order_relaxed);
      any_marked = true;
    };
    if (!aq->client_done) mark(aq);
    for (auto& sat : aq->satellites) mark(sat.get());
    if (any_marked && !aq->completion_queued) {
      aq->completion_queued = true;
      completions_due_.push_back(static_cast<uint32_t>(s));
    }
  }
}

void CjoinPipeline::DrainPipeline() {
  MutexLock lock(drain_mu_);
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    drain_cv_.Wait(drain_mu_);
  }
}

void CjoinPipeline::ForgetDroppedBatch() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(drain_mu_);
    drain_cv_.NotifyAll();
  }
}

void CjoinPipeline::CompleteQueryLocked(uint32_t slot) {
  ActiveQuery* aq = slots_[slot].get();
  SDW_CHECK(aq != nullptr);
  aq->completion_queued = false;
  // Which riders of this slot are actually done? A rider is due when a
  // storage fault terminated it, its scan cycle completed, or its consumers
  // detached (the preprocessor queued the slot because at least one rider
  // hit one of these; the others keep scanning).
  auto rider_due = [](const ActiveQuery* r) {
    return !r->fault_status.ok() || r->pages_remaining == 0 ||
           r->detached_cache.load(std::memory_order_relaxed);
  };
  const bool host_due = !aq->client_done && rider_due(aq);
  bool merge_needed =
      host_due && aq->aggregate && aq->agg_group != nullptr;
  for (const auto& sat : aq->satellites) {
    if (sat->aggregate && sat->agg_group != nullptr && rider_due(sat.get())) {
      merge_needed = true;
    }
  }
  SharedAggregator::Group* g =
      aq->agg_group != nullptr ? aq->agg_group : nullptr;
  for (const auto& sat : aq->satellites) {
    if (g == nullptr && sat->agg_group != nullptr) g = sat->agg_group;
  }
  if (merge_needed) {
    // Partials hold every fold since the last pause-side merge; both the
    // result slices and the survivor-safe retirements below read the merged
    // table. All of this slot's aggregate riders share ONE group (folding
    // requires AggSignature equality), so one merge serves them all. The
    // pipeline is drained here, so no part is folding — the merge is
    // single-threaded on the preprocessor, and its cost is the pause-time
    // tax agg_merge_nanos makes visible (the future radix-merge baseline).
    SDW_CHECK(g != nullptr);
    WallTimer merge_timer;
    SharedAggregator::MergePartials(g);
    stats_.agg_merge_nanos +=
        static_cast<int64_t>(merge_timer.ElapsedSeconds() * 1e9);
    ++stats_.agg_merges;
  }
  // Batch slice: every due rider about to emit shares this slot's one
  // group, so cut all their slices in a single merged-table pass instead
  // of one traversal per rider — the drain that ends a scan cycle finishes
  // every rider of the slot at once. The predicate mirrors
  // FinishRiderLocked's emit path: faulted or detached-early riders fail
  // without results and need no slice.
  std::vector<uint32_t> slice_bits;
  std::vector<ActiveQuery*> slice_riders;
  auto emits_slice = [&](ActiveQuery* r) {
    return rider_due(r) && r->aggregate && r->agg_group != nullptr &&
           r->fault_status.ok() && r->pages_remaining == 0;
  };
  for (const auto& sat : aq->satellites) {
    if (emits_slice(sat.get())) {
      slice_bits.push_back(sat->agg_bit);
      slice_riders.push_back(sat.get());
    }
  }
  if (host_due && emits_slice(aq)) {
    slice_bits.push_back(aq->agg_bit);
    slice_riders.push_back(aq);
  }
  std::vector<SharedAggregator::AccTable> slices;
  if (!slice_bits.empty()) shared_agg_.SliceMembers(*g, slice_bits, &slices);
  auto slice_for = [&](ActiveQuery* r) -> SharedAggregator::AccTable* {
    for (size_t i = 0; i < slice_riders.size(); ++i) {
      if (slice_riders[i] == r) return &slices[i];
    }
    return nullptr;
  };
  // Finish due satellites first (their slices must be cut before the host's
  // retirement could destroy an emptied group), then the host's own client.
  for (auto it = aq->satellites.begin(); it != aq->satellites.end();) {
    if (rider_due(it->get())) {
      FinishRiderLocked(it->get(), slice_for(it->get()));
      it = aq->satellites.erase(it);
    } else {
      ++it;
    }
  }
  if (host_due) {
    FinishRiderLocked(aq, slice_for(aq));
    aq->client_done = true;
  }
  if (!aq->client_done || !aq->satellites.empty()) {
    // The slot survives this pause: riders remain. A host whose own client
    // just finished promotes the slot to its surviving satellites — they
    // keep riding its filter verdicts until their own cycles complete.
    if (host_due && !aq->satellites.empty()) ++stats_.fold_promotions;
    return;
  }
  active_mask_.Clear(slot);
  --active_count_;
  for (auto& f : filters_) f->RemoveQuery(slot);
  dirty_slots_.push_back(slot);
  slots_[slot].reset();
}

void CjoinPipeline::FinishRiderLocked(ActiveQuery* r,
                                      SharedAggregator::AccTable* slice) {
  const bool faulted = !r->fault_status.ok();
  const bool early = faulted || r->pages_remaining > 0;
  Status final_status = Status::Ok();
  if (early) {
    // Early retire: a storage fault terminated the rider's scan epoch, or
    // its consumers detached (cancel/deadline/truncation). Either way drop
    // buffered output and fail through the shared finish-before-close
    // sequence. The pipeline is drained at every retire point, so no
    // EmitGroup/EmitRows races the sink here.
    if (faulted) {
      final_status = r->fault_status;
    } else {
      final_status = r->life != nullptr ? r->life->cancel_status()
                                        : Status::Cancelled("query detached");
    }
    FailQuery(r->life, r->on_complete, r->sink.get(), final_status);
  } else if (r->aggregate) {
    EmitAggResultLocked(r, slice);
    if (r->on_complete) r->on_complete(final_status);
  } else {
    {
      MutexLock out_lock(r->out_mu);
      r->out_buf.DrainInto(r->sink.get());
      r->sink->Close();
    }
    if (r->on_complete) r->on_complete(final_status);
  }
  if (r->aggregate && r->agg_group != nullptr) {
    // Unbind from the aggregation group. The rider's member bit (its slot,
    // or its fold bit) folds out of every table entry — survivors' slices
    // are untouched, and the recycled bit re-enters any group clean.
    if (shared_agg_.RetireSlot(r->agg_group, r->agg_bit)) {
      shared_agg_.DestroyGroup(r->agg_group);
    }
    r->agg_group = nullptr;
  }
  if (r->folded && r->aggregate) {
    // The fold bit was claimed at fold time, whether or not the group
    // binding happened (an admission fault can fail the satellite first).
    free_fold_bits_.push_back(r->agg_bit);
  }
  if (faulted) {
    ++stats_.queries_failed;
  } else if (early) {
    ++stats_.queries_cancelled;
  } else {
    ++stats_.queries_completed;
  }
  if (options_.memory_budget != nullptr) {
    options_.memory_budget->Release(kAdmissionCostBytes);
  }
}

void CjoinPipeline::DoCompletionsLocked() {
  for (uint32_t slot : completions_due_) CompleteQueryLocked(slot);
  completions_due_.clear();
}

uint32_t CjoinPipeline::TryAllocSlotLocked() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (dirty_slots_.empty()) return kNoSlot;  // capacity exhausted
  const uint32_t slot = dirty_slots_.back();
  dirty_slots_.pop_back();
  ++stats_.slot_recycles;
  // Cleanse stale match bits left by the slot's previous occupant.
  for (auto& f : filters_) f->CleanSlot(slot);
  return slot;
}

void CjoinPipeline::FailQuery(
    const std::shared_ptr<core::QueryLifecycle>& life,
    const std::function<void(const Status&)>& on_complete,
    core::PageSink* sink, const Status& why) {
  // Order is load-bearing: lifecycles (the owner's, and under SP every
  // consumer's via on_complete) must complete with the error BEFORE the
  // sink closes — closing wakes client drains on a truncated stream, and
  // their Finish(Ok) must lose the first-wins race against this error.
  if (life != nullptr) life->Finish(why);
  if (on_complete) on_complete(why);
  if (sink != nullptr) sink->Close();
}

void CjoinPipeline::RejectPendingLocked(PendingQuery* p, const Status& why) {
  FailQuery(p->life, p->on_complete, p->sink.get(), why);
}

Filter* CjoinPipeline::GetOrCreateFilterLocked(const query::DimJoin& dim) {
  const storage::Table* dim_table = catalog_->MustGetTable(dim.dim_table);
  for (auto& f : filters_) {
    if (f->Matches(dim_table, dim.fact_fk_column, dim.dim_pk_column)) {
      return f.get();
    }
  }
  // New dimension: extend the GQP with a new filter. Queries already active
  // do not reference it, so they pass through.
  auto filter = std::make_unique<Filter>(dim_table, dim.fact_fk_column,
                                         dim.dim_pk_column, filters_.size(),
                                         options_.max_queries);
  for (size_t s = active_mask_.FindNextSet(0); s < active_mask_.size();
       s = active_mask_.FindNextSet(s + 1)) {
    filter->SetPass(static_cast<uint32_t>(s));
  }
  filter->BindFactColumn(fact_->schema());
  filters_.push_back(std::move(filter));
  return filters_.back().get();
}

std::vector<JoinRowMove> CjoinPipeline::BuildJoinMoves(
    const query::StarQuery& q, const storage::Schema& out_schema) {
  const query::Planner planner(catalog_);
  const storage::Schema& fact_schema = fact_->schema();
  std::vector<JoinRowMove> moves;
  size_t dst = 0;
  for (size_t col : planner.FactProjection(q)) {
    moves.push_back({true, 0, col, fact_schema.offset(col),
                     out_schema.offset(dst), fact_schema.column(col).width()});
    ++dst;
  }
  for (const auto& dim : q.dims) {
    const storage::Table* dim_table = catalog_->MustGetTable(dim.dim_table);
    size_t filter_pos = 0;
    for (const auto& f : filters_) {
      if (f->Matches(dim_table, dim.fact_fk_column, dim.dim_pk_column)) {
        filter_pos = f->position();
        break;
      }
    }
    const storage::Schema& ds = dim_table->schema();
    for (const auto& payload : dim.payload_columns) {
      const size_t col = ds.MustColumnIndex(payload);
      moves.push_back({false, filter_pos, col, ds.offset(col),
                       out_schema.offset(dst), ds.column(col).width()});
      ++dst;
    }
  }
  SDW_CHECK_MSG(dst == out_schema.num_columns(),
                "CJOIN projection does not cover the output schema");
  return moves;
}

void CjoinPipeline::BindAggGroupLocked(ActiveQuery* aq) {
  std::string sig = aq->q.AggSignature();
  SharedAggregator::Group* g = shared_agg_.FindGroup(sig);
  if (g != nullptr) {
    ++stats_.agg_groups_shared;
  } else {
    g = shared_agg_.CreateGroup(std::move(sig));
    const query::Planner planner(catalog_);
    g->join_schema = planner.JoinOutputSchema(aq->q);
    g->join_row_size = g->join_schema.tuple_size();
    g->moves = BuildJoinMoves(aq->q, g->join_schema);
    query::AggShape shape = query::Planner::BindAggShape(g->join_schema, aq->q);
    g->group_cols = std::move(shape.group_cols);
    g->aggs = std::move(shape.aggs);
    g->out_schema = std::move(shape.out_schema);
    size_t key_width = 0;
    for (size_t c : g->group_cols) {
      key_width += g->join_schema.column(c).width();
    }
    g->key_width = key_width;
  }
  SDW_CHECK_MSG(
      g->out_schema.num_columns() == aq->out_schema.num_columns() &&
          g->out_schema.tuple_size() == aq->out_schema.tuple_size(),
      "aggregate submission out_schema does not match its bound shape");
  shared_agg_.AddMember(g, aq->slot, aq->fact_pred);
  aq->agg_group = g;
  aq->agg_bit = aq->slot;
}

void CjoinPipeline::BindFoldedAggLocked(ActiveQuery* host, ActiveQuery* sat) {
  SharedAggregator::Group* g = host->agg_group;
  SDW_CHECK(g != nullptr);
  SDW_CHECK_MSG(
      g->out_schema.num_columns() == sat->out_schema.num_columns() &&
          g->out_schema.tuple_size() == sat->out_schema.tuple_size(),
      "folded aggregate out_schema does not match its host's shape");
  // The fold bit was claimed from free_fold_bits_ in FoldOntoHostLocked.
  shared_agg_.AddFoldedMember(g, sat->agg_bit, host->slot, sat->fact_pred,
                              sat->residuals);
  sat->agg_group = g;
}

void CjoinPipeline::EmitAggResultLocked(ActiveQuery* aq,
                                        SharedAggregator::AccTable* slice) {
  SharedAggregator::Group* g = aq->agg_group;
  SDW_CHECK(g != nullptr);
  std::vector<std::string> rows;
  if (slice != nullptr) {
    SharedAggregator::RenderSlice(*g, *slice, &rows);
  } else {
    SharedAggregator::AccTable cut;
    SharedAggregator::SliceSlot(*g, aq->agg_bit, &cut);
    SharedAggregator::RenderSlice(*g, cut, &rows);
  }
  ++stats_.agg_slice_emits;
  storage::PagePtr page;
  bool ok = true;
  for (const std::string& row : rows) {
    if (page == nullptr) page = storage::Page::Make(aq->out_tuple_size);
    std::byte* dst = page->AppendTuple();
    if (dst == nullptr) {
      ok = aq->sink->Put(std::move(page));
      if (!ok) break;  // consumers gone
      page = storage::Page::Make(aq->out_tuple_size);
      dst = page->AppendTuple();
    }
    std::memcpy(dst, row.data(), row.size());
  }
  if (ok && page != nullptr) aq->sink->Put(std::move(page));
  aq->sink->Close();
}

CjoinPipeline::ActiveQuery* CjoinPipeline::FindFoldHostLocked(
    const PendingQuery& p, const std::vector<uint32_t>& epoch_slots) {
  // A folded aggregate needs a private fold bit for its slice.
  if (p.aggregate && free_fold_bits_.empty()) return nullptr;
  auto candidate = [&](uint32_t s) -> ActiveQuery* {
    ActiveQuery* aq = slots_[s].get();
    if (aq == nullptr) return nullptr;
    // Only a healthy host whose own client is still scanning: a retiring,
    // faulted or detached host's filter verdicts are about to stop.
    if (aq->client_done || aq->completion_queued) return nullptr;
    if (!aq->fault_status.ok()) return nullptr;
    if (aq->detached_cache.load(std::memory_order_relaxed)) return nullptr;
    if (aq->aggregate != p.aggregate) return nullptr;
    if (!query::QuerySubsumes(aq->q, p.q)) return nullptr;
    return aq;
  };
  for (size_t s = active_mask_.FindNextSet(0); s < active_mask_.size();
       s = active_mask_.FindNextSet(s + 1)) {
    if (ActiveQuery* aq = candidate(static_cast<uint32_t>(s))) return aq;
  }
  // Same-epoch hosts: queries materialized earlier in THIS pause, not yet
  // in active_mask_. Essential at small slot caps, where a whole similar
  // burst arrives in one admission batch.
  for (uint32_t s : epoch_slots) {
    if (ActiveQuery* aq = candidate(s)) return aq;
  }
  return nullptr;
}

void CjoinPipeline::FoldOntoHostLocked(ActiveQuery* host, PendingQuery* p) {
  auto sat = std::make_unique<ActiveQuery>();
  sat->slot = host->slot;
  sat->folded = true;
  sat->q = p->q;
  sat->out_schema = std::move(p->out_schema);
  sat->out_tuple_size = sat->out_schema.tuple_size();
  sat->sink = std::move(p->sink);
  sat->life = std::move(p->life);
  sat->cancelled = std::move(p->cancelled);
  sat->on_complete = std::move(p->on_complete);
  sat->aggregate = p->aggregate;
  sat->fact_pred = sat->q.fact_pred.Bind(fact_->schema());
  // The satellite's point of entry is the scan's current position, exactly
  // like a slot admission: one full circular cycle from here. Its host's
  // slot stays annotated (and its filters' match bits live) at least that
  // long — a host client finishing first promotes the slot, never frees it.
  sat->pages_remaining = fact_->num_pages();
  sat->residuals = BuildResiduals(*host, sat->q);
  if (!sat->aggregate) sat->moves = BuildJoinMoves(sat->q, sat->out_schema);
  if (sat->life != nullptr) {
    sat->life->SetAdmissionEpoch(stats_.admission_batches + 1);
    sat->life->MarkRunStart();
  }
  ActiveQuery* sp = sat.get();
  host->satellites.push_back(std::move(sat));
  if (sp->aggregate) {
    // Claim the fold bit now (FindFoldHostLocked checked availability), so
    // capacity accounting stays exact across a pause that folds several
    // aggregates; the group binding happens immediately for an active host
    // and in admission phase 4 for a same-epoch one.
    SDW_CHECK(!free_fold_bits_.empty());
    sp->agg_bit = free_fold_bits_.back();
    free_fold_bits_.pop_back();
    if (host->agg_group != nullptr) BindFoldedAggLocked(host, sp);
  }
}

std::vector<SharedAggregator::Residual> CjoinPipeline::BuildResiduals(
    const ActiveQuery& host, const query::StarQuery& q) {
  std::vector<SharedAggregator::Residual> out;
  for (size_t i = 0; i < q.dims.size(); ++i) {
    const query::DimJoin& dim = q.dims[i];
    // A dimension predicate identical to the host's needs no residual: the
    // host's filter verdict is already exact for the satellite there.
    if (dim.pred.Signature() == host.q.dims[i].pred.Signature()) continue;
    const storage::Table* dim_table = catalog_->MustGetTable(dim.dim_table);
    SharedAggregator::Residual r;
    for (const auto& f : filters_) {
      if (f->Matches(dim_table, dim.fact_fk_column, dim.dim_pk_column)) {
        r.filter_pos = f->position();
        break;
      }
    }
    const query::Predicate::Bound pred = dim.pred.Bind(dim_table->schema());
    // Memoize the verdict per dimension row (tables are immutable): one
    // pass over a small dimension here buys bit-test residual checks on
    // the fact-scan hot path for the satellite's whole lifetime.
    r.row_pass.assign(bits::WordsFor(dim_table->num_rows()), 0);
    for (size_t row = 0; row < dim_table->num_rows(); ++row) {
      if (pred.Eval(dim_table->schema(), dim_table->row(row))) {
        bits::Set(r.row_pass.data(), row);
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

void CjoinPipeline::DoAdmissionsLocked() {
  if (pending_.empty()) return;
  WallTimer timer;

  // Scheduling: admit by (priority desc, arrival). pending_ is already in
  // arrival order and the sort is stable, so equal priorities keep FIFO
  // fairness; when slots are scarce the tail of this order is what gets
  // rejected — a high-priority query never waits behind (or loses its slot
  // to) a long low-priority backlog. Dynamic priorities (SP shared packets)
  // are evaluated once, here, at the pause.
  if (options_.priority_admission && pending_.size() > 1) {
    std::vector<int> eff(pending_.size());
    for (size_t i = 0; i < pending_.size(); ++i) {
      const PendingQuery& p = pending_[i];
      eff[i] = p.priority;
      if (p.priority_fn) eff[i] = std::max(eff[i], p.priority_fn());
    }
    std::vector<size_t> order(pending_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return eff[a] > eff[b]; });
    std::vector<PendingQuery> sorted;
    sorted.reserve(pending_.size());
    for (size_t i : order) sorted.push_back(std::move(pending_[i]));
    pending_ = std::move(sorted);
  }

  // Phase 1 — materialize: allocate slots, build the ActiveQuery state, and
  // create/look up every referenced filter, grouping the epoch's pending
  // (slot, predicate) pairs by filter so phase 3 runs at most ONE dimension
  // scan per filter for the whole epoch, however many queries were waiting.
  std::vector<uint32_t> epoch_slots;
  epoch_slots.reserve(pending_.size());
  std::vector<std::pair<Filter*, std::vector<Filter::AdmitRequest>>> scans;
  const int64_t now = NowNanos();
  for (auto& p : pending_) {
    // Deadline-driven admission: an expired query is rejected here, before
    // it costs a slot or any dimension scan. Likewise a query whose client
    // already detached (cancelled while pending / during this pause).
    // A shared packet (group `cancelled` override installed) is exempt from
    // the owner-deadline rejection: satellites without deadlines may depend
    // on it, so the owner's expiry only detaches the owner (its drain stops
    // at the deadline) and the packet retires via the group signal.
    if (!p.cancelled && p.life != nullptr && p.life->deadline_nanos() != 0 &&
        now > p.life->deadline_nanos()) {
      RejectPendingLocked(&p, Status::DeadlineExceeded(
                                  "deadline expired before CJOIN admission"));
      ++stats_.queries_expired;
      continue;
    }
    if ((p.cancelled && p.cancelled()) ||
        (!p.cancelled && p.life != nullptr && p.life->Detached())) {
      RejectPendingLocked(
          &p, p.life != nullptr ? p.life->cancel_status()
                                : Status::Cancelled("cancelled while pending"));
      ++stats_.queries_cancelled;
      continue;
    }
    // Overload gate: reserve the query's memory cost before it takes a slot
    // or triggers any dimension scan. Shedding here — with a retry_after
    // hint — is the graceful-degradation path: the client resubmits when
    // capacity frees instead of the engine queueing unboundedly.
    if (options_.memory_budget != nullptr &&
        !options_.memory_budget->TryReserve(kAdmissionCostBytes)) {
      RejectPendingLocked(
          &p, ResourceExhaustedWithRetryAfter(
                  "CJOIN admission shed: memory budget exhausted (" +
                      std::to_string(options_.memory_budget->used()) + "/" +
                      std::to_string(options_.memory_budget->capacity()) +
                      " bytes reserved)",
                  options_.overload_retry_after_nanos));
      ++stats_.queries_rejected_overload;
      continue;
    }
    // Dynamic query folding: a pending query provably subsumed by an
    // in-flight (or just-materialized same-epoch) query rides that host's
    // slot as a post-filter instead of costing a slot and dimension scans.
    // Running inside the (priority desc, arrival)-ordered walk keeps the
    // admission order honest: a fold consumes NO slot, so it can never take
    // one from a higher-priority pending query processed before it. The
    // budget reservation above stays charged and releases when the
    // satellite retires.
    if (options_.query_folding) {
      ++stats_.fold_checks;
      if (ActiveQuery* host = FindFoldHostLocked(p, epoch_slots)) {
        FoldOntoHostLocked(host, &p);
        ++stats_.queries_folded;
        ++stats_.queries_admitted;
        continue;
      }
    }
    const uint32_t slot = TryAllocSlotLocked();
    if (slot == kNoSlot) {
      if (options_.memory_budget != nullptr) {
        options_.memory_budget->Release(kAdmissionCostBytes);
      }
      RejectPendingLocked(
          &p, Status::ResourceExhausted(
                  "CJOIN query-slot capacity (" +
                  std::to_string(options_.max_queries) + ") exhausted"));
      ++stats_.queries_rejected;
      continue;
    }
    auto aq = std::make_unique<ActiveQuery>();
    aq->slot = slot;
    aq->q = p.q;
    aq->out_schema = std::move(p.out_schema);
    aq->out_tuple_size = aq->out_schema.tuple_size();
    aq->sink = std::move(p.sink);
    aq->life = std::move(p.life);
    aq->cancelled = std::move(p.cancelled);
    aq->on_complete = std::move(p.on_complete);
    aq->aggregate = p.aggregate;
    aq->fact_pred = aq->q.fact_pred.Bind(fact_->schema());
    slots_[slot] = std::move(aq);
    epoch_slots.push_back(slot);
    // The predicate pointers reference the ActiveQuery's own copy of the
    // query, which stays put in slots_ through the phase-3 scans.
    for (const auto& dim : slots_[slot]->q.dims) {
      Filter* f = GetOrCreateFilterLocked(dim);
      auto it = std::find_if(scans.begin(), scans.end(),
                             [f](const auto& e) { return e.first == f; });
      if (it == scans.end()) {
        scans.emplace_back(f, std::vector<Filter::AdmitRequest>{});
        it = std::prev(scans.end());
      }
      it->second.push_back({slot, &dim.pred});
    }
  }
  pending_.clear();

  // Phase 2 — wire the GQP: every filter the epoch needed now exists, so
  // pass-through masks and projection plans see filters created by *any*
  // query of the epoch, not only earlier-submitted ones.
  for (uint32_t slot : epoch_slots) {
    ActiveQuery* aq = slots_[slot].get();
    for (auto& f : filters_) {
      bool referenced = false;
      for (const auto& dim : aq->q.dims) {
        if (f->Matches(catalog_->MustGetTable(dim.dim_table),
                       dim.fact_fk_column, dim.dim_pk_column)) {
          referenced = true;
          break;
        }
      }
      if (!referenced) f->SetPass(slot);
    }
    // Aggregate queries materialize rows through their group's moves (built
    // at binding, phase 4) — their out_schema is the aggregate schema, not
    // the join output.
    if (!aq->aggregate) aq->moves = BuildJoinMoves(aq->q, aq->out_schema);
  }

  // Phase 3 — cached predicates set their bits from the filter's selection
  // cache; the rest share at most one scan per referenced dimension for the
  // whole epoch (the SharedDB-style amortized admission; stat-asserted by
  // the stress test). A failed dimension scan leaves the filter internally
  // consistent but the match bits of the requests that missed incomplete
  // (see Filter::AdmitQueryBatch) — those queries are marked faulted and
  // phase 4 fails them instead of activating; cache hits and the epoch's
  // other queries admit normally (fault isolation at admission).
  for (auto& [f, reqs] : scans) {
    const Status s = f->AdmitQueryBatch(reqs.data(), reqs.size(), pool_);
    if (s.ok()) continue;
    const StatusCode code = s.code() == StatusCode::kDataLoss
                                ? StatusCode::kDataLoss
                                : StatusCode::kUnavailable;
    const Status fault(code, "CJOIN admission: dimension '" +
                                 f->dim_table()->name() +
                                 "' scan failed: " + s.message());
    for (const Filter::AdmitRequest& req : reqs) {
      if (req.hit) continue;
      ActiveQuery* aq = slots_[req.slot].get();
      if (aq->fault_status.ok()) aq->fault_status = fault;
    }
  }

  // Phase 4 — activate: point of entry is the circular scan's current
  // position; each query completes after one full cycle.
  for (uint32_t slot : epoch_slots) {
    ActiveQuery* aq = slots_[slot].get();
    if (!aq->fault_status.ok()) {
      // Admission fault: the query never activates. Satellites folded onto
      // it this epoch fail with it — their subsumption proof is against a
      // host that will never scan. Its slot goes back to the dirty pool
      // (CleanSlot erases the partial match bits on reuse) and its
      // reservation releases — exactly the completed-query cleanup, minus
      // the active bookkeeping it never acquired.
      for (auto& sat : aq->satellites) {
        sat->fault_status = aq->fault_status;
        FinishRiderLocked(sat.get());
      }
      aq->satellites.clear();
      FailQuery(aq->life, aq->on_complete, aq->sink.get(), aq->fault_status);
      ++stats_.queries_failed;
      for (auto& f : filters_) f->RemoveQuery(slot);
      if (options_.memory_budget != nullptr) {
        options_.memory_budget->Release(kAdmissionCostBytes);
      }
      dirty_slots_.push_back(slot);
      slots_[slot].reset();
      continue;
    }
    if (aq->aggregate) {
      BindAggGroupLocked(aq);
      // Aggregate satellites folded onto this same-epoch host bind now that
      // the host's group exists (active hosts bind theirs at fold time).
      for (auto& sat : aq->satellites) {
        if (sat->agg_group == nullptr) BindFoldedAggLocked(aq, sat.get());
      }
    }
    aq->pages_remaining = fact_->num_pages();
    active_mask_.Set(slot);
    ++active_count_;
    ++stats_.queries_admitted;
    if (aq->life != nullptr) {
      aq->life->SetAdmissionEpoch(stats_.admission_batches + 1);
      // Pending → running: queue wait ends at admission activation.
      aq->life->MarkRunStart();
    }
    if (aq->pages_remaining == 0) {
      CompleteQueryLocked(slot);  // empty fact table: nothing to join
    }
  }
  ++stats_.admission_batches;
  stats_.admission_seconds += timer.ElapsedSeconds();
  progress_.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------ filter workers

void CjoinPipeline::FilterWorkerLoop() {
  // Per-worker scratch: grows to the high-water batch size once, then all
  // Process calls run allocation-free.
  FilterScratch scratch;
  while (BatchPtr batch = to_filters_.Take()) {
    for (uint32_t f = 0; f < batch->num_filters; ++f) {
      filters_[f]->Process(batch.get(), &scratch);
    }
    if (!to_distributor_.Put(std::move(batch))) ForgetDroppedBatch();
  }
}

// --------------------------------------------------------- distributor parts

namespace {

/// Applies `fn(tuple_index, slot)` to every set query bit of every live
/// tuple — the scalar reference's (slot, tuple) pair enumeration. The
/// batched path (DistributePartBatched) carries its own copy of this decode
/// loop because it fuses the `seen[w] |= word` touched-slot OR into it;
/// changes to the walk order or slot decoding must be mirrored there (the
/// differential test pins the two against each other). Walking the live
/// mask first makes fully-filtered tuples cost one skipped mask bit instead
/// of `words` bitmap loads each.
template <typename Fn>
inline void ForEachLiveSlotPair(const TupleBatch& batch, Fn&& fn) {
  const size_t words = batch.words_per_tuple;
  const uint64_t* live = batch.live_words();
  const size_t live_words = bits::WordsFor(batch.num_tuples);
  for (size_t lw = 0; lw < live_words; ++lw) {
    uint64_t lword = live[lw];
    while (lword != 0) {
      const uint32_t i = static_cast<uint32_t>(
          lw * 64 + static_cast<size_t>(std::countr_zero(lword)));
      lword &= lword - 1;
      const uint64_t* tb = batch.tuple_bits(i);
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = tb[w];
        while (word != 0) {
          fn(i, static_cast<uint32_t>(
                    w * 64 + static_cast<size_t>(std::countr_zero(word))));
          word &= word - 1;
        }
      }
    }
  }
}

}  // namespace

size_t DistributePartBatched(const TupleBatch& batch,
                             DistributorScratch* scratch) {
  // Capacity snapshot: any growth below makes this an allocating batch.
  const size_t cap_arena = scratch->arena.capacity();
  const size_t cap_counts = scratch->counts.capacity();
  const size_t cap_touched = scratch->touched.capacity();
  const size_t cap_seen = scratch->seen.capacity();

  // Reset: zero only the cursors the previous batch touched, so the
  // per-batch cost is O(active slots), not O(slot capacity).
  for (uint32_t s : scratch->touched) scratch->counts[s] = 0;
  scratch->touched.clear();
  const size_t words = batch.words_per_tuple;
  const size_t max_slots = words * 64;
  if (scratch->counts.size() < max_slots) {
    scratch->counts.resize(max_slots, 0);
  }
  scratch->seen.assign(words, 0);
  // Bucket stride: room for every tuple of the largest page seen so far.
  // Monotonic and geometry-driven — slot churn never resizes the arena.
  if (batch.num_tuples > scratch->stride) scratch->stride = batch.num_tuples;
  const size_t stride = scratch->stride;
  if (scratch->arena.size() < max_slots * stride) {
    scratch->arena.resize(max_slots * stride);
  }

  // One decode pass: store each (slot, tuple) pair straight into its slot's
  // arena bucket via the slot's fill cursor. Touched-slot discovery is an
  // OR per bitmap word (`seen`), not a per-pair branch. One body per bitmap
  // width: at W = 1, 2 and 4 words the word loop has a constant count the
  // compiler unrolls; W = 0 reads the width at run time.
  {
    uint32_t* arena = scratch->arena.data();
    uint32_t* counts = scratch->counts.data();
    uint64_t* seen = scratch->seen.data();
    const uint64_t* tuple_bits = batch.bits.data();
    const uint64_t* live = batch.live_words();
    const size_t live_words = bits::WordsFor(batch.num_tuples);
    bits::WithWidth(words, [&](auto width) {
      constexpr size_t kW = decltype(width)::value;
      const size_t nw = kW != 0 ? kW : words;
      for (size_t lw = 0; lw < live_words; ++lw) {
        uint64_t lword = live[lw];
        while (lword != 0) {
          const uint32_t i = static_cast<uint32_t>(
              lw * 64 + static_cast<size_t>(std::countr_zero(lword)));
          lword &= lword - 1;
          const uint64_t* tb = tuple_bits + size_t{i} * nw;
          for (size_t w = 0; w < nw; ++w) {
            uint64_t word = tb[w];
            seen[w] |= word;
            while (word != 0) {
              const uint32_t slot = static_cast<uint32_t>(
                  w * 64 + static_cast<size_t>(std::countr_zero(word)));
              word &= word - 1;
              arena[slot * stride + counts[slot]++] = i;
            }
          }
        }
      }
    });
  }

  // Touched slots fall out of the seen words, in ascending slot order.
  size_t total = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t sw = scratch->seen[w];
    while (sw != 0) {
      const uint32_t slot = static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(std::countr_zero(sw)));
      sw &= sw - 1;
      scratch->touched.push_back(slot);
      total += scratch->counts[slot];
    }
  }

  const bool grew = scratch->arena.capacity() != cap_arena ||
                    scratch->counts.capacity() != cap_counts ||
                    scratch->touched.capacity() != cap_touched ||
                    scratch->seen.capacity() != cap_seen;
  ++(grew ? scratch->grows : scratch->reuses);
  return total;
}

void DistributePartScalar(
    const TupleBatch& batch,
    std::unordered_map<uint32_t, std::vector<uint32_t>>* by_slot) {
  by_slot->clear();
  ForEachLiveSlotPair(batch, [&](uint32_t i, uint32_t slot) {
    (*by_slot)[slot].push_back(i);
  });
}

void CjoinPipeline::EmitGroup(uint32_t slot, const TupleBatch& batch,
                              const storage::Schema& fact_schema,
                              const uint32_t* idxs, size_t n) {
  ActiveQuery* aq = slots_[slot].get();
  SDW_DCHECK(aq != nullptr);
  // Aggregate riders produce nothing here: their join output folds into the
  // aggregation stage's tables and the sink gets rendered aggregate pages
  // at completion. A host whose own client finished (promotion) stops
  // emitting for itself but its satellites ride on.
  if (!aq->aggregate && !aq->client_done) {
    EmitRows(aq, batch, fact_schema, idxs, n);
  }
  // Folded satellites share the slot's group: same filter verdicts, each
  // with its own fact predicate and dimension residuals applied in
  // EmitRows. The satellites vector mutates only at admission pauses
  // (drain-barrier protocol), so this lock-free walk is safe mid-batch.
  for (auto& sat : aq->satellites) {
    if (!sat->aggregate) EmitRows(sat.get(), batch, fact_schema, idxs, n);
  }
}

void CjoinPipeline::EmitRows(ActiveQuery* aq, const TupleBatch& batch,
                             const storage::Schema& fact_schema,
                             const uint32_t* idxs, size_t n) {
  // Stale-rider suppression: once the query's consumers detached (cancel /
  // deadline / row-limit), stop projecting for it — batches annotated
  // before the cancel was observed may still carry its bit until the rider
  // retires at the next admission pause. Under SP the signal is group-wide,
  // so a host with live SP satellites keeps emitting. Reads the
  // preprocessor's per-page cached decision: a relaxed load, no locks on
  // this path.
  if (aq->detached_cache.load(std::memory_order_relaxed)) return;
  // Take exclusive ownership of one of the query's open output pages — the
  // critical section is a pointer swap; predicate evaluation and projection
  // below run without the lock.
  storage::PagePtr page;
  {
    MutexLock out_lock(aq->out_mu);
    if (!aq->out_buf.ok()) return;  // consumers gone
    page = aq->out_buf.TakePage();
  }
  // Fact predicates are evaluated on CJOIN's output tuples unless the
  // preprocessor already applied them (§3.2) — and ALWAYS for folded
  // satellites, which the preprocessor knows nothing about (it clears bits
  // for the HOST's predicate only, a superset of the satellite's tuples by
  // the admission containment proof).
  const bool eval_fact_pred =
      aq->folded || !options_.fact_preds_in_preprocessor;
  const storage::Page& fact_page = *batch.fact_page;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = idxs[k];
    if (eval_fact_pred && !aq->fact_pred.IsTrue() &&
        !aq->fact_pred.EvalAt(fact_schema, fact_page, i)) {
      continue;
    }
    const uint32_t* dim_rows = batch.tuple_dim_rows(i);
    // A satellite's own dimension predicates, where narrower than its
    // host's, re-check against the joined dimension rows (the host's filter
    // verdict admits a superset).
    if (!aq->residuals.empty()) {
      bool pass = true;
      for (const auto& r : aq->residuals) {
        const uint32_t row = dim_rows[r.filter_pos];
        SDW_DCHECK(row != kNoDimRow);
        if (!bits::Test(r.row_pass.data(), row)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
    }
    if (page == nullptr) page = storage::Page::Make(aq->out_tuple_size);
    std::byte* dst = page->AppendTuple();
    if (dst == nullptr) {
      // Page full: hand it to the sink and start a fresh one. Emission
      // order across parts is insignificant (query results are multisets).
      bool ok;
      {
        MutexLock out_lock(aq->out_mu);
        ok = aq->out_buf.ok() && aq->sink->Put(std::move(page));
        if (!ok) aq->out_buf.MarkFailed();
      }
      if (!ok) return;  // consumers gone
      page = storage::Page::Make(aq->out_tuple_size);
      dst = page->AppendTuple();
    }
    for (const auto& m : aq->moves) {
      const std::byte* src;
      if (m.from_fact) {
        src = fact_page.field(fact_schema, m.src_col, i);
      } else {
        const uint32_t row = dim_rows[m.filter_pos];
        SDW_DCHECK(row != kNoDimRow);
        src = filters_[m.filter_pos]->dim_table()->row(row) + m.src_off;
      }
      std::memcpy(dst + m.dst_off, src, m.len);
    }
  }
  if (page != nullptr) {
    MutexLock out_lock(aq->out_mu);
    aq->out_buf.PutBack(std::move(page));
  }
}

void CjoinPipeline::DistributorPartLoop(size_t part) {
  const storage::Schema& fact_schema = fact_->schema();
  // Per-part scratch: recycled flat slot→tuple-index grouping (counting-sort
  // layout). It grows to the high-water mark once; after that every batch is
  // grouped with zero heap allocation — tracked by the scratch-reuse stats.
  DistributorScratch scratch;
  SharedAggregator::FoldScratch fold_scratch;

  while (BatchPtr batch = to_distributor_.Take()) {
    {
      ScopedComponentTimer t(Component::kMisc);
      const uint64_t grows_before = scratch.grows;
      DistributePartBatched(*batch, &scratch);
      (scratch.grows == grows_before ? dist_scratch_reuses_
                                     : dist_scratch_grows_)
          .Add(1);
      for (size_t g = 0; g < scratch.num_groups(); ++g) {
        EmitGroup(scratch.group_slot(g), *batch, fact_schema,
                  scratch.group_begin(g), scratch.group_size(g));
      }
      // Fold the batch once into every aggregation group. Safe without mu_:
      // the group list and shapes mutate only while the pipeline is drained,
      // and this part writes only its own partial tables.
      for (const auto& g : shared_agg_.groups()) {
        shared_agg_.FoldBatch(g.get(), *batch, fact_schema, dim_row_fn_, part,
                              options_.fact_preds_in_preprocessor,
                              &fold_scratch);
        agg_batches_folded_.Add(1);
      }
    }

    // Retire the batch into the recycling pool before releasing the drain:
    // its vectors keep their capacity for the preprocessor's next page.
    batch_pool_.Release(std::move(batch));
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(drain_mu_);
      drain_cv_.NotifyAll();
    }
  }
}

}  // namespace sdw::cjoin
