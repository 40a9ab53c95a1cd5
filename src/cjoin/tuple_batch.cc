#include "cjoin/tuple_batch.h"

#include <algorithm>

namespace sdw::cjoin {

BatchQueue::BatchQueue(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)), ring_(capacity_) {}

bool BatchQueue::Put(BatchPtr batch) {
  {
    MutexLock lock(mu_);
    bool waited = false;
    while (!closed_ && size_ == capacity_) {
      if (waited) ++futile_wakeups_;
      not_full_.Wait(mu_);
      waited = true;
    }
    if (closed_) return false;
    ring_[(head_ + size_) % capacity_] = std::move(batch);
    ++size_;
  }
  not_empty_.NotifyOne();
  return true;
}

BatchPtr BatchQueue::Take() {
  BatchPtr batch;
  {
    MutexLock lock(mu_);
    bool waited = false;
    while (!closed_ && size_ == 0) {
      if (waited) ++futile_wakeups_;
      not_empty_.Wait(mu_);
      waited = true;
    }
    // Closed and empty: drained. Producers must stop before Close for a
    // complete drain; the pipeline joins them first.
    if (size_ == 0) return nullptr;
    batch = std::move(ring_[head_]);
    head_ = (head_ + 1) % capacity_;
    --size_;
  }
  not_full_.NotifyOne();
  return batch;
}

void BatchQueue::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
}

uint64_t BatchQueue::futile_wakeups() const {
  MutexLock lock(mu_);
  return futile_wakeups_;
}

storage::PagePtr SlotOutputBuffer::TakePage() {
  if (open_.empty()) return nullptr;
  storage::PagePtr page = std::move(open_.back());
  open_.pop_back();
  return page;
}

void SlotOutputBuffer::PutBack(storage::PagePtr page) {
  if (page != nullptr) open_.push_back(std::move(page));
}

void SlotOutputBuffer::DrainInto(core::PageSink* sink) {
  for (auto& page : open_) {
    if (page != nullptr && !page->empty()) {
      if (!sink->Put(std::move(page))) ok_ = false;
    }
  }
  open_.clear();
}

BatchPtr BatchPool::Acquire() {
  {
    MutexLock lock(mu_);
    if (!free_.empty()) {
      BatchPtr batch = std::move(free_.back());
      free_.pop_back();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return batch;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<TupleBatch>();
}

void BatchPool::Release(BatchPtr batch) {
  if (batch == nullptr || batch.use_count() != 1) return;
  batch->fact_page.reset();  // return the page to its owner promptly
  MutexLock lock(mu_);
  if (free_.size() < max_cached_) free_.push_back(std::move(batch));
}

}  // namespace sdw::cjoin
