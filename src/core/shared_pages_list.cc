#include "core/shared_pages_list.h"

namespace sdw::core {

SharedPagesList::~SharedPagesList() {
  // Contract: readers never outlive the list (exchanges pair every reader
  // with shared ownership of the list).
  SDW_CHECK(active_readers_ == 0);
}

std::unique_ptr<SharedPagesList::Reader>
SharedPagesList::TryAttachFromStart() {
  MutexLock lock(mu_);
  if (closed_ || next_seq_ != 0) return nullptr;  // WoP closed
  ++active_readers_;
  attached_ever_ = true;
  return std::unique_ptr<Reader>(new Reader(this, 0));
}

std::unique_ptr<SharedPagesList::Reader> SharedPagesList::AttachAtCurrent() {
  MutexLock lock(mu_);
  if (closed_) return nullptr;
  ++active_readers_;
  attached_ever_ = true;
  return std::unique_ptr<Reader>(new Reader(this, next_seq_));
}

bool SharedPagesList::Put(storage::PagePtr page) {
  MutexLock lock(mu_);
  SDW_CHECK_MSG(!closed_, "Put after Close on SPL");
  while (max_bytes_ > 0 && bytes_ + storage::kPageSize > max_bytes_ &&
         active_readers_ != 0) {
    producer_cv_.Wait(mu_);
  }
  if (active_readers_ == 0) return false;
  nodes_.push_back(
      {std::move(page), next_seq_++, static_cast<int>(active_readers_)});
  bytes_ += storage::kPageSize;
  consumer_cv_.NotifyAll();
  return true;
}

void SharedPagesList::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  consumer_cv_.NotifyAll();
}

bool SharedPagesList::Abandoned() const {
  MutexLock lock(mu_);
  // attached_ever_ distinguishes "all readers cancelled" from "no reader
  // attached yet" — the latter must not look abandoned.
  return attached_ever_ && active_readers_ == 0;
}

bool SharedPagesList::NothingEmitted() const {
  MutexLock lock(mu_);
  return !closed_ && next_seq_ == 0;
}

size_t SharedPagesList::buffered_bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

size_t SharedPagesList::num_active_readers() const {
  MutexLock lock(mu_);
  return active_readers_;
}

void SharedPagesList::ReleaseLocked(std::list<Node>::iterator it) {
  --it->remaining;
  SDW_DCHECK(it->remaining >= 0);
}

void SharedPagesList::PopReclaimedLocked() {
  bool reclaimed = false;
  while (!nodes_.empty() && nodes_.front().remaining == 0) {
    bytes_ -= storage::kPageSize;
    nodes_.pop_front();
    reclaimed = true;
  }
  if (reclaimed) producer_cv_.NotifyAll();
}

storage::PagePtr SharedPagesList::Reader::Next() {
  SharedPagesList* l = list_;
  MutexLock lock(l->mu_);
  if (cancelled_) return nullptr;
  if (holds_prev_) {
    l->ReleaseLocked(prev_);
    holds_prev_ = false;
    l->PopReclaimedLocked();
  }
  while (!l->closed_ &&
         (l->nodes_.empty() || l->nodes_.back().seq < next_seq_)) {
    l->consumer_cv_.Wait(l->mu_);
  }
  // Locate the node with seq == next_seq_ (nodes are seq-ordered and the
  // list is short — bounded by max_bytes / page size).
  for (auto it = l->nodes_.begin(); it != l->nodes_.end(); ++it) {
    if (it->seq == next_seq_) {
      prev_ = it;
      holds_prev_ = true;
      ++next_seq_;
      return it->page;
    }
  }
  // Closed and the next page will never arrive: end of stream.
  SDW_DCHECK(l->closed_);
  return nullptr;
}

void SharedPagesList::Reader::CancelReader() {
  SharedPagesList* l = list_;
  MutexLock lock(l->mu_);
  if (cancelled_) return;
  cancelled_ = true;
  if (holds_prev_) {
    l->ReleaseLocked(prev_);
    holds_prev_ = false;
  }
  for (auto it = l->nodes_.begin(); it != l->nodes_.end(); ++it) {
    if (it->seq >= next_seq_) l->ReleaseLocked(it);
  }
  SDW_DCHECK(l->active_readers_ > 0);
  --l->active_readers_;
  l->PopReclaimedLocked();
  l->producer_cv_.NotifyAll();
}

}  // namespace sdw::core
