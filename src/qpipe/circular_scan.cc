#include "qpipe/circular_scan.h"

#include <algorithm>

#include "common/breakdown.h"
#include "qpipe/exchange.h"

namespace sdw::qpipe {

namespace {

/// Source over an empty table: immediate end of stream.
class EmptyPageSource : public core::PageSource {
 public:
  storage::PagePtr Next() override { return nullptr; }
  void CancelReader() override {}
};

}  // namespace

// Pull-mode consumer: one full cycle (num_pages pages) from the shared SPL.
class CircularScanService::CycleLimitedReader : public core::PageSource {
 public:
  CycleLimitedReader(CircularScanService* service,
                     std::unique_ptr<core::SharedPagesList::Reader> reader,
                     uint64_t pages)
      : service_(service), reader_(std::move(reader)), remaining_(pages) {}

  ~CycleLimitedReader() override { CancelReader(); }

  storage::PagePtr Next() override {
    if (remaining_ == 0) {
      CancelReader();
      return nullptr;
    }
    storage::PagePtr page = reader_->Next();
    if (page == nullptr) {
      CancelReader();
      return nullptr;
    }
    --remaining_;
    if (remaining_ == 0) CancelReader();
    return page;
  }

  void CancelReader() override {
    if (done_) return;
    done_ = true;
    // Drop the service's consumer count BEFORE detaching from the SPL:
    // in the reverse order the service sees work pending while the SPL has
    // no readers, so its Put degenerates to a non-blocking drop and the
    // scan free-runs the cursor (wasted page fetches) until this thread
    // gets the service lock.
    {
      MutexLock lock(service_->mu_);
      SDW_DCHECK(service_->pull_consumers_ > 0);
      --service_->pull_consumers_;
    }
    reader_->CancelReader();
  }

 private:
  CircularScanService* service_;
  std::unique_ptr<core::SharedPagesList::Reader> reader_;
  uint64_t remaining_;
  bool done_ = false;
};

// Wraps a consumer's source with the service's fault epoch: a fault fired
// after this consumer attached poisons the stream, surfaced via status() so
// RunScan doesn't flush a truncated cycle as a complete result. Consumers
// that attach after the fault snapshot the newer epoch and stay clean.
class CircularScanService::FaultScopedSource : public core::PageSource {
 public:
  FaultScopedSource(CircularScanService* service,
                    std::unique_ptr<core::PageSource> inner,
                    uint64_t attach_seq)
      : service_(service), inner_(std::move(inner)), attach_seq_(attach_seq) {}

  storage::PagePtr Next() override {
    if (!status_.ok()) return nullptr;
    storage::PagePtr page = inner_->Next();
    Status fault = service_->FaultSince(attach_seq_);
    if (!fault.ok()) {
      status_ = std::move(fault);
      inner_->CancelReader();
      return nullptr;
    }
    return page;
  }

  void CancelReader() override { inner_->CancelReader(); }
  Status status() const override { return status_; }

 private:
  CircularScanService* service_;
  std::unique_ptr<core::PageSource> inner_;
  const uint64_t attach_seq_;
  Status status_;
};

CircularScanService::CircularScanService(const storage::Table* table,
                                         storage::BufferPool* pool,
                                         core::CommModel comm,
                                         size_t channel_bytes)
    : table_(table),
      pool_(pool),
      comm_(comm),
      channel_bytes_(channel_bytes),
      cursor_(table, pool) {
  if (comm_ == core::CommModel::kPull) {
    spl_ = std::make_shared<core::SharedPagesList>(channel_bytes_);
  }
  worker_ = std::thread([this] { Loop(); });
}

CircularScanService::~CircularScanService() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  wake_cv_.NotifyAll();
  worker_.join();
}

std::unique_ptr<core::PageSource> CircularScanService::Attach() {
  const uint64_t pages = table_->num_pages();
  if (pages == 0) return std::make_unique<EmptyPageSource>();

  std::unique_ptr<core::PageSource> src;
  uint64_t attach_seq;
  if (comm_ == core::CommModel::kPull) {
    auto reader = spl_->AttachAtCurrent();
    SDW_CHECK(reader != nullptr);
    {
      MutexLock lock(mu_);
      ++pull_consumers_;
      attach_seq = fault_seq_.load(std::memory_order_acquire);
      src = std::make_unique<CycleLimitedReader>(this, std::move(reader),
                                                 pages);
    }
  } else {
    auto fifo = std::make_shared<FifoBuffer>(channel_bytes_);
    {
      MutexLock lock(mu_);
      push_pending_.push_back({fifo, pages});
      attach_seq = fault_seq_.load(std::memory_order_acquire);
    }
    src = std::make_unique<FifoReaderHolder>(std::move(fifo));
  }
  wake_cv_.NotifyAll();
  return std::make_unique<FaultScopedSource>(this, std::move(src), attach_seq);
}

bool CircularScanService::HasWorkLocked() const {
  if (comm_ == core::CommModel::kPull) return pull_consumers_ > 0;
  return !push_active_.empty() || !push_pending_.empty();
}

void CircularScanService::Loop() {
  while (true) {
    {
      MutexLock lock(mu_);
      while (!stopping_ && !HasWorkLocked()) wake_cv_.Wait(mu_);
      if (stopping_) return;
      if (comm_ == core::CommModel::kPush) {
        for (auto& c : push_pending_) push_active_.push_back(std::move(c));
        push_pending_.clear();
      }
    }

    // Fetch the next page (simulated I/O happens here, in the single
    // service thread — the shared sequential scan). The cursor absorbs
    // transient errors with backoff; what surfaces here is terminal.
    const uint64_t position = cursor_.position();
    Result<const storage::Page*> fetched = [&] {
      ScopedComponentTimer t(Component::kScans);
      return cursor_.Next();
    }();
    if (!fetched.ok()) {
      RecordFault(position, fetched.status());
      continue;  // the cursor already skipped the page; keep serving
    }
    const storage::Page* raw = fetched.value();
    if (raw == nullptr) continue;
    storage::PagePtr page = table_->SharePage(position);

    if (comm_ == core::CommModel::kPull) {
      // One Put serves every consumer: no per-consumer work at all.
      spl_->Put(std::move(page));
      continue;
    }

    // Push mode: clone the page into every consumer FIFO, sequentially in
    // this thread (the push-model forwarding cost).
    std::vector<PushConsumer> active;
    {
      MutexLock lock(mu_);
      active.swap(push_active_);
    }
    std::vector<PushConsumer> still_active;
    still_active.reserve(active.size());
    for (auto& c : active) {
      if (!c.fifo->Put(storage::Page::Clone(*page))) continue;  // cancelled
      if (--c.remaining == 0) {
        c.fifo->Close();  // full cycle delivered
        continue;
      }
      still_active.push_back(std::move(c));
    }
    {
      MutexLock lock(mu_);
      for (auto& c : still_active) push_active_.push_back(std::move(c));
    }
  }
}

void CircularScanService::RecordFault(uint64_t page_idx, const Status& why) {
  pages_skipped_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mu_);
  last_fault_ =
      Status(why.code(), "circular scan: page " + std::to_string(page_idx) +
                             " of table '" + table_->name() +
                             "' unreadable: " + why.message());
  fault_seq_.fetch_add(1, std::memory_order_release);
}

Status CircularScanService::FaultSince(uint64_t attach_seq) {
  if (fault_seq_.load(std::memory_order_acquire) == attach_seq) {
    return Status::Ok();
  }
  MutexLock lock(mu_);
  return last_fault_;
}

CircularScanService* CircularScanMap::Get(const storage::Table* table) {
  MutexLock lock(mu_);
  for (auto& [t, svc] : services_) {
    if (t == table) return svc.get();
  }
  services_.emplace_back(
      table, std::make_unique<CircularScanService>(table, pool_, comm_,
                                                   channel_bytes_));
  return services_.back().second.get();
}

}  // namespace sdw::qpipe
