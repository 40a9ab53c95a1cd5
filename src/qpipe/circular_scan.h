// Circular scan service: QPipe's table-scan stage with a linear WoP.
//
// One service per table keeps a single wrapping cursor through the buffer
// pool. Consumers attach at any time (their point of entry is the cursor's
// current position) and receive exactly one full cycle of raw table pages.
// I/O and buffer-pool traffic are thus shared across all concurrent scans of
// the table — the paper's "CS" configuration. The delivery transport honors
// the communication model: pull shares page pointers through one SPL; push
// deep-copies pages into per-consumer FIFOs in the service thread.
//
// Fault isolation: the cursor retries transient read errors internally; when
// a page stays unreadable the service bumps a fault epoch, skips the page,
// and keeps scanning. Consumers capture the epoch at attach time and their
// source reports the failure through PageSource::status() on the next read —
// only consumers attached when the fault fired are poisoned; later attaches
// get a clean stream (shared work, isolated failures).

#ifndef SDW_QPIPE_CIRCULAR_SCAN_H_
#define SDW_QPIPE_CIRCULAR_SCAN_H_

#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "core/page_channel.h"
#include "core/shared_pages_list.h"
#include "qpipe/fifo_buffer.h"
#include "storage/scan.h"

namespace sdw::qpipe {

/// Shared circular scan over one table.
class CircularScanService {
 public:
  CircularScanService(const storage::Table* table, storage::BufferPool* pool,
                      core::CommModel comm, size_t channel_bytes);
  ~CircularScanService();

  SDW_DISALLOW_COPY(CircularScanService);

  /// Attaches a consumer; the returned source yields each table page exactly
  /// once (one full cycle from the point of entry) and then ends.
  std::unique_ptr<core::PageSource> Attach();

  /// Pages skipped after an unrecoverable read failure.
  uint64_t pages_skipped() const {
    return pages_skipped_.load(std::memory_order_relaxed);
  }

 private:
  // Pull mode: wraps an SPL reader, stopping after one full cycle.
  class CycleLimitedReader;
  // Epoch-scoped fault propagation around either transport's source.
  class FaultScopedSource;
  // Push mode: per-consumer state.
  struct PushConsumer {
    std::shared_ptr<FifoBuffer> fifo;
    uint64_t remaining;
  };

  void Loop();
  bool HasWorkLocked() const REQUIRES(mu_);
  // Records a terminal page failure: bumps the fault epoch so attached
  // consumers fail, while the scan skips the page and keeps serving.
  void RecordFault(uint64_t page_idx, const Status& why);
  // The fault that poisoned epochs newer than `attach_seq` (OK if none).
  Status FaultSince(uint64_t attach_seq);

  const storage::Table* table_;
  storage::BufferPool* pool_;
  const core::CommModel comm_;
  const size_t channel_bytes_;

  // Near the bottom of the hierarchy: the loop thread Puts into SPL /
  // consumer FIFOs (kChannel) — but always OUTSIDE mu_; the low rank exists
  // because CancelReader paths reach this lock from deep in drain stacks.
  Mutex mu_{lock_rank::Rank::kScanService};
  CondVar wake_cv_;
  bool stopping_ GUARDED_BY(mu_) = false;
  // Readers still taking their cycle (pull).
  size_t pull_consumers_ GUARDED_BY(mu_) = 0;
  std::vector<PushConsumer> push_pending_ GUARDED_BY(mu_);  // not yet merged
  std::vector<PushConsumer> push_active_ GUARDED_BY(mu_);   // loop-owned

  std::shared_ptr<core::SharedPagesList> spl_;  // pull transport (unbounded
                                                // readers; bounded bytes)
  storage::CircularPageCursor cursor_;
  std::atomic<uint64_t> pages_skipped_{0};
  // Fault epoch: incremented per terminal page failure; last_fault_ (under
  // mu_) holds the most recent failure. Consumers compare their attach-time
  // snapshot against the current epoch on every read.
  std::atomic<uint64_t> fault_seq_{0};
  Status last_fault_ GUARDED_BY(mu_);

  std::thread worker_;
};

/// Registry of per-table services (one per scan stage).
class CircularScanMap {
 public:
  CircularScanMap(storage::BufferPool* pool, core::CommModel comm,
                  size_t channel_bytes)
      : pool_(pool), comm_(comm), channel_bytes_(channel_bytes) {}

  /// Service for `table`, created on first use.
  CircularScanService* Get(const storage::Table* table);

 private:
  storage::BufferPool* pool_;
  const core::CommModel comm_;
  const size_t channel_bytes_;

  Mutex mu_{lock_rank::Rank::kLeaf};  // Get() only mutates the vector
  std::vector<std::pair<const storage::Table*,
                        std::unique_ptr<CircularScanService>>>
      services_ GUARDED_BY(mu_);
};

}  // namespace sdw::qpipe

#endif  // SDW_QPIPE_CIRCULAR_SCAN_H_
