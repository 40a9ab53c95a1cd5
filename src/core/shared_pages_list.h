// Shared Pages List (SPL) — the paper's pull-based transport for sharing
// intermediate results during Simultaneous Pipelining (paper §4, Figure 8).
//
// A SPL is a bounded linked list of pages with one producer and any number of
// consumers. The producer appends at the head; each consumer walks the list
// independently from its point of entry. Every node carries a reader count
// initialized to the number of active consumers at emission time; the last
// consumer past a node reclaims it. Because consumers share the single list,
// the producer performs no per-consumer forwarding — eliminating the
// serialization point of push-based SP.
//
// Step WoP: a satellite may attach "from the start" only while nothing has
// been emitted (TryAttachFromStart). Linear WoP: a consumer may attach at any
// time (AttachAtCurrent) and sees every page emitted after its point of
// entry; re-production of the missed prefix is the responsibility of the
// producing service (e.g. the circular scan wraps around), matching the
// paper's host hand-off protocol.

#ifndef SDW_CORE_SHARED_PAGES_LIST_H_
#define SDW_CORE_SHARED_PAGES_LIST_H_

#include <cstdint>
#include <list>
#include <memory>

#include "common/macros.h"
#include "common/mutex.h"
#include "core/page_channel.h"

namespace sdw::core {

/// Single-producer / multi-consumer bounded page list.
class SharedPagesList : public PageSink {
 private:
  struct Node {
    storage::PagePtr page;
    uint64_t seq;
    int remaining;  // readers still to pass this node
  };

 public:
  /// `max_bytes` bounds the bytes buffered between the slowest consumer and
  /// the head (0 = unbounded). The paper finds the bound barely affects
  /// performance and uses 256 KB to limit footprint.
  explicit SharedPagesList(size_t max_bytes = 256 * 1024)
      : max_bytes_(max_bytes) {}
  ~SharedPagesList() override;

  SDW_DISALLOW_COPY(SharedPagesList);

  /// Consumer handle; obtained via the attach methods.
  class Reader : public PageSource {
   public:
    ~Reader() override { CancelReader(); }
    storage::PagePtr Next() override;
    void CancelReader() override;

   private:
    friend class SharedPagesList;
    Reader(SharedPagesList* list, uint64_t next_seq)
        : list_(list), next_seq_(next_seq) {}

    SharedPagesList* list_;
    uint64_t next_seq_;
    bool holds_prev_ = false;
    std::list<Node>::iterator prev_;
    bool cancelled_ = false;
  };

  /// Attaches a consumer that will see every page (step WoP). Fails —
  /// returns nullptr — when the producer has already emitted (the window of
  /// opportunity has closed) or the list is closed.
  std::unique_ptr<Reader> TryAttachFromStart();

  /// Attaches a consumer at the current position (linear WoP): it sees every
  /// page emitted from now on. Returns nullptr when the list is closed.
  std::unique_ptr<Reader> AttachAtCurrent();

  // PageSink:
  bool Put(storage::PagePtr page) override;
  void Close() override;
  /// True once every attached reader has cancelled (at least one reader must
  /// have attached; the primary attaches before the producer dispatches).
  bool Abandoned() const override;

  /// True while nothing has been emitted (step WoP still open) and not
  /// closed.
  bool NothingEmitted() const;

  /// Current buffered bytes (diagnostics / tests).
  size_t buffered_bytes() const;
  /// Number of attached, uncancelled consumers.
  size_t num_active_readers() const;

 private:
  friend class Reader;

  void ReleaseLocked(std::list<Node>::iterator it) REQUIRES(mu_);
  void PopReclaimedLocked() REQUIRES(mu_);

  const size_t max_bytes_;

  // Channel rank, same tier as FifoBuffer: the two are interchangeable
  // transports behind an Exchange, reached under tee/registry locks.
  mutable Mutex mu_{lock_rank::Rank::kChannel};
  CondVar producer_cv_;
  CondVar consumer_cv_;
  std::list<Node> nodes_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;  // seq of the next emitted page
  size_t bytes_ GUARDED_BY(mu_) = 0;
  size_t active_readers_ GUARDED_BY(mu_) = 0;
  bool attached_ever_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace sdw::core

#endif  // SDW_CORE_SHARED_PAGES_LIST_H_
