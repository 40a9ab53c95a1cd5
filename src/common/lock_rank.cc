#include "common/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if defined(__GLIBC__) || defined(__APPLE__)
#include <execinfo.h>
#define SDW_HAVE_BACKTRACE 1
#else
#define SDW_HAVE_BACKTRACE 0
#endif

namespace sdw::lock_rank {
namespace {

struct ThreadState {
  Violation::Held held[Violation::kMaxHeld];
  int depth = 0;
};

// Per-thread held-lock stack. Plain POD thread_local: no allocation on the
// lock path, trivially destructible (safe during thread teardown, when
// detached pool workers may still release pool locks).
thread_local ThreadState tl_state;

std::atomic<ViolationHandler> g_handler{nullptr};

const char* KindName(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kOrder:
      return "rank order inversion";
    case Violation::Kind::kRecursion:
      return "recursive acquisition";
    case Violation::Kind::kOverflow:
      return "held-lock stack overflow";
  }
  return "?";
}

[[noreturn]] void DefaultReport(const Violation& v) {
  std::fprintf(stderr,
               "lock_rank: %s acquiring mutex %p (rank %d %s)\n"
               "lock_rank: held stack (oldest first):\n",
               KindName(v.kind), v.mutex, v.rank, RankName(v.rank));
  for (int i = 0; i < v.depth; ++i) {
    std::fprintf(stderr, "lock_rank:   [%d] mutex %p rank %d %s\n", i,
                 v.held[i].mutex, v.held[i].rank, RankName(v.held[i].rank));
  }
#if SDW_HAVE_BACKTRACE
  void* frames[64];
  const int n = backtrace(frames, 64);
  std::fprintf(stderr, "lock_rank: acquisition backtrace:\n");
  backtrace_symbols_fd(frames, n, /*fd=*/2);
#endif
  std::abort();
}

void Report(Violation::Kind kind, const void* mu, int rank) {
  Violation v;
  v.kind = kind;
  v.mutex = mu;
  v.rank = rank;
  v.depth = tl_state.depth;
  for (int i = 0; i < v.depth; ++i) v.held[i] = tl_state.held[i];
  if (ViolationHandler handler = g_handler.load(std::memory_order_acquire)) {
    handler(v);  // may throw: the offending lock() is never reached
    return;
  }
  DefaultReport(v);
}

// Shared check+push; `ordered` is false for try-locks, which cannot
// deadlock on an inversion and are therefore exempt from the order check
// (they still count as held and are recursion-checked).
void Push(const void* mu, int rank, bool ordered) {
  ThreadState& st = tl_state;
  for (int i = 0; i < st.depth; ++i) {
    if (st.held[i].mutex == mu) {
      Report(Violation::Kind::kRecursion, mu, rank);
      return;
    }
  }
  if (ordered && rank != 0) {
    for (int i = 0; i < st.depth; ++i) {
      if (st.held[i].rank != 0 && st.held[i].rank >= rank) {
        Report(Violation::Kind::kOrder, mu, rank);
        return;
      }
    }
  }
  if (st.depth == Violation::kMaxHeld) {
    Report(Violation::Kind::kOverflow, mu, rank);
    return;
  }
  st.held[st.depth++] = {mu, rank};
}

// Removes `mu` from the stack, searching from the top: releases are almost
// always LIFO, but unique_lock-style early unlocks may interleave.
void Remove(const void* mu) {
  ThreadState& st = tl_state;
  for (int i = st.depth - 1; i >= 0; --i) {
    if (st.held[i].mutex == mu) {
      for (int j = i; j + 1 < st.depth; ++j) st.held[j] = st.held[j + 1];
      --st.depth;
      return;
    }
  }
  // Unlock of a lock this checker never saw locked (e.g. adopted from
  // outside). Nothing to do — the checker only tracks its own pushes.
}

}  // namespace

const char* RankName(int rank) {
  switch (static_cast<Rank>(rank)) {
    case Rank::kUnranked:
      return "(unranked)";
    case Rank::kWatchdog:
      return "watchdog";
    case Rank::kScanService:
      return "scan-service";
    case Rank::kEngine:
      return "engine";
    case Rank::kCjoinStage:
      return "cjoin-stage";
    case Rank::kVolcano:
      return "volcano";
    case Rank::kThreadPool:
      return "thread-pool";
    case Rank::kCjoinPipeline:
      return "cjoin-pipeline";
    case Rank::kSpRegistry:
      return "sp-registry";
    case Rank::kQueryLifecycle:
      return "query-lifecycle";
    case Rank::kQueryOutput:
      return "query-output";
    case Rank::kTeeSink:
      return "tee-sink";
    case Rank::kChannel:
      return "channel";
    case Rank::kBatchQueue:
      return "batch-queue";
    case Rank::kTimerQueue:
      return "timer-queue";
    case Rank::kBufferPool:
      return "buffer-pool";
    case Rank::kStorageDevice:
      return "storage-device";
    case Rank::kFaultInjector:
      return "fault-injector";
    case Rank::kLeaf:
      return "leaf";
  }
  return "(unknown)";
}

ViolationHandler SetViolationHandlerForTest(ViolationHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

void OnAcquire(const void* mu, int rank) { Push(mu, rank, /*ordered=*/true); }

void OnTryAcquire(const void* mu, int rank) {
  Push(mu, rank, /*ordered=*/false);
}

void OnRelease(const void* mu) { Remove(mu); }

void BeginWait(const void* mu) { Remove(mu); }

void EndWait(const void* mu, int rank) { Push(mu, rank, /*ordered=*/true); }

int HeldDepthForTest() { return tl_state.depth; }

}  // namespace sdw::lock_rank
