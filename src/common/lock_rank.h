// Runtime lock-rank (lock-order) checking.
//
// Clang Thread Safety Analysis (thread_annotations.h) proves per-function
// discipline — "this field needs that mutex" — but its analysis is local: it
// cannot see that the SP-registry lock and the CJOIN pipeline mutex are
// taken in opposite orders on two different cancel paths. This checker can.
// Every ranked sdw::Mutex carries a Rank from the engine-wide hierarchy
// below; each thread keeps a stack of the ranks it currently holds, and an
// acquisition whose rank is not strictly greater than every ranked lock
// already held aborts with both the held-lock stack and a backtrace.
//
// The checker is compiled into sdw::Mutex only when SDW_LOCK_RANK_CHECKS is
// 1 (CMake option SDW_LOCK_RANK, default ON except Release builds); with it
// off, sdw::Mutex is layout-identical to std::mutex (static_assert'd).
//
// The rank table IS the documented hierarchy — docs/CONCURRENCY.md explains
// each edge. Gaps between values are deliberate: future subsystems slot in
// without renumbering.

#ifndef SDW_COMMON_LOCK_RANK_H_
#define SDW_COMMON_LOCK_RANK_H_

namespace sdw::lock_rank {

/// The engine-wide lock hierarchy: a thread may only acquire a ranked mutex
/// whose rank is STRICTLY GREATER than every ranked mutex it already holds.
/// kUnranked mutexes (the default) are exempt from ordering (but not from
/// recursion detection) — external/test mutexes stay out of the hierarchy.
enum class Rank : int {
  kUnranked = 0,
  /// StallWatchdog state (held while sampling engine progress counters).
  kWatchdog = 10,
  /// CircularScanService state (scan I/O and channel puts happen outside).
  kScanService = 15,
  /// Engine client-facing locks: QpipeEngine active-set/counters,
  /// CjoinStage staged-submission buffer, Volcano thread registry.
  kEngine = 20,
  kCjoinStage = 22,
  kVolcano = 24,
  /// ThreadPool queue lock; dynamic-priority providers run under it and
  /// read the SP registry (kSpRegistry), so it ranks below the registry.
  kThreadPool = 30,
  /// CJOIN pipeline admission/slot state; completion paths reach the
  /// registry, query lifecycles, per-query output locks and channels.
  kCjoinPipeline = 40,
  /// SpRegistry host table; TryAttach reaches exchanges (tee/channel).
  kSpRegistry = 50,
  /// QueryLifecycle status/metrics (hooks always fire outside it).
  kQueryLifecycle = 60,
  /// Per-query output buffer lock (CJOIN out_mu); page-full emission
  /// reaches the query's sink channel while holding it.
  kQueryOutput = 70,
  /// TeeSink fan-out lock; Put forwards into satellite FIFOs under it.
  kTeeSink = 75,
  /// Page channels: SharedPagesList and FifoBuffer.
  kChannel = 80,
  /// BatchQueue ring between CJOIN pipeline stages.
  kBatchQueue = 90,
  /// TimerQueue (finish hooks cancel deadline timers while holding
  /// pipeline-level locks).
  kTimerQueue = 100,
  /// BufferPool replacement state (misses read the device while unlocked).
  kBufferPool = 110,
  /// StorageDevice cache/latency model.
  kStorageDevice = 120,
  /// FaultInjector site table (Check() sites run under device locks).
  kFaultInjector = 130,
  /// Terminal locks that never acquire anything: BatchPool free list,
  /// CircularScanMap table, harness tallies, SharedAggregator registry.
  kLeaf = 140,
};

/// Human-readable name for a rank value (diagnostics).
const char* RankName(int rank);

/// Everything known at the moment a discipline violation is detected.
struct Violation {
  enum class Kind {
    kOrder,      // acquired rank <= a ranked lock already held
    kRecursion,  // re-acquired a mutex this thread already holds
    kOverflow,   // more than kMaxHeld locks held at once
  };
  struct Held {
    const void* mutex;
    int rank;
  };
  static constexpr int kMaxHeld = 32;

  Kind kind;
  const void* mutex;  // the offending acquisition
  int rank;
  Held held[kMaxHeld];  // this thread's held stack, oldest first
  int depth;
};

/// Handler called on violation instead of the default report-and-abort.
/// The handler runs BEFORE the underlying mutex is touched and may throw to
/// unwind out of the offending Lock() — how lock_rank_test observes
/// violations without dying. Returns the previous handler; nullptr restores
/// the default.
using ViolationHandler = void (*)(const Violation&);
ViolationHandler SetViolationHandlerForTest(ViolationHandler handler);

/// Checker entry points, called by sdw::Mutex. OnAcquire/EndWait run before
/// the underlying lock() so a true inversion reports instead of deadlocking.
void OnAcquire(const void* mu, int rank);
void OnTryAcquire(const void* mu, int rank);  // after a successful try_lock
void OnRelease(const void* mu);
/// CondVar wait: the lock is released for the wait's duration, then
/// re-checked against the (possibly non-empty) remaining stack on
/// re-acquire — catching waits on a non-innermost lock.
void BeginWait(const void* mu);
void EndWait(const void* mu, int rank);

/// Current thread's held-lock count (tests).
int HeldDepthForTest();

}  // namespace sdw::lock_rank

#endif  // SDW_COMMON_LOCK_RANK_H_
