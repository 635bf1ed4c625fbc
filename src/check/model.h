// Deterministic interleaving model checker (loom/CHESS-style) for the
// engine's hand-rolled lock-free cores: BatchRing, the exchange credit
// accounting, SeqlockCell, and TraceRing.
//
// A test wraps its concurrent scenario in a *body* callback and hands it to
// Explore(). The body spawns a small number of *virtual threads* (real
// std::threads gated on a cooperative token so exactly one runs at a time)
// and the scheduler re-runs the body under many interleavings:
//
//  * kExhaustive — depth-first enumeration of every schedule with at most
//    `preemption_bound` preemptive context switches (CHESS-style bounding:
//    almost all real concurrency bugs manifest with <= 2 preemptions), plus
//    every feasible *stale read* a weak memory model permits (see below).
//  * kPct — randomized priority-based exploration (PCT): each execution
//    draws per-thread priorities and `pct_depth` priority-change points from
//    a per-execution seed, so a failing execution is reproducible from its
//    reported seed alone.
//
// Instrumented code (built with -DAJOIN_MODELCHECK, see src/check/sched.h)
// routes its atomics through ModelAtomic, which simulates the C11 memory
// model: every atomic location keeps its store history with vector-clock
// release metadata, and a load may return any *stale* value that
// happens-before/coherence rules permit — so weakening a single
// memory_order from release to relaxed genuinely produces new observable
// behaviors, unlike plain interleaving (where every run is sequentially
// consistent) or TSan (which only sees schedules the OS happens to produce).
// Plain (non-atomic) accesses register with a vector-clock race detector.
// seq_cst is approximated as acquire+release with latest-value reads (no
// global SC order is modeled); mutexes are not modeled — the instrumented
// cores are lock-free on their hot paths.
//
// Failure modes the checker reports, each with a replayable schedule:
// assertion failures (ModelAssert), data races on plain accesses, deadlock
// (every live virtual thread blocked), and lock-order violations in the
// exchange credit ledger (a blocking credit wait against task-id order).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ajoin::check {

/// Exploration strategy and budgets for Explore().
struct ExploreOptions {
  /// Search strategy (see file header).
  enum class Mode { kExhaustive, kPct };

  /// Which search strategy to run.
  Mode mode = Mode::kExhaustive;

  /// kExhaustive: maximum preemptive context switches per execution.
  int preemption_bound = 2;

  /// kExhaustive: stop after this many executions even if the bounded
  /// schedule space is not exhausted (a budget, not a target).
  uint64_t max_executions = 60000;

  /// kPct: number of randomized executions to run.
  uint64_t executions = 10000;

  /// kPct: base seed; execution i runs with seed `seed + i`, so a failure's
  /// reported seed alone reproduces it (executions=1, seed=failing_seed).
  uint64_t seed = 1;

  /// kPct: number of priority-change points per execution.
  int pct_depth = 3;

  /// Maximum *stale* atomic reads per execution (delay bounding, the
  /// weak-memory analogue of preemption bounding: a missing release/acquire
  /// edge manifests with one well-placed stale read, and unbounded
  /// staleness makes exhaustive search explode combinatorially). Applies in
  /// every mode so recorded schedules replay identically.
  int stale_bound = 2;

  /// Per-execution step cap (livelock guard). A capped execution counts as
  /// explored-but-pruned, not as a failure.
  uint64_t max_steps = 50000;
};

/// Outcome of an Explore()/Replay() run. When `failed` is set, `schedule`
/// holds the exact choice trace of the failing execution (feed it to
/// Replay()) and, under kPct, `failing_seed` reproduces it from scratch.
struct ExploreResult {
  /// True if any execution failed an assertion, raced, or deadlocked.
  bool failed = false;
  /// True if the failure was a deadlock (all live virtual threads blocked).
  bool deadlock = false;
  /// Human-readable description of the failure (empty when !failed).
  std::string message;
  /// Executions actually run.
  uint64_t executions = 0;
  /// True when kExhaustive enumerated the entire bounded schedule space
  /// within max_executions.
  bool exhausted = false;
  /// kPct: the per-execution seed of the failing execution.
  uint64_t failing_seed = 0;
  /// Choice trace of the failing execution; replayable via Replay().
  std::vector<uint32_t> schedule;
  /// Executions cut short by the max_steps livelock guard.
  uint64_t step_capped = 0;

  /// Compact dotted form of `schedule` for log lines and bug reports.
  std::string ScheduleString() const;
};

/// Runs `body` under many interleavings per `options`. Returns after the
/// first failing execution (with its schedule recorded) or when the
/// search budget is exhausted. Not reentrant: one exploration at a time per
/// process, and `body` must not call Explore/Replay itself.
ExploreResult Explore(const ExploreOptions& options,
                      const std::function<void()>& body);

/// Re-executes `body` following a recorded choice trace (from
/// ExploreResult::schedule) and returns that single execution's result.
/// With the same body and trace, the execution is bit-for-bit identical.
ExploreResult Replay(const std::vector<uint32_t>& schedule,
                     const std::function<void()>& body);

/// Spawns a virtual thread running `fn`. Only callable from inside an
/// Explore/Replay body; at most 7 spawned threads (8 including the body).
void Spawn(std::function<void()> fn);

/// Blocks the body thread until every spawned virtual thread finished, and
/// establishes happens-before from their final operations. Explore calls it
/// implicitly when the body returns.
void JoinAll();

/// True while the calling thread is a virtual thread of an active model
/// execution (instrumentation routes through the model exactly then).
bool InModel();

/// Model-checked assertion. In a model execution a failure records
/// `message` plus the schedule and aborts the execution; outside it prints
/// and aborts the process (so invariant helpers can be reused in plain
/// tests).
void ModelAssert(bool ok, const std::string& message);

/// A pure scheduling point: lets the scheduler preempt here. No-op outside
/// a model execution.
void SchedulePoint(const char* what);

/// A blocking scheduling point: marks the calling virtual thread blocked
/// (deadlock candidate) and yields; the thread becomes runnable again after
/// any other thread writes or finishes. Callers loop: `while (!cond)
/// BlockedPoint("...")`. No-op outside a model execution.
void BlockedPoint(const char* what);

/// Registers a plain (non-atomic) write to `addr` with the race detector.
/// No-op outside a model execution.
void PlainWrite(const void* addr, const char* what);

/// Registers a plain (non-atomic) read of `addr` with the race detector.
/// No-op outside a model execution.
void PlainRead(const void* addr, const char* what);

// ---------------------------------------------------------------- mutations

/// Seeded protocol weakenings ("teeth" checks): each names one fence /
/// memory_order an instrumented core deliberately weakens when the mutation
/// is enabled, so tests can prove the checker catches the resulting bug.
/// Only honored in AJOIN_MODELCHECK builds (production builds compile the
/// pristine orderings unconditionally).
enum class Mutation : uint32_t {
  /// BatchRing::TryPush publishes tail_ with relaxed instead of release.
  kBatchRingTailRelaxed = 0,
  /// SeqlockCell::Publish's release fence degrades to relaxed (a no-op).
  kSeqlockPublishRelaxedFence = 1,
  /// RunState::TryIdle stores idle without checking the notified bit.
  kRunStateIdleIgnoresNotified = 2,
};

/// Enables/disables a seeded mutation (test setup only; not thread-safe
/// against concurrent model executions).
void SetMutation(Mutation m, bool enabled);

/// True if the mutation is currently enabled.
bool MutationEnabled(Mutation m);

/// Returns `strong` normally, or memory_order_relaxed when `m` is enabled —
/// the hook instrumented cores weaken their orderings through.
std::memory_order MaybeWeaken(Mutation m, std::memory_order strong);

// ---------------------------------------- exchange credit-ledger assertions

/// Records a successful push onto an exchange edge (model executions only).
/// Keys the per-edge ledger by the edge's address.
void LedgerOnPush(const void* edge);

/// Records a successful pop from an exchange edge and asserts per-edge
/// conservation: pops never exceed pushes (non-negative ring occupancy).
void LedgerOnPop(const void* edge);

/// Records a producer entering a blocking credit wait and asserts the
/// task-id lock order that makes credit blocking deadlock-free: only
/// external producers (id >= num_tasks) or producers with id < consumer may
/// block.
void LedgerOnBlock(int producer, int consumer, size_t num_tasks);

/// Cross-edge ledger totals for end-of-test conservation asserts.
struct LedgerTotals {
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t blocks = 0;
};

/// Current totals across all edges of the running model execution (zeros
/// outside one).
LedgerTotals LedgerCounts();

// ------------------------------------------------------------- ModelAtomic

namespace detail {
// Internal model hooks ModelAtomic routes through; implemented in model.cc.
// `loc` identifies the atomic by address; `fallback` seeds the location's
// initial-value history record on first contact.
uint64_t MLoad(const void* loc, uint64_t fallback, std::memory_order mo);
void MStore(const void* loc, uint64_t fallback, uint64_t value,
            std::memory_order mo);
uint64_t MRmw(const void* loc, uint64_t fallback, std::memory_order mo,
              const std::function<uint64_t(uint64_t)>& op);
bool MCas(const void* loc, uint64_t fallback, uint64_t expected,
          uint64_t desired, std::memory_order mo, uint64_t* actual);
void MFence(std::memory_order mo);
}  // namespace detail

/// Issues a memory fence: modeled inside a model execution, a real
/// std::atomic_thread_fence outside one.
inline void Fence(std::memory_order mo) {
  if (InModel()) {
    detail::MFence(mo);
  } else {
    std::atomic_thread_fence(mo);
  }
}

/// Drop-in std::atomic<T> replacement for instrumented cores (T must fit in
/// a uint64_t word: the integral/bool counters and indexes the lock-free
/// cores use). Outside a model execution it forwards to a real
/// std::atomic<T>; inside one, operations go through the model's
/// store-history + vector-clock machinery, so loads can observe any
/// weak-memory-feasible (possibly stale) value. The real atomic is kept
/// coherent as a fallback mirror for non-modeled phases of the same run.
template <typename T>
class ModelAtomic {
 public:
  ModelAtomic() noexcept = default;
  /// Seeds the fallback mirror; model history starts from this value.
  constexpr ModelAtomic(T v) noexcept : real_(v) {}  // NOLINT(google-explicit-constructor): mirrors std::atomic

  ModelAtomic(const ModelAtomic&) = delete;
  ModelAtomic& operator=(const ModelAtomic&) = delete;

  /// Atomic load with explicit ordering (as std::atomic, but the order is
  /// mandatory — the concurrency lint rejects defaulted orders).
  T load(std::memory_order mo) const {
    if (!InModel()) return real_.load(mo);
    return static_cast<T>(detail::MLoad(this, AsWord(real_.load(std::memory_order_relaxed)), mo));
  }

  /// Atomic store with explicit ordering.
  void store(T v, std::memory_order mo) {
    if (!InModel()) {
      real_.store(v, mo);
      return;
    }
    detail::MStore(this, AsWord(real_.load(std::memory_order_relaxed)),
                   AsWord(v), mo);
    real_.store(v, std::memory_order_relaxed);
  }

  /// Atomic fetch-add returning the previous value.
  T fetch_add(T d, std::memory_order mo) {
    if (!InModel()) return real_.fetch_add(d, mo);
    const uint64_t old = detail::MRmw(
        this, AsWord(real_.load(std::memory_order_relaxed)), mo,
        [&](uint64_t v) { return AsWord(static_cast<T>(FromWord(v) + d)); });
    real_.store(static_cast<T>(static_cast<T>(old) + d),
                std::memory_order_relaxed);
    return static_cast<T>(old);
  }

  /// Atomic fetch-sub returning the previous value.
  T fetch_sub(T d, std::memory_order mo) {
    if (!InModel()) return real_.fetch_sub(d, mo);
    const uint64_t old = detail::MRmw(
        this, AsWord(real_.load(std::memory_order_relaxed)), mo,
        [&](uint64_t v) { return AsWord(static_cast<T>(FromWord(v) - d)); });
    real_.store(static_cast<T>(static_cast<T>(old) - d),
                std::memory_order_relaxed);
    return static_cast<T>(old);
  }

  /// Atomic fetch-or returning the previous value.
  T fetch_or(T bits, std::memory_order mo) {
    if (!InModel()) return real_.fetch_or(bits, mo);
    const uint64_t old = detail::MRmw(
        this, AsWord(real_.load(std::memory_order_relaxed)), mo,
        [&](uint64_t v) { return AsWord(static_cast<T>(FromWord(v) | bits)); });
    real_.store(static_cast<T>(static_cast<T>(old) | bits),
                std::memory_order_relaxed);
    return static_cast<T>(old);
  }

  /// Atomic fetch-and returning the previous value.
  T fetch_and(T bits, std::memory_order mo) {
    if (!InModel()) return real_.fetch_and(bits, mo);
    const uint64_t old = detail::MRmw(
        this, AsWord(real_.load(std::memory_order_relaxed)), mo,
        [&](uint64_t v) { return AsWord(static_cast<T>(FromWord(v) & bits)); });
    real_.store(static_cast<T>(static_cast<T>(old) & bits),
                std::memory_order_relaxed);
    return static_cast<T>(old);
  }

  /// Strong compare-exchange (weak is mapped onto strong: the model never
  /// fails spuriously).
  bool compare_exchange_strong(T& expected, T desired, std::memory_order mo) {
    if (!InModel()) return real_.compare_exchange_strong(expected, desired, mo);
    uint64_t actual = 0;
    const bool ok = detail::MCas(
        this, AsWord(real_.load(std::memory_order_relaxed)), AsWord(expected),
        AsWord(desired), mo, &actual);
    if (ok) {
      real_.store(desired, std::memory_order_relaxed);
    } else {
      expected = static_cast<T>(actual);
    }
    return ok;
  }

  /// Weak compare-exchange; see compare_exchange_strong.
  bool compare_exchange_weak(T& expected, T desired, std::memory_order mo) {
    return compare_exchange_strong(expected, desired, mo);
  }

 private:
  static uint64_t AsWord(T v) { return static_cast<uint64_t>(v); }
  static T FromWord(uint64_t v) { return static_cast<T>(v); }

  std::atomic<T> real_{};
};

}  // namespace ajoin::check
