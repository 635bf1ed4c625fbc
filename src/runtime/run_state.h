// RunState: the one scheduling word of a task on ThreadEngine's worker
// pool. Two bits: kRunning (some worker is inside the task's slice) and
// kNotified (a producer pushed a batch the runner may not have seen yet).
//
//   idle (00) --MarkReady--> queued (01)    the marking producer enqueues it
//   queued (01) --Claim----> running (10)   a pool worker or a helper
//   running (10) --MarkReady--> running+notified (11)
//   running (10) --TryIdle--> idle (00)     inbox dry, outbox flushed
//   running+notified (11) --TryIdle--> running (10), runner drains again
//   running or running+notified --Requeue--> queued (01)  slice cap hit
//
// Guarantees:
//  * At most one runner: only Claim enters a running state, and only from
//    queued, so two parties can never both win it.
//  * No lost wakeup: a producer pushes, then MarkReady (an RMW, so it is
//    ordered against every transition of the runner). If the runner's
//    TryIdle comes first, MarkReady sees idle and the producer enqueues the
//    task; if MarkReady comes first, TryIdle sees kNotified and fails.
//  * Consecutive runs are ordered: every transition is an acq_rel RMW, so
//    the Claim that starts a run synchronizes with the TryIdle/Requeue that
//    ended the previous one (through the release sequence of any MarkReady
//    in between), even when the two runs execute on different workers.
//    Task state needs no atomics of its own.

#pragma once

#include <atomic>
#include <cstdint>

#include "src/check/sched.h"

namespace ajoin {

class RunState {
 public:
  static constexpr uint32_t kIdle = 0;
  static constexpr uint32_t kNotified = 1;  // alone: queued
  static constexpr uint32_t kRunning = 2;

  /// Producer side, after pushing a batch to this task. Returns true when
  /// the task was idle: it is now queued, and the caller must put it on a
  /// run queue. Always one RMW, even when the task is already queued or
  /// notified — a plain load could let a racing runner miss the push.
  bool MarkReady() {
    return word_.fetch_or(kNotified, std::memory_order_acq_rel) == kIdle;
  }

  /// Claims a queued task for running (a run-queue pop or a helper).
  /// False when the task is idle, running, or already claimed — a run-queue
  /// entry whose task a helper ran first is stale and simply dropped.
  bool Claim() {
    uint32_t expected = kNotified;
    return word_.compare_exchange_strong(expected, kRunning,
                                         std::memory_order_acq_rel);
  }

  /// Runner side, after the inbox ran dry and the outbox was flushed.
  /// Returns true when the task went idle. Returns false — clearing the
  /// notification — when a producer marked it since the last drain: the
  /// caller must drain again.
  bool TryIdle() {
#ifdef AJOIN_MODELCHECK
    if (check::MutationEnabled(check::Mutation::kRunStateIdleIgnoresNotified)) {
      word_.store(kIdle, std::memory_order_release);
      return true;
    }
#endif
    uint32_t expected = kRunning;
    if (word_.compare_exchange_strong(expected, kIdle,
                                      std::memory_order_acq_rel)) {
      return true;
    }
    // Only the runner leaves running+notified, so this cannot race another
    // transition; being an RMW, it reads the latest MarkReady and acquires
    // that producer's push.
    word_.fetch_and(~kNotified, std::memory_order_acq_rel);
    return false;
  }

  /// Runner side, at the slice cap: running or running+notified -> queued.
  /// The caller must put the task on a run queue.
  void Requeue() {
    uint32_t expected = kRunning;
    while (!word_.compare_exchange_strong(expected, kNotified,
                                          std::memory_order_acq_rel)) {
    }
  }

 private:
  mc::Atomic<uint32_t> word_{kIdle};
};

}  // namespace ajoin
