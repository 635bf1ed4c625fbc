// Tests for the src/check interleaving model checker, in two tiers:
//
//  * ModelCheckHarness — the checker itself (scheduler, weak-memory model,
//    race detector, deadlock detector, PCT seed determinism). These run in
//    every build: the harness is always compiled.
//  * ModelCheckCores — the instrumented lock-free cores (BatchRing,
//    SeqlockCell, TraceRing, the exchange credit ledger, the worker pool's
//    RunState word), including the seeded-mutation "teeth" checks. These need -DAJOIN_MODELCHECK (the CI
//    modelcheck job); elsewhere they skip.

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/invariants.h"
#include "src/check/model.h"

#ifdef AJOIN_MODELCHECK
#include "src/common/trace_ring.h"
#include "src/exchange/batch_ring.h"
#include "src/exchange/exchange.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/run_state.h"
#endif

namespace ajoin {
namespace {

using check::ExploreOptions;
using check::ExploreResult;

ExploreOptions Exhaustive(uint64_t max_executions = 60000) {
  ExploreOptions o;
  o.mode = ExploreOptions::Mode::kExhaustive;
  o.max_executions = max_executions;
  return o;
}

ExploreOptions Pct(uint64_t executions, uint64_t seed = 1) {
  ExploreOptions o;
  o.mode = ExploreOptions::Mode::kPct;
  o.executions = executions;
  o.seed = seed;
  return o;
}

// ---------------------------------------------------------------- harness --

// Two threads plain-write the same location with no synchronization at all:
// the race detector must flag it.
TEST(ModelCheckHarness, CatchesUnsynchronizedPlainWrites) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static int shared;
    check::Spawn([] {
      check::PlainWrite(&shared, "writer A");
      shared = 1;
    });
    check::Spawn([] {
      check::PlainWrite(&shared, "writer B");
      shared = 2;
    });
  });
  ASSERT_TRUE(res.failed) << "unsynchronized writes not flagged";
  EXPECT_NE(res.message.find("data race"), std::string::npos) << res.message;
  EXPECT_FALSE(res.schedule.empty());
}

// Model-test scaffolding: each execution gets FRESH objects (a static
// object would carry its final value into the next execution's initial
// state). An aborted (failing/capped) execution never reaches its trailing
// delete, so each body starts by reclaiming the previous allocation — by
// then every worker of the previous execution has been joined — and the
// static pointer keeps the final one reachable for LeakSanitizer.
struct MsgPassState {
  check::ModelAtomic<int> flag{0};
  int payload = 0;
};

// Classic message passing done right: payload write, release store of the
// flag, acquire load, payload read. Exhaustive search must find nothing.
TEST(ModelCheckHarness, ReleaseAcquireMessagePassingIsClean) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static MsgPassState* st;
    delete st;  // reclaim an aborted execution's leftovers
    st = new MsgPassState();
    check::Spawn([] {
      check::PlainWrite(&st->payload, "payload write");
      st->payload = 42;
      st->flag.store(1, std::memory_order_release);
    });
    check::Spawn([] {
      while (st->flag.load(std::memory_order_acquire) == 0) {
        check::BlockedPoint("flag wait");
      }
      check::PlainRead(&st->payload, "payload read");
      check::ModelAssert(st->payload == 42, "stale payload after acquire");
    });
    check::JoinAll();
    delete st;
    st = nullptr;
  });
  EXPECT_FALSE(res.failed) << res.message << " schedule "
                           << res.ScheduleString();
  EXPECT_TRUE(res.exhausted);
}

// The same protocol with a relaxed flag store is broken — the reader can see
// flag==1 while the payload write is not yet visible. Only a checker that
// models weak memory (not just interleavings) can catch this.
TEST(ModelCheckHarness, RelaxedMessagePassingIsCaught) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static MsgPassState* st;
    delete st;  // reclaim an aborted execution's leftovers
    st = new MsgPassState();
    check::Spawn([] {
      check::PlainWrite(&st->payload, "payload write");
      st->payload = 42;
      st->flag.store(1, std::memory_order_relaxed);  // bug: no release
    });
    check::Spawn([] {
      while (st->flag.load(std::memory_order_acquire) == 0) {
        check::BlockedPoint("flag wait");
      }
      check::PlainRead(&st->payload, "payload read");
    });
    check::JoinAll();
    delete st;
    st = nullptr;
  });
  ASSERT_TRUE(res.failed) << "relaxed publication not flagged";
  EXPECT_NE(res.message.find("data race"), std::string::npos) << res.message;
}

// Release-fence publication (the seqlock writer's shape) must be as good as
// a release store.
TEST(ModelCheckHarness, ReleaseFencePublicationIsClean) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static MsgPassState* st;
    delete st;  // reclaim an aborted execution's leftovers
    st = new MsgPassState();
    check::Spawn([] {
      check::PlainWrite(&st->payload, "payload write");
      st->payload = 7;
      check::Fence(std::memory_order_release);
      st->flag.store(1, std::memory_order_relaxed);
    });
    check::Spawn([] {
      while (st->flag.load(std::memory_order_relaxed) == 0) {
        check::BlockedPoint("flag wait");
      }
      check::Fence(std::memory_order_acquire);
      check::PlainRead(&st->payload, "payload read");
      check::ModelAssert(st->payload == 7,
                         "stale payload after acquire fence");
    });
    check::JoinAll();
    delete st;
    st = nullptr;
  });
  EXPECT_FALSE(res.failed) << res.message;
  EXPECT_TRUE(res.exhausted);
}

// Two threads that block on conditions nobody will ever satisfy: the
// deadlock detector must fire (and only after the freshness retry).
TEST(ModelCheckHarness, DetectsDeadlock) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static check::ModelAtomic<int>* never;
    delete never;
    never = new check::ModelAtomic<int>(0);
    check::Spawn([] {
      while (never->load(std::memory_order_acquire) == 0) {
        check::BlockedPoint("thread A wait");
      }
    });
    check::Spawn([] {
      while (never->load(std::memory_order_acquire) == 0) {
        check::BlockedPoint("thread B wait");
      }
    });
    check::JoinAll();
    delete never;
    never = nullptr;
  });
  ASSERT_TRUE(res.failed);
  EXPECT_TRUE(res.deadlock) << res.message;
  EXPECT_NE(res.message.find("deadlock"), std::string::npos) << res.message;
}

// A producer-consumer pair over a 1-deep handoff must NOT be called a
// deadlock: the consumer blocking on a stale "empty" view gets a freshness
// retry before the verdict.
TEST(ModelCheckHarness, NoFalseDeadlockOnStaleView) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static check::ModelAtomic<int>* mailbox;
    delete mailbox;
    mailbox = new check::ModelAtomic<int>(0);
    check::Spawn([] { mailbox->store(5, std::memory_order_release); });
    check::Spawn([] {
      while (mailbox->load(std::memory_order_acquire) == 0) {
        check::BlockedPoint("mailbox wait");
      }
    });
    check::JoinAll();
    delete mailbox;
    mailbox = nullptr;
  });
  EXPECT_FALSE(res.failed) << res.message;
  EXPECT_TRUE(res.exhausted);
}

// The credit-ledger lock-order assertion: an *internal* producer blocking
// against task-id order is flagged even though no schedule deadlocks here.
TEST(ModelCheckHarness, LedgerLockOrderViolationIsCaught) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    // producer 2 -> consumer 1 with 3 internal tasks: against id order.
    check::LedgerOnBlock(/*producer=*/2, /*consumer=*/1, /*num_tasks=*/3);
  });
  ASSERT_TRUE(res.failed);
  EXPECT_NE(res.message.find("lock-order"), std::string::npos) << res.message;
}

// ...but external producers and id-ordered internal producers may block.
TEST(ModelCheckHarness, LedgerAllowsOrderedAndExternalBlocking) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    check::LedgerOnBlock(/*producer=*/3, /*consumer=*/0, /*num_tasks=*/3);
    check::LedgerOnBlock(/*producer=*/0, /*consumer=*/2, /*num_tasks=*/3);
  });
  EXPECT_FALSE(res.failed) << res.message;
}

// Per-edge conservation: popping more than was pushed trips the ledger.
TEST(ModelCheckHarness, LedgerConservationViolationIsCaught) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static int edge_tag;
    check::LedgerOnPush(&edge_tag);
    check::LedgerOnPop(&edge_tag);
    check::LedgerOnPop(&edge_tag);  // one pop too many
  });
  ASSERT_TRUE(res.failed);
  EXPECT_NE(res.message.find("credit ledger"), std::string::npos)
      << res.message;
}

// Satellite: a failing PCT seed must reproduce the identical failure across
// two independent runs, both via the seed and via the recorded schedule.
TEST(ModelCheckHarness, PctSeedReplaysDeterministically) {
  const auto racy_body = [] {
    static MsgPassState* st;
    delete st;  // reclaim an aborted execution's leftovers
    st = new MsgPassState();
    check::Spawn([] {
      check::PlainWrite(&st->payload, "payload write");
      st->payload = 1;
      st->flag.store(1, std::memory_order_relaxed);  // bug: no release
    });
    check::Spawn([] {
      while (st->flag.load(std::memory_order_acquire) == 0) {
        check::BlockedPoint("flag wait");
      }
      check::PlainRead(&st->payload, "payload read");
    });
    check::JoinAll();
    delete st;
    st = nullptr;
  };
  const ExploreResult found = check::Explore(Pct(10000, /*seed=*/1), racy_body);
  ASSERT_TRUE(found.failed) << "PCT search missed a weak-memory race in "
                            << found.executions << " executions";
  ASSERT_NE(found.failing_seed, 0u);

  // Reproduce from the seed alone, twice.
  const ExploreResult rerun1 =
      check::Explore(Pct(1, found.failing_seed), racy_body);
  const ExploreResult rerun2 =
      check::Explore(Pct(1, found.failing_seed), racy_body);
  ASSERT_TRUE(rerun1.failed);
  ASSERT_TRUE(rerun2.failed);
  EXPECT_EQ(rerun1.message, found.message);
  EXPECT_EQ(rerun1.message, rerun2.message);
  EXPECT_EQ(rerun1.ScheduleString(), found.ScheduleString());
  EXPECT_EQ(rerun1.ScheduleString(), rerun2.ScheduleString());

  // And from the recorded schedule alone, twice.
  const ExploreResult replay1 = check::Replay(found.schedule, racy_body);
  const ExploreResult replay2 = check::Replay(found.schedule, racy_body);
  ASSERT_TRUE(replay1.failed);
  ASSERT_TRUE(replay2.failed);
  EXPECT_EQ(replay1.message, found.message);
  EXPECT_EQ(replay1.message, replay2.message);
  EXPECT_EQ(replay1.ScheduleString(), replay2.ScheduleString());
}

// Exhaustive mode on a clean scenario reports full coverage.
TEST(ModelCheckHarness, ExhaustiveReportsExhaustion) {
  const ExploreResult res = check::Explore(Exhaustive(), [] {
    static check::ModelAtomic<uint64_t>* counter;
    delete counter;
    counter = new check::ModelAtomic<uint64_t>(0);
    check::Spawn([] { counter->fetch_add(1, std::memory_order_acq_rel); });
    check::Spawn([] { counter->fetch_add(1, std::memory_order_acq_rel); });
    check::JoinAll();
    check::ModelAssert(counter->load(std::memory_order_acquire) == 2,
                       "lost update on fetch_add");
    delete counter;
    counter = nullptr;
  });
  EXPECT_FALSE(res.failed) << res.message;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.executions, 1u);
}

#ifdef AJOIN_MODELCHECK

// ------------------------------------------------------------------ cores --

/// Enables a seeded mutation for one test, exception-safely.
class MutationGuard {
 public:
  explicit MutationGuard(check::Mutation m) : m_(m) {
    check::SetMutation(m_, true);
  }
  ~MutationGuard() { check::SetMutation(m_, false); }

 private:
  check::Mutation m_;
};

// Each push/pop is several model ops (head load, slot write, tail publish),
// so even the exhaustive size clears the >= 4 ops/thread acceptance bound.
// The PCT runs use the larger size: random exploration is per-execution
// flat-cost, while the exhaustive state space grows ~4x per extra batch.
int g_ring_batches = 4;

// SPSC BatchRing: producer pushes g_ring_batches tagged batches through a
// 2-slot ring, consumer pops them; per-edge FIFO and payload integrity must
// hold in every interleaving and under every feasible stale read.
void BatchRingScenario() {
  static BatchRing* ring;
  delete ring;  // reclaim an aborted execution's leftovers
  ring = new BatchRing(2);
  check::Spawn([] {
    for (int i = 0; i < g_ring_batches; ++i) {
      TupleBatch b(MakeInput(Rel::kR, /*key=*/100 + i, /*bytes=*/8,
                             /*seq=*/static_cast<uint64_t>(i)));
      while (!ring->TryPush(b)) {
        check::BlockedPoint("ring push wait");
      }
    }
  });
  check::Spawn([] {
    check::FifoChecker fifo;
    for (int i = 0; i < g_ring_batches; ++i) {
      TupleBatch out;
      while (!ring->TryPop(&out)) {
        check::BlockedPoint("ring pop wait");
      }
      check::ModelAssert(out.items.size() == 1, "batch size changed in ring");
      const Envelope& env = out.items[0];
      fifo.OnReceive(env.seq);
      check::ModelAssert(env.key == 100 + static_cast<int64_t>(env.seq),
                         "payload corrupted in ring");
    }
  });
  check::JoinAll();
  delete ring;
  ring = nullptr;
}

TEST(ModelCheckCores, BatchRingSpscFifoExhaustive) {
  g_ring_batches = 3;  // ~120k executions; 4 batches would need ~500k
  const ExploreResult res =
      check::Explore(Exhaustive(/*max_executions=*/200000), BatchRingScenario);
  EXPECT_FALSE(res.failed) << res.message << " schedule "
                           << res.ScheduleString();
  EXPECT_TRUE(res.exhausted) << "budget too small: " << res.executions;
}

TEST(ModelCheckCores, BatchRingSpscFifoPct10k) {
  g_ring_batches = 4;
  const ExploreResult res =
      check::Explore(Pct(10000, /*seed=*/7), BatchRingScenario);
  EXPECT_FALSE(res.failed) << res.message << " seed " << res.failing_seed;
  EXPECT_EQ(res.executions, 10000u);
}

// Teeth: weakening TryPush's tail publish from release to relaxed must be
// caught (the consumer can then pop a slot whose fill is not ordered before
// it — a data race on the slot).
TEST(ModelCheckCores, BatchRingTailMutationCaught) {
  g_ring_batches = 3;
  MutationGuard guard(check::Mutation::kBatchRingTailRelaxed);
  const ExploreResult res = check::Explore(Exhaustive(), BatchRingScenario);
  ASSERT_TRUE(res.failed)
      << "weakened tail publish not caught in " << res.executions
      << " executions";
  EXPECT_NE(res.message.find("data race"), std::string::npos) << res.message;
}

constexpr size_t kCellWords = 3;

// Seqlock cell: one writer publishing two generations, one concurrent
// reader; every observed payload must be a published generation (no tears).
void SeqlockScenario() {
  static SeqlockCell<kCellWords>* cell;
  static check::TornReadChecker* torn;
  delete cell;
  delete torn;
  cell = new SeqlockCell<kCellWords>();
  torn = new check::TornReadChecker();
  check::Spawn([] {
    for (uint64_t g = 1; g <= 2; ++g) {
      const uint64_t words[kCellWords] = {g, g * 3, g * 7};
      torn->Published({words[0], words[1], words[2]});
      cell->Publish(words);
    }
  });
  check::Spawn([] {
    uint64_t out[kCellWords];
    cell->Read(out);
    torn->Observed(out, kCellWords);
  });
  check::JoinAll();
  delete cell;
  delete torn;
  cell = nullptr;
  torn = nullptr;
}

TEST(ModelCheckCores, SeqlockCellNoTornReadsExhaustive) {
  const ExploreResult res = check::Explore(Exhaustive(), SeqlockScenario);
  EXPECT_FALSE(res.failed) << res.message << " schedule "
                           << res.ScheduleString();
  EXPECT_TRUE(res.exhausted) << "budget too small: " << res.executions;
}

TEST(ModelCheckCores, SeqlockCellNoTornReadsPct10k) {
  const ExploreResult res =
      check::Explore(Pct(10000, /*seed=*/11), SeqlockScenario);
  EXPECT_FALSE(res.failed) << res.message << " seed " << res.failing_seed;
}

// Teeth: degrading Publish's release fence to relaxed must be caught (a
// reader overlapping the next publish can accept a torn generation mix).
TEST(ModelCheckCores, SeqlockFenceMutationCaught) {
  MutationGuard guard(check::Mutation::kSeqlockPublishRelaxedFence);
  const ExploreResult res = check::Explore(Exhaustive(), SeqlockScenario);
  ASSERT_TRUE(res.failed)
      << "weakened publish fence not caught in " << res.executions
      << " executions";
}

// TraceRing: recorder + concurrent snapshotter; every event a snapshot
// returns must be internally consistent (its payload words were recorded
// together).
void TraceRingScenario() {
  static TraceRing* trace;
  delete trace;
  trace = new TraceRing(8);
  check::Spawn([] {
    for (uint64_t i = 1; i <= 2; ++i) {
      trace->Record(TraceEventKind::kEpochChange, static_cast<int32_t>(i),
                    /*t_us=*/i * 10, /*a=*/i, /*b=*/i * 2);
    }
  });
  check::Spawn([] {
    const std::vector<TraceEvent> events = trace->Snapshot();
    for (const TraceEvent& ev : events) {
      check::ModelAssert(ev.b == ev.a * 2 && ev.t_us == ev.a * 10 &&
                             ev.task == static_cast<int32_t>(ev.a),
                         "trace ring returned a spliced event");
    }
  });
  check::JoinAll();
  delete trace;
  trace = nullptr;
}

TEST(ModelCheckCores, TraceRingSnapshotConsistentExhaustive) {
  const ExploreResult res = check::Explore(Exhaustive(), TraceRingScenario);
  EXPECT_FALSE(res.failed) << res.message << " schedule "
                           << res.ScheduleString();
  EXPECT_TRUE(res.exhausted) << "budget too small: " << res.executions;
}

// Exchange plane end-to-end under the model: an external producer shipping
// through a 2-slot bounded edge (so it takes real credit waits) while the
// consumer drains. Checks per-edge FIFO, ledger conservation, and that the
// id-order blocking assertion holds on the real blocking path.
int g_exchange_sends = 4;

void ExchangeCreditScenario() {
  static ExchangePlane* plane;
  delete plane;
  ExchangeConfig config;
  config.batch_size = 1;
  config.ring_slots = 2;
  plane = new ExchangePlane(/*num_tasks=*/1, config);
  check::Spawn([] {
    ExchangePlane::Outbox* outbox =
        plane->outbox(plane->external_producer());
    for (uint64_t i = 0; i < static_cast<uint64_t>(g_exchange_sends); ++i) {
      outbox->Send(0, MakeInput(Rel::kS, /*key=*/static_cast<int64_t>(i),
                                /*bytes=*/16, /*seq=*/i));
    }
  });
  check::Spawn([] {
    check::FifoChecker fifo;
    size_t cursor = 0;
    for (int got = 0; got < g_exchange_sends;) {
      TupleBatch out;
      if (!plane->PopAny(0, &cursor, &out)) {
        check::BlockedPoint("drain wait");
        continue;
      }
      got++;
      check::ModelAssert(out.items.size() == 1, "batch size changed");
      fifo.OnReceive(out.items[0].seq);
    }
    const check::LedgerTotals totals = check::LedgerCounts();
    const uint64_t want = static_cast<uint64_t>(g_exchange_sends);
    check::ModelAssert(totals.pushes == want && totals.pops == want,
                       "ledger totals do not conserve batches");
  });
  check::JoinAll();
  delete plane;
  plane = nullptr;
}

TEST(ModelCheckCores, ExchangeCreditLedgerExhaustive) {
  g_exchange_sends = 3;  // the exchange path is several atomics per hop
  const ExploreResult res =
      check::Explore(Exhaustive(/*max_executions=*/400000),
                     ExchangeCreditScenario);
  EXPECT_FALSE(res.failed) << res.message << " schedule "
                           << res.ScheduleString();
  EXPECT_TRUE(res.exhausted) << "budget too small: " << res.executions;
}

TEST(ModelCheckCores, ExchangeCreditLedgerPct) {
  g_exchange_sends = 4;
  const ExploreResult res =
      check::Explore(Pct(2000, /*seed=*/23), ExchangeCreditScenario);
  EXPECT_FALSE(res.failed) << res.message << " seed " << res.failing_seed;
}

// RunState: one task whose inbox is a BatchRing, and three parties — a
// producer that pushes two batches and marks the task ready after each
// (counting a run-queue entry when MarkReady says it was idle), a pool
// worker that pops one run-queue entry and runs the task if its Claim
// wins, and a helper that claims the queued task directly. A run drains
// the inbox, then tries to go idle, draining again when notified. The
// body then plays a last worker that pops every entry left. At most one
// runner may hold the task (a counter, plus the race detector on the plain
// task state), and no batch may be left stranded in the inbox of an idle
// task: after the last worker, both batches must have been drained.
struct RunStateModel {
  RunState state;
  BatchRing inbox{2};
  check::ModelAtomic<uint32_t> queue_entries{0};
  check::ModelAtomic<uint32_t> queue_pops{0};
  check::ModelAtomic<uint32_t> runners{0};
  uint64_t drained = 0;  // plain task state
};
RunStateModel* g_run;
constexpr uint64_t kRunBatches = 2;

void EnterRun() {
  check::ModelAssert(g_run->runners.fetch_add(1, std::memory_order_acq_rel) == 0,
                     "two runners hold one task");
}

void RunClaimedTask() {
  EnterRun();
  while (true) {
    TupleBatch out;
    while (g_run->inbox.TryPop(&out)) {
      check::PlainWrite(&g_run->drained, "task state");
      ++g_run->drained;
    }
    g_run->runners.fetch_sub(1, std::memory_order_acq_rel);
    if (g_run->state.TryIdle()) return;
    EnterRun();
  }
}

void PopRunQueueEntry() {
  g_run->queue_pops.fetch_add(1, std::memory_order_acq_rel);
  if (g_run->state.Claim()) RunClaimedTask();
}

void RunStateScenario() {
  delete g_run;  // reclaim an aborted execution's leftovers
  g_run = new RunStateModel();
  check::Spawn([] {  // producer
    for (uint64_t i = 0; i < kRunBatches; ++i) {
      TupleBatch b(MakeInput(Rel::kR, /*key=*/static_cast<int64_t>(i),
                             /*bytes=*/8, /*seq=*/i));
      while (!g_run->inbox.TryPush(b)) check::BlockedPoint("credit wait");
      if (g_run->state.MarkReady()) {
        g_run->queue_entries.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });
  check::Spawn([] {  // pool worker
    while (g_run->queue_entries.load(std::memory_order_acquire) == 0) {
      check::BlockedPoint("run queue empty");
    }
    PopRunQueueEntry();
  });
  check::Spawn([] {  // helper
    if (g_run->state.Claim()) RunClaimedTask();
  });
  check::JoinAll();
  while (g_run->queue_pops.load(std::memory_order_acquire) <
         g_run->queue_entries.load(std::memory_order_acquire)) {
    PopRunQueueEntry();
  }
  check::ModelAssert(g_run->drained == kRunBatches,
                     "batch stranded in the inbox of an idle task");
  delete g_run;
  g_run = nullptr;
}

TEST(ModelCheckCores, RunStateOneRunnerNoStrandedBatchExhaustive) {
  const ExploreResult res = check::Explore(
      Exhaustive(/*max_executions=*/400000), RunStateScenario);
  EXPECT_FALSE(res.failed) << res.message << " schedule "
                           << res.ScheduleString();
  EXPECT_TRUE(res.exhausted) << "budget too small: " << res.executions;
}

// Teeth: an idle transition that ignores the notified bit drops the mark of
// a batch pushed while the runner was between its last pop and TryIdle —
// the task goes idle with that batch in its inbox and no run-queue entry.
TEST(ModelCheckCores, RunStateIdleMutationCaught) {
  MutationGuard guard(check::Mutation::kRunStateIdleIgnoresNotified);
  const ExploreResult res = check::Explore(
      Exhaustive(/*max_executions=*/400000), RunStateScenario);
  ASSERT_TRUE(res.failed) << "idle transition ignoring the notified bit not "
                             "caught in "
                          << res.executions << " executions";
  EXPECT_NE(res.message.find("stranded"), std::string::npos) << res.message;
}

#else  // !AJOIN_MODELCHECK

TEST(ModelCheckCores, RequiresModelcheckBuild) {
  GTEST_SKIP() << "core integration tests need -DAJOIN_MODELCHECK=ON "
                  "(see the CI modelcheck job)";
}

#endif  // AJOIN_MODELCHECK

}  // namespace
}  // namespace ajoin
