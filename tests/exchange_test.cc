// Exchange-layer tests: SPSC ring semantics, per-edge FIFO under concurrent
// producers, credit-based backpressure stall/resume, batch flush on size /
// deadline / control cut, overflow-lane FIFO on unbounded edges, and a
// migration run on the batched ThreadEngine verifying flush markers never
// cross a batch boundary out of order (exact join output with migrations
// under a tiny credit window).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/core/operator.h"
#include "src/exchange/batch_ring.h"
#include "src/exchange/exchange.h"
#include "src/net/message.h"
#include "src/runtime/thread_engine.h"

namespace ajoin {
namespace {

Envelope DataMsg(uint64_t seq, MsgType type = MsgType::kInput) {
  Envelope env;
  env.type = type;
  env.seq = seq;
  return env;
}

TupleBatch OneBatch(uint64_t seq) { return TupleBatch(DataMsg(seq)); }

// ---------------------------------------------------------------- BatchRing

TEST(BatchRing, SingleThreadFifoAndCapacity) {
  BatchRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    TupleBatch b = OneBatch(i);
    EXPECT_TRUE(ring.TryPush(b));
  }
  TupleBatch full = OneBatch(99);
  EXPECT_FALSE(ring.TryPush(full));
  EXPECT_EQ(full.size(), 1u);  // failed push must not consume the batch
  TupleBatch out;
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out.items[0].seq, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_TRUE(ring.TryPush(full));  // credits returned after pops
}

TEST(BatchRing, SpscStressFifo) {
  BatchRing ring(8);
  constexpr uint64_t kN = 20000;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kN; ++i) {
      TupleBatch b = OneBatch(i);
      while (!ring.TryPush(b)) std::this_thread::yield();
    }
  });
  uint64_t expect = 0;
  TupleBatch out;
  while (expect < kN) {
    if (ring.TryPop(&out)) {
      ASSERT_EQ(out.items[0].seq, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

// ------------------------------------------------------------ ExchangePlane

// Plane-level FIFO with several concurrent producers fanning into one
// consumer, mixing bounded (external) and unbounded (task id >= consumer)
// edges. Per-edge order must hold; cross-edge order is unspecified.
TEST(ExchangePlane, PerEdgeFifoUnderConcurrentProducers) {
  ExchangeConfig config;
  config.batch_size = 4;
  config.ring_slots = 4;
  const size_t kTasks = 4;  // consumer 0; producers 1..3 plus external
  ExchangePlane plane(kTasks, config);

  constexpr uint64_t kPerProducer = 5000;
  const size_t producers[] = {1, 2, 3, plane.external_producer()};
  std::vector<std::thread> threads;
  for (size_t p : producers) {
    threads.emplace_back([&plane, p] {
      ExchangePlane::Outbox* outbox = plane.outbox(p);
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        Envelope env = DataMsg(i);
        env.from = static_cast<int32_t>(p);
        outbox->Send(0, std::move(env));
      }
      outbox->FlushAll();
    });
  }

  std::vector<uint64_t> next_seq(plane.external_producer() + 1, 0);
  uint64_t received = 0;
  size_t cursor = 0;
  TupleBatch batch;
  while (received < kPerProducer * 4) {
    if (!plane.PopAny(0, &cursor, &batch)) {
      std::this_thread::yield();
      continue;
    }
    for (const Envelope& env : batch.items) {
      const size_t p = static_cast<size_t>(env.from);
      ASSERT_EQ(env.seq, next_seq[p]) << "producer " << p;
      ++next_seq[p];
      ++received;
    }
    batch.Clear();
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(plane.PopAny(0, &cursor, &batch));
  ExchangeStatsSnapshot stats = plane.stats();
  EXPECT_EQ(stats.envelopes, kPerProducer * 4);
  EXPECT_GT(stats.avg_batch_fill, 1.0);  // batching actually happened
}

// Size flush: the batcher ships exactly at batch_size without any explicit
// flush call.
TEST(ExchangePlane, SizeFlush) {
  ExchangeConfig config;
  config.batch_size = 8;
  ExchangePlane plane(1, config);
  ExchangePlane::Outbox* outbox = plane.outbox(plane.external_producer());
  for (uint64_t i = 0; i < 8; ++i) outbox->Send(0, DataMsg(i));
  size_t cursor = 0;
  TupleBatch batch;
  ASSERT_TRUE(plane.PopAny(0, &cursor, &batch));
  EXPECT_EQ(batch.size(), 8u);
  EXPECT_FALSE(plane.PopAny(0, &cursor, &batch));
}

// Deadline flush: a partial batch ships once FlushExpired observes a time
// past its deadline, and not before.
TEST(ExchangePlane, DeadlineFlush) {
  ExchangeConfig config;
  config.batch_size = 1000;
  config.flush_deadline_us = 500;
  ExchangePlane plane(1, config);
  ExchangePlane::Outbox* outbox = plane.outbox(plane.external_producer());
  const uint64_t t0 = 1000000;
  outbox->Send(0, DataMsg(1), t0);
  outbox->Send(0, DataMsg(2), t0 + 10);
  size_t cursor = 0;
  TupleBatch batch;
  outbox->FlushExpired(t0 + 499);  // before the deadline: still buffered
  EXPECT_FALSE(plane.PopAny(0, &cursor, &batch));
  outbox->FlushExpired(t0 + 500);  // due
  ASSERT_TRUE(plane.PopAny(0, &cursor, &batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(plane.stats().deadline_flushes, 1u);
}

// Control cut: a control message flushes buffered data first and travels as
// a singleton batch, so the edge order data..., control, data... survives
// batching exactly — the invariant the migration flush markers rely on.
TEST(ExchangePlane, ControlMessageCutsBatchInOrder) {
  ExchangeConfig config;
  config.batch_size = 100;
  ExchangePlane plane(1, config);
  ExchangePlane::Outbox* outbox = plane.outbox(plane.external_producer());
  outbox->Send(0, DataMsg(1));
  outbox->Send(0, DataMsg(2));
  outbox->Send(0, DataMsg(3, MsgType::kReshufSignal));
  outbox->Send(0, DataMsg(4));
  outbox->FlushAll();

  size_t cursor = 0;
  TupleBatch batch;
  ASSERT_TRUE(plane.PopAny(0, &cursor, &batch));
  ASSERT_EQ(batch.size(), 2u);  // data before the marker
  EXPECT_EQ(batch.items[0].seq, 1u);
  EXPECT_EQ(batch.items[1].seq, 2u);
  ASSERT_TRUE(plane.PopAny(0, &cursor, &batch));
  ASSERT_EQ(batch.size(), 1u);  // the marker, alone
  EXPECT_EQ(batch.items[0].type, MsgType::kReshufSignal);
  ASSERT_TRUE(plane.PopAny(0, &cursor, &batch));
  ASSERT_EQ(batch.size(), 1u);  // data after the marker
  EXPECT_EQ(batch.items[0].seq, 4u);
  EXPECT_EQ(plane.stats().control_flushes, 1u);
}

// Unbounded edges (lateral/upstream) spill to the overflow lane instead of
// blocking, and FIFO survives the ring -> overflow -> ring transitions.
TEST(ExchangePlane, OverflowLanePreservesFifo) {
  ExchangeConfig config;
  config.batch_size = 1;
  config.ring_slots = 2;
  ExchangePlane plane(2, config);
  // Producer task 1 -> consumer 0: against id order, so never blocks.
  ExchangePlane::Outbox* outbox = plane.outbox(1);
  for (uint64_t i = 0; i < 100; ++i) outbox->Send(0, DataMsg(i));
  EXPECT_GT(plane.stats().overflow_batches, 0u);
  size_t cursor = 0;
  TupleBatch batch;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(plane.PopAny(0, &cursor, &batch));
    ASSERT_EQ(batch.items[0].seq, i);
  }
  EXPECT_FALSE(plane.PopAny(0, &cursor, &batch));
}

// --------------------------------------------- ThreadEngine (batched plane)

class CountingTask : public Task {
 public:
  void OnMessage(Envelope msg, Context& ctx) override {
    (void)msg;
    (void)ctx;
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

// A consumer that holds until released, so upstream credits run out.
class GatedTask : public Task {
 public:
  void OnMessage(Envelope msg, Context& ctx) override {
    (void)msg;
    (void)ctx;
    while (gated_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() { gated_.store(false, std::memory_order_release); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> gated_{true};
  std::atomic<uint64_t> count_{0};
};

// Backpressure: with a tiny credit window and a gated consumer, an external
// poster must stall after exhausting the edge's credits, and resume once the
// consumer drains (credits return). Everything must be delivered.
TEST(ThreadEngineBatched, BackpressureStallsAndResumes) {
  ExchangeConfig config;
  config.batch_size = 1;
  config.ring_slots = 2;
  ThreadEngine engine(config);
  auto* gated = new GatedTask();
  engine.AddTask(std::unique_ptr<Task>(gated));
  engine.Start();

  constexpr uint64_t kTotal = 200;
  std::atomic<uint64_t> posted{0};
  std::thread poster([&engine, &posted] {
    std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
    for (uint64_t i = 0; i < kTotal; ++i) {
      ASSERT_TRUE(port->Post(DataMsg(i)));
      posted.fetch_add(1, std::memory_order_relaxed);
    }
    port->Flush();
  });
  // The poster must hit the credit wall: 2 ring slots + 1 being "processed"
  // (held inside the gated OnMessage). Give it ample time to prove a stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t stalled_at = posted.load(std::memory_order_relaxed);
  EXPECT_LT(stalled_at, kTotal);
  EXPECT_LE(stalled_at, config.ring_slots + 2u);

  gated->Release();
  poster.join();  // resumes once credits flow back
  engine.WaitQuiescent();
  EXPECT_EQ(gated->count(), kTotal);
  EXPECT_GT(engine.exchange_stats().credit_waits, 0u);
  engine.Shutdown();
}

// Quiescence must cover envelopes still buffered in the ingress batcher: a
// partial batch (below batch_size, before any deadline) still gets flushed
// and delivered by WaitQuiescent.
TEST(ThreadEngineBatched, QuiescenceFlushesBufferedIngress) {
  ExchangeConfig config;
  config.batch_size = 1000;
  config.flush_deadline_us = 60ull * 1000 * 1000;  // effectively never
  ThreadEngine engine(config);
  auto* sink = new CountingTask();
  engine.AddTask(std::unique_ptr<Task>(sink));
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  for (uint64_t i = 0; i < 7; ++i) ASSERT_TRUE(port->Post(DataMsg(i)));
  // No explicit Flush: the quiescence port sweep must ship the partial
  // batch.
  engine.WaitQuiescent();
  EXPECT_EQ(sink->count(), 7u);
  engine.Shutdown();
}

// Deadline flush end to end: with a huge batch_size, later Posts past the
// deadline push the earlier partial batch out without any quiescent point.
// (The ingress sweeps its deadline every 8 posts-with-backlog, so post a
// full sweep window after the sleep.)
TEST(ThreadEngineBatched, DeadlineFlushDeliversPartialBatch) {
  ExchangeConfig config;
  config.batch_size = 1000;
  config.flush_deadline_us = 1000;  // 1 ms
  ThreadEngine engine(config);
  auto* sink = new CountingTask();
  engine.AddTask(std::unique_ptr<Task>(sink));
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(port->Post(DataMsg(i)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (uint64_t i = 5; i < 13; ++i) ASSERT_TRUE(port->Post(DataMsg(i)));
  // Everything posted before the sleep must arrive without WaitQuiescent;
  // poll briefly.
  for (int spin = 0; spin < 2000 && sink->count() < 5u; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_GE(sink->count(), 5u);
  EXPECT_GT(engine.exchange_stats().deadline_flushes, 0u);
  engine.WaitQuiescent();
  engine.Shutdown();
}

// Migration protocol on the batched plane under a tiny credit window and
// tiny batches: flush markers (kReshufSignal / kMigEnd) must keep their FIFO
// position relative to batched data on every edge — any marker crossing a
// batch boundary out of order would corrupt the migration scopes and show up
// as missing or duplicated join results.
TEST(ThreadEngineBatched, MigrationMarkersStayOrderedUnderBatching) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  Rng rng(91);
  std::vector<StreamTuple> stream;
  for (int i = 0; i < 2500; ++i) {
    StreamTuple t;
    t.rel = rng.NextBool(0.25) ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(24));
    t.bytes = 16;
    stream.push_back(t);
  }
  // Reference join.
  std::vector<std::pair<uint64_t, uint64_t>> want;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (stream[i].rel != Rel::kR) continue;
    for (uint64_t j = 0; j < stream.size(); ++j) {
      if (stream[j].rel == Rel::kS && stream[j].key == stream[i].key) {
        want.emplace_back(i, j);
      }
    }
  }
  std::sort(want.begin(), want.end());

  ExchangeConfig config;
  config.batch_size = 3;
  config.ring_slots = 2;
  config.flush_deadline_us = 100;
  ThreadEngine engine(config);
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 8;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;  // aggressive: many migrations concurrent with input
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;
  JoinOperator op(engine, cfg);
  engine.Start();
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.CollectPairs(), want);
  ASSERT_NE(op.controller(), nullptr);
  EXPECT_GE(op.controller()->log().size(), 1u);
  ExchangeStatsSnapshot stats = engine.exchange_stats();
  EXPECT_GT(stats.control_flushes, 0u);  // markers actually cut batches
  engine.Shutdown();
}

}  // namespace
}  // namespace ajoin
