// Engine tests: FIFO/determinism of the simulator, quiescence and ordering
// guarantees of the threaded engine, and the IngressPort contract (per-port
// FIFO, batch delivery, post-Shutdown rejection) on both engines and both
// exchange planes.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/task.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

// Records sequence numbers; optionally forwards each message to a peer.
class RecorderTask : public Task {
 public:
  explicit RecorderTask(int forward_to = -1) : forward_to_(forward_to) {}

  void OnMessage(Envelope msg, Context& ctx) override {
    seen_.push_back(msg.seq);
    if (forward_to_ >= 0) {
      Envelope fwd = msg;
      ctx.Send(forward_to_, std::move(fwd));
    }
  }

  const std::vector<uint64_t>& seen() const { return seen_; }

 private:
  int forward_to_;
  std::vector<uint64_t> seen_;
};

// Fans a message out to two children n times (tests transitive quiescence).
class FanoutTask : public Task {
 public:
  FanoutTask(int a, int b) : a_(a), b_(b) {}
  void OnMessage(Envelope msg, Context& ctx) override {
    if (msg.seq == 0) return;
    Envelope m1 = msg;
    m1.seq = msg.seq - 1;
    Envelope m2 = msg;
    m2.seq = msg.seq - 1;
    ctx.Send(a_, std::move(m1));
    ctx.Send(b_, std::move(m2));
  }

 private:
  int a_, b_;
};

Envelope SeqMsg(uint64_t seq) {
  Envelope env;
  env.type = MsgType::kInput;
  env.seq = seq;
  return env;
}

TEST(SimEngine, FifoOrder) {
  SimEngine engine;
  auto* task = new RecorderTask();
  engine.AddTask(std::unique_ptr<Task>(task));
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(port->Post(SeqMsg(i)));
  engine.WaitQuiescent();
  ASSERT_EQ(task->seen().size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(task->seen()[i], i);
}

TEST(SimEngine, RunToCompletionInterleaving) {
  // A forwards to B; posting x then y must yield B seeing x before y, and A
  // fully processing x's cascade before y only if drained in between.
  SimEngine engine;
  auto* b = new RecorderTask();
  engine.AddTask(std::make_unique<RecorderTask>(1));  // A -> B
  engine.AddTask(std::unique_ptr<Task>(b));
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  ASSERT_TRUE(port->Post(SeqMsg(1)));
  ASSERT_TRUE(port->Post(SeqMsg(2)));
  engine.WaitQuiescent();
  EXPECT_EQ(b->seen(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(engine.dispatched(), 4u);
}

TEST(SimEngine, DeterministicDispatchCount) {
  auto run = [] {
    SimEngine engine;
    engine.AddTask(std::make_unique<FanoutTask>(1, 2));
    engine.AddTask(std::make_unique<FanoutTask>(0, 2));
    engine.AddTask(std::make_unique<RecorderTask>());
    engine.Start();
    engine.OpenIngress(0)->Post(SeqMsg(6));
    engine.WaitQuiescent();
    return engine.dispatched();
  };
  uint64_t a = run();
  EXPECT_EQ(a, run());
  EXPECT_GT(a, 10u);
}

// Both batching extremes of the threaded engine must honor the same Engine
// contract; a default-constructed ThreadEngine uses the default batch size,
// batched=false is the per-tuple reference (batch_size = 1, the
// configuration that replaced the retired mutex Channel plane).
std::unique_ptr<ThreadEngine> MakeThreadEngine(bool batched) {
  if (batched) return std::make_unique<ThreadEngine>();
  ExchangeConfig cfg;
  cfg.batch_size = 1;
  return std::make_unique<ThreadEngine>(cfg);
}

TEST(ThreadEngine, PerChannelFifo) {
  for (bool batched : {false, true}) {
    std::unique_ptr<ThreadEngine> engine = MakeThreadEngine(batched);
    auto* task = new RecorderTask();
    engine->AddTask(std::unique_ptr<Task>(task));
    engine->Start();
    std::unique_ptr<IngressPort> port = engine->OpenIngress(0);
    for (uint64_t i = 0; i < 10000; ++i) ASSERT_TRUE(port->Post(SeqMsg(i)));
    port->Flush();
    engine->WaitQuiescent();
    ASSERT_EQ(task->seen().size(), 10000u) << "batched=" << batched;
    for (uint64_t i = 0; i < 10000; ++i) ASSERT_EQ(task->seen()[i], i);
    engine->Shutdown();
  }
}

TEST(ThreadEngine, QuiescenceCoversTransitiveSends) {
  for (bool batched : {false, true}) {
    std::unique_ptr<ThreadEngine> engine = MakeThreadEngine(batched);
    auto* sink = new RecorderTask();
    engine->AddTask(std::make_unique<FanoutTask>(0, 1));  // self-recursive
    engine->AddTask(std::unique_ptr<Task>(sink));         // 1
    engine->Start();
    engine->OpenIngress(0)->Post(SeqMsg(10));
    engine->WaitQuiescent();
    // The depth-10 cascade deposits exactly 10 messages (seq 9..0) at the
    // sink; quiescence must have waited for the whole chain.
    size_t first = sink->seen().size();
    EXPECT_EQ(first, 10u) << "batched=" << batched;
    engine->WaitQuiescent();
    EXPECT_EQ(sink->seen().size(), first);
    engine->Shutdown();
  }
}

// A tiny credit window must throttle producers without deadlocking the
// fan-out (credits replaced the old global max_inflight throttle).
TEST(ThreadEngine, TinyCreditWindowDoesNotDeadlock) {
  ExchangeConfig config;
  config.batch_size = 1;
  config.ring_slots = 2;
  ThreadEngine engine(config);
  auto* sink = new RecorderTask();
  engine.AddTask(std::make_unique<FanoutTask>(1, 1));
  engine.AddTask(std::unique_ptr<Task>(sink));
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(port->Post(SeqMsg(3)));
  port->Flush();
  engine.WaitQuiescent();
  // Each post fans out to the sink twice (seq 2, non-recursive at the sink).
  EXPECT_EQ(sink->seen().size(), 4000u);
  engine.Shutdown();
}

TupleBatch SeqBatch(uint64_t first, uint64_t count) {
  TupleBatch batch;
  for (uint64_t i = 0; i < count; ++i) batch.Add(SeqMsg(first + i));
  return batch;
}

// PostBatch must unpack to the same per-tuple queue entries as per-envelope
// Post, in the same per-edge order, on the deterministic engine (same
// dispatched count — the drain_every-preservation contract).
TEST(SimEngine, IngressPortBatchMatchesPerEnvelope) {
  auto run = [](bool use_batches) {
    SimEngine engine;
    auto* task = new RecorderTask();
    engine.AddTask(std::unique_ptr<Task>(task));
    engine.Start();
    std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
    EXPECT_EQ(port->to(), 0);
    if (use_batches) {
      for (uint64_t i = 0; i < 100; i += 10) {
        EXPECT_TRUE(port->PostBatch(SeqBatch(i, 10)));
      }
    } else {
      for (uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(port->Post(SeqMsg(i)));
    }
    port->Flush();
    engine.WaitQuiescent();
    EXPECT_EQ(engine.dispatched(), 100u);
    return task->seen();
  };
  const std::vector<uint64_t> want = run(false);
  EXPECT_EQ(run(true), want);
}

// Post/PostBatch after Shutdown() must reject cleanly (return false, drop
// the message) instead of UB.
TEST(SimEngine, PostAfterShutdownRejects) {
  SimEngine engine;
  auto* task = new RecorderTask();
  engine.AddTask(std::unique_ptr<Task>(task));
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  ASSERT_TRUE(port->Post(SeqMsg(1)));
  engine.WaitQuiescent();
  engine.Shutdown();
  EXPECT_FALSE(port->Post(SeqMsg(2)));
  EXPECT_FALSE(port->PostBatch(SeqBatch(3, 4)));
  EXPECT_FALSE(port->PostBatch(TupleBatch{}));
  EXPECT_EQ(port->stats().rejected_posts, 3u);
  engine.WaitQuiescent();
  EXPECT_EQ(task->seen(), (std::vector<uint64_t>{1}));
}

// Same per-edge FIFO guarantee through a port as through Post, on both
// threaded planes, for both Post and PostBatch.
TEST(ThreadEngine, IngressPortFifo) {
  for (bool batched : {false, true}) {
    for (bool use_batches : {false, true}) {
      std::unique_ptr<ThreadEngine> engine = MakeThreadEngine(batched);
      auto* task = new RecorderTask();
      engine->AddTask(std::unique_ptr<Task>(task));
      engine->Start();
      std::unique_ptr<IngressPort> port = engine->OpenIngress(0);
      if (use_batches) {
        for (uint64_t i = 0; i < 10000; i += 100) {
          ASSERT_TRUE(port->PostBatch(SeqBatch(i, 100)));
        }
      } else {
        for (uint64_t i = 0; i < 10000; ++i) {
          ASSERT_TRUE(port->Post(SeqMsg(i)));
        }
      }
      port->Flush();
      engine->WaitQuiescent();
      ASSERT_EQ(task->seen().size(), 10000u)
          << "batched=" << batched << " use_batches=" << use_batches;
      for (uint64_t i = 0; i < 10000; ++i) ASSERT_EQ(task->seen()[i], i);
      engine->Shutdown();
    }
  }
}

// WaitQuiescent must cover envelopes still buffered in an un-flushed port's
// batcher (the registered-port sweep), exactly as it does for the default
// Post lane.
TEST(ThreadEngine, QuiescenceFlushesBufferedPort) {
  ExchangeConfig config;
  config.batch_size = 1000;
  config.flush_deadline_us = 60ull * 1000 * 1000;  // effectively never
  ThreadEngine engine(config);
  auto* task = new RecorderTask();
  engine.AddTask(std::unique_ptr<Task>(task));
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  for (uint64_t i = 0; i < 7; ++i) ASSERT_TRUE(port->Post(SeqMsg(i)));
  // No explicit Flush: the quiescence sweep must ship the partial batch.
  engine.WaitQuiescent();
  EXPECT_EQ(task->seen().size(), 7u);
  engine.Shutdown();
}

// Post/PostBatch after Shutdown on the threaded engine: rejected cleanly on
// both planes, with no crash or hang.
TEST(ThreadEngine, PostAfterShutdownRejects) {
  for (bool batched : {false, true}) {
    std::unique_ptr<ThreadEngine> engine = MakeThreadEngine(batched);
    auto* task = new RecorderTask();
    engine->AddTask(std::unique_ptr<Task>(task));
    engine->Start();
    std::unique_ptr<IngressPort> port = engine->OpenIngress(0);
    ASSERT_TRUE(port->Post(SeqMsg(1)));
    engine->WaitQuiescent();
    engine->Shutdown();
    EXPECT_FALSE(port->Post(SeqMsg(2))) << "batched=" << batched;
    EXPECT_FALSE(port->PostBatch(SeqBatch(3, 4))) << "batched=" << batched;
    EXPECT_FALSE(port->PostBatch(TupleBatch{})) << "batched=" << batched;
    EXPECT_EQ(port->stats().rejected_posts, 3u) << "batched=" << batched;
    port->Flush();                   // no-op after shutdown, must not crash
    EXPECT_EQ(task->seen(), (std::vector<uint64_t>{1}))
        << "batched=" << batched;
  }
}

// Closed ports return their producer slot: max_ingress_ports bounds the
// ports open at once, not the total opened over the engine's lifetime, so
// an open-post-close cycle per producer epoch keeps working indefinitely.
TEST(ThreadEngine, ClosedPortSlotsAreReused) {
  ExchangeConfig config;
  config.max_ingress_ports = 2;
  ThreadEngine engine(config);
  auto* task = new RecorderTask();
  engine.AddTask(std::unique_ptr<Task>(task));
  engine.Start();
  for (uint64_t cycle = 0; cycle < 10; ++cycle) {
    std::unique_ptr<IngressPort> a = engine.OpenIngress(0);
    std::unique_ptr<IngressPort> b = engine.OpenIngress(0);
    ASSERT_TRUE(a->Post(SeqMsg(2 * cycle)));
    ASSERT_TRUE(b->Post(SeqMsg(2 * cycle + 1)));
    // Destructors flush and free both slots for the next cycle.
  }
  engine.WaitQuiescent();
  EXPECT_EQ(task->seen().size(), 20u);
  engine.Shutdown();
}

// Two ports into the same consumer from two threads: all envelopes arrive,
// and each port's own sequence stays in order (per-edge FIFO); the global
// interleaving is unspecified.
TEST(ThreadEngine, TwoPortsInterleaveWithPerPortFifo) {
  for (bool batched : {false, true}) {
    std::unique_ptr<ThreadEngine> engine = MakeThreadEngine(batched);
    auto* task = new RecorderTask();
    engine->AddTask(std::unique_ptr<Task>(task));
    engine->Start();
    constexpr uint64_t kPerPort = 5000;
    auto producer = [&engine](uint64_t base) {
      std::unique_ptr<IngressPort> port = engine->OpenIngress(0);
      for (uint64_t i = 0; i < kPerPort; ++i) {
        ASSERT_TRUE(port->Post(SeqMsg(base + i)));
      }
      port->Flush();
    };
    std::thread t1(producer, 0);
    std::thread t2(producer, kPerPort);
    t1.join();
    t2.join();
    engine->WaitQuiescent();
    ASSERT_EQ(task->seen().size(), 2 * kPerPort) << "batched=" << batched;
    uint64_t next_a = 0, next_b = kPerPort;
    for (uint64_t seq : task->seen()) {
      if (seq < kPerPort) {
        ASSERT_EQ(seq, next_a++);
      } else {
        ASSERT_EQ(seq, next_b++);
      }
    }
    engine->Shutdown();
  }
}

TEST(ThreadEngine, ManyTasksShutdownCleanly) {
  for (bool batched : {false, true}) {
    std::unique_ptr<ThreadEngine> engine = MakeThreadEngine(batched);
    std::vector<RecorderTask*> tasks;
    for (int i = 0; i < 64; ++i) {
      auto* t = new RecorderTask();
      tasks.push_back(t);
      engine->AddTask(std::unique_ptr<Task>(t));
    }
    engine->Start();
    std::unique_ptr<IngressPort> port = engine->OpenIngress(0);
    for (uint64_t i = 0; i < 6400; ++i) {
      ASSERT_TRUE(port->Post(static_cast<int>(i % 64), SeqMsg(i)));
    }
    port->Flush();
    engine->WaitQuiescent();
    size_t total = 0;
    for (auto* t : tasks) total += t->seen().size();
    EXPECT_EQ(total, 6400u) << "batched=" << batched;
    engine->Shutdown();
  }
}

}  // namespace
}  // namespace ajoin
