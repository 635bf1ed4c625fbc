// Unit tests for the batch-level dispatch contract (src/runtime/task.h):
// both engines call only Task::OnBatch (the simulator one envelope per
// batch, in its global FIFO order), the Task::OnBatch default implementation
// must be exactly the per-envelope OnMessage loop, the Context::SendBatch
// default must be exactly the per-envelope Send loop, and the exchange
// Outbox::SendRun must preserve per-edge FIFO across every
// pending/top-up/direct-ship/tail path.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/exchange/exchange.h"
#include "src/runtime/task.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

Envelope DataMsg(uint64_t seq) {
  Envelope msg;
  msg.type = MsgType::kData;
  msg.seq = seq;
  return msg;
}

TupleBatch MakeRun(uint64_t first_seq, size_t n) {
  TupleBatch run;
  for (size_t i = 0; i < n; ++i) {
    run.Add(DataMsg(first_seq + i));
  }
  return run;
}

/// Records OnMessage arrivals; never overrides OnBatch, so it exercises the
/// default unpack loop.
class RecordingTask : public Task {
 public:
  void OnMessage(Envelope msg, Context& ctx) override {
    (void)ctx;
    seen.push_back(msg.seq);
    types.push_back(msg.type);
  }

  std::vector<uint64_t> seen;
  std::vector<MsgType> types;
};

/// Context that records Send calls; never overrides SendBatch, so it
/// exercises the default per-envelope loop.
class RecordingContext : public Context {
 public:
  int self() const override { return 7; }
  void Send(int to, Envelope msg) override {
    sent.emplace_back(to, msg.seq);
  }
  uint64_t NowMicros() const override { return 0; }

  std::vector<std::pair<int, uint64_t>> sent;
};

TEST(TaskDispatch, DefaultOnBatchUnpacksInOrder) {
  RecordingTask task;
  RecordingContext ctx;
  TupleBatch batch = MakeRun(100, 5);
  batch.items[2].type = MsgType::kMigrate;  // mixed data types still unpack
  task.OnBatch(std::move(batch), ctx);
  EXPECT_EQ(task.seen, (std::vector<uint64_t>{100, 101, 102, 103, 104}));
  EXPECT_EQ(task.types[2], MsgType::kMigrate);
}

TEST(TaskDispatch, DefaultOnBatchEmptyIsNoop) {
  RecordingTask task;
  RecordingContext ctx;
  task.OnBatch(TupleBatch{}, ctx);
  EXPECT_TRUE(task.seen.empty());
}

/// Records every OnBatch call; never overrides OnMessage, so an engine
/// reaches it only through OnBatch.
class BatchRecordingTask : public Task {
 public:
  void OnBatch(TupleBatch batch, Context& ctx) override {
    (void)ctx;
    sizes.push_back(batch.size());
    for (const Envelope& msg : batch.items) seen.push_back(msg.seq);
  }

  std::vector<size_t> sizes;
  std::vector<uint64_t> seen;
};

/// Forwards every envelope to one peer, one at a time (default OnBatch).
class ForwardTask : public Task {
 public:
  explicit ForwardTask(int to) : to_(to) {}
  void OnMessage(Envelope msg, Context& ctx) override {
    ctx.Send(to_, std::move(msg));
  }

 private:
  int to_;
};

/// Task 0 forwards to task 1, a BatchRecordingTask. Odd seqs 1..n are
/// posted straight to task 1, even ones through task 0, interleaved; returns
/// task 1 once the engine is quiescent.
const BatchRecordingTask& RunForwardScenario(Engine& engine, uint64_t n) {
  engine.AddTask(std::make_unique<ForwardTask>(1));
  auto* sink = new BatchRecordingTask();
  engine.AddTask(std::unique_ptr<Task>(sink));
  engine.Start();
  std::unique_ptr<IngressPort> direct = engine.OpenIngress(1);
  std::unique_ptr<IngressPort> via = engine.OpenIngress(0);
  for (uint64_t seq = 1; seq <= n; ++seq) {
    EXPECT_TRUE((seq % 2 == 1 ? direct : via)->Post(DataMsg(seq)));
  }
  engine.WaitQuiescent();
  return *sink;
}

/// The envelopes of `seen` that arrived on one edge (odd = straight from
/// the port, even = through the forwarder), in arrival order.
std::vector<uint64_t> EdgeOrder(const std::vector<uint64_t>& seen, bool odd) {
  std::vector<uint64_t> out;
  for (uint64_t seq : seen) {
    if ((seq % 2 == 1) == odd) out.push_back(seq);
  }
  return out;
}

TEST(TaskDispatch, SimEngineHandsOneEnvelopeBatchesInGlobalFifoOrder) {
  SimEngine engine;
  const BatchRecordingTask& sink = RunForwardScenario(engine, 6);
  // Queue: 1 3 5 straight in, 2 4 6 requeued behind them by the forwarder.
  EXPECT_EQ(sink.seen, (std::vector<uint64_t>{1, 3, 5, 2, 4, 6}));
  EXPECT_EQ(sink.sizes, std::vector<size_t>(6, 1));
  EXPECT_EQ(engine.dispatched(), 9u);
}

TEST(TaskDispatch, ThreadEngineBatchSizeOneMatchesSimPerEdgeOrder) {
  constexpr uint64_t kN = 2000;
  SimEngine sim;
  const BatchRecordingTask& sim_sink = RunForwardScenario(sim, kN);
  ExchangeConfig config;
  config.batch_size = 1;
  ThreadEngine threaded(config);
  const BatchRecordingTask& thread_sink = RunForwardScenario(threaded, kN);
  ASSERT_EQ(thread_sink.seen.size(), kN);
  EXPECT_EQ(thread_sink.sizes, std::vector<size_t>(kN, 1));
  for (bool odd : {true, false}) {
    EXPECT_EQ(EdgeOrder(thread_sink.seen, odd), EdgeOrder(sim_sink.seen, odd))
        << "odd=" << odd;
  }
  threaded.Shutdown();
}

TEST(TaskDispatch, DefaultSendBatchLoopsSendInOrder) {
  RecordingContext ctx;
  TupleBatch run = MakeRun(10, 4);
  ctx.SendBatch(3, std::move(run));
  ASSERT_EQ(ctx.sent.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ctx.sent[i].first, 3);
    EXPECT_EQ(ctx.sent[i].second, 10 + i);
  }
  EXPECT_TRUE(run.empty());  // consumed
}

/// SendRun FIFO across its three paths (top-up, direct ship, buffered
/// tail), validated through a real plane: everything sent on one edge, via
/// any mix of Send and SendRun, must pop in send order.
TEST(TaskDispatch, SendRunPreservesEdgeFifo) {
  ExchangeConfig config;
  config.batch_size = 8;
  ExchangePlane plane(/*num_tasks=*/1, config);
  ExchangePlane::Outbox* outbox = plane.outbox(plane.external_producer());

  uint64_t seq = 0;
  // Partial pending batch via Send...
  for (int i = 0; i < 3; ++i) outbox->Send(0, DataMsg(seq++));
  // ...topped up and overflowed by a large run of 14: 5 top up the pending
  // batch to a size flush, the remaining 9 ship directly as one batch...
  {
    TupleBatch run = MakeRun(seq, 14);
    seq += 14;
    outbox->SendRun(0, std::move(run));
  }
  // ...a small run onto the buffered tail...
  {
    TupleBatch run = MakeRun(seq, 2);
    seq += 2;
    outbox->SendRun(0, std::move(run));
  }
  // ...and a trailing control message cutting the rest loose.
  Envelope eos;
  eos.type = MsgType::kEos;
  eos.seq = seq++;
  outbox->Send(0, std::move(eos));
  outbox->FlushAll();

  std::vector<uint64_t> popped;
  size_t cursor = 0;
  TupleBatch batch;
  while (plane.PopAny(0, &cursor, &batch)) {
    for (const Envelope& msg : batch.items) popped.push_back(msg.seq);
    batch.Clear();
  }
  ASSERT_EQ(popped.size(), seq);
  for (uint64_t i = 0; i < seq; ++i) EXPECT_EQ(popped[i], i);
}

TEST(TaskDispatch, SendRunWholeRunShipsAsOneBatch) {
  ExchangeConfig config;
  config.batch_size = 8;
  ExchangePlane plane(/*num_tasks=*/1, config);
  ExchangePlane::Outbox* outbox = plane.outbox(plane.external_producer());
  // A run of at least batch_size/2 with nothing pending ships directly as a
  // single pre-formed batch.
  outbox->SendRun(0, MakeRun(0, 6));
  size_t cursor = 0;
  TupleBatch batch;
  ASSERT_TRUE(plane.PopAny(0, &cursor, &batch));
  EXPECT_EQ(batch.size(), 6u);
  EXPECT_FALSE(plane.PopAny(0, &cursor, &batch));
}

}  // namespace
}  // namespace ajoin
