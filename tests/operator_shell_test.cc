// The ingress/egress shell shared by every operator facade: the same verb
// sequence must behave the same on the join, the SHJ baseline and the
// group-by.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/core/agg.h"
#include "src/core/operator.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

/// Pushes 10 tuples at ingress batch target 64 (so all of them stay
/// staged), retargets to per-tuple posts, and drains the engine.
void PushTenThenRetarget(Engine& engine, OperatorShell& op) {
  engine.Start();
  op.SetIngressBatch(64);
  for (int i = 0; i < 10; ++i) {
    StreamTuple t;
    t.rel = i % 2 == 0 ? Rel::kR : Rel::kS;
    t.key = i;
    t.bytes = 8;
    op.Push(t);
  }
  op.SetIngressBatch(1);
  engine.WaitQuiescent();
}

/// Input tuples stored across a join facade's joiners (each tuple is
/// stored exactly once on these single-grid layouts).
uint64_t StoredInputs(const Operator& op) {
  uint64_t n = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    n += op.joiner(i).metrics().in_tuples;
  }
  return n;
}

TEST(OperatorShell, RetargetingIngressBatchDeliversStagedInput) {
  OperatorConfig join_cfg;
  join_cfg.spec = MakeEquiJoin(0, 0);
  join_cfg.machines = 1;
  {
    SimEngine engine;
    JoinOperator op(engine, join_cfg);
    PushTenThenRetarget(engine, op);
    EXPECT_EQ(StoredInputs(op), 10u) << "JoinOperator";
  }
  {
    SimEngine engine;
    OperatorConfig cfg = join_cfg;
    cfg.machines = 2;
    ShjOperator op(engine, cfg);
    PushTenThenRetarget(engine, op);
    EXPECT_EQ(StoredInputs(op), 10u) << "ShjOperator";
  }
  {
    SimEngine engine;
    AggConfig cfg;
    cfg.machines = 2;
    cfg.partitions = 4;
    AggOperator op(engine, cfg);
    PushTenThenRetarget(engine, op);
    uint64_t merged = 0;
    for (size_t w = 0; w < op.num_workers(); ++w) {
      merged += op.worker(w).in_tuples();
    }
    EXPECT_EQ(merged, 10u) << "AggOperator";
  }
}

/// One ingress post as the entry task receives it: a staged run (PostBatch)
/// or a lone envelope (Post, recorded as a run of one with no batch stamp).
struct RecordedRun {
  int to = -1;
  uint64_t first_buffered_us = 0;
  std::vector<uint64_t> ingest_us;  // of each kInput envelope, in order
};

/// Forwards to a SimEngine port and records every post.
class RecordingPort : public IngressPort {
 public:
  RecordingPort(std::unique_ptr<IngressPort> inner,
                std::vector<RecordedRun>* runs)
      : inner_(std::move(inner)), runs_(runs) {}

  int to() const override { return inner_->to(); }

  using IngressPort::Post;
  using IngressPort::PostBatch;

  bool Post(int to, Envelope msg) override {
    if (msg.type == MsgType::kInput) {
      runs_->push_back(RecordedRun{to, 0, {msg.ingest_us}});
    }
    return inner_->Post(to, std::move(msg));
  }

  bool PostBatch(int to, TupleBatch&& batch) override {
    RecordedRun run{to, batch.first_buffered_us, {}};
    for (const Envelope& env : batch.items) {
      EXPECT_EQ(env.type, MsgType::kInput);
      run.ingest_us.push_back(env.ingest_us);
    }
    runs_->push_back(std::move(run));
    return inner_->PostBatch(to, std::move(batch));
  }

  void Flush() override { inner_->Flush(); }

 private:
  std::unique_ptr<IngressPort> inner_;
  std::vector<RecordedRun>* runs_;
};

/// A SimEngine whose engine clock counts its reads and steps one
/// microsecond per read (so every read returns a distinct time), and whose
/// ingress ports record what reaches the entry tasks. Task contexts keep
/// the logical clock, so only the ingress stamping reads are counted.
class CountingClockEngine : public SimEngine {
 public:
  uint64_t NowMicros() const override {
    ++reads_;
    return ++now_;
  }

  std::unique_ptr<IngressPort> OpenIngress(int to) override {
    return std::make_unique<RecordingPort>(SimEngine::OpenIngress(to),
                                           &runs_);
  }

  uint64_t reads() const { return reads_; }
  const std::vector<RecordedRun>& runs() const { return runs_; }

 private:
  mutable uint64_t reads_ = 0;
  mutable uint64_t now_ = 1000;
  std::vector<RecordedRun> runs_;
};

/// Pushes `n` tuples at ingress batch `target` through a 4-reshuffler join
/// and flushes, recording the clock reads and the posts on `engine`.
void PushStamped(CountingClockEngine& engine, uint32_t target, int n) {
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  JoinOperator op(engine, cfg);
  engine.Start();
  op.SetIngressBatch(target);
  for (int i = 0; i < n; ++i) {
    StreamTuple t;
    t.rel = i % 2 == 0 ? Rel::kR : Rel::kS;
    t.key = i % 17;
    t.bytes = 8;
    op.Push(t);
  }
  op.FlushInput();
  engine.WaitQuiescent();
  const std::set<int> entries(op.entry_ids().begin(), op.entry_ids().end());
  for (const RecordedRun& run : engine.runs()) {
    EXPECT_EQ(entries.count(run.to), 1u) << "post to a non-entry task";
  }
}

TEST(OperatorShell, StagedRunsReadTheClockOncePerRun) {
  constexpr int kTuples = 1000;
  CountingClockEngine engine;
  PushStamped(engine, 64, kTuples);

  size_t tuples = 0;
  std::set<uint64_t> stamps;
  for (const RecordedRun& run : engine.runs()) {
    ASSERT_FALSE(run.ingest_us.empty());
    EXPECT_LE(run.ingest_us.size(), 64u);
    EXPECT_NE(run.first_buffered_us, 0u) << "staged run carries no stamp";
    for (uint64_t us : run.ingest_us) {
      EXPECT_EQ(us, run.first_buffered_us)
          << "a staged tuple's ingest stamp is not its run's open time";
    }
    stamps.insert(run.first_buffered_us);
    tuples += run.ingest_us.size();
  }
  EXPECT_EQ(tuples, static_cast<size_t>(kTuples));
  // One clock read per opened run: every run got its own reading, and no
  // tuple read the clock on its own.
  EXPECT_EQ(engine.reads(), engine.runs().size());
  EXPECT_EQ(stamps.size(), engine.runs().size());
  EXPECT_LT(engine.reads(), static_cast<uint64_t>(kTuples) / 8);
}

TEST(OperatorShell, PerTuplePostsReadTheClockPerTuple) {
  constexpr int kTuples = 200;
  CountingClockEngine engine;
  PushStamped(engine, 1, kTuples);

  ASSERT_EQ(engine.runs().size(), static_cast<size_t>(kTuples));
  EXPECT_EQ(engine.reads(), static_cast<uint64_t>(kTuples));
  std::set<uint64_t> stamps;
  for (const RecordedRun& run : engine.runs()) {
    ASSERT_EQ(run.ingest_us.size(), 1u);
    stamps.insert(run.ingest_us[0]);
  }
  EXPECT_EQ(stamps.size(), static_cast<size_t>(kTuples));
}

}  // namespace
}  // namespace ajoin
