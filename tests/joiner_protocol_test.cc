// Targeted Algorithm 3 tests: a JoinerCore driven directly with crafted
// message interleavings (early µ before any signal, Δ after partial signals,
// Δ' racing migration tuples, MigEnd before signals) — orders a real engine
// may produce but tests cannot force reliably end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/joiner.h"
#include "src/core/partition.h"

namespace ajoin {
namespace {

/// Captures sends instead of dispatching them.
class CaptureContext : public Context {
 public:
  explicit CaptureContext(int self) : self_(self) {}
  int self() const override { return self_; }
  void Send(int to, Envelope msg) override {
    msg.from = self_;
    sent.emplace_back(to, std::move(msg));
  }
  uint64_t NowMicros() const override { return 0; }

  std::vector<std::pair<int, Envelope>> sent;

 private:
  int self_;
};

Envelope Data(Rel rel, int64_t key, uint64_t tag, uint64_t seq,
              uint32_t epoch) {
  Envelope env;
  env.type = MsgType::kData;
  env.rel = rel;
  env.key = key;
  env.tag = tag;
  env.seq = seq;
  env.bytes = 8;
  env.epoch = epoch;
  env.store = true;
  return env;
}

Envelope Migrate(Rel rel, int64_t key, uint64_t tag, uint64_t seq,
                 uint32_t epoch) {
  Envelope env = Data(rel, key, tag, seq, epoch);
  env.type = MsgType::kMigrate;
  return env;
}

Envelope Signal(uint32_t epoch, Mapping mapping) {
  Envelope env;
  env.type = MsgType::kReshufSignal;
  EpochSpec& spec = env.espec.emplace();
  spec.group = 0;
  spec.epoch = epoch;
  spec.mapping = mapping;
  return env;
}

Envelope MigEnd() {
  Envelope env;
  env.type = MsgType::kMigEnd;
  return env;
}

// A 2-machine grid (2,1) -> (1,2): machine 0 = (0,0), machine 1 = (1,0).
// Row-merge: R exchanged pairwise between 0 and 1; S discarded by new col.
JoinerConfig TwoMachineConfig(uint32_t machine_index) {
  JoinerConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machine_index = machine_index;
  cfg.initial_layout = GridLayout::Initial(Mapping{2, 1});
  cfg.num_reshufflers = 2;
  cfg.controller_task = 100;
  cfg.joiner_task_base = 0;
  cfg.collect_pairs = true;
  return cfg;
}

// Tags landing in row 0 / row 1 under n=2 (top bit), and col 0 / 1 under
// m=2 after migration (same top bits reused for S column).
constexpr uint64_t kTagLow = 0x1000000000000000ULL;   // partition 0 of 2
constexpr uint64_t kTagHigh = 0x9000000000000000ULL;  // partition 1 of 2

TEST(JoinerProtocol, SteadyStateJoinAndStore) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kR, 7, kTagLow, 1, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 7, kTagLow, 2, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 8, kTagHigh, 3, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 1u);
  EXPECT_EQ(joiner.pairs()[0], (std::pair<uint64_t, uint64_t>{1, 2}));
  EXPECT_EQ(joiner.stored_count(Rel::kR), 1u);
  EXPECT_EQ(joiner.stored_count(Rel::kS), 2u);
  EXPECT_TRUE(ctx.sent.empty());
}

TEST(JoinerProtocol, MigrationSendsTauOnFirstSignal) {
  // Machine 0 holds R row 0; on the first signal for (1,2) it must ship all
  // its R state to partner machine 1 and nothing else.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kR, 1, kTagLow, 1, 0), ctx);
  joiner.OnMessage(Data(Rel::kR, 2, kTagLow, 2, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 3, kTagLow, 3, 0), ctx);
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  EXPECT_TRUE(joiner.migrating());
  // Exactly the two R tuples migrate to machine 1.
  size_t mig = 0;
  for (auto& [to, env] : ctx.sent) {
    if (env.type == MsgType::kMigrate) {
      EXPECT_EQ(to, 1);
      EXPECT_EQ(env.rel, Rel::kR);
      ++mig;
    }
  }
  EXPECT_EQ(mig, 2u);
}

TEST(JoinerProtocol, FullMigrationLifecycleWithDiscard) {
  // Machine 0: old (0,0) holds R row 0 + all S; new coords (0,0) of (1,2):
  // keeps S col 0, receives R row-1 state as µ, discards S col 1.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kR, 1, kTagLow, 1, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 5, kTagLow, 2, 0), ctx);   // kept (col 0)
  joiner.OnMessage(Data(Rel::kS, 6, kTagHigh, 3, 0), ctx);  // discarded
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);

  // Partner's R arrives as µ; then a Δ' tuple matching it.
  joiner.OnMessage(Migrate(Rel::kR, 9, kTagHigh, 4, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 5, 1), ctx);  // Δ', joins µ
  EXPECT_EQ(joiner.output_count(), 1u);
  EXPECT_EQ(joiner.pairs()[0], (std::pair<uint64_t, uint64_t>{4, 5}));

  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);  // second reshuffler
  joiner.OnMessage(MigEnd(), ctx);                  // partner finished
  EXPECT_FALSE(joiner.migrating());
  EXPECT_EQ(joiner.epoch(), 1u);
  // Ack went to the controller.
  bool acked = false;
  for (auto& [to, env] : ctx.sent) {
    if (env.type == MsgType::kMigAck) {
      EXPECT_EQ(to, 100);
      acked = true;
    }
  }
  EXPECT_TRUE(acked);
  // S col-1 tuple was discarded; kept: tau S (seq 2) + Δ' S (seq 5).
  EXPECT_EQ(joiner.stored_count(Rel::kS), 2u);
  // R: kept tau R (n=1 keeps all rows) + µ from the partner.
  EXPECT_EQ(joiner.stored_count(Rel::kR), 2u);
}

TEST(JoinerProtocol, EarlyMuBeforeAnySignal) {
  // µ arriving before the local first signal must not join old-epoch state
  // (those pairs are produced at the partner) but must join later Δ'.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 1, 0), ctx);  // tau S
  // Early µ: partner already started migrating and ships its R.
  joiner.OnMessage(Migrate(Rel::kR, 9, kTagHigh, 2, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 0u) << "mu must not join tau here";
  // Old-epoch Δ S tuple matching the µ key: still must NOT pair with µ
  // (the partner joined it with its stored R under the old mapping).
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 3, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 0u);
  // Migration begins locally; Δ' now joins the early µ.
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 4, 1), ctx);  // Δ'
  // Δ' joins: µ (seq 2) and Keep(tau∪Δ): S entries are same-relation, so
  // only the µ R tuple matches.
  EXPECT_EQ(joiner.output_count(), 1u);
  EXPECT_EQ(joiner.pairs()[0], (std::pair<uint64_t, uint64_t>{2, 4}));
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(MigEnd(), ctx);
  EXPECT_FALSE(joiner.migrating());
}

TEST(JoinerProtocol, MigEndBeforeSignalsIsBuffered) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(MigEnd(), ctx);  // very early: partner raced ahead
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  EXPECT_TRUE(joiner.migrating());
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  // All signals + the early MigEnd: finalize must have happened.
  EXPECT_FALSE(joiner.migrating());
  EXPECT_EQ(joiner.epoch(), 1u);
}

TEST(JoinerProtocol, DeltaForwardedToPartner) {
  // Δ R tuples arriving mid-migration are forwarded to the partner.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  ctx.sent.clear();
  joiner.OnMessage(Data(Rel::kR, 4, kTagLow, 7, 0), ctx);  // Δ (old epoch)
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].first, 1);
  EXPECT_EQ(ctx.sent[0].second.type, MsgType::kMigrate);
  EXPECT_EQ(ctx.sent[0].second.seq, 7u);
}

TEST(JoinerProtocol, DeltaJoinsOldStateAndKeepJoinsDeltaPrime) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kS, 3, kTagLow, 1, 0), ctx);  // tau S (kept col)
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(Data(Rel::kR, 3, kTagLow, 2, 1), ctx);  // Δ' R
  EXPECT_EQ(joiner.output_count(), 1u);  // Δ' joins Keep(tau)
  // Δ S tuple (old epoch): joins tau∪Δ (the R? no R in old state) and, being
  // in Keep, joins Δ' R.
  joiner.OnMessage(Data(Rel::kS, 3, kTagLow, 3, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 2u);
  auto pairs = joiner.pairs();
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs[0], (std::pair<uint64_t, uint64_t>{2, 1}));
  EXPECT_EQ(pairs[1], (std::pair<uint64_t, uint64_t>{2, 3}));
}

TEST(JoinerProtocol, DiscardedDeltaDoesNotJoinDeltaPrime) {
  // A Δ S tuple belonging to the *other* new column must not join Δ' here.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(Data(Rel::kR, 3, kTagLow, 1, 1), ctx);   // Δ' R stored
  joiner.OnMessage(Data(Rel::kS, 3, kTagHigh, 2, 0), ctx);  // Δ S, discard col
  EXPECT_EQ(joiner.output_count(), 0u)
      << "discard-bound Δ joined Δ' (would double-count with machine 1)";
}

TEST(JoinerProtocol, EosTracking) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  Envelope eos;
  eos.type = MsgType::kEos;
  EXPECT_FALSE(joiner.finished());
  joiner.OnMessage(std::move(eos), ctx);
  EXPECT_FALSE(joiner.finished());  // one of two reshufflers
  Envelope eos2;
  eos2.type = MsgType::kEos;
  joiner.OnMessage(std::move(eos2), ctx);
  EXPECT_TRUE(joiner.finished());
}

}  // namespace
}  // namespace ajoin
