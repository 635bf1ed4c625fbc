// ReshufflerCore unit tests: routing fan-out and ownership, the
// signal-before-new-epoch ordering invariant, extended statistics, and
// storage-group selection for multi-group configurations.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/core/reshuffler.h"

namespace ajoin {
namespace {

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

ReshufflerConfig SingleGroupConfig(Mapping mapping, bool controller = false,
                                   uint32_t reshufflers = 4) {
  ReshufflerConfig cfg;
  cfg.index = 0;
  cfg.num_reshufflers = reshufflers;
  GroupBlock block;
  block.joiner_task_base = 100;
  block.alloc_machines = mapping.J();
  block.initial_layout = GridLayout::Initial(mapping);
  block.cum_prob = 1.0;
  cfg.groups.push_back(block);
  cfg.is_controller = controller;
  if (controller) {
    ControllerCore::GroupInfo info;
    info.initial = mapping;
    cfg.controller_groups.push_back(info);
    cfg.controller.min_total_before_adapt = 1u << 30;  // never adapt
  }
  return cfg;
}

Envelope Input(Rel rel, int64_t key, uint64_t seq) {
  Envelope env;
  env.type = MsgType::kInput;
  env.rel = rel;
  env.key = key;
  env.seq = seq;
  env.bytes = 16;
  return env;
}

TEST(Reshuffler, RTupleFansOutToOneRow) {
  // (4,2): an R tuple goes to exactly m=2 joiners, all in one row.
  ReshufflerCore reshuffler(SingleGroupConfig(Mapping{4, 2}));
  CaptureContext ctx(0);
  reshuffler.OnMessage(Input(Rel::kR, 7, 1), ctx);
  ASSERT_EQ(ctx.sent.size(), 2u);
  GridLayout layout = GridLayout::Initial(Mapping{4, 2});
  uint32_t row = ~0u;
  for (auto& [to, env] : ctx.sent) {
    EXPECT_EQ(env.type, MsgType::kData);
    EXPECT_TRUE(env.store);
    EXPECT_EQ(env.epoch, 0u);
    uint32_t machine = static_cast<uint32_t>(to - 100);
    Coords c = layout.CoordsOf(machine);
    if (row == ~0u) row = c.i;
    EXPECT_EQ(c.i, row) << "R tuple crossed rows";
  }
}

TEST(Reshuffler, STupleFansOutToOneColumn) {
  ReshufflerCore reshuffler(SingleGroupConfig(Mapping{4, 2}));
  CaptureContext ctx(0);
  reshuffler.OnMessage(Input(Rel::kS, 7, 2), ctx);
  ASSERT_EQ(ctx.sent.size(), 4u);  // n = 4
  GridLayout layout = GridLayout::Initial(Mapping{4, 2});
  uint32_t col = ~0u;
  for (auto& [to, env] : ctx.sent) {
    uint32_t machine = static_cast<uint32_t>(to - 100);
    Coords c = layout.CoordsOf(machine);
    if (col == ~0u) col = c.j;
    EXPECT_EQ(c.j, col);
  }
}

TEST(Reshuffler, TagIsDeterministicPerSeq) {
  ReshufflerCore a(SingleGroupConfig(Mapping{2, 2}));
  ReshufflerCore b(SingleGroupConfig(Mapping{2, 2}));
  CaptureContext ca(0), cb(1);
  a.OnMessage(Input(Rel::kR, 5, 42), ca);
  b.OnMessage(Input(Rel::kR, 5, 42), cb);
  ASSERT_EQ(ca.sent.size(), cb.sent.size());
  for (size_t i = 0; i < ca.sent.size(); ++i) {
    EXPECT_EQ(ca.sent[i].second.tag, cb.sent[i].second.tag);
    EXPECT_EQ(ca.sent[i].first, cb.sent[i].first);
  }
}

TEST(Reshuffler, EpochChangeSignalsAllJoinersThenReroutes) {
  ReshufflerCore reshuffler(SingleGroupConfig(Mapping{4, 2}));
  CaptureContext ctx(0);
  Envelope change;
  change.type = MsgType::kEpochChange;
  EpochSpec& spec = change.espec.emplace();
  spec.group = 0;
  spec.epoch = 1;
  spec.mapping = Mapping{2, 4};
  reshuffler.OnMessage(std::move(change), ctx);
  // All 8 allocated joiners receive the signal.
  ASSERT_EQ(ctx.sent.size(), 8u);
  for (auto& [to, env] : ctx.sent) {
    EXPECT_EQ(env.type, MsgType::kReshufSignal);
    EXPECT_EQ(env.espec->epoch, 1u);
  }
  EXPECT_EQ(reshuffler.epoch(0), 1u);
  // Subsequent tuples carry the new epoch and the new fan-out (m=4 for R).
  ctx.sent.clear();
  reshuffler.OnMessage(Input(Rel::kR, 3, 9), ctx);
  ASSERT_EQ(ctx.sent.size(), 4u);
  for (auto& [to, env] : ctx.sent) EXPECT_EQ(env.epoch, 1u);
}

TEST(Reshuffler, EosForwardedToAllJoiners) {
  ReshufflerCore reshuffler(SingleGroupConfig(Mapping{2, 2}));
  CaptureContext ctx(0);
  Envelope eos;
  eos.type = MsgType::kEos;
  reshuffler.OnMessage(std::move(eos), ctx);
  EXPECT_EQ(ctx.sent.size(), 4u);
  for (auto& [to, env] : ctx.sent) EXPECT_EQ(env.type, MsgType::kEos);
}

TEST(Reshuffler, ExtendedStatsObserveRoutedTuples) {
  ReshufflerConfig cfg = SingleGroupConfig(Mapping{2, 2});
  cfg.collect_stats = true;
  cfg.stats_options.sketch_capacity = 8;
  ReshufflerCore reshuffler(cfg);
  CaptureContext ctx(0);
  for (uint64_t i = 0; i < 100; ++i) {
    reshuffler.OnMessage(Input(Rel::kS, 7, i), ctx);
  }
  ASSERT_NE(reshuffler.stats(), nullptr);
  // Scale = 4 reshufflers: 100 local tuples estimate 400 global.
  EXPECT_EQ(reshuffler.stats()->EstimatedTuples(Rel::kS), 400u);
  EXPECT_EQ(reshuffler.stats()->sketch(Rel::kS).Estimate(7), 100u);
}

TEST(Reshuffler, MultiGroupStoreInExactlyOneGroup) {
  // Two groups (J=4 and J=2): each tuple stores in exactly one group and
  // probes the other.
  ReshufflerConfig cfg;
  cfg.index = 0;
  cfg.num_reshufflers = 1;
  GroupBlock g0;
  g0.joiner_task_base = 10;
  g0.alloc_machines = 4;
  g0.initial_layout = GridLayout::Initial(Mapping{2, 2});
  g0.cum_prob = 4.0 / 6.0;
  GroupBlock g1;
  g1.joiner_task_base = 20;
  g1.alloc_machines = 2;
  g1.initial_layout = GridLayout::Initial(Mapping{2, 1});
  g1.cum_prob = 1.0;
  cfg.groups = {g0, g1};
  ReshufflerCore reshuffler(cfg);
  CaptureContext ctx(0);
  uint64_t stored_g0 = 0, stored_g1 = 0;
  for (uint64_t seq = 0; seq < 300; ++seq) {
    ctx.sent.clear();
    reshuffler.OnMessage(Input(Rel::kR, 1, seq), ctx);
    bool store_in_g0 = false, store_in_g1 = false, probe_somewhere = false;
    for (auto& [to, env] : ctx.sent) {
      if (env.store) {
        (env.group == 0 ? store_in_g0 : store_in_g1) = true;
      } else {
        probe_somewhere = true;
      }
    }
    EXPECT_NE(store_in_g0, store_in_g1) << "must store in exactly one group";
    EXPECT_TRUE(probe_somewhere) << "must probe the other group";
    (store_in_g0 ? stored_g0 : stored_g1)++;
  }
  // Storage split roughly proportional to group sizes (4:2).
  EXPECT_NEAR(static_cast<double>(stored_g0) / 300.0, 4.0 / 6.0, 0.12);
  EXPECT_NEAR(static_cast<double>(stored_g1) / 300.0, 2.0 / 6.0, 0.12);
}

}  // namespace
}  // namespace ajoin
