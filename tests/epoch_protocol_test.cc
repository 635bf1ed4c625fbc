// EpochProtocol under every arrival order. A slot's migration from epoch E
// to E+1 completes on R kReshufSignal cuts plus one kMigEnd per expected
// sender, and per-edge FIFO fixes nothing about how those messages
// interleave across edges. These tests enumerate every interleaving for a
// joiner slot and an aggregate worker slot, and check that each one
// finalizes exactly once, acks E+1 exactly once, and only after the last
// message — with one begin and one finalize trace event for E+1.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/trace_ring.h"
#include "src/core/agg.h"
#include "src/core/joiner.h"
#include "src/core/migration.h"
#include "src/core/partition.h"

namespace ajoin {
namespace {

constexpr int kController = 100;

/// Captures sends instead of dispatching them.
class CaptureContext : public Context {
 public:
  explicit CaptureContext(int self) : self_(self) {}
  int self() const override { return self_; }
  void Send(int to, Envelope msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  uint64_t NowMicros() const override { return 0; }

  /// kMigAck envelopes sent so far.
  std::vector<const Envelope*> Acks() const {
    std::vector<const Envelope*> out;
    for (const auto& [to, env] : sent) {
      if (env.type == MsgType::kMigAck) {
        EXPECT_EQ(to, kController);
        out.push_back(&env);
      }
    }
    return out;
  }

  std::vector<std::pair<int, Envelope>> sent;

 private:
  int self_;
};

enum class Arrival { kSignal, kMigEnd };

/// Every distinct order of `signals` signals and `migends` markers.
std::vector<std::vector<Arrival>> AllOrders(uint32_t signals,
                                            uint32_t migends) {
  std::vector<Arrival> order(signals, Arrival::kSignal);
  order.insert(order.end(), migends, Arrival::kMigEnd);
  std::sort(order.begin(), order.end());
  std::vector<std::vector<Arrival>> out;
  do {
    out.push_back(order);
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

std::string Describe(const std::vector<Arrival>& order) {
  std::string s;
  for (Arrival a : order) s += a == Arrival::kSignal ? 'S' : 'M';
  return s;
}

Envelope MigEnd() {
  Envelope env;
  env.type = MsgType::kMigEnd;
  return env;
}

/// Drives `slot` through `order`, delivering `signal` for each kSignal,
/// and checks the protocol's observable contract. `finalized` reports the
/// slot's own count of finalized migrations.
template <typename Slot, typename Finalized>
void CheckOrder(Slot& slot, const std::vector<Arrival>& order,
                const Envelope& signal, uint32_t epoch_before,
                TraceRing& ring, Finalized finalized) {
  const uint32_t next = epoch_before + 1;
  CaptureContext ctx(7);
  for (size_t i = 0; i < order.size(); ++i) {
    Envelope msg = order[i] == Arrival::kSignal ? signal : MigEnd();
    slot.OnMessage(std::move(msg), ctx);
    if (i + 1 < order.size()) {
      EXPECT_TRUE(ctx.Acks().empty()) << "acked after " << i + 1;
      EXPECT_EQ(finalized(), 0u) << "finalized after " << i + 1;
      EXPECT_EQ(slot.epoch(), epoch_before);
    }
  }
  const std::vector<const Envelope*> acks = ctx.Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->espec->epoch, next);
  EXPECT_EQ(finalized(), 1u);
  EXPECT_EQ(slot.epoch(), next);
  EXPECT_FALSE(slot.migrating());

  int begins = 0, finals = 0;
  for (const TraceEvent& ev : ring.Snapshot()) {
    if (ev.kind == TraceEventKind::kMigrationBegin) {
      ++begins;
      EXPECT_EQ(ev.a, next);
    } else if (ev.kind == TraceEventKind::kMigrationFinalize) {
      ++finals;
      EXPECT_EQ(ev.a, next);
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(finals, 1);
}

// The 2-machine row-merge of tests/joiner_protocol_test.cc: grid (2,1) ->
// (1,2), two reshufflers; each machine sends its R row to the other.
JoinerConfig TwoMachineConfig(uint32_t machine_index, TraceRing* trace) {
  JoinerConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machine_index = machine_index;
  cfg.initial_layout = GridLayout::Initial(Mapping{2, 1});
  cfg.num_reshufflers = 2;
  cfg.controller_task = kController;
  cfg.joiner_task_base = 0;
  cfg.trace = trace;
  return cfg;
}

TEST(EpochProtocol, JoinerFinalizesOnceUnderEveryArrivalOrder) {
  const GridLayout from = GridLayout::Initial(Mapping{2, 1});
  const MigrationPlan plan(from, from.Relabel(Mapping{1, 2}), false);
  Envelope signal;
  signal.type = MsgType::kReshufSignal;
  EpochSpec& spec = signal.espec.emplace();
  spec.epoch = 1;
  spec.mapping = Mapping{1, 2};
  for (uint32_t machine = 0; machine < 2; ++machine) {
    const auto senders =
        static_cast<uint32_t>(plan.ExpectedSenders(machine).size());
    ASSERT_EQ(senders, 1u);
    for (const std::vector<Arrival>& order : AllOrders(2, senders)) {
      SCOPED_TRACE("machine " + std::to_string(machine) + " order " +
                   Describe(order));
      TraceRing ring(64);
      JoinerCore joiner(TwoMachineConfig(machine, &ring));
      CheckOrder(joiner, order, signal, /*epoch_before=*/0, ring, [&] {
        return joiner.metrics().migrations_finalized;
      });
    }
  }
}

// Two routers, two workers, two partitions; the epoch swaps the partitions,
// so each worker moves one partition to the other and expects one marker.
TEST(EpochProtocol, AggWorkerFinalizesOnceUnderEveryArrivalOrder) {
  Envelope signal;
  signal.type = MsgType::kReshufSignal;
  EpochSpec& spec = signal.espec.emplace();
  spec.epoch = 1;
  spec.agg_assign = {1, 0};
  for (uint32_t w = 0; w < 2; ++w) {
    for (const std::vector<Arrival>& order : AllOrders(2, 1)) {
      SCOPED_TRACE("worker " + std::to_string(w) + " order " +
                   Describe(order));
      TraceRing ring(64);
      AggWorkerCore::Config cfg;
      cfg.index = w;
      cfg.num_workers = 2;
      cfg.num_routers = 2;
      cfg.partitions = 2;
      cfg.controller_task = kController;
      cfg.worker_task_base = 2;
      cfg.trace = &ring;
      AggWorkerCore worker(cfg);
      CheckOrder(worker, order, signal, /*epoch_before=*/0, ring,
                 [&] { return worker.migrations_finalized(); });
    }
  }
}

}  // namespace
}  // namespace ajoin
