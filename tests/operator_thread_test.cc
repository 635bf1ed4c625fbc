// End-to-end correctness on the multithreaded engine: real concurrency,
// nondeterministic message interleavings across channels. Output must still
// be exactly the reference join — this validates the non-blocking migration
// protocol (Alg. 3) under races the simulator cannot produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/core/operator.h"
#include "src/runtime/thread_engine.h"

namespace ajoin {
namespace {

std::vector<StreamTuple> MakeStream(uint64_t n_r, uint64_t n_s,
                                    int64_t key_domain, uint64_t seed) {
  std::vector<StreamTuple> out;
  Rng rng(seed);
  uint64_t left_r = n_r, left_s = n_s;
  while (left_r + left_s > 0) {
    bool pick_r = left_r > 0 &&
                  (left_s == 0 || rng.Uniform(left_r + left_s) < left_r);
    StreamTuple t;
    t.rel = pick_r ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(key_domain)));
    t.bytes = 16;
    out.push_back(t);
    if (pick_r) {
      --left_r;
    } else {
      --left_s;
    }
  }
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> ReferencePairs(
    const std::vector<StreamTuple>& stream, const JoinSpec& spec) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (stream[i].rel != Rel::kR) continue;
    for (uint64_t j = 0; j < stream.size(); ++j) {
      if (stream[j].rel != Rel::kS) continue;
      int64_t d = stream[i].key - stream[j].key;
      bool match = spec.kind == JoinSpec::Kind::kEqui
                       ? d == 0
                       : (d >= spec.band_lo && d <= spec.band_hi);
      if (match) out.emplace_back(i, j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Exchange planes every protocol test runs against: the per-tuple
/// reference (batch_size = 1, the configuration that replaced the retired
/// mutex Channel plane), the default batched plane (whole batches handed to
/// Task::OnBatch), and a stress config with tiny batches and a tiny credit
/// window so size flushes, deadline flushes, and credit stalls all
/// interleave with migrations while OnBatch sees every odd batch shape.
enum class Plane { kPerTuple, kBatched, kBatchedTiny };

const Plane kAllPlanes[] = {Plane::kPerTuple, Plane::kBatched,
                            Plane::kBatchedTiny};

const char* PlaneName(Plane plane) {
  switch (plane) {
    case Plane::kPerTuple: return "per-tuple";
    case Plane::kBatched: return "batched";
    case Plane::kBatchedTiny: return "batched-tiny";
  }
  return "?";
}

std::unique_ptr<ThreadEngine> MakeEngine(Plane plane) {
  switch (plane) {
    case Plane::kPerTuple: {
      ExchangeConfig cfg;
      cfg.batch_size = 1;
      return std::make_unique<ThreadEngine>(cfg);
    }
    case Plane::kBatched:
      return std::make_unique<ThreadEngine>(ExchangeConfig{});
    case Plane::kBatchedTiny: {
      ExchangeConfig cfg;
      cfg.batch_size = 5;
      cfg.ring_slots = 2;
      cfg.flush_deadline_us = 50;
      return std::make_unique<ThreadEngine>(cfg);
    }
  }
  return nullptr;
}

std::vector<std::pair<uint64_t, uint64_t>> RunThreaded(
    const std::vector<StreamTuple>& stream, const JoinSpec& spec,
    uint32_t machines, double epsilon, uint64_t* migrations = nullptr,
    Plane plane = Plane::kBatched, uint32_t ingress_batch = 1) {
  std::unique_ptr<ThreadEngine> engine_ptr = MakeEngine(plane);
  ThreadEngine& engine = *engine_ptr;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = machines;
  cfg.adaptive = true;
  cfg.epsilon = epsilon;
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;
  JoinOperator op(engine, cfg);
  engine.Start();
  op.SetIngressBatch(ingress_batch);
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  auto pairs = op.CollectPairs();
  if (migrations != nullptr && op.controller() != nullptr) {
    *migrations = op.controller()->log().size();
  }
  engine.Shutdown();
  return pairs;
}

TEST(OperatorThread, EquiJoinExact) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(300, 900, 20, 21);
  auto want = ReferencePairs(stream, spec);
  // Swept over per-tuple and size-targeted ingress: driving the operator
  // through IngressPort::PostBatch must be output-equivalent to per-tuple
  // Post on every exchange plane.
  for (uint32_t ingress_batch : {1u, 16u}) {
    for (Plane plane : kAllPlanes) {
      uint64_t migrations = 0;
      auto got = RunThreaded(stream, spec, 8, 1.0, &migrations, plane,
                             ingress_batch);
      EXPECT_EQ(got, want) << PlaneName(plane) << " ingress=" << ingress_batch;
      EXPECT_GE(migrations, 1u)
          << PlaneName(plane) << " ingress=" << ingress_batch;
    }
  }
}

TEST(OperatorThread, EquiJoinManySeedsAggressiveEpsilon) {
  // Aggressive epsilon forces frequent migrations concurrent with input.
  JoinSpec spec = MakeEquiJoin(0, 0);
  for (uint64_t seed = 30; seed < 36; ++seed) {
    auto stream = MakeStream(200 + 31 * seed, 500 + 17 * seed, 16, seed);
    auto want = ReferencePairs(stream, spec);
    for (Plane plane : kAllPlanes) {
      auto got = RunThreaded(stream, spec, 8, 0.25, nullptr, plane);
      EXPECT_EQ(got, want) << "seed " << seed << " " << PlaneName(plane);
    }
  }
}

TEST(OperatorThread, BandJoinExact) {
  JoinSpec spec = MakeBandJoin(0, 0, -1, 1);
  auto stream = MakeStream(250, 750, 60, 22);
  auto want = ReferencePairs(stream, spec);
  for (Plane plane : kAllPlanes) {
    auto got = RunThreaded(stream, spec, 16, 0.5, nullptr, plane);
    EXPECT_EQ(got, want) << PlaneName(plane);
  }
}

TEST(OperatorThread, RowModeResidualPredicate) {
  // Materialized rows + a residual filter, under real concurrency and
  // migrations: the residual must be applied identically on every path
  // (steady state, Δ, Δ', µ probes).
  JoinSpec spec = MakeBandJoin(0, 0, -1, 1);
  spec.residual = [](const Row& r, const Row& s) {
    return (r.Int64(1) + s.Int64(1)) % 3 == 0;
  };
  Rng rng(77);
  std::vector<StreamTuple> stream;
  for (int i = 0; i < 1200; ++i) {
    StreamTuple t;
    t.rel = rng.NextBool(0.3) ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(40));
    t.bytes = 24;
    Row row;
    row.Append(Value(t.key));
    row.Append(Value(static_cast<int64_t>(i)));
    t.has_row = true;
    t.row = std::move(row);
    stream.push_back(std::move(t));
  }
  // Reference with the residual applied.
  std::vector<std::pair<uint64_t, uint64_t>> want;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (stream[i].rel != Rel::kR) continue;
    for (uint64_t j = 0; j < stream.size(); ++j) {
      if (stream[j].rel != Rel::kS) continue;
      if (spec.Matches(stream[i].row, stream[j].row)) want.emplace_back(i, j);
    }
  }
  std::sort(want.begin(), want.end());

  for (Plane plane : kAllPlanes) {
    std::unique_ptr<ThreadEngine> engine = MakeEngine(plane);
    OperatorConfig cfg;
    cfg.spec = spec;
    cfg.machines = 8;
    cfg.adaptive = true;
    cfg.epsilon = 0.5;
    cfg.min_total_before_adapt = 16;
    cfg.collect_pairs = true;
    cfg.keep_rows = true;
    JoinOperator op(*engine, cfg);
    engine->Start();
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine->WaitQuiescent();
    EXPECT_EQ(op.CollectPairs(), want) << PlaneName(plane);
    engine->Shutdown();
  }
}

TEST(OperatorThread, BatchedPlaneMatchesPerTuplePlaneAcrossMigration) {
  // The cores' batch data paths (reshuffler one-pass routing, joiner
  // run-grouped store/probe) must be observably equivalent to one-envelope
  // batches, where every run is a single tuple and store/probe interleave
  // exactly as on the simulator — including across live migrations, where
  // the joiner's data path handles Δ/Δ' tuples per envelope mid-stream.
  // Aggressive epsilon guarantees at least one migration is in flight while
  // data keeps arriving.
  JoinSpec spec = MakeEquiJoin(0, 0);
  for (uint64_t seed = 50; seed < 54; ++seed) {
    auto stream = MakeStream(400 + 13 * seed, 1200 + 29 * seed, 24, seed);
    auto want = ReferencePairs(stream, spec);
    uint64_t migrations_batch = 0, migrations_tuple = 0;
    auto with_batch = RunThreaded(stream, spec, 8, 0.25, &migrations_batch,
                                  Plane::kBatched);
    auto with_tuple = RunThreaded(stream, spec, 8, 0.25, &migrations_tuple,
                                  Plane::kPerTuple);
    EXPECT_EQ(with_batch, want) << "seed " << seed;
    EXPECT_EQ(with_tuple, want) << "seed " << seed;
    EXPECT_EQ(with_batch, with_tuple) << "seed " << seed;
    EXPECT_GE(migrations_batch, 1u) << "seed " << seed;
    EXPECT_GE(migrations_tuple, 1u) << "seed " << seed;
  }
}

TEST(OperatorThread, FlatIndexExactAcrossProtocolMatrix) {
  // Sweep the protocol matrix with live migrations (extract on the sender,
  // Reserve+absorb rebuild on the receiver) forced by the aggressive
  // epsilon: the flat tag-filtered index must match the single-threaded
  // reference on every exchange plane. (The chained-baseline differential
  // axis retired with HashIndex; the flat index's standalone differential
  // anchor lives in flat_index_test.cc.)
  JoinSpec spec = MakeEquiJoin(0, 0);
  for (uint64_t seed = 70; seed < 73; ++seed) {
    auto stream = MakeStream(300 + 11 * seed, 900 + 23 * seed, 20, seed);
    auto want = ReferencePairs(stream, spec);
    for (Plane plane : kAllPlanes) {
      uint64_t migrations = 0;
      auto got = RunThreaded(stream, spec, 8, 0.25, &migrations, plane,
                             /*ingress_batch=*/1);
      EXPECT_EQ(got, want) << "seed " << seed << " " << PlaneName(plane);
      EXPECT_GE(migrations, 1u)
          << "seed " << seed << " " << PlaneName(plane);
    }
  }
}

TEST(OperatorThread, LargerRunWithManyMigrations) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(500, 8000, 40, 23);
  auto want = ReferencePairs(stream, spec);
  for (Plane plane : kAllPlanes) {
    uint64_t migrations = 0;
    auto got = RunThreaded(stream, spec, 16, 0.5, &migrations, plane);
    EXPECT_EQ(got, want) << PlaneName(plane);
    // The generalized planner may jump several grid steps in one migration
    // ((4,4) -> (1,16) directly), so at least one migration is guaranteed.
    EXPECT_GE(migrations, 1u) << PlaneName(plane);
  }
}

}  // namespace
}  // namespace ajoin
