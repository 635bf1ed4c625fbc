// Google-benchmark micro benchmarks for the core building blocks: indexes,
// mapping math, layout relabeling, migration planning, routing, and a small
// end-to-end operator run on the threaded engine.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/random.h"
#include "src/core/migration.h"
#include "src/core/operator.h"
#include "src/core/partition.h"
#include "src/index/btree.h"
#include "src/index/flat_index.h"
#include "src/localjoin/local_join.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

void BM_FlatIndexInsert(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    FlatHashIndex index;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      index.Insert(static_cast<int64_t>(rng.Uniform(1 << 20)),
                   static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatIndexInsert)->Arg(100000);

// Duplicate-heavy inserts: Zipf(0.5) keys over 2,000 keys, so runs of very
// different lengths outgrow their arena slots at different times and the
// relocation path (with run reuse) dominates. Reports the index's
// MemoryBytes() per stored id.
void BM_FlatIndexInsertDuplicateHeavy(benchmark::State& state) {
  ZipfSampler zipf(2000, 0.5);
  Rng rng(4);
  std::vector<int64_t> keys(static_cast<size_t>(state.range(0)));
  for (int64_t& key : keys) key = static_cast<int64_t>(zipf.Sample(rng));
  double bytes_per_id = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FlatHashIndex index;
    state.ResumeTiming();
    for (size_t i = 0; i < keys.size(); ++i) {
      index.Insert(keys[i], static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(index.size());
    bytes_per_id = static_cast<double>(index.MemoryBytes()) /
                   static_cast<double>(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["bytes_per_id"] = bytes_per_id;
}
BENCHMARK(BM_FlatIndexInsertDuplicateHeavy)->Arg(1000000);

void BM_FlatIndexProbe(benchmark::State& state) {
  Rng rng(2);
  FlatHashIndex index;
  for (int i = 0; i < 200000; ++i) {
    index.Insert(static_cast<int64_t>(rng.Uniform(1 << 16)),
                 static_cast<uint64_t>(i));
  }
  uint64_t sink = 0;
  for (auto _ : state) {
    int64_t key = static_cast<int64_t>(rng.Uniform(1 << 16));
    index.ForEachMatch(key, [&sink](uint64_t id) { sink += id; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatIndexProbe);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(static_cast<int64_t>(rng.Uniform(1 << 20)),
                  static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(100000);

void BM_BTreeRangeScan(benchmark::State& state) {
  Rng rng(4);
  BPlusTree tree;
  for (int i = 0; i < 200000; ++i) {
    tree.Insert(static_cast<int64_t>(rng.Uniform(1 << 20)),
                static_cast<uint64_t>(i));
  }
  uint64_t sink = 0;
  for (auto _ : state) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(1 << 20));
    tree.ForEachInRange(lo, lo + 64,
                        [&sink](int64_t, uint64_t v) { sink += v; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeRangeScan);

void BM_OptimalMapping(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    Mapping m = OptimalMapping(1024, static_cast<double>(rng.Uniform(1 << 30)),
                               static_cast<double>(rng.Uniform(1 << 30)));
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_OptimalMapping);

void BM_GridRelabel(benchmark::State& state) {
  GridLayout layout = GridLayout::Initial(Mapping{32, 32});
  for (auto _ : state) {
    GridLayout next = layout.Relabel(Mapping{16, 64});
    benchmark::DoNotOptimize(next.J());
  }
}
BENCHMARK(BM_GridRelabel);

void BM_MigrationPlanBuild(benchmark::State& state) {
  GridLayout from = GridLayout::Initial(Mapping{32, 32});
  GridLayout to = from.Relabel(Mapping{16, 64});
  for (auto _ : state) {
    MigrationPlan plan(from, to, false);
    benchmark::DoNotOptimize(plan.NumMachines());
  }
}
BENCHMARK(BM_MigrationPlanBuild);

void BM_LocalJoinerEqui(benchmark::State& state) {
  Rng rng(6);
  LocalJoiner joiner(MakeEquiJoin(0, 0));
  uint64_t outputs = 0;
  for (auto _ : state) {
    Row row;
    row.Append(Value(static_cast<int64_t>(rng.Uniform(1 << 16))));
    joiner.Insert(rng.NextBool(0.5) ? Rel::kR : Rel::kS, row,
                  [&outputs](const Row&, const Row&) { ++outputs; });
  }
  benchmark::DoNotOptimize(outputs);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalJoinerEqui);

void BM_SimOperatorEndToEnd(benchmark::State& state) {
  // Tuples/sec through the full adaptive operator on the deterministic
  // engine (routing + protocol + join work), J = 16.
  for (auto _ : state) {
    state.PauseTiming();
    SimEngine engine;
    OperatorConfig cfg;
    cfg.spec = MakeEquiJoin(0, 0);
    cfg.machines = 16;
    cfg.keep_rows = false;
    cfg.min_total_before_adapt = 256;
    JoinOperator op(engine, cfg);
    engine.Start();
    Rng rng(7);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      StreamTuple t;
      t.rel = rng.NextBool(0.2) ? Rel::kR : Rel::kS;
      t.key = static_cast<int64_t>(rng.Uniform(1 << 14));
      t.bytes = 32;
      op.Push(t);
      engine.WaitQuiescent();
    }
    op.SendEos();
    engine.WaitQuiescent();
    benchmark::DoNotOptimize(op.TotalOutputs());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimOperatorEndToEnd)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_ThreadOperatorEndToEnd(benchmark::State& state) {
  // Real-concurrency throughput on the threaded engine (batched exchange
  // plane), J = 8. See fig_exchange_throughput for the per-tuple-vs-batched
  // sweep.
  for (auto _ : state) {
    state.PauseTiming();
    ThreadEngine engine{ExchangeConfig{}};
    OperatorConfig cfg;
    cfg.spec = MakeEquiJoin(0, 0);
    cfg.machines = 8;
    cfg.keep_rows = false;
    cfg.min_total_before_adapt = 256;
    JoinOperator op(engine, cfg);
    engine.Start();
    Rng rng(8);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      StreamTuple t;
      t.rel = rng.NextBool(0.2) ? Rel::kR : Rel::kS;
      t.key = static_cast<int64_t>(rng.Uniform(1 << 14));
      t.bytes = 32;
      op.Push(t);
    }
    op.SendEos();
    engine.WaitQuiescent();
    benchmark::DoNotOptimize(op.TotalOutputs());
    state.PauseTiming();
    engine.Shutdown();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThreadOperatorEndToEnd)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ajoin

BENCHMARK_MAIN();
