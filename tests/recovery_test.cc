// Fault-tolerance hooks (paper section 4.3.3): joiner snapshot/restore and
// whole-operator checkpoint + replay — a crash after a checkpoint must not
// lose or duplicate any result, including when the checkpoint sits after
// migrations (non-identity layouts).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/random.h"
#include "src/core/operator.h"
#include "src/core/recovery.h"
#include "src/sim/sim_engine.h"
#include "src/tuple/serde.h"

namespace ajoin {
namespace {

std::vector<StreamTuple> MakeStream(uint64_t n_r, uint64_t n_s,
                                    int64_t domain, uint64_t seed) {
  std::vector<StreamTuple> out;
  Rng rng(seed);
  uint64_t left_r = n_r, left_s = n_s;
  while (left_r + left_s > 0) {
    bool pick_r = left_r > 0 &&
                  (left_s == 0 || rng.Uniform(left_r + left_s) < left_r);
    StreamTuple t;
    t.rel = pick_r ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(domain)));
    t.bytes = 16;
    out.push_back(t);
    (pick_r ? left_r : left_s)--;
  }
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> Reference(
    const std::vector<StreamTuple>& stream) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (stream[i].rel != Rel::kR) continue;
    for (uint64_t j = 0; j < stream.size(); ++j) {
      if (stream[j].rel == Rel::kS && stream[j].key == stream[i].key) {
        out.emplace_back(i, j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(JoinerSnapshot, RoundTrip) {
  JoinerConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machine_index = 0;
  cfg.initial_layout = GridLayout::Initial(Mapping{1, 1});
  cfg.num_reshufflers = 1;
  cfg.joiner_task_base = 0;
  JoinerCore joiner(cfg);

  class NullContext : public Context {
   public:
    int self() const override { return 0; }
    void Send(int, Envelope) override {}
    uint64_t NowMicros() const override { return 0; }
  } ctx;

  for (int i = 0; i < 200; ++i) {
    Envelope env;
    env.type = MsgType::kData;
    env.rel = i % 3 == 0 ? Rel::kR : Rel::kS;
    env.key = i % 20;
    env.tag = SplitMix64(static_cast<uint64_t>(i));
    env.seq = static_cast<uint64_t>(i);
    env.bytes = 16;
    env.store = true;
    joiner.OnMessage(std::move(env), ctx);
  }
  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(joiner.SnapshotState(&snapshot).ok());

  JoinerCore fresh(cfg);
  ASSERT_TRUE(fresh.RestoreState(snapshot).ok());
  EXPECT_EQ(fresh.stored_count(Rel::kR), joiner.stored_count(Rel::kR));
  EXPECT_EQ(fresh.stored_count(Rel::kS), joiner.stored_count(Rel::kS));
  EXPECT_EQ(fresh.metrics().stored_bytes, joiner.metrics().stored_bytes);

  // The restored joiner joins new tuples against the restored state.
  Envelope probe;
  probe.type = MsgType::kData;
  probe.rel = Rel::kR;
  probe.key = 1;  // S keys 1, 4, 7, ... include 1
  probe.tag = 123;
  probe.seq = 10000;
  probe.bytes = 16;
  probe.store = true;
  fresh.OnMessage(std::move(probe), ctx);
  EXPECT_GT(fresh.output_count(), 0u);
}

TEST(JoinerSnapshot, CorruptDataRejected) {
  JoinerConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.initial_layout = GridLayout::Initial(Mapping{1, 1});
  cfg.num_reshufflers = 1;
  JoinerCore joiner(cfg);
  std::vector<uint8_t> junk{1, 2, 3, 4, 5};
  EXPECT_FALSE(joiner.RestoreState(junk).ok());
  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(joiner.SnapshotState(&snapshot).ok());
  snapshot.resize(snapshot.size() / 2 + 3);  // truncate
  if (snapshot.size() > 12) {
    EXPECT_FALSE(joiner.RestoreState(snapshot).ok());
  }
}

TEST(JoinerSnapshot, HostileEntryCountRejected) {
  // A well-formed 26-byte snapshot whose first entry count claims 2^60
  // entries: the count must be bounded by the bytes that remain, so restore
  // returns InvalidArgument instead of throwing out of reserve().
  JoinerConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.initial_layout = GridLayout::Initial(Mapping{1, 1});
  cfg.num_reshufflers = 1;
  JoinerCore joiner(cfg);
  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(joiner.SnapshotState(&snapshot).ok());
  ASSERT_EQ(snapshot.size(), 26u);  // magic, version, epoch, two counts
  const uint64_t hostile = uint64_t{1} << 60;
  std::memcpy(snapshot.data() + 10, &hostile, sizeof(hostile));
  const Status status = joiner.RestoreState(snapshot);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(joiner.stored_count(Rel::kR), 0u);
}

// Offsets and widths of every count and length word in a serialized row
// starting at buf[*at]; advances *at past the row.
void RowWords(const std::vector<uint8_t>& buf, size_t* at,
              std::vector<std::pair<size_t, size_t>>* words) {
  uint16_t n;
  std::memcpy(&n, buf.data() + *at, sizeof(n));
  words->emplace_back(*at, sizeof(n));
  *at += sizeof(n);
  for (uint16_t i = 0; i < n; ++i) {
    const auto type = static_cast<ValueType>(buf[(*at)++]);
    if (type != ValueType::kString) {
      *at += 8;
      continue;
    }
    uint32_t len;
    std::memcpy(&len, buf.data() + *at, sizeof(len));
    words->emplace_back(*at, sizeof(len));
    *at += sizeof(len) + len;
  }
}

// Applies one seeded mutation: a bit flip, a truncation, or a count/length
// word (one of `words`) overwritten with a hostile value. Returns true for
// a truncation.
bool Mutate(Rng& rng, const std::vector<std::pair<size_t, size_t>>& words,
            std::vector<uint8_t>* buf) {
  switch (rng.Uniform(3)) {
    case 0: {
      const size_t at = rng.Uniform(buf->size());
      (*buf)[at] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
      return false;
    }
    case 1:
      buf->resize(rng.Uniform(buf->size()));
      return true;
    default: {
      const uint64_t kHostile[] = {0, 1, 0xffff, 0xffffffffu,
                                   uint64_t{1} << 60, ~uint64_t{0},
                                   rng.Next()};
      const uint64_t v = kHostile[rng.Uniform(std::size(kHostile))];
      const auto& [at, width] = words[rng.Uniform(words.size())];
      std::memcpy(buf->data() + at, &v, width);  // little-endian low bytes
      return false;
    }
  }
}

TEST(HostileInput, SeededMutationsReturnStatus) {
  // Thousands of seeded corruptions of a joiner snapshot with rows and of a
  // serialized row: every RestoreState/DeserializeRow call must come back
  // with a Status (never abort or throw), and a truncated buffer must be
  // rejected.
  JoinerConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.initial_layout = GridLayout::Initial(Mapping{1, 1});
  cfg.num_reshufflers = 1;
  JoinerCore joiner(cfg);
  class NullContext : public Context {
   public:
    int self() const override { return 0; }
    void Send(int, Envelope) override {}
    uint64_t NowMicros() const override { return 0; }
  } ctx;
  for (int i = 0; i < 40; ++i) {
    Envelope env;
    env.type = MsgType::kData;
    env.rel = i % 2 == 0 ? Rel::kR : Rel::kS;
    env.key = i % 7;
    env.tag = SplitMix64(static_cast<uint64_t>(i));
    env.seq = static_cast<uint64_t>(i);
    env.bytes = 24;
    env.store = true;
    env.has_row = i % 4 != 3;  // some entries slim
    if (env.has_row) {
      env.row.Append(Value(int64_t{i % 7}));
      env.row.Append(Value(0.5 * i));
      env.row.Append(Value(std::string(static_cast<size_t>(i % 5), 'x')));
    }
    joiner.OnMessage(std::move(env), ctx);
  }
  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(joiner.SnapshotState(&snapshot).ok());
  // Snapshot layout: magic u32, version u16, epoch u32, then per relation a
  // u64 entry count and entries of key, tag, seq (u64), bytes, epoch (u32),
  // a has_row byte and the row when set.
  std::vector<std::pair<size_t, size_t>> snap_words;
  size_t at = 10;
  for (int rel = 0; rel < 2; ++rel) {
    uint64_t count;
    std::memcpy(&count, snapshot.data() + at, sizeof(count));
    snap_words.emplace_back(at, sizeof(count));
    at += sizeof(count);
    for (uint64_t i = 0; i < count; ++i) {
      at += 8 + 8 + 8 + 4 + 4;
      if (snapshot[at++] != 0) RowWords(snapshot, &at, &snap_words);
    }
  }
  ASSERT_EQ(at, snapshot.size());

  Row row;
  row.Append(Value(int64_t{-3}));
  row.Append(Value("hostile"));
  row.Append(Value(2.25));
  row.Append(Value(std::string(40, 'y')));
  std::vector<uint8_t> row_buf;
  SerializeRow(row, &row_buf);
  std::vector<std::pair<size_t, size_t>> row_words;
  at = 0;
  RowWords(row_buf, &at, &row_words);
  ASSERT_EQ(at, row_buf.size());

  Rng rng(20261020);
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> buf = snapshot;
    const bool truncated = Mutate(rng, snap_words, &buf);
    JoinerCore target(cfg);
    const Status status = target.RestoreState(buf);
    if (truncated) {
      EXPECT_FALSE(status.ok()) << "trial " << trial;
    }
    if (!status.ok()) ++rejected;

    buf = row_buf;
    const bool row_truncated = Mutate(rng, row_words, &buf);
    size_t offset = 0;
    const Result<Row> got = DeserializeRow(buf, &offset);
    if (row_truncated) {
      EXPECT_FALSE(got.ok()) << "trial " << trial;
    }
    if (got.ok()) {
      EXPECT_LE(offset, buf.size());
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// Crash-and-recover drill: run a prefix, checkpoint, keep running (the
// "lost" suffix), then rebuild a fresh operator from the checkpoint and
// replay the suffix. Combined output must equal the reference exactly.
void CrashRecoveryDrill(uint32_t machines, uint64_t n_r, uint64_t n_s,
                        double crash_at, uint64_t seed) {
  auto stream = MakeStream(n_r, n_s, 25, seed);
  auto want = Reference(stream);
  const size_t cut = static_cast<size_t>(crash_at *
                                         static_cast<double>(stream.size()));

  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = machines;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;

  // Phase 1: run to the checkpoint, snapshot, then "crash".
  SimEngine engine1;
  JoinOperator op1(engine1, cfg);
  engine1.Start();
  for (size_t i = 0; i < cut; ++i) {
    op1.Push(stream[i]);
    engine1.WaitQuiescent();
  }
  OperatorCheckpoint ckpt;
  ASSERT_TRUE(CheckpointOperator(op1, &ckpt).ok());
  EXPECT_EQ(ckpt.next_seq, cut);
  auto pairs_before = op1.CollectPairs();

  // Phase 2: recover on a fresh engine and replay the unacknowledged
  // suffix with original sequence numbers.
  SimEngine engine2;
  OperatorConfig rcfg = RecoveryConfig(cfg, ckpt);
  JoinOperator op2(engine2, rcfg);
  engine2.Start();
  ASSERT_TRUE(RestoreOperator(&op2, ckpt).ok());
  for (size_t i = cut; i < stream.size(); ++i) {
    op2.Push(stream[i]);
    engine2.WaitQuiescent();
  }
  op2.SendEos();
  engine2.WaitQuiescent();

  auto got = pairs_before;
  auto pairs_after = op2.CollectPairs();
  got.insert(got.end(), pairs_after.begin(), pairs_after.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << "J=" << machines << " crash_at=" << crash_at;
}

TEST(Recovery, CrashEarly) { CrashRecoveryDrill(8, 100, 400, 0.2, 71); }
TEST(Recovery, CrashMid) { CrashRecoveryDrill(8, 100, 400, 0.5, 72); }
TEST(Recovery, CrashLate) { CrashRecoveryDrill(16, 150, 600, 0.8, 73); }

TEST(Recovery, CheckpointAfterMigrations) {
  // The lopsided stream forces migrations before the checkpoint, so the
  // layout at checkpoint time is not the identity — recovery must remap
  // blobs by grid coordinates.
  auto stream = MakeStream(30, 1200, 12, 74);
  auto want = Reference(stream);
  const size_t cut = stream.size() / 2;

  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 16;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;

  SimEngine engine1;
  JoinOperator op1(engine1, cfg);
  engine1.Start();
  for (size_t i = 0; i < cut; ++i) {
    op1.Push(stream[i]);
    engine1.WaitQuiescent();
  }
  ASSERT_GE(op1.controller()->log().size(), 1u)
      << "test needs pre-checkpoint migrations";
  OperatorCheckpoint ckpt;
  ASSERT_TRUE(CheckpointOperator(op1, &ckpt).ok());
  EXPECT_NE(ckpt.mapping, MidMapping(16));
  auto got = op1.CollectPairs();

  SimEngine engine2;
  JoinOperator op2(engine2, RecoveryConfig(cfg, ckpt));
  engine2.Start();
  ASSERT_TRUE(RestoreOperator(&op2, ckpt).ok());
  for (size_t i = cut; i < stream.size(); ++i) {
    op2.Push(stream[i]);
    engine2.WaitQuiescent();
  }
  op2.SendEos();
  engine2.WaitQuiescent();
  auto pairs_after = op2.CollectPairs();
  got.insert(got.end(), pairs_after.begin(), pairs_after.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

TEST(Recovery, RestoreIntoUsedOperatorFails) {
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  SimEngine engine;
  JoinOperator op(engine, cfg);
  engine.Start();
  StreamTuple t;
  t.rel = Rel::kR;
  t.key = 1;
  t.bytes = 8;
  op.Push(t);
  engine.WaitQuiescent();
  OperatorCheckpoint ckpt;
  ASSERT_TRUE(CheckpointOperator(op, &ckpt).ok());
  EXPECT_FALSE(RestoreOperator(&op, ckpt).ok());  // already used
}

}  // namespace
}  // namespace ajoin
