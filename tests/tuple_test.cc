// Value / Row / Schema / serde tests, plus the message-envelope contract
// (every MsgType named, control/data classification total, the compact
// record: size bound, out-of-line control payload, Row value semantics).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/common/random.h"
#include "src/net/message.h"
#include "src/tuple/row.h"
#include "src/tuple/schema.h"
#include "src/tuple/serde.h"

namespace ajoin {
namespace {

TEST(Value, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s(std::string("hi"));
  EXPECT_EQ(i.type(), ValueType::kInt64);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
  EXPECT_EQ(s.AsString(), "hi");
  EXPECT_DOUBLE_EQ(i.AsNumeric(), 42.0);
}

TEST(Value, OrderingAndEquality) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value(1.5) < Value(int64_t{2}));  // mixed numeric
  EXPECT_TRUE(Value("abc") < Value("abd"));
  EXPECT_EQ(Value(int64_t{7}), Value(int64_t{7}));
  EXPECT_NE(Value(int64_t{7}), Value(7.0));  // type-sensitive equality
}

TEST(Value, ByteSize) {
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value("abcd").ByteSize(), 8u);  // 4 length + 4 chars
}

TEST(Schema, IndexOf) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.IndexOf("b"), 1);
  EXPECT_EQ(schema.IndexOf("zz"), -1);
  EXPECT_EQ(schema.ToString(), "(a:int64, b:string)");
}

TEST(Row, BasicOps) {
  Row row;
  row.Append(Value(int64_t{5}));
  row.Append(Value("xyz"));
  row.Append(Value(2.25));
  EXPECT_EQ(row.num_values(), 3u);
  EXPECT_EQ(row.Int64(0), 5);
  EXPECT_EQ(row.String(1), "xyz");
  EXPECT_DOUBLE_EQ(row.Double(2), 2.25);
  EXPECT_EQ(row.ToString(), "[5, xyz, 2.25]");
}

Row MixedRow() {
  Row row;
  row.Append(Value(int64_t{5}));
  row.Append(Value("xyz"));
  row.Append(Value(2.25));
  return row;
}

TEST(Row, CopyIsIndependent) {
  Row original = MixedRow();
  Row copy(original);
  EXPECT_EQ(copy, original);
  copy.value(0) = Value(int64_t{6});
  copy.Append(Value(int64_t{7}));
  EXPECT_EQ(original.Int64(0), 5);
  EXPECT_EQ(original.num_values(), 3u);
  Row assigned;
  assigned = original;
  original.value(1) = Value("abc");
  EXPECT_EQ(assigned.String(1), "xyz");
  const Row& alias = assigned;
  assigned = alias;  // self-assignment keeps the row intact
  EXPECT_EQ(assigned.ToString(), "[5, xyz, 2.25]");
}

TEST(Row, EmptyRowEqualsDefaultRow) {
  Row empty(std::vector<Value>{});
  Row built = MixedRow();
  Row drained = std::move(built);
  EXPECT_EQ(empty, Row());
  EXPECT_EQ(Row(empty), Row());
  EXPECT_EQ(empty.num_values(), 0u);
  EXPECT_FALSE(drained == Row());
  EXPECT_EQ(Row().ByteSize(), 2u);
  EXPECT_EQ(Row().ToString(), "[]");
}

TEST(Row, AppendAllOntoEmptyRow) {
  Row row;
  row.AppendAll(Row());  // empty onto empty stays empty
  EXPECT_EQ(row, Row());
  row.AppendAll(MixedRow());
  EXPECT_EQ(row, MixedRow());
  row.AppendAll(row);  // self-concatenation reads the pre-append values
  EXPECT_EQ(row.ToString(), "[5, xyz, 2.25, 5, xyz, 2.25]");
  Row sized;
  sized.Reserve(6);
  sized.AppendAll(MixedRow());
  sized.AppendAll(MixedRow());
  EXPECT_EQ(sized, row);
}

TEST(Row, MovedFromRowIsEmpty) {
  Row row = MixedRow();
  Row moved(std::move(row));
  EXPECT_EQ(row.num_values(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(row, Row());
  EXPECT_EQ(moved, MixedRow());
  Row target = MixedRow();
  target = std::move(moved);
  EXPECT_EQ(moved.num_values(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target, MixedRow());
  row.Append(Value(int64_t{1}));  // a moved-from row is reusable
  EXPECT_EQ(row.ToString(), "[1]");
}

TEST(Row, ByteSizeToStringAndSerdeUnchanged) {
  // Pinned against the pre-handle vector layout: the handle is an internal
  // change, so footprint accounting and the wire format must not move.
  const Row row = MixedRow();
  EXPECT_EQ(row.ByteSize(), 2u + (1 + 8) + (1 + 7) + (1 + 8));
  EXPECT_EQ(row.ToString(), "[5, xyz, 2.25]");
  std::vector<uint8_t> buf;
  SerializeRow(row, &buf);
  EXPECT_EQ(buf.size(), row.ByteSize());
  size_t offset = 0;
  auto got = DeserializeRow(buf, &offset);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), row);
  EXPECT_EQ(offset, buf.size());
}

TEST(Serde, RoundTripMixedRows) {
  Rng rng(17);
  std::vector<uint8_t> buf;
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    Row row;
    row.Append(Value(static_cast<int64_t>(rng.Next())));
    row.Append(Value(rng.NextDouble()));
    std::string s(rng.Uniform(50), 'a' + static_cast<char>(rng.Uniform(26)));
    row.Append(Value(s));
    SerializeRow(row, &buf);
    rows.push_back(std::move(row));
  }
  size_t offset = 0;
  for (int i = 0; i < 200; ++i) {
    auto got = DeserializeRow(buf, &offset);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), rows[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(Serde, TruncatedBufferFailsCleanly) {
  Row row;
  row.Append(Value(int64_t{1}));
  row.Append(Value("hello world"));
  std::vector<uint8_t> buf;
  SerializeRow(row, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<uint8_t> truncated(buf.begin(),
                                   buf.begin() + static_cast<long>(cut));
    size_t offset = 0;
    auto got = DeserializeRow(truncated, &offset);
    EXPECT_FALSE(got.ok()) << "cut at " << cut;
  }
}

TEST(Serde, FuzzRandomBytesNeverCrash) {
  // Deserialization of arbitrary bytes must fail cleanly, never crash or
  // over-read.
  Rng rng(23);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.Uniform(64));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Uniform(256));
    size_t offset = 0;
    auto result = DeserializeRow(junk, &offset);
    if (result.ok()) {
      EXPECT_LE(offset, junk.size());
    }
  }
}

TEST(Message, EveryMsgTypeIsNamed) {
  // Every value in [0, kNumMsgTypes) must have a real name, and the value
  // just past the end must hit the switch fallback — so adding an enum
  // value without a MsgTypeName case (or without bumping kNumMsgTypes)
  // fails here instead of shipping an unnamed type.
  for (uint8_t v = 0; v < kNumMsgTypes; ++v) {
    const char* name = MsgTypeName(static_cast<MsgType>(v));
    EXPECT_STRNE(name, "?") << "unnamed MsgType value " << int{v};
    EXPECT_GT(std::strlen(name), 0u) << "empty name for value " << int{v};
  }
  EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(kNumMsgTypes)), "?");
}

TEST(Message, NamesAreDistinct) {
  for (uint8_t a = 0; a < kNumMsgTypes; ++a) {
    for (uint8_t b = static_cast<uint8_t>(a + 1); b < kNumMsgTypes; ++b) {
      EXPECT_STRNE(MsgTypeName(static_cast<MsgType>(a)),
                   MsgTypeName(static_cast<MsgType>(b)))
          << int{a} << " vs " << int{b};
    }
  }
}

TEST(Message, ControlDataClassification) {
  // The egress plane depends on kResult being data (it must batch and ride
  // SendRun); the migration protocol depends on its markers being control.
  EXPECT_FALSE(IsControlMsg(MsgType::kInput));
  EXPECT_FALSE(IsControlMsg(MsgType::kData));
  EXPECT_FALSE(IsControlMsg(MsgType::kMigrate));
  EXPECT_FALSE(IsControlMsg(MsgType::kResult));
  EXPECT_TRUE(IsControlMsg(MsgType::kMigEnd));
  EXPECT_TRUE(IsControlMsg(MsgType::kEpochChange));
  EXPECT_TRUE(IsControlMsg(MsgType::kReshufSignal));
  EXPECT_TRUE(IsControlMsg(MsgType::kMigAck));
  EXPECT_TRUE(IsControlMsg(MsgType::kEos));
  EXPECT_TRUE(IsControlMsg(MsgType::kExpand));
  EXPECT_TRUE(IsControlMsg(MsgType::kCheckpoint));
}

TEST(Message, EnvelopeIsCompact) {
  // The header enforces the bound at compile time; restated here so the
  // contract is visible next to the other envelope tests.
  static_assert(sizeof(Envelope) <= 80, "Envelope grew past 80 bytes");
  static_assert(sizeof(Row) == sizeof(void*), "Row is a one-pointer handle");
  EXPECT_LE(sizeof(Envelope), 80u);
}

TEST(Message, CopiedDataEnvelopeCarriesNoControlPayload) {
  Envelope data = MakeInput(Rel::kS, 42, 16, 7);
  data.type = MsgType::kData;
  data.has_row = true;
  data.row = MixedRow();
  const Envelope copy = data;
  EXPECT_FALSE(copy.espec);
  EXPECT_EQ(copy.row, data.row);
  EXPECT_EQ(copy.key, 42);
  EXPECT_EQ(copy.seq, 7u);
  TupleBatch batch;
  batch.Add(Envelope(copy));
  const TupleBatch batch_copy = batch;
  EXPECT_FALSE(batch_copy.items[0].espec);
  EXPECT_EQ(batch_copy.items[0].row, MixedRow());
  Envelope slim = MakeInput(Rel::kR, 1, 8, 0);
  Envelope slim_copy = slim;
  EXPECT_FALSE(slim_copy.espec);
  EXPECT_EQ(slim_copy.row.num_values(), 0u);
}

TEST(Message, ControlPayloadDeepCopies) {
  Envelope change;
  change.type = MsgType::kEpochChange;
  EpochSpec& spec = change.espec.emplace();
  spec.group = 2;
  spec.epoch = 3;
  spec.mapping = Mapping{4, 2};
  spec.agg_assign = {1, 0, 1, 0};
  Envelope copy = change;
  ASSERT_TRUE(copy.espec);
  EXPECT_NE(&*copy.espec, &*change.espec);  // its own allocation
  EXPECT_EQ(copy.espec->group, 2u);
  EXPECT_EQ(copy.espec->epoch, 3u);
  EXPECT_EQ(copy.espec->mapping, (Mapping{4, 2}));
  EXPECT_EQ(copy.espec->agg_assign, (std::vector<uint32_t>{1, 0, 1, 0}));
  copy.espec.emplace().epoch = 9;  // replacing the copy's payload ...
  EXPECT_EQ(change.espec->epoch, 3u);  // ... leaves the original alone
  Envelope assigned;
  assigned = change;
  EXPECT_EQ(assigned.espec->agg_assign, change.espec->agg_assign);
  TupleBatch single(std::move(assigned));
  EXPECT_EQ(single.items[0].espec->epoch, 3u);
  Envelope plain;
  plain.espec = *change.espec;  // assigning a descriptor boxes a copy
  EXPECT_EQ(plain.espec->mapping, (Mapping{4, 2}));
}

TEST(Serde, EmptyRow) {
  Row row;
  std::vector<uint8_t> buf;
  SerializeRow(row, &buf);
  size_t offset = 0;
  auto got = DeserializeRow(buf, &offset);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().num_values(), 0u);
}

}  // namespace
}  // namespace ajoin
