// Tests of the benchmark's latency bookkeeping, its reference counters, and
// a tiny end-to-end trial of each workload shape on ThreadEngine.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "live.h"
#include "spans.h"

namespace perfbench {
namespace {

using ajoin::Rel;

TEST(Latency, OpenLoopMeasuresFromTheLaterInputsDueTime) {
  DueTable due;
  due.InitOpen(/*start_ns=*/1'000'000'000, /*rate_tps=*/500'000);  // 2 us apart
  EXPECT_EQ(due.DueUs(0), 1'000'000u);
  EXPECT_EQ(due.DueUs(10), 1'000'020u);
  // Result (r_seq=10, s_seq=3) is due with input 10, whichever side it is.
  EXPECT_EQ(ResultLatencyUs(due, 10, 3, 1'000'120), 100u);
  EXPECT_EQ(ResultLatencyUs(due, 3, 10, 1'000'120), 100u);
  // Arriving before the due time (clock granularity) reads as 0, not wrap.
  EXPECT_EQ(ResultLatencyUs(due, 10, 3, 1'000'000), 0u);
}

TEST(Latency, ClosedLoopMeasuresFromThePushGroupStart) {
  DueTable due;
  due.InitClosed(3 * DueTable::kGroup);
  due.StampGroup(0, 100);
  due.StampGroup(1, 250);
  due.StampGroup(2, 400);
  EXPECT_EQ(due.DueUs(DueTable::kGroup - 1), 100u);
  EXPECT_EQ(due.DueUs(DueTable::kGroup), 250u);
  EXPECT_EQ(ResultLatencyUs(due, 5, DueTable::kGroup + 7, 1000), 750u);
  EXPECT_EQ(ResultLatencyUs(due, 2 * DueTable::kGroup, 1, 1000), 600u);
}

TEST(Reference, CountsPerKeyAndChecksumsPairs) {
  // seq:            0        1        2        3        4
  const std::vector<InputTuple> stream = {
      {1, 32, Rel::kR}, {1, 32, Rel::kS}, {1, 32, Rel::kS},
      {2, 32, Rel::kR}, {3, 32, Rel::kS}};
  const JoinReference ref = ReferenceFor(stream);
  ASSERT_EQ(ref.per_key.size(), 4u);
  EXPECT_EQ(ref.per_key[1], 2u);
  EXPECT_EQ(ref.per_key[2], 0u);
  EXPECT_EQ(ref.per_key[3], 0u);
  EXPECT_EQ(ref.total, 2u);
  EXPECT_EQ(ref.checksum, PairHash(0, 1) + PairHash(0, 2));

  std::vector<uint64_t> got = {0, 2, 0, 0};
  EXPECT_TRUE(CheckJoin(ref, got, 0, ref.checksum).ok());

  got[1] = 1;  // one result lost
  Check lost = CheckJoin(ref, got, 0, PairHash(0, 1));
  EXPECT_EQ(lost.missing, 1u);
  EXPECT_EQ(lost.extra, 0u);
  EXPECT_FALSE(lost.ok());

  got = {0, 2, 1, 0};  // a phantom result on key 2, one out of range
  Check extra = CheckJoin(ref, got, 1, ref.checksum);
  EXPECT_EQ(extra.extra, 2u);
  EXPECT_FALSE(extra.ok());

  // Right counts, wrong pair identity.
  got = {0, 2, 0, 0};
  Check swapped = CheckJoin(ref, got, 0, PairHash(0, 1) + PairHash(3, 2));
  EXPECT_EQ(swapped.missing + swapped.extra, 0u);
  EXPECT_FALSE(swapped.identity_ok);
}

TEST(Reference, AggregatesCompareTuplesCountsAndSums) {
  ajoin::ReferenceAggregator agg;
  agg.Add(7, 1.0, 80);
  agg.Add(7, 1.0, 80);
  agg.Add(9, 1.0, 80);
  const std::vector<ajoin::AggResult> ref = agg.Results();
  EXPECT_TRUE(CheckAgg(ref, ref).ok());
  EXPECT_EQ(CheckAgg(ref, ref).expected, 3u);

  std::vector<ajoin::AggResult> got = ref;
  got.pop_back();  // group 9 missing
  Check c = CheckAgg(ref, got);
  EXPECT_EQ(c.missing, 1u);
  EXPECT_FALSE(c.ok());

  got = ref;
  got[0].acc.sum += 1;  // same tuple count, wrong SUM
  EXPECT_FALSE(CheckAgg(ref, got).identity_ok);
}

WorkloadSpec Tiny(const std::string& name) {
  WorkloadSpec spec;
  EXPECT_TRUE(SpecFor(name, &spec));
  spec.r_count = 300;
  spec.s_count = 2700;
  spec.key_domain = 150;
  spec.gb = 0.3;  // 30000 lineitems, 51 suppliers
  return spec;
}

void ExpectExactTrial(const WorkloadSpec& spec) {
  const Inputs in = MakeInputs(spec, /*seed=*/5);
  ASSERT_GT(in.expected_results, 0u);
  SpanLog spans(0, true);
  const TrialStats t = RunTrial(spec, in, true, &spans, 1);
  EXPECT_TRUE(t.check.ok()) << spec.name << ": missing " << t.check.missing
                            << ", extra " << t.check.extra;
  EXPECT_EQ(t.check.expected, in.expected_results);
  EXPECT_EQ(t.inputs, in.pushed_inputs);
  EXPECT_EQ(t.lat_us.size(), t.results);
  EXPECT_GT(t.wall_s, 0);
  EXPECT_GT(t.cpu_s, 0);
  EXPECT_FALSE(spans.spans().empty());
  const auto self = SelfTimes(spans.spans());
  EXPECT_EQ(self.count("trial"), 1u);
  EXPECT_EQ(self.count("sink_batch"), 1u);
}

TEST(Trial, SkewEquiMatchesReferenceClosedAndOpenLoop) {
  WorkloadSpec spec = Tiny("skew_equi");
  ExpectExactTrial(spec);
  spec.rate_tps = 200000;  // the same stream open loop
  ExpectExactTrial(spec);
}

TEST(Trial, FluctOpenLoopMatchesReference) {
  const WorkloadSpec spec = Tiny("fluct_open");
  ExpectExactTrial(spec);
}

TEST(Trial, CascadeMatchesAggregateReference) {
  const WorkloadSpec spec = Tiny("tpch_cascade");
  const Inputs in = MakeInputs(spec, 5);
  EXPECT_GT(in.stage_a.size(), 0u);
  EXPECT_GT(in.agg_ref.size(), 0u);
  ExpectExactTrial(spec);
}

TEST(Trial, CorruptedReferenceFails) {
  const WorkloadSpec spec = Tiny("skew_equi");
  Inputs in = MakeInputs(spec, 5);
  for (uint64_t& k : in.join_ref.per_key) {
    if (k > 0) {
      ++k;
      break;
    }
  }
  SpanLog off(0, false);
  const TrialStats t = RunTrial(spec, in, false, &off, 0);
  EXPECT_FALSE(t.check.ok());
  EXPECT_EQ(t.check.missing, 1u);
}

TEST(Spans, SelfTimeSubtractsCoveredChildIntervals) {
  SpanLog log(0, true);
  const uint64_t root = log.Open("root", 0, 0);
  log.Add("child", root, 10, 30);
  log.Add("child", root, 20, 40);  // overlaps the first: union is 10..40
  log.Add("child", root, 90, 120);  // clipped to the parent at 100
  log.Close(root, 100);
  const auto self = SelfTimes(log.spans());
  EXPECT_DOUBLE_EQ(self.at("root").self_ms, (100 - 30 - 10) * 1e-6);
  EXPECT_DOUBLE_EQ(self.at("child").total_ms, 70 * 1e-6);
  EXPECT_EQ(self.at("child").count, 3u);

  SpanLog off(1, false);
  EXPECT_EQ(off.Add("x", 0, 1, 2), 0u);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
