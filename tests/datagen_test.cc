// TPC-H-like generator and workload tests: determinism, filter selectivities,
// skew behaviour, arrival policies (incl. the fluctuation pattern of §5.4).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/datagen/tpch.h"
#include "src/datagen/workloads.h"

namespace ajoin {
namespace {

TpchConfig SmallConfig(double z = 0.0) {
  TpchConfig cfg;
  cfg.gb = 1.0;
  cfg.lineitem_rows_per_gb = 20000;
  cfg.zipf_z = z;
  cfg.seed = 99;
  return cfg;
}

TEST(TpchGen, DeterministicAndRandomAccess) {
  TpchGen a(SmallConfig()), b(SmallConfig());
  // Same rows regardless of access order.
  Row r5 = a.Lineitem(5);
  a.Lineitem(100);
  EXPECT_EQ(b.Lineitem(5), r5);
  EXPECT_EQ(a.Lineitem(5), r5);
  LineitemLite lite = a.LineitemFast(5);
  EXPECT_EQ(lite.orderkey, r5.Int64(LineitemCols::kOrderKey));
  EXPECT_EQ(lite.suppkey, r5.Int64(LineitemCols::kSuppKey));
  EXPECT_EQ(lite.shipdate, r5.Int64(LineitemCols::kShipDate));
  EXPECT_EQ(lite.shipmode, r5.Int64(LineitemCols::kShipMode));
}

TEST(TpchGen, DomainsRespected) {
  TpchGen gen(SmallConfig(0.5));
  for (uint64_t i = 0; i < 2000; ++i) {
    LineitemLite t = gen.LineitemFast(i);
    EXPECT_GE(t.orderkey, 1);
    EXPECT_LE(t.orderkey, static_cast<int64_t>(gen.config().NumOrders()));
    EXPECT_GE(t.suppkey, 1);
    EXPECT_LE(t.suppkey, static_cast<int64_t>(gen.config().NumSuppliers()));
    EXPECT_GE(t.quantity, 1);
    EXPECT_LE(t.quantity, 50);
    EXPECT_GE(t.shipdate, 0);
    EXPECT_LT(t.shipdate, kShipDateDays);
    EXPECT_GE(t.shipmode, 0);
    EXPECT_LT(t.shipmode, kNumShipModes);
  }
}

TEST(TpchGen, ZipfSkewsForeignKeys) {
  // At z=1 the most popular supplier key should receive far more lineitems
  // than at z=0.
  auto top_share = [](double z) {
    TpchGen gen(SmallConfig(z));
    std::map<int64_t, int> counts;
    const int n = 10000;
    for (int i = 0; i < n; ++i) counts[gen.LineitemFast(i).suppkey]++;
    int top = 0;
    for (auto& [k, c] : counts) top = std::max(top, c);
    return static_cast<double>(top) / n;
  };
  double uniform_top = top_share(0.0);
  double skewed_top = top_share(1.0);
  EXPECT_GT(skewed_top, 5 * uniform_top);
}

TEST(Workload, CountsAndSelectivities) {
  TpchConfig cfg = SmallConfig();
  const double n_li = static_cast<double>(cfg.NumLineitem());
  {
    Workload w(QueryId::kBCI, cfg);
    // L1: shipmode=TRUCK (1/7) and quantity>45 (1/10).
    EXPECT_NEAR(w.r_count(), n_li / 70, n_li / 70 * 0.25);
    // L2: shipmode != TRUCK (6/7).
    EXPECT_NEAR(w.s_count(), n_li * 6 / 7, n_li * 0.02);
    EXPECT_EQ(w.spec().kind, JoinSpec::Kind::kBand);
  }
  {
    Workload w(QueryId::kBNCI, cfg);
    EXPECT_NEAR(w.r_count(), n_li * 2 / (7 * 50), n_li / 175 * 0.3);
    EXPECT_NEAR(w.s_count(), n_li / 4, n_li * 0.02);
  }
  {
    Workload w(QueryId::kEQ5, cfg);
    // 1/5 of suppliers qualify; all lineitems.
    EXPECT_NEAR(w.r_count(), cfg.NumSuppliers() / 5.0,
                cfg.NumSuppliers() * 0.15);
    EXPECT_EQ(w.s_count(), cfg.NumLineitem());
    EXPECT_EQ(w.spec().kind, JoinSpec::Kind::kEqui);
  }
  {
    Workload w(QueryId::kFluct, cfg);
    EXPECT_NEAR(w.r_count(), cfg.NumOrders() * 3 / 5.0,
                cfg.NumOrders() * 0.05);
  }
}

TEST(Workload, SourceEmitsExactlyCounts) {
  Workload w(QueryId::kEQ7, SmallConfig());
  auto source = w.MakeSource(ArrivalPolicy{});
  uint64_t r = 0, s = 0;
  StreamTuple t;
  while (source->Next(&t)) {
    if (t.rel == Rel::kR) {
      ++r;
    } else {
      ++s;
    }
    EXPECT_FALSE(t.has_row);
    EXPECT_GT(t.bytes, 0u);
  }
  EXPECT_EQ(r, w.r_count());
  EXPECT_EQ(s, w.s_count());
}

TEST(Workload, MaterializedRowsMatchSlimKeys) {
  TpchConfig cfg = SmallConfig();
  cfg.lineitem_rows_per_gb = 2000;
  Workload slim(QueryId::kBCI, cfg, /*materialize_rows=*/false);
  Workload rows(QueryId::kBCI, cfg, /*materialize_rows=*/true);
  auto s1 = slim.MakeSource(ArrivalPolicy{});
  auto s2 = rows.MakeSource(ArrivalPolicy{});
  StreamTuple a, b;
  while (s1->Next(&a)) {
    ASSERT_TRUE(s2->Next(&b));
    EXPECT_EQ(a.rel, b.rel);
    EXPECT_EQ(a.key, b.key);
    ASSERT_TRUE(b.has_row);
    // Key column consistency.
    int col = b.rel == Rel::kR ? rows.spec().r_key_col : rows.spec().s_key_col;
    EXPECT_EQ(b.row.Int64(static_cast<size_t>(col)), b.key);
  }
  EXPECT_FALSE(s2->Next(&b));
}

TEST(Workload, FluctuatingPolicyOscillates) {
  TpchConfig cfg = SmallConfig();
  Workload w(QueryId::kFluct, cfg);
  ArrivalPolicy policy;
  policy.kind = ArrivalPolicy::Kind::kFluctuating;
  policy.fluct_k = 4.0;
  auto source = w.MakeSource(policy);
  StreamTuple t;
  double max_ratio = 0, min_ratio = 1e9;
  uint64_t r = 0, s = 0, emitted = 0;
  while (source->Next(&t)) {
    (t.rel == Rel::kR ? r : s)++;
    ++emitted;
    if (emitted > 1000 && r > 0 && s > 0) {
      double ratio = static_cast<double>(r) / static_cast<double>(s);
      max_ratio = std::max(max_ratio, ratio);
      min_ratio = std::min(min_ratio, ratio);
    }
  }
  // The cardinality ratio must have swung both above k/2 and below 2/k.
  EXPECT_GT(max_ratio, 2.0);
  EXPECT_LT(min_ratio, 0.5);
}

TEST(Workload, RFirstPolicy) {
  Workload w(QueryId::kEQ5, SmallConfig());
  ArrivalPolicy policy;
  policy.kind = ArrivalPolicy::Kind::kRFirst;
  auto source = w.MakeSource(policy);
  StreamTuple t;
  bool seen_s = false;
  while (source->Next(&t)) {
    if (t.rel == Rel::kS) seen_s = true;
    if (seen_s) {
      EXPECT_EQ(t.rel, Rel::kS) << "R after S in kRFirst order";
    }
  }
}

TEST(Workload, QueryNames) {
  EXPECT_STREQ(QueryName(QueryId::kEQ5), "EQ5");
  EXPECT_STREQ(QueryName(QueryId::kBNCI), "BNCI");
}

}  // namespace
}  // namespace ajoin
