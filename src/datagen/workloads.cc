#include "src/datagen/workloads.h"

#include <algorithm>

#include "src/common/status.h"

namespace ajoin {

const char* QueryName(QueryId id) {
  switch (id) {
    case QueryId::kEQ5: return "EQ5";
    case QueryId::kEQ7: return "EQ7";
    case QueryId::kBCI: return "BCI";
    case QueryId::kBNCI: return "BNCI";
    case QueryId::kFluct: return "Fluct";
  }
  return "?";
}

Workload::Workload(QueryId id, const TpchConfig& config, bool materialize_rows)
    : id_(id),
      config_(config),
      materialize_rows_(materialize_rows),
      name_(QueryName(id)),
      gen_(std::make_shared<TpchGen>(config)) {
  Build();
  r_.filtered_count = CountFiltered(r_);
  s_.filtered_count = CountFiltered(s_);
}

Workload Workload::Synthetic(uint64_t r_count, uint64_t s_count,
                             uint32_t r_bytes, uint32_t s_bytes,
                             uint64_t key_domain, double zipf_z,
                             uint64_t seed) {
  Workload w;
  w.id_ = QueryId::kEQ5;  // closest shape: small R, large skewed S
  w.name_ = "Synthetic";
  w.materialize_rows_ = false;
  w.spec_ = MakeEquiJoin(0, 0, "synthetic-equi");
  auto zipf = std::make_shared<ZipfSampler>(key_domain, zipf_z);
  w.r_.base_count = r_count;
  w.r_.filtered_count = r_count;
  w.r_.tuple_bytes = r_bytes;
  w.r_.gen = [key_domain, seed](uint64_t i, int64_t* key, Row* /*row*/,
                                bool /*want_row*/) {
    Rng rng(SplitMix64(seed * 31 + i * 2));
    *key = static_cast<int64_t>(1 + rng.Uniform(key_domain));
    return true;
  };
  w.s_.base_count = s_count;
  w.s_.filtered_count = s_count;
  w.s_.tuple_bytes = s_bytes;
  w.s_.gen = [zipf, seed](uint64_t i, int64_t* key, Row* /*row*/,
                          bool /*want_row*/) {
    Rng rng(SplitMix64(seed * 37 + i * 2 + 1));
    *key = static_cast<int64_t>(zipf->Sample(rng));
    return true;
  };
  return w;
}

uint64_t Workload::CountFiltered(const SideDef& side) {
  uint64_t n = 0;
  int64_t key;
  for (uint64_t i = 0; i < side.base_count; ++i) {
    if (side.gen(i, &key, nullptr, false)) ++n;
  }
  return n;
}

void Workload::Build() {
  auto gen = gen_;
  const uint64_t n_li = config_.NumLineitem();
  const uint64_t n_orders = config_.NumOrders();
  const uint64_t n_supp = config_.NumSuppliers();

  switch (id_) {
    case QueryId::kEQ5: {
      // R = Region |X| Nation |X| Supplier, region fixed (1 of 5 regions).
      // S = Lineitem, key = l_suppkey (Zipf-skewed).
      spec_ = MakeEquiJoin(/*r_key_col=*/0, LineitemCols::kSuppKey, "EQ5");
      r_.base_count = n_supp;
      r_.tuple_bytes = 64;
      r_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        int64_t nation = gen->SupplierNation(i);
        if (nation % kNumRegions != 0) return false;  // region filter
        *key = static_cast<int64_t>(i + 1);
        if (want_row) {
          Row r;
          r.Append(Value(static_cast<int64_t>(i + 1)));  // suppkey
          r.Append(Value(nation));
          r.Append(Value(nation % kNumRegions));  // regionkey
          *row = std::move(r);
        }
        return true;
      };
      s_.base_count = n_li;
      s_.tuple_bytes = 32;
      s_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        if (want_row) {
          *row = gen->Lineitem(i);
          *key = row->Int64(LineitemCols::kSuppKey);
        } else {
          *key = gen->LineitemFast(i).suppkey;
        }
        return true;
      };
      break;
    }
    case QueryId::kEQ7: {
      // R = Supplier |X| Nation restricted to two nations (Q7's FRANCE,
      // GERMANY). S = Lineitem, key = l_suppkey.
      spec_ = MakeEquiJoin(/*r_key_col=*/0, LineitemCols::kSuppKey, "EQ7");
      r_.base_count = n_supp;
      r_.tuple_bytes = 48;
      r_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        int64_t nation = gen->SupplierNation(i);
        if (nation != 1 && nation != 2) return false;
        *key = static_cast<int64_t>(i + 1);
        if (want_row) {
          Row r;
          r.Append(Value(static_cast<int64_t>(i + 1)));
          r.Append(Value(nation));
          *row = std::move(r);
        }
        return true;
      };
      s_.base_count = n_li;
      s_.tuple_bytes = 32;
      s_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        if (want_row) {
          *row = gen->Lineitem(i);
          *key = row->Int64(LineitemCols::kSuppKey);
        } else {
          *key = gen->LineitemFast(i).suppkey;
        }
        return true;
      };
      break;
    }
    case QueryId::kBCI: {
      // Computation-intensive band self-join on shipdate:
      //   |L1.shipdate - L2.shipdate| <= 1,
      //   L1.shipmode = TRUCK and L1.quantity > 45, L2.shipmode != TRUCK.
      spec_ = MakeBandJoin(LineitemCols::kShipDate, LineitemCols::kShipDate,
                           -1, 1, "BCI");
      r_.base_count = n_li;
      r_.tuple_bytes = 32;
      r_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        LineitemLite t = gen->LineitemFast(i);
        if (t.shipmode != 0 || t.quantity <= 45) return false;
        *key = t.shipdate;
        if (want_row) *row = gen->Lineitem(i);
        return true;
      };
      s_.base_count = n_li;
      s_.tuple_bytes = 32;
      s_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        LineitemLite t = gen->LineitemFast(i);
        if (t.shipmode == 0) return false;
        *key = t.shipdate;
        if (want_row) *row = gen->Lineitem(i);
        return true;
      };
      break;
    }
    case QueryId::kBNCI: {
      // Non-computation-intensive band self-join on orderkey:
      //   |L1.orderkey - L2.orderkey| <= 1,
      //   L1.shipmode = TRUCK and L1.quantity > 48, L2.shipinstruct = NONE.
      spec_ = MakeBandJoin(LineitemCols::kOrderKey, LineitemCols::kOrderKey,
                           -1, 1, "BNCI");
      r_.base_count = n_li;
      r_.tuple_bytes = 32;
      r_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        LineitemLite t = gen->LineitemFast(i);
        if (t.shipmode != 0 || t.quantity <= 48) return false;
        *key = t.orderkey;
        if (want_row) *row = gen->Lineitem(i);
        return true;
      };
      s_.base_count = n_li;
      s_.tuple_bytes = 32;
      s_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        LineitemLite t = gen->LineitemFast(i);
        if (t.shipinstruct != 0) return false;
        *key = t.orderkey;
        if (want_row) *row = gen->Lineitem(i);
        return true;
      };
      break;
    }
    case QueryId::kFluct: {
      // Orders |X| Lineitem on orderkey; orders filtered on shippriority
      // not in {1-URGENT, 5-LOW}.
      spec_ = MakeEquiJoin(OrdersCols::kOrderKey, LineitemCols::kOrderKey,
                           "Fluct");
      r_.base_count = n_orders;
      r_.tuple_bytes = 32;
      r_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        OrdersLite o = gen->OrdersFast(i);
        if (o.shippriority == 0 || o.shippriority == kNumShipPriorities - 1) {
          return false;
        }
        *key = o.orderkey;
        if (want_row) *row = gen->Orders(i);
        return true;
      };
      s_.base_count = n_li;
      s_.tuple_bytes = 32;
      s_.gen = [gen](uint64_t i, int64_t* key, Row* row, bool want_row) {
        if (want_row) {
          *row = gen->Lineitem(i);
          *key = row->Int64(LineitemCols::kOrderKey);
        } else {
          *key = gen->LineitemFast(i).orderkey;
        }
        return true;
      };
      break;
    }
  }
}

std::unique_ptr<WorkloadSource> Workload::MakeSource(
    const ArrivalPolicy& policy) const {
  return std::make_unique<WorkloadSource>(this, policy);
}

WorkloadSource::WorkloadSource(const Workload* workload, ArrivalPolicy policy)
    : w_(workload), policy_(policy), rng_(policy.seed) {}

bool WorkloadSource::SideExhausted(Rel rel) const {
  const auto& side = (rel == Rel::kR) ? w_->r_ : w_->s_;
  return emitted_[static_cast<size_t>(rel)] >= side.filtered_count;
}

bool WorkloadSource::NextFromSide(Rel rel, StreamTuple* out) {
  const auto& side = (rel == Rel::kR) ? w_->r_ : w_->s_;
  auto idx = static_cast<size_t>(rel);
  while (cursor_[idx] < side.base_count) {
    uint64_t i = cursor_[idx]++;
    int64_t key;
    Row row;
    if (side.gen(i, &key, &row, w_->materialize_rows_)) {
      out->rel = rel;
      out->key = key;
      out->bytes = side.tuple_bytes;
      out->has_row = w_->materialize_rows_;
      out->row = std::move(row);
      emitted_[idx]++;
      return true;
    }
  }
  return false;
}

Rel WorkloadSource::PickSide() {
  bool r_done = SideExhausted(Rel::kR);
  bool s_done = SideExhausted(Rel::kS);
  AJOIN_CHECK(!(r_done && s_done));
  if (r_done) return Rel::kS;
  if (s_done) return Rel::kR;

  switch (policy_.kind) {
    case ArrivalPolicy::Kind::kRFirst:
      return Rel::kR;
    case ArrivalPolicy::Kind::kProportional: {
      uint64_t rem_r = w_->r_count() - emitted_[0];
      uint64_t rem_s = w_->s_count() - emitted_[1];
      return (rng_.Uniform(rem_r + rem_s) < rem_r) ? Rel::kR : Rel::kS;
    }
    case ArrivalPolicy::Kind::kFluctuating: {
      const double k = policy_.fluct_k;
      double c_r = static_cast<double>(emitted_[0]);
      double c_s = static_cast<double>(emitted_[1]);
      if (fluct_phase_ == Rel::kR && c_r >= k * std::max(c_s, 1.0)) {
        fluct_phase_ = Rel::kS;
      } else if (fluct_phase_ == Rel::kS && c_s >= k * std::max(c_r, 1.0)) {
        fluct_phase_ = Rel::kR;
      }
      return fluct_phase_;
    }
  }
  return Rel::kR;
}

bool WorkloadSource::Next(StreamTuple* out) {
  while (!(SideExhausted(Rel::kR) && SideExhausted(Rel::kS))) {
    Rel side = PickSide();
    if (NextFromSide(side, out)) return true;
    // The chosen side ran dry mid-scan; pin its emitted count so PickSide
    // settles on the other side (defensive: counts are precomputed with the
    // same generator, so this should not trigger).
    auto idx = static_cast<size_t>(side);
    emitted_[idx] = (side == Rel::kR) ? w_->r_count() : w_->s_count();
  }
  return false;
}

}  // namespace ajoin
