#include "inputs.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "src/common/random.h"
#include "src/datagen/tpch.h"
#include "src/query/pipeline.h"

namespace perfbench {

using ajoin::AggResult;
using ajoin::Rel;
using ajoin::StreamTuple;

bool SpecFor(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "skew_equi") {
    s.kind = WorkloadKind::kSkewEqui;
    s.r_count = 100000;
    s.s_count = 9 * s.r_count;
    s.key_domain = 50000;
    s.zipf_z = 1.0;
  } else if (name == "fluct_open") {
    s.kind = WorkloadKind::kFluctOpen;
    s.rate_tps = 500000;
    s.gb = 4;
  } else if (name == "tpch_cascade") {
    s.kind = WorkloadKind::kTpchCascade;
    s.gb = 10;
    s.zipf_z = 0.5;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

uint64_t PairHashR(uint64_t r_seq) {
  return ajoin::SplitMix64(r_seq ^ 0x243f6a8885a308d3ULL);
}

uint64_t PairHashS(uint64_t s_seq) {
  return ajoin::SplitMix64(s_seq ^ 0x13198a2e03707344ULL) | 1;
}

JoinReference ReferenceFor(const std::vector<InputTuple>& stream) {
  int64_t max_key = 0;
  for (const InputTuple& t : stream) max_key = std::max(max_key, t.key);
  const size_t domain = static_cast<size_t>(max_key) + 1;
  std::vector<uint64_t> r_cnt(domain, 0), s_cnt(domain, 0);
  std::vector<uint64_t> r_hash(domain, 0), s_hash(domain, 0);
  for (size_t seq = 0; seq < stream.size(); ++seq) {
    const InputTuple& t = stream[seq];
    const size_t k = static_cast<size_t>(t.key);
    if (t.rel == Rel::kR) {
      ++r_cnt[k];
      r_hash[k] += PairHashR(seq);
    } else {
      ++s_cnt[k];
      s_hash[k] += PairHashS(seq);
    }
  }
  JoinReference ref;
  ref.per_key.resize(domain);
  for (size_t k = 0; k < domain; ++k) {
    ref.per_key[k] = r_cnt[k] * s_cnt[k];
    ref.total += ref.per_key[k];
    ref.checksum += r_hash[k] * s_hash[k];
  }
  return ref;
}

namespace {

void SetSides(Inputs* in) {
  for (const InputTuple& t : in->stream) {
    if (t.rel == Rel::kR) {
      ++in->r_count;
      in->r_bytes = t.bytes;
    } else {
      ++in->s_count;
      in->s_bytes = t.bytes;
    }
  }
}

void Drain(ajoin::WorkloadSource* source, std::vector<InputTuple>* out) {
  StreamTuple t;
  while (source->Next(&t)) out->push_back(InputTuple{t.key, t.bytes, t.rel});
}

// skew_equi's stream. R holds every key of [1, key_domain] equally often
// (uniform, in seeded random order), so each S tuple matches exactly
// |R| / key_domain R tuples: a sampled R would let the hottest Zipf keys'
// result counts, and with them the run's output size, swing with the seed.
// S keys are Zipf(z); the two streams interleave at random in proportion
// to their remaining counts (ArrivalPolicy::kProportional).
std::vector<InputTuple> SkewStream(const WorkloadSpec& spec, uint64_t seed) {
  ajoin::Rng rng(seed);
  std::vector<int64_t> r_keys(spec.r_count);
  for (uint64_t i = 0; i < spec.r_count; ++i) {
    r_keys[i] = 1 + static_cast<int64_t>(i % spec.key_domain);
  }
  for (size_t i = r_keys.size(); i > 1; --i) {
    std::swap(r_keys[i - 1], r_keys[rng.Uniform(i)]);
  }
  const ajoin::ZipfSampler zipf(spec.key_domain, spec.zipf_z);
  std::vector<InputTuple> out;
  out.reserve(spec.r_count + spec.s_count);
  uint64_t rem_r = spec.r_count, rem_s = spec.s_count;
  while (rem_r + rem_s > 0) {
    if (rng.Uniform(rem_r + rem_s) < rem_r) {
      out.push_back(InputTuple{r_keys[spec.r_count - rem_r], 32, Rel::kR});
      --rem_r;
    } else {
      out.push_back(InputTuple{static_cast<int64_t>(zipf.Sample(rng)), 32,
                               Rel::kS});
      --rem_s;
    }
  }
  return out;
}

Inputs MakeJoinInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  if (spec.kind == WorkloadKind::kSkewEqui) {
    in.stream = SkewStream(spec, seed);
  } else {
    ajoin::ArrivalPolicy policy;
    policy.seed = seed;
    ajoin::TpchConfig cfg;
    cfg.gb = spec.gb;
    cfg.seed = seed;
    const ajoin::Workload w(ajoin::QueryId::kFluct, cfg);
    policy.kind = ajoin::ArrivalPolicy::Kind::kFluctuating;
    policy.fluct_k = 4;  // R:S arrival ratio alternates between 4 and 1/4
    in.stream.reserve(w.total_count());
    Drain(w.MakeSource(policy).get(), &in.stream);
  }
  in.join_ref = ReferenceFor(in.stream);
  in.expected_results = in.join_ref.total;
  in.pushed_inputs = in.stream.size();
  SetSides(&in);
  return in;
}

// EQ5 as in examples/tpch_pipeline: Region(0) |X| Nation locally, then
// (R|X|N) |X| Supplier -> |X| Lineitem -> group by s_suppkey, streamed.
constexpr uint32_t kDimBytes = 24;       // RN and supplier tuples
constexpr uint32_t kLineitemBytes = 32;  // slim lineitem tuples

Inputs MakeCascadeInputs(const WorkloadSpec& spec, uint64_t seed) {
  ajoin::TpchConfig cfg;
  cfg.gb = spec.gb;
  cfg.zipf_z = spec.zipf_z;
  cfg.seed = seed;
  ajoin::TpchGen gen(cfg);

  const ajoin::MaterializedRelation region = ajoin::Scan(
      "region", ajoin::kNumRegions,
      [](uint64_t i) {
        ajoin::Row row;
        row.Append(ajoin::Value(static_cast<int64_t>(i)));
        return row;
      },
      [](const ajoin::Row& row) { return row.Int64(0) == 0; });
  const ajoin::MaterializedRelation nation = ajoin::Scan(
      "nation", ajoin::kNumNations,
      [&gen](uint64_t i) { return gen.Nation(i); });
  const ajoin::MaterializedRelation rn = ajoin::LocalJoin(
      region, nation,
      ajoin::MakeEquiJoin(/*r_key_col=*/0, ajoin::NationCols::kRegionKey),
      "region_nation");

  Inputs in;
  // Stage A results per supplier: one per RN row sharing its nation.
  std::map<int64_t, uint64_t> rn_per_nation;
  for (const ajoin::Row& row : rn.rows) {
    StreamTuple t;
    t.rel = Rel::kR;
    t.key = row.Int64(1);  // n_nationkey
    t.bytes = kDimBytes;
    t.has_row = true;
    t.row = row;
    in.stage_a.push_back(std::move(t));
    ++rn_per_nation[row.Int64(1)];
  }
  const uint64_t n_sup = cfg.NumSuppliers();
  std::vector<uint64_t> a_results(n_sup + 1, 0);  // index = suppkey
  for (uint64_t i = 0; i < n_sup; ++i) {
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = gen.SupplierNation(i);
    t.bytes = kDimBytes;
    t.has_row = true;
    t.row = gen.Supplier(i);
    const int64_t suppkey = t.row.Int64(ajoin::SupplierCols::kSuppKey);
    auto it = rn_per_nation.find(t.key);
    if (it != rn_per_nation.end()) {
      a_results[static_cast<size_t>(suppkey)] = it->second;
      for (uint64_t k = 0; k < it->second; ++k) {
        in.stream.push_back(InputTuple{suppkey, 2 * kDimBytes, Rel::kR});
      }
    }
    in.stage_a.push_back(std::move(t));
  }
  in.stage_b_first_pushed = in.stream.size();

  // Stage B joins each lineitem with every stage-A result of its supplier;
  // the group-by folds (key = s_suppkey, value = result bytes).
  ajoin::ReferenceAggregator agg;
  const uint64_t n_li = cfg.NumLineitem();
  in.stream.reserve(in.stream.size() + n_li);
  for (uint64_t i = 0; i < n_li; ++i) {
    const int64_t suppkey = gen.LineitemFast(i).suppkey;
    in.stream.push_back(InputTuple{suppkey, kLineitemBytes, Rel::kS});
    const uint64_t matches = a_results[static_cast<size_t>(suppkey)];
    for (uint64_t k = 0; k < matches; ++k) {
      agg.Add(suppkey, 1.0, 2 * kDimBytes + kLineitemBytes);
    }
  }
  in.agg_ref = agg.Results();
  for (const AggResult& g : in.agg_ref) in.expected_results += g.acc.tuples;
  in.pushed_inputs = in.stage_a.size() + n_li;
  SetSides(&in);
  return in;
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  return spec.kind == WorkloadKind::kTpchCascade ? MakeCascadeInputs(spec, seed)
                                                 : MakeJoinInputs(spec, seed);
}

Check CheckJoin(const JoinReference& ref, const std::vector<uint64_t>& got,
                uint64_t out_of_range, uint64_t got_checksum) {
  Check c;
  c.expected = ref.total;
  c.extra = out_of_range;
  const size_t n = std::max(ref.per_key.size(), got.size());
  for (size_t k = 0; k < n; ++k) {
    const uint64_t want = k < ref.per_key.size() ? ref.per_key[k] : 0;
    const uint64_t have = k < got.size() ? got[k] : 0;
    if (have < want) c.missing += want - have;
    if (have > want) c.extra += have - want;
  }
  c.identity_ok = got_checksum == ref.checksum;
  return c;
}

Check CheckAgg(const std::vector<AggResult>& ref,
               const std::vector<AggResult>& got) {
  Check c;
  size_t i = 0, j = 0;
  while (i < ref.size() || j < got.size()) {
    if (j == got.size() || (i < ref.size() && ref[i].key < got[j].key)) {
      c.expected += ref[i].acc.tuples;
      c.missing += ref[i].acc.tuples;
      ++i;
    } else if (i == ref.size() || got[j].key < ref[i].key) {
      c.extra += got[j].acc.tuples;
      ++j;
    } else {
      const ajoin::WeightedAccum& want = ref[i].acc;
      const ajoin::WeightedAccum& have = got[j].acc;
      c.expected += want.tuples;
      if (have.tuples < want.tuples) c.missing += want.tuples - have.tuples;
      if (have.tuples > want.tuples) c.extra += have.tuples - want.tuples;
      if (have.count != want.count || have.sum != want.sum) {
        c.identity_ok = false;
      }
      ++i;
      ++j;
    }
  }
  return c;
}

}  // namespace perfbench
