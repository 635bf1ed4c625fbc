// Benchmark workloads: their fixed shapes, the generation of every input
// tuple from a seed (done once during set-up, before any engine starts),
// and the references each run's output is checked against.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/agg.h"
#include "src/core/mapping.h"
#include "src/datagen/workloads.h"
#include "src/localjoin/predicate.h"

namespace perfbench {

enum class WorkloadKind { kSkewEqui, kFluctOpen, kTpchCascade };

/// Joiners of the main join stage (stage B of the cascade) and the (n, m)
/// mapping it starts from.
constexpr uint32_t kMainJoiners = 4;
constexpr ajoin::Mapping kInitialMapping{2, 2};

/// The shape of one workload. Sizes are fixed per workload (see
/// SpecFor); tests build tiny variants.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kSkewEqui;
  std::string name;
  /// Open-loop input rate in tuples/s; 0 = closed loop (push as fast as
  /// credits allow).
  double rate_tps = 0;
  /// skew_equi: |R| uniform and |S| Zipf(zipf_z) over [1, key_domain].
  uint64_t r_count = 0;
  uint64_t s_count = 0;
  uint64_t key_domain = 0;
  /// skew_equi's S keys; the cascade's lineitem suppkeys.
  double zipf_z = 0;
  /// TPC-H-derived workloads: "GB" of lineitem at 100k rows each.
  double gb = 0;
};

/// The named workload ("skew_equi", "fluct_open", "tpch_cascade"); false
/// for an unknown name.
bool SpecFor(const std::string& name, WorkloadSpec* spec);

/// One input tuple of the main join stage's stream (slim: no row).
struct InputTuple {
  int64_t key = 0;
  uint32_t bytes = 0;
  ajoin::Rel rel = ajoin::Rel::kR;
};

/// Identity hash of one join result, summed over a run's results: the
/// reference sums it over every expected (r_seq, s_seq) pair. The product
/// form lets the reference compute the sum per key in O(|R_k| + |S_k|).
uint64_t PairHashR(uint64_t r_seq);
uint64_t PairHashS(uint64_t s_seq);
inline uint64_t PairHash(uint64_t r_seq, uint64_t s_seq) {
  return PairHashR(r_seq) * PairHashS(s_seq);
}

/// Expected output of a two-way equi-join over a seq-numbered stream.
struct JoinReference {
  /// Expected results per join key (index = key; keys are in [0, size)).
  std::vector<uint64_t> per_key;
  uint64_t total = 0;
  /// Sum of PairHash over every expected result (mod 2^64).
  uint64_t checksum = 0;
};

/// Builds the per-key R x S counts and the pair checksum of `stream`, where
/// a tuple's seq is its position (the order JoinOperator::Push stamps).
JoinReference ReferenceFor(const std::vector<InputTuple>& stream);

/// Everything a run needs, generated during set-up.
struct Inputs {
  /// Main join stage input in push order (seq = position). For the
  /// cascade this is stage B's stream: the stage-A results it will receive
  /// (relation R, first) followed by the lineitems pushed into it (S).
  std::vector<InputTuple> stream;
  /// Join workloads: reference for `stream`.
  JoinReference join_ref;

  /// Cascade only: stage A input (Region |X| Nation rows as R, then
  /// suppliers as S, both with rows), the number of leading `stream`
  /// entries that stage A produces rather than the generator, and the
  /// per-supplier COUNT/SUM reference of the group-by tail.
  std::vector<ajoin::StreamTuple> stage_a;
  size_t stage_b_first_pushed = 0;
  std::vector<ajoin::AggResult> agg_ref;

  /// Expected results at the sink (join results, or aggregated tuples for
  /// the cascade) and tuples the generator pushes.
  uint64_t expected_results = 0;
  uint64_t pushed_inputs = 0;

  /// Final |R|, |S| and tuple sizes of the main join stage (ILF baseline).
  uint64_t r_count = 0, s_count = 0;
  uint32_t r_bytes = 0, s_bytes = 0;
};

/// Generates every input tuple of `spec` from `seed` and computes the
/// reference (the set-up phase).
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Outcome of comparing a run's sink totals with the reference.
struct Check {
  uint64_t expected = 0;
  uint64_t missing = 0;
  uint64_t extra = 0;
  /// Identity check beyond the counts: the pair checksum (joins) or the
  /// per-group COUNT/SUM values (cascade) matched.
  bool identity_ok = true;
  bool ok() const { return missing == 0 && extra == 0 && identity_ok; }
};

/// Compares per-key result counts (index = key; `out_of_range` counts
/// results whose key fell outside the reference's key range) and the pair
/// checksum with the reference.
Check CheckJoin(const JoinReference& ref, const std::vector<uint64_t>& got,
                uint64_t out_of_range, uint64_t got_checksum);

/// Compares folded per-group aggregates with the reference (both sorted by
/// key): tuples per group give missing/extra, COUNT and SUM the identity.
Check CheckAgg(const std::vector<ajoin::AggResult>& ref,
               const std::vector<ajoin::AggResult>& got);

}  // namespace perfbench
