// Layer replays: each layer's public entry point driven directly on the
// workload's own tuples, single-threaded, with a capturing Context in place
// of the engine (plus one real exchange edge for the exchange layer). Their
// summed costs are the single-threaded baseline of the same job that the
// live run's CPU per tuple is compared against.

#pragma once

#include <cstdint>

#include "inputs.h"
#include "spans.h"

namespace perfbench {

struct ReplayStats {
  /// ReshufflerCore::OnBatch on 64-tuple input batches, per stream tuple.
  double reshuffler_ns_per_tuple = 0;
  /// JoinerCore::OnBatch on the replayed reshuffler output, per stream
  /// tuple (probe, store, and egress staging).
  double joiner_ns_per_tuple = 0;
  /// One exchange edge: PostBatch runs of 64 envelopes from an ingress
  /// port to one counting task, per envelope.
  double exchange_ns_per_envelope = 0;
  /// FlatHashIndex: Insert, ForEachMatch, and ProbeRun per key, and
  /// matches per probe.
  double index_insert_ns = 0;
  double index_probe_ns = 0;
  double index_probe_run_ns = 0;
  double index_matches_per_probe = 0;
  /// Cascade only: AggRouterCore::OnBatch and AggWorkerCore::OnBatch per
  /// aggregated tuple, and the number of aggregated tuples.
  double agg_route_ns_per_tuple = 0;
  double agg_fold_ns_per_tuple = 0;
  uint64_t agg_inputs = 0;
  /// Replays whose own outputs disagreed with the reference (0 expected).
  uint64_t mismatches = 0;

  /// Summed replay cost per pushed input tuple, given the live run's
  /// exchange envelopes per pushed input tuple.
  double LadderNsPerTuple(const Inputs& in, double envelopes_per_input) const;
};

/// Runs every layer replay of `spec` over `inputs`, recording one span per
/// replay call into `spans`.
ReplayStats RunReplays(const WorkloadSpec& spec, const Inputs& inputs,
                       SpanLog* spans);

}  // namespace perfbench
