// Per-task counters collected by the operator cores. Engines stay
// accounting-free; the owning task bumps these with plain stores. Drivers
// can harvest them at quiescent points, and when a task is wired to a
// TaskTelemetry cell (src/runtime/metrics_registry.h) consistent snapshots
// are also available mid-stream from any thread.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "src/common/histogram.h"
#include "src/common/telemetry_fields.h"

namespace ajoin {

/// Counters maintained by a joiner task.
struct JoinerMetrics {
  // Input-side (the ILF in tuples/bytes: every kData tuple received+stored).
  uint64_t in_tuples = 0;
  uint64_t in_bytes = 0;
  // Join work.
  uint64_t probe_candidates = 0;  // index candidates visited
  uint64_t output_tuples = 0;
  // Migration traffic.
  uint64_t mig_out_tuples = 0;
  uint64_t mig_out_bytes = 0;
  uint64_t mig_in_tuples = 0;
  uint64_t mig_in_bytes = 0;
  uint64_t discarded_tuples = 0;
  uint64_t migrations_finalized = 0;
  // Load shedding: probe-side tuples whose probe was skipped by Bernoulli
  // sampling (the tuples themselves were still stored exactly).
  uint64_t shed_probes_skipped = 0;
  // Current / peak storage.
  uint64_t stored_tuples = 0;
  uint64_t stored_bytes = 0;
  uint64_t peak_stored_bytes = 0;
  // Latency of emitted results (threaded engine; micros).
  Histogram latency_us;

  void NoteStored(uint64_t bytes) {
    stored_tuples += 1;
    stored_bytes += bytes;
    if (stored_bytes > peak_stored_bytes) peak_stored_bytes = stored_bytes;
  }
  // A drop can never exceed what is stored; clamp rather than wrap so a
  // bookkeeping slip degrades to a zeroed gauge instead of a ~2^64 one.
  void NoteDropped(uint64_t count, uint64_t bytes) {
    assert(count <= stored_tuples && "NoteDropped underflow (tuples)");
    assert(bytes <= stored_bytes && "NoteDropped underflow (bytes)");
    stored_tuples -= std::min(count, stored_tuples);
    stored_bytes -= std::min(bytes, stored_bytes);
    discarded_tuples += count;
  }
};

/// Counters maintained by a reshuffler task: its telemetry record itself
/// (AJOIN_RESHUFFLER_FIELDS), published as is.
using ReshufflerMetrics = ReshufflerSnapshot;

}  // namespace ajoin
