// Per-task counters collected by the operator cores. Engines stay
// accounting-free; the owning task bumps these with plain stores. Drivers
// can harvest them at quiescent points, and when a task is wired to a
// TaskTelemetry cell (src/runtime/metrics_registry.h) consistent snapshots
// are also available mid-stream from any thread.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "src/common/telemetry_fields.h"

namespace ajoin {

/// Counters maintained by a joiner task: its telemetry record itself
/// (AJOIN_JOINER_FIELDS), published as is.
using JoinerMetrics = JoinerSnapshot;

/// Records one stored tuple of `bytes` and the storage high-water mark.
inline void NoteStored(JoinerMetrics* m, uint64_t bytes) {
  m->stored_tuples += 1;
  m->stored_bytes += bytes;
  if (m->stored_bytes > m->peak_stored_bytes) {
    m->peak_stored_bytes = m->stored_bytes;
  }
}

/// Records `count` dropped tuples of `bytes` in total. A drop can never
/// exceed what is stored; clamp rather than wrap so a bookkeeping slip
/// degrades to a zeroed gauge instead of a ~2^64 one.
inline void NoteDropped(JoinerMetrics* m, uint64_t count, uint64_t bytes) {
  assert(count <= m->stored_tuples && "NoteDropped underflow (tuples)");
  assert(bytes <= m->stored_bytes && "NoteDropped underflow (bytes)");
  m->stored_tuples -= std::min(count, m->stored_tuples);
  m->stored_bytes -= std::min(bytes, m->stored_bytes);
  m->discarded_tuples += count;
}

/// Counters maintained by a reshuffler task: its telemetry record itself
/// (AJOIN_RESHUFFLER_FIELDS), published as is.
using ReshufflerMetrics = ReshufflerSnapshot;

}  // namespace ajoin
