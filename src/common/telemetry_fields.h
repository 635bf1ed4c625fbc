// The telemetry field tables: every exported record is declared exactly
// once, as an X-macro row list `X(type, name, default, kind)`. From each
// table the code generates the snapshot struct (and, for edges, the atomic
// counters ExchangePlane bumps; the exchange rollup is summed from the
// edges and outboxes when read); the JSON
// export walks the same rows; tools/validate_telemetry.py parses these
// rows from this header to learn the required keys and kinds. Adding a
// field is a one-line change here.
//
// `kind` is one of:
//  * counter — cumulative or high-water: never decreases between samples
//    of the same task / edge (the validator checks this);
//  * gauge   — instantaneous state that may move either way.

#pragma once

#include <cstddef>
#include <cstdint>

namespace ajoin {

// One joiner's counters plus its protocol state (kJoiner registry entries);
// the joiner keeps its counters in this record (JoinerMetrics).
// in_tuples/in_bytes: kData tuples received and stored (the ILF).
// probe_candidates: index candidates visited. latency_*: emitted results'
// latency in micros. shed_probes_skipped: probes skipped by Bernoulli
// sampling (their tuples were still stored exactly). active: inside the
// group's live grid (elastic scaling tombstones retirees in place).
// shed_rate_ppm: admitted probe fraction, 1e6 = exact.
#define AJOIN_JOINER_FIELDS(X)                      \
  X(uint64_t, in_tuples, 0, counter)                \
  X(uint64_t, in_bytes, 0, counter)                 \
  X(uint64_t, probe_candidates, 0, counter)         \
  X(uint64_t, output_tuples, 0, counter)            \
  X(uint64_t, mig_out_tuples, 0, counter)           \
  X(uint64_t, mig_out_bytes, 0, counter)            \
  X(uint64_t, mig_in_tuples, 0, counter)            \
  X(uint64_t, mig_in_bytes, 0, counter)             \
  X(uint64_t, discarded_tuples, 0, counter)         \
  X(uint64_t, migrations_finalized, 0, counter)     \
  X(uint64_t, stored_tuples, 0, gauge)              \
  X(uint64_t, stored_bytes, 0, gauge)               \
  X(uint64_t, peak_stored_bytes, 0, counter)        \
  X(uint64_t, latency_count, 0, counter)            \
  X(double, latency_sum_us, 0, counter)             \
  X(uint64_t, shed_probes_skipped, 0, counter)      \
  X(uint32_t, shed_rate_ppm, 1000000, gauge)        \
  X(uint32_t, epoch, 0, gauge)                      \
  X(bool, migrating, false, gauge)                  \
  X(bool, active, false, gauge)

// One reshuffler's (or agg router's) routing counters.
#define AJOIN_RESHUFFLER_FIELDS(X)                  \
  X(uint64_t, routed_tuples, 0, counter)            \
  X(uint64_t, sent_msgs, 0, counter)                \
  X(uint64_t, sent_bytes, 0, counter)               \
  X(uint64_t, epoch_changes, 0, counter)            \
  X(uint64_t, results_restamped, 0, counter)

// One agg worker's accumulator-table counters plus its protocol state.
// in_tuples excludes migrated cells; table_bytes is the table's
// MemoryBytes; flushed: final aggregates emitted (stage drained).
#define AJOIN_AGG_FIELDS(X)                         \
  X(uint64_t, in_tuples, 0, counter)                \
  X(uint64_t, in_bytes, 0, counter)                 \
  X(uint64_t, groups, 0, gauge)                     \
  X(uint64_t, table_bytes, 0, gauge)                \
  X(uint64_t, mig_out_cells, 0, counter)            \
  X(uint64_t, mig_in_cells, 0, counter)             \
  X(uint64_t, migrations_finalized, 0, counter)     \
  X(uint64_t, emitted_results, 0, counter)          \
  X(uint32_t, epoch, 0, gauge)                      \
  X(bool, migrating, false, gauge)                  \
  X(bool, flushed, false, gauge)

// Plane-wide exchange rollup. control_flushes: data batches cut by a
// control message; credit_waits: bounded pushes that found the ring full;
// avg_batch_fill: envelopes / batches.
#define AJOIN_EXCHANGE_FIELDS(X)                    \
  X(uint64_t, envelopes, 0, counter)                \
  X(uint64_t, batches, 0, counter)                  \
  X(uint64_t, size_flushes, 0, counter)             \
  X(uint64_t, deadline_flushes, 0, counter)         \
  X(uint64_t, control_flushes, 0, counter)          \
  X(uint64_t, credit_waits, 0, counter)             \
  X(uint64_t, credit_wait_ns, 0, counter)           \
  X(uint64_t, overflow_batches, 0, counter)         \
  X(double, avg_batch_fill, 0, gauge)

// One producer->consumer edge. ring_occupancy and overflow_depth are racy
// estimates (the edge keeps moving while they are read); ring_peak is the
// high-water ring occupancy.
#define AJOIN_EDGE_FIELDS(X)                        \
  X(int, producer, -1, gauge)                       \
  X(int, consumer, -1, gauge)                       \
  X(bool, bounded, false, gauge)                    \
  X(uint64_t, batches, 0, counter)                  \
  X(uint64_t, envelopes, 0, counter)                \
  X(uint64_t, credit_waits, 0, counter)             \
  X(uint64_t, credit_wait_ns, 0, counter)           \
  X(uint64_t, overflow_batches, 0, counter)         \
  X(uint32_t, ring_occupancy, 0, gauge)             \
  X(uint32_t, ring_peak, 0, counter)                \
  X(uint32_t, ring_capacity, 0, gauge)              \
  X(size_t, overflow_depth, 0, gauge)

#define AJOIN_FIELD_DECL(type, name, def, kind) type name = def;
#define AJOIN_FIELD_VISIT(type, name, def, kind) f(#name, s.name);

// Atomic twin of a record, for writers that bump counters with relaxed
// RMWs: one std::atomic per `counter` row (gauges are filled in by hand).
#define AJOIN_TWIN_ATOMIC_counter(type, name) std::atomic<type> name{0};
#define AJOIN_TWIN_ATOMIC_gauge(type, name)
#define AJOIN_TWIN_ATOMIC(type, name, def, kind) \
  AJOIN_TWIN_ATOMIC_##kind(type, name)
// Loads every counter of the atomic twin `twin` into the record `out` (both
// names must be in scope where the table is expanded).
#define AJOIN_TWIN_LOAD_counter(name) \
  out.name = twin.name.load(std::memory_order_relaxed);
#define AJOIN_TWIN_LOAD_gauge(name)
#define AJOIN_TWIN_LOAD(type, name, def, kind) AJOIN_TWIN_LOAD_##kind(name)

// A trivially-copyable struct with one member per table row, plus
// ForEachField(s, f), which calls f(name, s.field) per row in table order
// (S is the struct, const or not).
#define AJOIN_TELEMETRY_RECORD(Name, FIELDS)     \
  struct Name {                                  \
    FIELDS(AJOIN_FIELD_DECL)                     \
    template <typename S, typename F>            \
    static void ForEachField(S& s, F&& f) {      \
      FIELDS(AJOIN_FIELD_VISIT)                  \
    }                                            \
  }

/// Consistent copy of one joiner's counters plus its protocol state.
AJOIN_TELEMETRY_RECORD(JoinerSnapshot, AJOIN_JOINER_FIELDS);
/// Consistent copy of one reshuffler's counters.
AJOIN_TELEMETRY_RECORD(ReshufflerSnapshot, AJOIN_RESHUFFLER_FIELDS);
/// Consistent copy of one agg worker's accumulator-table counters plus its
/// protocol state.
AJOIN_TELEMETRY_RECORD(AggSnapshot, AJOIN_AGG_FIELDS);
/// Point-in-time exchange counters, aggregated across all edges.
AJOIN_TELEMETRY_RECORD(ExchangeStatsSnapshot, AJOIN_EXCHANGE_FIELDS);
/// Point-in-time counters and occupancy gauges for one edge.
AJOIN_TELEMETRY_RECORD(EdgeStatsSnapshot, AJOIN_EDGE_FIELDS);

}  // namespace ajoin
