// AggTable: the per-worker accumulator table of the streaming group-by
// stage, a SwissTable (src/index/swiss_table.h) of {key, hash,
// WeightedAccum} cells. Unlike the join index there is no duplicate arena:
// group-by state is one accumulator per distinct key, and a repeat key
// UPDATES its accumulator in place (insert-or-update, not insert-only
// append). No tombstones: aggregation never deletes a single key; migration
// drops whole partitions by rebuilding, exactly like the joiner's
// FinalizeMigration rebuild. Storage is allocated lazily so an idle worker
// slot costs nothing in MemoryBytes() accounting.

#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/random.h"
#include "src/core/weighted.h"
#include "src/index/swiss_table.h"

namespace ajoin {

/// Insert-or-update open-addressing accumulator table: one WeightedAccum
/// per distinct group key.
class AggTable {
 public:
  /// One resident group: key, its SplitMix64 hash (cached so migration can
  /// repartition without rehashing), and the running aggregate.
  struct Cell {
    int64_t key = 0;
    uint64_t hash = 0;
    WeightedAccum acc;
  };

  /// Finds the accumulator for `key`, inserting an empty one if the key is
  /// new. Amortized O(1). The returned pointer is valid until the next
  /// Upsert/Reserve/Clear (the table may rehash).
  WeightedAccum* Upsert(int64_t key) {
    return &UpsertCell(key, SplitMix64(static_cast<uint64_t>(key)))->acc;
  }

  /// Upsert with a precomputed SplitMix64(key) hash (migration absorb path,
  /// where the shipped cell already carries it).
  Cell* UpsertCell(int64_t key, uint64_t hash) {
    bool inserted = false;
    Cell* cell = table_.FindOrInsert(key, hash, &inserted);
    if (inserted) {
      cell->hash = hash;
      cell->acc = WeightedAccum{};
    }
    return cell;
  }

  /// Read-only lookup; nullptr when the key has never been merged.
  const WeightedAccum* Find(int64_t key) const {
    const Cell* cell =
        table_.Find(key, SplitMix64(static_cast<uint64_t>(key)));
    return cell == nullptr ? nullptr : &cell->acc;
  }

  /// Invokes `fn(const Cell&)` for every resident group, in unspecified
  /// order. Safe to call Clear/Upsert only after iteration completes.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    table_.ForEach(fn);
  }

  /// Number of distinct group keys resident.
  size_t size() const { return table_.size(); }

  /// Drops every group and releases nothing (capacity is retained, matching
  /// the joiner's migration-rebuild idiom where a Reserve follows).
  void Clear() { table_.Clear(); }

  /// Pre-sizes the table for `n` additional distinct keys (migration absorb
  /// of a partition of known cell count).
  void Reserve(size_t n) { table_.Reserve(n); }

  /// Bytes resident for ILF accounting (capacity, not occupancy — honest
  /// about the allocation the table is actually holding).
  size_t MemoryBytes() const { return table_.MemoryBytes(); }

 private:
  // Hashes a cell by its cached hash: growth never recomputes SplitMix64.
  struct CellHash {
    uint64_t operator()(const Cell& cell) const { return cell.hash; }
  };

  SwissTable<Cell, CellHash> table_;
};

}  // namespace ajoin
