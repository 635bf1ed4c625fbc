// Cache-conscious open-addressing multimap over int64 keys -> uint64 row
// ids: the flat, tag-filtered equi-hash index on the equi-join hot path
// (the paper's joiners burn most of their probe cycles in hashmap lookups,
// and those lookups are memory-bound).
//
// Layout: a SwissTable (src/index/swiss_table.h: 16-lane ctrl groups,
// 7-bit tags, 7/8 max load factor, insert-only) of 16-byte slots, plus
//
//   slots   one per distinct key: the key plus a packed payload word. A
//           unique key stores its row id inline (top bit clear); duplicates
//           set the top bit and reference one contiguous run in the side
//           arena, whose first word packs the run's count and capacity —
//           so a probe touches exactly one slot line, and skewed keys
//           stream sequentially instead of chasing chain pointers.
//   arena_  duplicate runs (header word + ids), grown geometrically per
//           key (relocate-on-full, amortized O(1) append). A relocated
//           run's old copy goes on an intrusive free list for its
//           power-of-two capacity and is reused by the next run that grows
//           into that size, so skewed keys growing at different times do
//           not leave the arena full of abandoned copies.
//
// The joiner's migration protocol rebuilds indexes via Clear() + re-Add.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/index/swiss_table.h"

namespace ajoin {

/// Insert-only open-addressing multimap (flat tag-filtered join index).
/// Duplicates per key are expected (skewed foreign keys); each distinct key
/// occupies one slot whose payload is either an inline row id or a
/// contiguous duplicate run in the side arena. No storage is allocated
/// until the first Insert/Reserve: a JoinIndex of another kind carries an
/// unused FlatHashIndex, which must cost nothing, in bytes and in
/// MemoryBytes() ILF accounting.
class FlatHashIndex {
 public:
  /// Inserts (key, row_id). Amortized O(1); duplicates append to the key's
  /// contiguous arena run.
  void Insert(int64_t key, uint64_t row_id);

  /// Pre-sizes the slot table for `n` additional entries and reserves
  /// arena headroom for their estimated duplicate surplus, so a bulk
  /// absorb — e.g. a migrated partition of known size — avoids
  /// rehash/growth storms mid-stream. `n` counts entries (duplicates
  /// included); the slot table needs distinct keys, so the pre-size is
  /// scaled by the duplication ratio of the live state or, after a
  /// Clear(), the ratio observed before it (a migration rebuild
  /// re-inserts a subset of the same distribution). On a fresh index with
  /// no ratio to go on, Reserve deliberately does nothing: organic
  /// geometric growth is amortized and always tight, whereas guessing
  /// either oversizes the permanent table or strands arena capacity —
  /// phantom bytes in the controller's MemoryBytes() ILF accounting.
  void Reserve(size_t n);

  /// Calls fn(row_id) for every entry with exactly this key, in insertion
  /// order.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    const Slot* slot = FindSlot(key);
    if (slot != nullptr) EmitSlot(*slot, fn);
  }

  /// Calls fn(i, row_id) for every match of keys[i], for i = 0..n-1 in
  /// order: ForEachMatch over a run of keys.
  template <typename Fn>
  void ProbeRun(const int64_t* keys, size_t n, Fn&& fn) const {
    for (size_t i = 0; i < n; ++i) {
      ForEachMatch(keys[i], [&fn, i](uint64_t row_id) { fn(i, row_id); });
    }
  }

  /// Number of matches for a key (for selectivity probes). O(1): decoded
  /// from the slot / run header without touching the ids.
  size_t CountMatches(int64_t key) const {
    const Slot* slot = FindSlot(key);
    if (slot == nullptr) return 0;
    if ((slot->head & kExternal) == 0) return 1;
    return RunCount(arena_[slot->head & ~kExternal]);
  }

  /// Total inserted entries (row ids, counting duplicates).
  size_t size() const { return size_; }

  /// Distinct keys currently stored.
  size_t distinct_keys() const { return table_.size(); }

  /// Removes every entry; keeps allocated capacity.
  void Clear();

  /// Memory footprint estimate in bytes (ctrl bytes + slot array + arena,
  /// including free-listed runs not yet reused — the number the
  /// controller's ILF bookkeeping would see).
  size_t MemoryBytes() const {
    return table_.MemoryBytes() + arena_.capacity() * sizeof(uint64_t);
  }

 private:
  static constexpr uint32_t kInitialRunCap = 4;

  // Row ids must stay below kExternal — the joiner's entry positions and
  // every realistic id space do. head layout:
  //   top bit clear: head is the row id itself (unique key, inline)
  //   top bit set:   head & ~kExternal is the arena offset of a run header
  //                  word ((cap << 32) | count) followed by `count` ids
  struct Slot {
    int64_t key;
    uint64_t head;
  };
  // Recomputes the hash on growth rather than caching it: the slot stays
  // 16 B.
  struct SlotHash {
    uint64_t operator()(const Slot& slot) const {
      return SplitMix64(static_cast<uint64_t>(slot.key));
    }
  };
  static constexpr uint64_t kExternal = 1ULL << 63;

  static uint32_t RunCount(uint64_t header) {
    return static_cast<uint32_t>(header);
  }
  static uint32_t RunCap(uint64_t header) {
    return static_cast<uint32_t>(header >> 32);
  }
  static uint64_t RunHeader(uint32_t cap, uint32_t count) {
    return (static_cast<uint64_t>(cap) << 32) | count;
  }
  // Run capacities are powers of two from kInitialRunCap up to 2^31; each
  // has its own free list.
  static constexpr size_t kRunClasses = 30;
  static size_t RunClass(uint32_t cap) {
    return static_cast<size_t>(__builtin_ctz(cap / kInitialRunCap));
  }

  const Slot* FindSlot(int64_t key) const {
    return table_.Find(key, SplitMix64(static_cast<uint64_t>(key)));
  }

  template <typename Fn>
  void EmitSlot(const Slot& slot, Fn&& fn) const {
    if ((slot.head & kExternal) == 0) {
      fn(slot.head);
      return;
    }
    const uint64_t off = slot.head & ~kExternal;
    const uint32_t count = RunCount(arena_[off]);
    const uint64_t* run = arena_.data() + off + 1;
    for (uint32_t i = 0; i < count; ++i) fn(run[i]);
  }

  // --- Insert path ---------------------------------------------------------

  void AppendToRun(Slot* slot, uint64_t row_id);
  uint64_t AllocRun(uint32_t cap);

  SwissTable<Slot, SlotHash> table_;
  std::vector<uint64_t> arena_;  // duplicate runs
  // Free run lists, one per capacity class. Links are encoded as arena
  // offset + 1 (0 ends a list): the head here, and the next link in each
  // free run's header word.
  std::array<uint64_t, kRunClasses> free_runs_{};
  size_t size_ = 0;              // total row ids
  // Duplication ratio stashed by Clear() so a post-clear Reserve(n) can
  // translate an entry count into a distinct-key estimate.
  size_t prior_keys_ = 0;
  size_t prior_size_ = 0;
};

}  // namespace ajoin
