// AggTable: the per-worker accumulator table of the streaming group-by
// stage. Same Swiss-table layout as FlatHashIndex (src/index/flat_index.h):
//
//   ctrl_   one byte per slot: 0x80 = empty, else the low 7 bits of the
//           slot's hash. Probes tag-filter 16 slots at a time with byte-wise
//           group matching (an SSE2 path when available, a SWAR fallback
//           otherwise), so most probes touch one cache line of control bytes
//           before any payload.
//   slots_  {key, hash, WeightedAccum} per slot. Unlike the join index there
//           is no duplicate arena: group-by state is one accumulator per
//           distinct key, and a repeat key UPDATES its accumulator in place
//           (insert-or-update, not insert-only append).
//
// Open addressing with linear 16-wide group probing, capacity a power of
// two, max load factor 7/8, no tombstones (aggregation never deletes a
// single key; migration drops whole partitions by rebuilding, exactly like
// the joiner's FinalizeMigration rebuild). Storage is allocated lazily so an
// idle worker slot costs nothing in MemoryBytes() accounting.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/weighted.h"

#if defined(__SSE2__) && !defined(AJOIN_FLAT_FORCE_SWAR)
#define AJOIN_AGG_SSE2 1
#include <emmintrin.h>
#endif

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

  /// Builds an empty table sized lazily: nothing is allocated until the
  /// first Upsert/Reserve, and the first allocation holds roughly
  /// `initial_slots` distinct keys.
  explicit AggTable(size_t initial_slots = 64)
      : initial_slots_(initial_slots) {}

  /// Finds the accumulator for `key`, inserting an empty one if the key is
  /// new. Amortized O(1). The returned pointer is valid until the next
  /// Upsert/Reserve/Clear (the table may rehash).
  WeightedAccum* Upsert(int64_t key) {
    return &UpsertCell(key, SplitMix64(static_cast<uint64_t>(key)))->acc;
  }

  /// Upsert with a precomputed SplitMix64(key) hash (migration absorb path,
  /// where the shipped cell already carries it).
  Cell* UpsertCell(int64_t key, uint64_t hash) {
    MaybeGrow();
    const uint8_t tag = TagOf(hash);
    size_t group = GroupOf(hash);
    while (true) {
      uint8_t* ctrl = ctrl_.data() + group * kGroupWidth;
      uint32_t match = MatchMask(ctrl, tag);
      while (match != 0) {
        const uint32_t lane = CountTrailingZeros(match);
        match &= match - 1;
        Cell& cell = slots_[group * kGroupWidth + lane];
        if (cell.key == key) return &cell;
      }
      const uint32_t empty = EmptyMask(ctrl);
      if (empty != 0) {
        const uint32_t lane = CountTrailingZeros(empty);
        ctrl[lane] = tag;
        Cell& cell = slots_[group * kGroupWidth + lane];
        cell.key = key;
        cell.hash = hash;
        cell.acc = WeightedAccum{};
        ++used_slots_;
        return &cell;
      }
      group = NextGroup(group);
    }
  }

  /// Read-only lookup; nullptr when the key has never been merged.
  const WeightedAccum* Find(int64_t key) const {
    if (used_slots_ == 0) return nullptr;
    const uint64_t hash = SplitMix64(static_cast<uint64_t>(key));
    const uint8_t tag = TagOf(hash);
    size_t group = GroupOf(hash);
    while (true) {
      const uint8_t* ctrl = ctrl_.data() + group * kGroupWidth;
      uint32_t match = MatchMask(ctrl, tag);
      while (match != 0) {
        const uint32_t lane = CountTrailingZeros(match);
        match &= match - 1;
        const Cell& cell = slots_[group * kGroupWidth + lane];
        if (cell.key == key) return &cell.acc;
      }
      if (EmptyMask(ctrl) != 0) return nullptr;
      group = NextGroup(group);
    }
  }

  /// Invokes `fn(const Cell&)` for every resident group, in unspecified
  /// order. Safe to call Clear/Upsert only after iteration completes.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if ((ctrl_[i] & kEmpty) == 0) fn(slots_[i]);
    }
  }

  /// Number of distinct group keys resident.
  size_t size() const { return used_slots_; }

  /// Drops every group and releases nothing (capacity is retained, matching
  /// the joiner's migration-rebuild idiom where a Reserve follows).
  void Clear() {
    // std::fill, not memset: a never-allocated table has a null data().
    std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
    used_slots_ = 0;
  }

  /// Pre-sizes the table for `n` additional distinct keys (migration absorb
  /// of a partition of known cell count).
  void Reserve(size_t n) {
    size_t need = used_slots_ + n;
    if (slots_.empty()) {
      AllocateFor(need);
      return;
    }
    while (need > (slots_.size() / 8) * 7) Rehash(slots_.size() * 2);
  }

  /// Bytes resident for ILF accounting (capacity, not occupancy — honest
  /// about the allocation the table is actually holding).
  size_t MemoryBytes() const {
    return ctrl_.capacity() * sizeof(uint8_t) + slots_.capacity() * sizeof(Cell);
  }

 private:
  static constexpr size_t kGroupWidth = 16;
  static constexpr uint8_t kEmpty = 0x80;
  static constexpr uint64_t kLsb = 0x0101010101010101ULL;
  static constexpr uint64_t kMsb = 0x8080808080808080ULL;

  static uint8_t TagOf(uint64_t h) { return static_cast<uint8_t>(h >> 57); }
  size_t GroupOf(uint64_t h) const { return h & group_mask_; }
  size_t NextGroup(size_t g) const { return (g + 1) & group_mask_; }

  static uint32_t CountTrailingZeros(uint32_t x) {
    return static_cast<uint32_t>(__builtin_ctz(x));
  }

  // Bitmask (bit i = lane i) of ctrl bytes equal to `tag`; the SWAR path may
  // over-report (one wasted key compare), never under-report.
  static uint32_t MatchMask(const uint8_t* ctrl, uint8_t tag) {
#if defined(AJOIN_AGG_SSE2)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    const __m128i needle = _mm_set1_epi8(static_cast<char>(tag));
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(group, needle)));
#else
    uint64_t lo, hi;
    std::memcpy(&lo, ctrl, sizeof(lo));
    std::memcpy(&hi, ctrl + 8, sizeof(hi));
    return SwarEq(lo, tag) | (SwarEq(hi, tag) << 8);
#endif
  }

  // Bitmask of empty (0x80) lanes; exact because tags are 7-bit.
  static uint32_t EmptyMask(const uint8_t* ctrl) {
#if defined(AJOIN_AGG_SSE2)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    return static_cast<uint32_t>(_mm_movemask_epi8(group));
#else
    uint64_t lo, hi;
    std::memcpy(&lo, ctrl, sizeof(lo));
    std::memcpy(&hi, ctrl + 8, sizeof(hi));
    return PackHighBits(lo & kMsb) | (PackHighBits(hi & kMsb) << 8);
#endif
  }

  static uint32_t SwarEq(uint64_t word, uint8_t tag) {
    const uint64_t x = word ^ (kLsb * tag);
    return PackHighBits((x - kLsb) & ~x & kMsb);
  }

  static uint32_t PackHighBits(uint64_t msb_mask) {
    return static_cast<uint32_t>((msb_mask * 0x0002040810204081ULL) >> 56);
  }

  void AllocateFor(size_t distinct_keys) {
    size_t slots = kGroupWidth;
    while ((slots / 8) * 7 < distinct_keys || slots < initial_slots_) {
      slots *= 2;
    }
    ctrl_.assign(slots, kEmpty);
    slots_.assign(slots, Cell{});
    group_mask_ = slots / kGroupWidth - 1;
  }

  void MaybeGrow() {
    if (slots_.empty()) {
      AllocateFor(1);
      return;
    }
    if (used_slots_ + 1 > (slots_.size() / 8) * 7) Rehash(slots_.size() * 2);
  }

  void Rehash(size_t new_slots) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Cell> old_slots = std::move(slots_);
    ctrl_.assign(new_slots, kEmpty);
    slots_.assign(new_slots, Cell{});
    group_mask_ = new_slots / kGroupWidth - 1;
    used_slots_ = 0;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if ((old_ctrl[i] & kEmpty) != 0) continue;
      Cell* cell = UpsertCell(old_slots[i].key, old_slots[i].hash);
      cell->acc = old_slots[i].acc;
    }
  }

  size_t initial_slots_;
  size_t group_mask_ = 0;
  size_t used_slots_ = 0;
  std::vector<uint8_t> ctrl_;
  std::vector<Cell> slots_;
};

}  // namespace ajoin
