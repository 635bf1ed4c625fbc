// SwissTable: the open-addressing control core shared by the equi-join index
// (FlatHashIndex, src/index/flat_index.h) and the group-by accumulator table
// (AggTable, src/index/agg_table.h). The paper's joiners spend most of their
// probe cycles in these lookups, and the lookups are memory-bound.
//
//   ctrl_   one byte per slot: 0x80 = empty, else the top 7 bits of the
//           slot's hash ("tag"). Probed 16 slots at a time with one group
//           match (SSE2 when available, a SWAR uint64 fallback otherwise),
//           so a probe touches slot memory only on tag hits: the common
//           miss/unique-hit case reads one 16-byte ctrl group plus at most
//           one slot line.
//   slots_  one Slot per distinct key; the table reads only `Slot::key`
//           and hashes a slot through `HashOf` when it re-places it.
//
// Groups are 16 aligned slots; group-linear probing, capacity a power of
// two (at least 64), max load factor 7/8. No tombstones: both users drop
// state wholesale (Clear() + rebuild on migration), so the probe invariant
// "a key never lies past the first group with an empty lane on its probe
// sequence" always holds.
// Storage is allocated lazily, so an idle table costs nothing in the
// MemoryBytes() that feeds the controllers' ILF accounting.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__SSE2__) && !defined(AJOIN_FLAT_FORCE_SWAR)
#define AJOIN_SWISS_SSE2 1
#include <emmintrin.h>
#endif

namespace ajoin {

/// The 16-lane ctrl-group primitives every SwissTable probe is built from.
namespace swiss {

inline constexpr size_t kGroupWidth = 16;
inline constexpr uint8_t kEmpty = 0x80;
inline constexpr uint64_t kLsb = 0x0101010101010101ULL;
inline constexpr uint64_t kMsb = 0x8080808080808080ULL;

/// The 7-bit tag stored in ctrl for a slot of hash `h`.
inline uint8_t TagOf(uint64_t h) { return static_cast<uint8_t>(h >> 57); }

/// Index of the lowest set lane of a non-zero lane mask.
inline uint32_t LowestLane(uint32_t mask) {
  return static_cast<uint32_t>(__builtin_ctz(mask));
}

/// Collapses the high bit of each byte into an 8-bit lane mask (the SWAR
/// movemask idiom: each set bit 8k+7 lands at bit k of the top byte, and
/// no two product terms collide, so there are no carries).
inline uint32_t PackHighBits(uint64_t msb_mask) {
  return static_cast<uint32_t>((msb_mask * 0x0002040810204081ULL) >> 56);
}

/// Byte-equality via the zero-byte trick on word ^ broadcast(tag); may
/// over-report a lane adjacent to a true match (borrow propagation), which
/// the key compare filters out.
inline uint32_t SwarEq(uint64_t word, uint8_t tag) {
  const uint64_t x = word ^ (kLsb * tag);
  return PackHighBits((x - kLsb) & ~x & kMsb);
}

/// Bitmask (bit i = lane i) of ctrl bytes equal to `tag` in the 16-byte
/// group at `ctrl`. Tags are < 0x80, so the SWAR path can only over-report
/// a non-empty lane (a false positive costs one key compare, never a miss).
inline uint32_t MatchMask(const uint8_t* ctrl, uint8_t tag) {
#if defined(AJOIN_SWISS_SSE2)
  const __m128i group = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
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

/// Bitmask of empty (0x80) lanes. Exact: ctrl bytes are kEmpty or a 7-bit
/// tag, so the high bit alone identifies empties.
inline uint32_t EmptyMask(const uint8_t* ctrl) {
#if defined(AJOIN_SWISS_SSE2)
  const __m128i group = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  return static_cast<uint32_t>(_mm_movemask_epi8(group));
#else
  uint64_t lo, hi;
  std::memcpy(&lo, ctrl, sizeof(lo));
  std::memcpy(&hi, ctrl + 8, sizeof(hi));
  return PackHighBits(lo & kMsb) | (PackHighBits(hi & kMsb) << 8);
#endif
}

}  // namespace swiss

/// Insert-or-find open-addressing table of `Slot`s keyed by `Slot::key`
/// (int64). `HashOf{}(slot)` must return the hash the slot was inserted
/// under; the table calls it only when it re-places slots on growth.
template <typename Slot, typename HashOf>
class SwissTable {
 public:
  /// Minimum (and first-allocation) slot count: one 64-byte ctrl line.
  static constexpr size_t kMinSlots = 64;

  /// Smallest power-of-two slot count >= kMinSlots whose 7/8 holds `keys`.
  static size_t SlotsFor(size_t keys) {
    size_t slots = kMinSlots;
    while (slots / 8 * 7 < keys) slots *= 2;
    return slots;
  }

  /// The slot holding `key` (whose hash is `h`), nullptr if absent.
  const Slot* Find(int64_t key, uint64_t h) const {
    if (used_ == 0) return nullptr;
    const uint8_t tag = swiss::TagOf(h);
    size_t group = GroupOf(h);
    while (true) {
      for (uint32_t match = swiss::MatchMask(Ctrl(group), tag); match != 0;
           match &= match - 1) {
        const Slot& slot = slots_[group * swiss::kGroupWidth +
                                  swiss::LowestLane(match)];
        if (slot.key == key) return &slot;  // a key occupies one slot
      }
      if (swiss::EmptyMask(Ctrl(group)) != 0) return nullptr;
      group = NextGroup(group);
    }
  }

  /// The slot holding `key` (hash `h`), claiming the first empty lane of
  /// its probe sequence when the key is new (*inserted = true; only
  /// `Slot::key` is set, the caller initialises every other field). Grows
  /// first when the distinct keys reach 7/8 of capacity. The pointer is
  /// valid until the next FindOrInsert/Reserve.
  Slot* FindOrInsert(int64_t key, uint64_t h, bool* inserted) {
    if (used_ * 8 >= ctrl_.size() * 7) {
      Rehash(ctrl_.empty() ? kMinSlots : ctrl_.size() * 2);
    }
    const uint8_t tag = swiss::TagOf(h);
    size_t group = GroupOf(h);
    while (true) {
      uint8_t* ctrl = ctrl_.data() + group * swiss::kGroupWidth;
      for (uint32_t match = swiss::MatchMask(ctrl, tag); match != 0;
           match &= match - 1) {
        Slot& slot =
            slots_[group * swiss::kGroupWidth + swiss::LowestLane(match)];
        if (slot.key == key) {
          *inserted = false;
          return &slot;
        }
      }
      const uint32_t empty = swiss::EmptyMask(ctrl);
      if (empty != 0) {
        const uint32_t lane = swiss::LowestLane(empty);
        ctrl[lane] = tag;
        Slot& slot = slots_[group * swiss::kGroupWidth + lane];
        slot.key = key;
        ++used_;
        *inserted = true;
        return &slot;
      }
      group = NextGroup(group);
    }
  }

  /// Pre-sizes the table so `keys` more distinct keys fit without growth.
  void Reserve(size_t keys) {
    const size_t want = SlotsFor(used_ + keys);
    if (want > ctrl_.size()) Rehash(want);
  }

  /// Drops every slot; keeps the allocated capacity.
  void Clear() {
    // std::fill, not memset: a never-allocated table has a null data().
    std::fill(ctrl_.begin(), ctrl_.end(), swiss::kEmpty);
    used_ = 0;
  }

  /// Calls fn(const Slot&) for every occupied slot, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] != swiss::kEmpty) fn(slots_[i]);
    }
  }

  /// Distinct keys stored.
  size_t size() const { return used_; }

  /// Allocated bytes (capacity, not occupancy) of ctrl bytes and slots.
  size_t MemoryBytes() const {
    return ctrl_.capacity() * sizeof(uint8_t) +
           slots_.capacity() * sizeof(Slot);
  }

 private:
  // Home ctrl group of hash `h` (the table must be allocated).
  size_t GroupOf(uint64_t h) const { return h & group_mask_; }

  // The 16 ctrl bytes of `group`.
  const uint8_t* Ctrl(size_t group) const {
    return ctrl_.data() + group * swiss::kGroupWidth;
  }

  size_t NextGroup(size_t group) const { return (group + 1) & group_mask_; }

  // Re-places every occupied slot, in slot order, into the first empty
  // lane of its probe sequence in a fresh table of `slots` slots.
  void Rehash(size_t slots) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    ctrl_.assign(slots, swiss::kEmpty);
    slots_.assign(slots, Slot{});
    group_mask_ = slots / swiss::kGroupWidth - 1;
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == swiss::kEmpty) continue;
      const uint64_t h = HashOf{}(old_slots[i]);
      size_t group = GroupOf(h);
      uint32_t empty = swiss::EmptyMask(Ctrl(group));
      while (empty == 0) {
        group = NextGroup(group);
        empty = swiss::EmptyMask(Ctrl(group));
      }
      const size_t pos = group * swiss::kGroupWidth + swiss::LowestLane(empty);
      ctrl_[pos] = swiss::TagOf(h);
      slots_[pos] = old_slots[i];
    }
  }

  std::vector<uint8_t> ctrl_;  // slot-count bytes, kEmpty or tag (lazy)
  std::vector<Slot> slots_;    // slot-count entries (lazy)
  size_t group_mask_ = 0;      // (#groups - 1)
  size_t used_ = 0;            // distinct keys
};

}  // namespace ajoin
