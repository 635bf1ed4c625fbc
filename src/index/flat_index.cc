#include "src/index/flat_index.h"

#include <cstring>

#include "src/common/status.h"

namespace ajoin {

void FlatHashIndex::Insert(int64_t key, uint64_t row_id) {
  AJOIN_CHECK_MSG((row_id & kExternal) == 0, "flat index row id limit");
  bool inserted = false;
  Slot* slot = table_.FindOrInsert(
      key, SplitMix64(static_cast<uint64_t>(key)), &inserted);
  if (inserted) {
    slot->head = row_id;
  } else {
    AppendToRun(slot, row_id);
  }
  ++size_;
}

void FlatHashIndex::AppendToRun(Slot* slot, uint64_t row_id) {
  if ((slot->head & kExternal) == 0) {
    // Inline -> external: open a run seeded with the inline id.
    const uint64_t off = AllocRun(kInitialRunCap);
    arena_[off] = RunHeader(kInitialRunCap, 2);
    arena_[off + 1] = slot->head;
    arena_[off + 2] = row_id;
    slot->head = kExternal | off;
    return;
  }
  const uint64_t off = slot->head & ~kExternal;
  const uint64_t header = arena_[off];
  const uint32_t count = RunCount(header);
  const uint32_t cap = RunCap(header);
  if (count < cap) {
    arena_[off + 1 + count] = row_id;
    arena_[off] = RunHeader(cap, count + 1);
    return;
  }
  // Relocate the run doubled; the old copy goes on its capacity's free
  // list, for the next key whose run grows into that size.
  AJOIN_CHECK_MSG(cap <= (1u << 30), "flat index run limit");
  const uint32_t new_cap = cap * 2;
  const uint64_t new_off = AllocRun(new_cap);
  std::memcpy(arena_.data() + new_off + 1, arena_.data() + off + 1,
              static_cast<size_t>(count) * sizeof(uint64_t));
  arena_[new_off + 1 + count] = row_id;
  arena_[new_off] = RunHeader(new_cap, count + 1);
  slot->head = kExternal | new_off;
  uint64_t& free_head = free_runs_[RunClass(cap)];
  arena_[off] = free_head;
  free_head = off + 1;
}

uint64_t FlatHashIndex::AllocRun(uint32_t cap) {
  uint64_t& free_head = free_runs_[RunClass(cap)];
  if (free_head != 0) {
    const uint64_t off = free_head - 1;
    free_head = arena_[off];  // a free run's header links to the next one
    return off;
  }
  // One header word plus `cap` id words.
  const size_t off = arena_.size();
  arena_.resize(off + 1 + cap);
  return off;
}

void FlatHashIndex::Reserve(size_t n) {
  // Pre-size only when a duplication ratio is known: the live state's own
  // ratio, or the pre-Clear ratio for a migration-style Clear()+rebuild.
  // With no information, a speculative pre-size either oversizes the
  // permanent slot table up to 16x (duplicate-heavy absorb) or strands
  // arena capacity (unique absorb) — phantom bytes that MemoryBytes()
  // would feed into the controller's ILF accounting forever. Organic
  // geometric growth is amortized and always tight, so an uninformed
  // Reserve deliberately does nothing.
  const size_t ratio_keys = size_ > 0 ? table_.size() : prior_keys_;
  const size_t ratio_size = size_ > 0 ? size_ : prior_size_;
  if (ratio_size == 0) return;
  // Distinct-key estimate with a slight overshoot (n/8) to damp the cost
  // of an underestimate; growth past it stays amortized as usual.
  size_t keys = static_cast<size_t>(static_cast<double>(n) *
                                    static_cast<double>(ratio_keys) /
                                    static_cast<double>(ratio_size)) +
                n / 8 + 1;
  if (keys > n) keys = n;
  table_.Reserve(keys);
  // Arena headroom for the estimated duplicate surplus only (unique keys
  // store their id inline and never touch the arena): 2x covers run
  // headers and first relocations, and a shortfall just reallocates
  // geometrically/amortized.
  const size_t dup_surplus = n > keys ? n - keys : 0;
  if (dup_surplus > 0) arena_.reserve(arena_.size() + dup_surplus * 2);
}

void FlatHashIndex::Clear() {
  if (size_ > 0) {
    prior_keys_ = table_.size();
    prior_size_ = size_;
  }
  table_.Clear();
  arena_.clear();
  free_runs_.fill(0);
  size_ = 0;
}

}  // namespace ajoin
