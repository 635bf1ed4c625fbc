// FlatHashIndex correctness: unit tests for the tag-filtered open-addressing
// multimap plus the randomized differential suite pinning it to a
// std-container reference model over Zipf-skewed, duplicate-heavy key
// streams with interleaved store/probe and partition extract/absorb cycles.
// (The chained HashIndex this suite originally soaked against has been
// retired; the reference model is now the differential anchor.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/index/flat_index.h"
#include "src/localjoin/join_index.h"

namespace ajoin {
namespace {

std::vector<uint64_t> SortedMatches(const FlatHashIndex& index, int64_t key) {
  std::vector<uint64_t> out;
  index.ForEachMatch(key, [&out](uint64_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

/// Obviously-correct multimap reference: the differential baseline the flat
/// index is pinned against.
class RefIndex {
 public:
  void Insert(int64_t key, uint64_t id) {
    groups_[key].push_back(id);
    ++size_;
  }
  std::vector<uint64_t> SortedMatches(int64_t key) const {
    auto it = groups_.find(key);
    if (it == groups_.end()) return {};
    std::vector<uint64_t> out = it->second;
    std::sort(out.begin(), out.end());
    return out;
  }
  uint64_t CountMatches(int64_t key) const {
    auto it = groups_.find(key);
    return it == groups_.end() ? 0 : it->second.size();
  }
  /// Per-key ids in insertion order, probe-run shaped: (probe index, id).
  void ForEachMatch(int64_t key, size_t i,
                    std::vector<std::pair<size_t, uint64_t>>* out) const {
    auto it = groups_.find(key);
    if (it == groups_.end()) return;
    for (uint64_t id : it->second) out->emplace_back(i, id);
  }
  void Clear() {
    groups_.clear();
    size_ = 0;
  }
  size_t size() const { return size_; }

 private:
  std::unordered_map<int64_t, std::vector<uint64_t>> groups_;
  size_t size_ = 0;
};

TEST(FlatIndex, InsertAndMatch) {
  FlatHashIndex index;
  index.Insert(7, 100);
  index.Insert(8, 200);
  index.Insert(7, 101);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.distinct_keys(), 2u);
  EXPECT_EQ(SortedMatches(index, 7), (std::vector<uint64_t>{100, 101}));
  EXPECT_EQ(SortedMatches(index, 8), (std::vector<uint64_t>{200}));
  EXPECT_TRUE(SortedMatches(index, 9).empty());
  EXPECT_EQ(index.CountMatches(7), 2u);
  EXPECT_EQ(index.CountMatches(9), 0u);
}

TEST(FlatIndex, DuplicateRunsStayOrderedAndContiguous) {
  // A heavily duplicated key must stream back in insertion order (the run
  // lives contiguously in the arena).
  FlatHashIndex index;
  for (uint64_t i = 0; i < 1000; ++i) index.Insert(42, i);
  std::vector<uint64_t> got;
  index.ForEachMatch(42, [&got](uint64_t id) { got.push_back(id); });
  ASSERT_EQ(got.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(got[i], i);
}

TEST(FlatIndex, GrowthKeepsAllEntries) {
  FlatHashIndex index;
  for (int64_t k = 0; k < 5000; ++k) index.Insert(k, static_cast<uint64_t>(k));
  for (int64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(SortedMatches(index, k),
              (std::vector<uint64_t>{static_cast<uint64_t>(k)}));
  }
  EXPECT_EQ(index.size(), 5000u);
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(FlatIndex, NegativeKeysAndClear) {
  FlatHashIndex index;
  index.Insert(-5, 1);
  index.Insert(-5, 2);
  index.Insert(5, 3);
  EXPECT_EQ(SortedMatches(index, -5), (std::vector<uint64_t>{1, 2}));
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(SortedMatches(index, -5).empty());
  index.Insert(-5, 9);
  EXPECT_EQ(SortedMatches(index, -5), (std::vector<uint64_t>{9}));
}

TEST(FlatIndex, RelocatedRunsAreReused) {
  // Skewed run lengths make keys outgrow their runs at different times, so
  // a relocated run's old copy is soon the right size for another key.
  // Reusing those copies keeps the arena within a small factor of the live
  // ids; abandoning them left it above 5x on this stream.
  constexpr uint64_t kKeys = 2000;
  constexpr uint64_t kInserts = 1000000;
  ZipfSampler zipf(kKeys, 0.5);
  Rng rng(7);
  FlatHashIndex index;
  std::unordered_map<int64_t, uint64_t> last_id;
  for (uint64_t i = 0; i < kInserts; ++i) {
    const int64_t key = static_cast<int64_t>(zipf.Sample(rng));
    index.Insert(key, i);
    last_id[key] = i;
  }
  ASSERT_EQ(index.size(), kInserts);
  const size_t live_id_bytes = index.size() * sizeof(uint64_t);
  EXPECT_LE(index.MemoryBytes(), 3 * live_id_bytes)
      << "MemoryBytes " << index.MemoryBytes() << " vs live id bytes "
      << live_id_bytes;
  // Reused runs still stream each key's ids in insertion order.
  size_t total = 0;
  for (const auto& [key, last] : last_id) {
    uint64_t prev = 0;
    bool first = true;
    index.ForEachMatch(key, [&](uint64_t id) {
      EXPECT_TRUE(first || id > prev) << "key " << key;
      prev = id;
      first = false;
      ++total;
    });
    EXPECT_EQ(prev, last) << "key " << key;
  }
  EXPECT_EQ(total, kInserts);
}

TEST(FlatIndex, ReserveAvoidsMidAbsorbGrowth) {
  // A fresh index has no duplication ratio to size from, so Reserve must
  // not speculate (no phantom MemoryBytes before anything is stored).
  FlatHashIndex index;
  index.Reserve(100000);
  EXPECT_EQ(index.MemoryBytes(), 0u);
  // Build state (unique keys), then do a migration-style Clear + Reserve +
  // rebuild: the pre-Clear ratio sizes the table so the absorb of the same
  // distribution triggers no further growth.
  for (int64_t k = 0; k < 100000; ++k) {
    index.Insert(k, static_cast<uint64_t>(k));
  }
  index.Clear();
  index.Reserve(100000);
  const size_t bytes_before = index.MemoryBytes();
  EXPECT_GT(bytes_before, 0u);
  for (int64_t k = 0; k < 100000; ++k) {
    index.Insert(k, static_cast<uint64_t>(k));
  }
  EXPECT_EQ(index.MemoryBytes(), bytes_before);
  EXPECT_EQ(index.size(), 100000u);
}

TEST(FlatIndex, ReserveWithKnownSkewSizesByDistinctKeys) {
  // Duplicate-heavy state: after Clear, Reserve must size the table by the
  // distinct-key estimate, not the raw entry count — the table for a
  // same-sized absorb stays within ~2x of the organically grown one
  // instead of 16x.
  FlatHashIndex organic;
  for (uint64_t i = 0; i < 100000; ++i) {
    organic.Insert(static_cast<int64_t>(i % 6250), i);  // ~16 dups/key
  }
  const size_t organic_bytes = organic.MemoryBytes();
  organic.Clear();
  organic.Reserve(100000);
  for (uint64_t i = 0; i < 100000; ++i) {
    organic.Insert(static_cast<int64_t>(i % 6250), i);
  }
  EXPECT_LE(organic.MemoryBytes(), organic_bytes * 2);
}

TEST(FlatIndex, ProbeRunMatchesScalarExactly) {
  // ProbeRun must emit exactly what per-key ForEachMatch emits, as (probe
  // index, row id) pairs in probe order with runs in insertion order —
  // byte-for-byte, not just as sets.
  Rng rng(1234);
  ZipfSampler zipf(512, 1.0);
  FlatHashIndex index;
  for (uint64_t i = 0; i < 20000; ++i) {
    index.Insert(static_cast<int64_t>(zipf.Sample(rng)), i);
  }
  std::vector<int64_t> probes;
  for (int i = 0; i < 4096; ++i) {
    // Mix present and absent keys.
    probes.push_back(rng.NextBool(0.8)
                         ? static_cast<int64_t>(zipf.Sample(rng))
                         : static_cast<int64_t>(rng.Uniform(1 << 20)));
  }
  std::vector<std::pair<size_t, uint64_t>> batched, scalar;
  index.ProbeRun(probes.data(), probes.size(),
                 [&](size_t i, uint64_t id) { batched.emplace_back(i, id); });
  for (size_t i = 0; i < probes.size(); ++i) {
    index.ForEachMatch(probes[i],
                       [&](uint64_t id) { scalar.emplace_back(i, id); });
  }
  EXPECT_EQ(batched, scalar);
}

// ---------------------------------------------------------------------------
// Randomized differential: flat vs the std-container reference over
// Zipf-skewed duplicate-heavy streams with interleaved store/probe and
// partition extract/absorb.
// ---------------------------------------------------------------------------

// Partition of a key for the extract/absorb simulation (mirrors the tag
// partitioning joiner migrations use: a hash bit decides ownership).
uint32_t PartOf(int64_t key, uint32_t parts) {
  return static_cast<uint32_t>(SplitMix64(static_cast<uint64_t>(key) + 17) %
                               parts);
}

TEST(FlatIndexDifferential, ZipfStreamsWithExtractAbsorb) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    const double z = (seed % 3 == 0) ? 0.0 : (seed % 3 == 1 ? 0.8 : 1.0);
    ZipfSampler zipf(256, z);
    FlatHashIndex flat;
    RefIndex ref;
    // (key, id) log so extract/absorb can rebuild both sides.
    std::vector<std::pair<int64_t, uint64_t>> log;
    uint64_t next_id = 0;
    for (int op = 0; op < 30000; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.70) {
        // Store.
        const int64_t key = static_cast<int64_t>(zipf.Sample(rng));
        flat.Insert(key, next_id);
        ref.Insert(key, next_id);
        log.emplace_back(key, next_id);
        ++next_id;
      } else if (dice < 0.95) {
        // Probe: identical match sets (as sorted multisets; the two sides
        // have different internal orders).
        const int64_t key = rng.NextBool(0.7)
                                ? static_cast<int64_t>(zipf.Sample(rng))
                                : static_cast<int64_t>(rng.Uniform(1 << 16));
        EXPECT_EQ(SortedMatches(flat, key), ref.SortedMatches(key))
            << "seed " << seed << " op " << op << " key " << key;
        EXPECT_EQ(flat.CountMatches(key), ref.CountMatches(key));
      } else if (dice < 0.99 || log.empty()) {
        // Batched probe run on the flat side vs the reference's per-key
        // scan.
        std::vector<int64_t> probes;
        for (int i = 0; i < 64; ++i) {
          probes.push_back(static_cast<int64_t>(zipf.Sample(rng)));
        }
        std::vector<std::pair<size_t, uint64_t>> batched, scalar;
        flat.ProbeRun(probes.data(), probes.size(), [&](size_t i, uint64_t id) {
          batched.emplace_back(i, id);
        });
        for (size_t i = 0; i < probes.size(); ++i) {
          ref.ForEachMatch(probes[i], i, &scalar);
        }
        std::sort(batched.begin(), batched.end());
        std::sort(scalar.begin(), scalar.end());
        EXPECT_EQ(batched, scalar) << "seed " << seed << " op " << op;
      } else {
        // Extract/absorb: one of 4 partitions migrates out — both sides
        // rebuild from the retained log (exactly what FinalizeMigration
        // does), the extracted partition is absorbed into fresh pre-sized
        // indexes, and both sides must again agree.
        const uint32_t parts = 4;
        const uint32_t moved = static_cast<uint32_t>(rng.Uniform(parts));
        std::vector<std::pair<int64_t, uint64_t>> kept, extracted;
        for (const auto& entry : log) {
          (PartOf(entry.first, parts) == moved ? extracted : kept)
              .push_back(entry);
        }
        flat.Clear();
        ref.Clear();
        flat.Reserve(kept.size());
        for (const auto& [key, id] : kept) {
          flat.Insert(key, id);
          ref.Insert(key, id);
        }
        FlatHashIndex absorbed_flat;
        RefIndex absorbed_ref;
        absorbed_flat.Reserve(extracted.size());
        for (const auto& [key, id] : extracted) {
          absorbed_flat.Insert(key, id);
          absorbed_ref.Insert(key, id);
        }
        for (int s = 0; s < 32; ++s) {
          const int64_t key = static_cast<int64_t>(zipf.Sample(rng));
          EXPECT_EQ(SortedMatches(flat, key), ref.SortedMatches(key));
          EXPECT_EQ(SortedMatches(absorbed_flat, key),
                    absorbed_ref.SortedMatches(key));
        }
        EXPECT_EQ(flat.size(), ref.size());
        log = std::move(kept);
      }
    }
    EXPECT_EQ(flat.size(), ref.size()) << "seed " << seed;
    EXPECT_GT(flat.MemoryBytes(), 0u);
  }
}

TEST(FlatIndexDifferential, JoinIndexHashMatchesReference) {
  // The JoinIndex wrapper over the flat index must agree with the reference
  // model through Add/Reserve/ForEachCandidate.
  Rng rng(99);
  ZipfSampler zipf(128, 1.0);
  JoinIndex index(JoinIndex::Kind::kHash);
  RefIndex ref;
  index.Reserve(5000);
  for (uint64_t i = 0; i < 5000; ++i) {
    const int64_t key = static_cast<int64_t>(zipf.Sample(rng));
    index.Add(key, i);
    ref.Insert(key, i);
  }
  EXPECT_EQ(index.size(), ref.size());
  EXPECT_EQ(index.kind(), JoinIndex::Kind::kHash);
  std::vector<int64_t> probes;
  for (int i = 0; i < 500; ++i) {
    probes.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  std::vector<std::pair<size_t, uint64_t>> from_index, from_ref;
  for (size_t i = 0; i < probes.size(); ++i) {
    index.ForEachCandidate(probes[i], probes[i], [&](uint64_t id) {
      from_index.emplace_back(i, id);
    });
    ref.ForEachMatch(probes[i], i, &from_ref);
  }
  std::sort(from_index.begin(), from_index.end());
  std::sort(from_ref.begin(), from_ref.end());
  EXPECT_EQ(from_index, from_ref);
}

}  // namespace
}  // namespace ajoin
