// SwissTable group primitives: the one 16-lane ctrl-group match under both
// FlatHashIndex and AggTable, checked against a plain byte loop. Runs on
// whichever path the build compiles (SSE2, or SWAR under
// -DAJOIN_FLAT_FORCE_SWAR=ON).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/index/swiss_table.h"

namespace ajoin {
namespace {

using Group = std::array<uint8_t, swiss::kGroupWidth>;

uint8_t TagAt(int t) { return static_cast<uint8_t>(t & 0x7f); }

/// Groups crafted around `tag`: all empty, all full, a tag lane followed
/// by its +-1 and ^1 neighbours (the SWAR borrow out of a zero byte
/// reaches the next lane up), and 0x80 lanes mixed in.
std::vector<Group> CraftedGroups(int tag) {
  std::vector<Group> out;
  Group g;
  g.fill(swiss::kEmpty);
  out.push_back(g);
  g.fill(TagAt(tag));
  out.push_back(g);
  g.fill(TagAt(tag + 1));
  out.push_back(g);
  for (int neighbour : {tag + 1, tag - 1, tag ^ 1}) {
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] = i % 2 == 0 ? TagAt(tag) : TagAt(neighbour);
    }
    out.push_back(g);
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] = i % 3 == 0 ? TagAt(tag) : i % 3 == 1 ? TagAt(neighbour)
                                                  : swiss::kEmpty;
    }
    out.push_back(g);
    // One tag lane at the top of the low word, its neighbour at the bottom
    // of the high word: a borrow must not cross the 8-byte halves.
    g.fill(swiss::kEmpty);
    g[7] = TagAt(tag);
    g[8] = TagAt(neighbour);
    out.push_back(g);
  }
  return out;
}

TEST(SwissTable, GroupMasksAgreeWithByteLoop) {
  Rng rng(2024);
  std::vector<Group> random_groups(512);
  for (Group& g : random_groups) {
    for (uint8_t& c : g) {
      c = rng.NextBool(0.3) ? swiss::kEmpty
                            : static_cast<uint8_t>(rng.Uniform(0x80));
    }
  }
  for (int tag = 0; tag < 0x80; ++tag) {
    std::vector<Group> groups = CraftedGroups(tag);
    groups.insert(groups.end(), random_groups.begin(), random_groups.end());
    for (const Group& g : groups) {
      uint32_t equal = 0;
      uint32_t empty = 0;
      for (size_t i = 0; i < g.size(); ++i) {
        if (g[i] == tag) equal |= 1u << i;
        if (g[i] == swiss::kEmpty) empty |= 1u << i;
      }
      const uint32_t match = swiss::MatchMask(g.data(), TagAt(tag));
      // Never a missed lane; an extra lane is a non-empty one, so it costs
      // a key compare and can never claim an empty lane as a match.
      EXPECT_EQ(match & equal, equal) << "tag " << tag;
      EXPECT_EQ(match & ~equal & (empty | ~0xffffu), 0u) << "tag " << tag;
      EXPECT_EQ(swiss::EmptyMask(g.data()), empty) << "tag " << tag;
    }
  }
}

}  // namespace
}  // namespace ajoin
