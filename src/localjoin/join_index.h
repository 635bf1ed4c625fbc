// JoinIndex: key -> entry-id index whose physical form depends on the join
// kind — hash for equi, B+ tree for band, plain list for theta scans.
// Concrete (no virtual dispatch) so joiner probe loops stay tight.
//
// The equi hash form is the cache-conscious flat tag-filtered index
// (src/index/flat_index.h); its differential anchor is the std-container
// reference model in tests/flat_index_test.cc.

#pragma once

#include <cstdint>
#include <vector>

#include "src/index/btree.h"
#include "src/index/flat_index.h"
#include "src/localjoin/predicate.h"

namespace ajoin {

class JoinIndex {
 public:
  enum class Kind : uint8_t { kHash, kTree, kScan };

  /// Index kind appropriate for a predicate kind.
  static Kind KindFor(JoinSpec::Kind k) {
    switch (k) {
      case JoinSpec::Kind::kEqui: return Kind::kHash;
      case JoinSpec::Kind::kBand: return Kind::kTree;
      case JoinSpec::Kind::kTheta: return Kind::kScan;
    }
    return Kind::kScan;
  }

  /// Builds an index of `kind`.
  explicit JoinIndex(Kind kind = Kind::kHash) : kind_(kind) {}

  /// Inserts (key, id). Keys may repeat (skewed foreign keys).
  void Add(int64_t key, uint64_t id) {
    switch (kind_) {
      case Kind::kHash:
        flat_.Insert(key, id);
        break;
      case Kind::kTree:
        tree_.Insert(key, id);
        break;
      case Kind::kScan:
        scan_.push_back(id);
        break;
    }
    ++size_;
  }

  /// Pre-sizes the index for `n` additional entries, so bulk absorbs (a
  /// migrated partition of known size, a snapshot restore) do not trigger
  /// rehash/growth storms mid-stream.
  void Reserve(size_t n) {
    switch (kind_) {
      case Kind::kHash:
        flat_.Reserve(n);
        break;
      case Kind::kTree:
        break;  // B+ tree nodes are fixed-fanout; nothing useful to reserve
      case Kind::kScan:
        scan_.reserve(scan_.size() + n);
        break;
    }
  }

  /// Calls fn(id) for every entry whose key lies in [lo, hi]. For kHash the
  /// range must be a point (equi probes). For kScan all entries qualify
  /// (caller evaluates the theta predicate on rows).
  template <typename Fn>
  void ForEachCandidate(int64_t lo, int64_t hi, Fn&& fn) const {
    switch (kind_) {
      case Kind::kHash:
        flat_.ForEachMatch(lo, fn);
        break;
      case Kind::kTree:
        tree_.ForEachInRange(lo, hi, [&fn](int64_t, uint64_t id) { fn(id); });
        break;
      case Kind::kScan:
        for (uint64_t id : scan_) fn(id);
        break;
    }
  }

  /// Total entries added since the last Clear.
  size_t size() const { return size_; }
  /// Physical index kind (hash / tree / scan).
  Kind kind() const { return kind_; }

  /// Removes every entry; keeps allocated capacity where the underlying
  /// form supports it.
  void Clear() {
    flat_.Clear();
    tree_.Clear();
    scan_.clear();
    size_ = 0;
  }

  /// Memory footprint estimate in bytes (ILF bookkeeping).
  size_t MemoryBytes() const {
    return flat_.MemoryBytes() + tree_.MemoryBytes() +
           scan_.capacity() * sizeof(uint64_t);
  }

 private:
  Kind kind_;
  FlatHashIndex flat_;
  BPlusTree tree_;
  std::vector<uint64_t> scan_;
  size_t size_ = 0;
};

}  // namespace ajoin
