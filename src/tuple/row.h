// Row: a materialized tuple of Values.
//
// The engines route rows by a single i64 "join key" extracted once at the
// reshuffler (equi/band predicates key on it; general theta predicates get
// the whole row). Rows remain attached so residual predicates and output
// materialization work.
//
// Layout: a Row is one pointer. An empty row holds no allocation, so the
// slim (row-less) tuples that dominate the data plane copy, move, and
// destroy their Row for the cost of a null check; a non-empty row owns one
// heap block holding its size, capacity, and values inline. Copies are deep
// (value semantics); a moved-from row is empty.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/tuple/value.h"

namespace ajoin {

class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values);
  Row(const Row& other);
  Row(Row&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Row& operator=(const Row& other);
  Row& operator=(Row&& other) noexcept;
  ~Row() {
    if (rep_ != nullptr) Release();
  }

  size_t num_values() const { return rep_ == nullptr ? 0 : rep_->size; }
  const Value& value(size_t i) const { return rep_->values()[i]; }
  Value& value(size_t i) { return rep_->values()[i]; }
  void Append(Value v);

  /// Appends every value of `other` in order — the single definition of
  /// row concatenation (LocalJoin output and streaming kResult rows must
  /// concatenate identically; see tests/egress_test.cc).
  void AppendAll(const Row& other);

  /// Ensures room for `n` values without reallocating (a concatenation
  /// that knows its final width allocates exactly once).
  void Reserve(size_t n);

  int64_t Int64(size_t i) const { return value(i).AsInt64(); }
  double Double(size_t i) const { return value(i).AsNumeric(); }
  const std::string& String(size_t i) const { return value(i).AsString(); }

  bool operator==(const Row& other) const;

  /// Serialized byte footprint.
  size_t ByteSize() const {
    size_t n = 2;  // column count prefix
    for (size_t i = 0; i < num_values(); ++i) n += 1 + value(i).ByteSize();
    return n;
  }

  std::string ToString() const;

 private:
  // Heap block: this header, then `capacity` Value slots of which the first
  // `size` are constructed.
  struct Rep {
    uint32_t size;
    uint32_t capacity;
    Value* values() { return reinterpret_cast<Value*>(this + 1); }
    const Value* values() const {
      return reinterpret_cast<const Value*>(this + 1);
    }
  };
  static_assert(sizeof(Rep) % alignof(Value) == 0,
                "values must start aligned right after the header");

  // Destroys every value and frees the block; leaves the row empty.
  void Release();

  Rep* rep_ = nullptr;
};

}  // namespace ajoin
