#include "src/tuple/row.h"

#include <algorithm>
#include <new>

namespace ajoin {

Row::Row(std::vector<Value> values) {
  Reserve(values.size());
  for (Value& v : values) Append(std::move(v));
}

Row::Row(const Row& other) {
  try {
    AppendAll(other);
  } catch (...) {
    Release();  // a throwing constructor never runs the destructor
    throw;
  }
}

Row& Row::operator=(const Row& other) {
  if (this != &other) {
    Row copy(other);
    std::swap(rep_, copy.rep_);
  }
  return *this;
}

Row& Row::operator=(Row&& other) noexcept {
  if (this != &other) {
    if (rep_ != nullptr) Release();
    rep_ = std::exchange(other.rep_, nullptr);
  }
  return *this;
}

void Row::Release() {
  if (rep_ == nullptr) return;
  Value* values = rep_->values();
  for (uint32_t i = 0; i < rep_->size; ++i) values[i].~Value();
  ::operator delete(rep_);
  rep_ = nullptr;
}

void Row::Reserve(size_t n) {
  const size_t cap = rep_ == nullptr ? 0 : rep_->capacity;
  if (n <= cap) return;
  const size_t grown = std::max(n, 2 * cap);
  void* block = ::operator new(sizeof(Rep) + grown * sizeof(Value));
  Rep* rep = static_cast<Rep*>(block);
  rep->size = 0;
  rep->capacity = static_cast<uint32_t>(grown);
  if (rep_ != nullptr) {
    // Value's move is noexcept (every variant alternative moves without
    // throwing), so relocation cannot fail half way.
    Value* from = rep_->values();
    for (uint32_t i = 0; i < rep_->size; ++i) {
      new (rep->values() + i) Value(std::move(from[i]));
    }
    rep->size = rep_->size;
    Release();
  }
  rep_ = rep;
}

void Row::Append(Value v) {
  const size_t n = num_values();
  if (rep_ == nullptr || n == rep_->capacity) Reserve(std::max<size_t>(4, n + 1));
  new (rep_->values() + n) Value(std::move(v));
  ++rep_->size;
}

void Row::AppendAll(const Row& other) {
  const size_t add = other.num_values();
  if (add == 0) return;
  Reserve(num_values() + add);
  // Re-read other's block after Reserve: for other == *this it moved.
  for (size_t i = 0; i < add; ++i) {
    new (rep_->values() + rep_->size) Value(other.value(i));
    ++rep_->size;
  }
}

bool Row::operator==(const Row& other) const {
  const size_t n = num_values();
  if (n != other.num_values()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (value(i) != other.value(i)) return false;
  }
  return true;
}

std::string Row::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < num_values(); ++i) {
    if (i > 0) out += ", ";
    out += value(i).ToString();
  }
  out += "]";
  return out;
}

}  // namespace ajoin
