// Row <-> byte-buffer serialization ("the wire format") and the raw field
// codec it shares with the joiner snapshot. Little-endian,
// length-prefixed strings. Used by the spill store and by network byte
// accounting in the engines.

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/status.h"
#include "src/tuple/row.h"

namespace ajoin {

/// Appends the raw bytes of `v` (a trivially copyable field) to `out`.
template <typename T>
void PutRaw(T v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &v, sizeof(T));
}

/// Reads one raw field at buf[*offset] into *v and advances *offset; false
/// (nothing read) if the buffer ends first.
template <typename T>
bool GetRaw(const std::vector<uint8_t>& buf, size_t* offset, T* v) {
  if (*offset + sizeof(T) > buf.size()) return false;
  std::memcpy(v, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// Appends the serialized row to `out`.
void SerializeRow(const Row& row, std::vector<uint8_t>* out);

/// Deserializes one row starting at out[*offset]; advances *offset.
Result<Row> DeserializeRow(const std::vector<uint8_t>& buf, size_t* offset);

}  // namespace ajoin
