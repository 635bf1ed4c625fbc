#include "src/tuple/serde.h"

namespace ajoin {

void SerializeRow(const Row& row, std::vector<uint8_t>* out) {
  PutRaw<uint16_t>(static_cast<uint16_t>(row.num_values()), out);
  for (size_t i = 0; i < row.num_values(); ++i) {
    const Value& v = row.value(i);
    out->push_back(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kInt64:
        PutRaw<int64_t>(v.AsInt64(), out);
        break;
      case ValueType::kDouble:
        PutRaw<double>(v.AsDouble(), out);
        break;
      case ValueType::kString: {
        const std::string& s = v.AsString();
        PutRaw<uint32_t>(static_cast<uint32_t>(s.size()), out);
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
  }
}

Result<Row> DeserializeRow(const std::vector<uint8_t>& buf, size_t* offset) {
  uint16_t n = 0;
  if (!GetRaw(buf, offset, &n)) {
    return Status::OutOfRange("truncated row header");
  }
  Row row;
  for (uint16_t i = 0; i < n; ++i) {
    if (*offset >= buf.size()) return Status::OutOfRange("truncated value tag");
    auto type = static_cast<ValueType>(buf[*offset]);
    ++*offset;
    switch (type) {
      case ValueType::kInt64: {
        int64_t v;
        if (!GetRaw(buf, offset, &v)) return Status::OutOfRange("truncated i64");
        row.Append(Value(v));
        break;
      }
      case ValueType::kDouble: {
        double v;
        if (!GetRaw(buf, offset, &v)) return Status::OutOfRange("truncated f64");
        row.Append(Value(v));
        break;
      }
      case ValueType::kString: {
        uint32_t len;
        if (!GetRaw(buf, offset, &len)) return Status::OutOfRange("truncated len");
        if (*offset + len > buf.size()) return Status::OutOfRange("truncated str");
        row.Append(Value(std::string(
            reinterpret_cast<const char*>(buf.data() + *offset), len)));
        *offset += len;
        break;
      }
      default:
        return Status::Internal("bad value tag");
    }
  }
  return row;
}

}  // namespace ajoin
