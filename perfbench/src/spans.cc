#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

void SpanLog::Absorb(SpanLog&& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  other.spans_.clear();
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (const auto& [lo_raw, hi_raw] : iv) {
        const uint64_t lo = std::max(lo_raw, s.start_ns);
        const uint64_t hi = std::min(hi_raw, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    SelfTime& st = out[s.name];
    st.count += 1;
    st.total_ms += static_cast<double>(dur) * 1e-6;
    st.self_ms += static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
