// In-memory spans recorded from the benchmark's own code around each call
// into a layer of the library (Push groups, FlushInput, SendEos,
// WaitQuiescent, sink batch arrivals, replay calls). Each thread records
// into its own SpanLog; logs are merged once the engine is quiescent and
// written out when the run ends. Self time of a span is its duration minus
// the part of it covered by its children.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span. Ids are unique across logs: the high 16 bits name
/// the log (track), the low 48 bits count within it; 0 means "no parent".
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";  // static string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Single-threaded span recorder for one track (thread). A disabled log
/// records nothing and hands out id 0, so untraced runs pay one branch.
class SpanLog {
 public:
  SpanLog(uint16_t track, bool enabled) : track_(track), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Add(const char* name, uint64_t parent, uint64_t start_ns,
               uint64_t end_ns) {
    if (!enabled_) return 0;
    const uint64_t id = (static_cast<uint64_t>(track_) << 48) |
                        static_cast<uint64_t>(spans_.size() + 1);
    spans_.push_back(Span{id, parent, name, start_ns, end_ns});
    return id;
  }

  /// Reserves an id for a span whose end is not known yet (a parent that
  /// opens before its children); Close fills it in.
  uint64_t Open(const char* name, uint64_t parent, uint64_t start_ns) {
    return Add(name, parent, start_ns, start_ns);
  }
  void Close(uint64_t id, uint64_t end_ns) {
    if (id == 0) return;
    spans_[static_cast<size_t>(id & ((uint64_t{1} << 48) - 1)) - 1].end_ns =
        end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Moves every span of `other` into this log (ids stay unique because
  /// each log has its own track).
  void Absorb(SpanLog&& other);

 private:
  uint16_t track_;
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-name totals: span count, summed duration, and summed self time.
struct SelfTime {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it.
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Writes spans as tab-separated lines (id, parent, name, start_ns, end_ns)
/// with a header row. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
