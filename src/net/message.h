// Message envelope exchanged between operator tasks, and TupleBatch, the
// batched unit the exchange plane ships between them. A single envelope type
// keeps channels and engines monomorphic; the `type` tag selects which
// fields are meaningful.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/mapping.h"
#include "src/localjoin/predicate.h"
#include "src/tuple/row.h"

namespace ajoin {

enum class MsgType : uint8_t {
  kInput = 0,     // driver -> reshuffler: raw input tuple
  kData,          // reshuffler -> joiner: routed tuple (epoch-tagged)
  kMigrate,       // joiner -> joiner: migrated state tuple (mu)
  kMigEnd,        // joiner -> joiner: sender finished its migration sends
  kEpochChange,   // controller -> reshufflers: enter new epoch with mapping
  kReshufSignal,  // reshuffler -> joiners: epoch-change flush marker
  kMigAck,        // joiner -> controller: migration finalized locally
  kEos,           // driver -> reshuffler -> joiner: end of stream
  kExpand,        // controller -> all: elastic expansion (J -> 4J)
  kCheckpoint,    // driver -> controller: barrier-mode migration checkpoint
  kResult,        // joiner -> sink / next stage: one join result (epoch-
                  // agnostic; field use: key = join key, seq = r_seq,
                  // tag = s_seq, bytes = r+s bytes, row = r_row ++ s_row,
                  // weight = Horvitz-Thompson weight, 1.0 unless the
                  // emitting joiner was shedding).
                  // Agg stages emit kResult too, with: key = group key,
                  // seq = SplitMix64(key) (stable identity), tag =
                  // accumulator partition, bytes = accumulator footprint,
                  // weight = 1.0 (weights were consumed into the
                  // accumulator), row = [key, count(double = sum of
                  // weights), sum(double = sum of weight*value), min(i64),
                  // max(i64), tuples(i64 raw merges)]; AVG = sum/count.
  kScale,         // operator/autoscaler -> controller reshuffler: elastic
                  // scale request; key = signed step count (+k = k grow
                  // steps of 4x, -k = k shrink steps of /4). Control: cuts
                  // batches and serializes behind routed data on the
                  // ingress edge.
  kShed,          // operator/shed controller -> reshufflers -> joiners:
                  // admission-rate change; key = admitted probe fraction in
                  // parts-per-million (kShedExactPpm = shedding off);
                  // seq = operator-stamped version, increasing per change
                  // (joiners drop any copy not newer than the last applied).
                  // Control: cuts batches and serializes behind routed data
                  // on every edge it travels, so a rate change can never
                  // overtake the tuples admitted under the previous rate.
  kEosNote,       // agg router -> controller router: every expected EOS for
                  // this router's share of the stage input has arrived and
                  // all data routed by it has been sent. Control: serializes
                  // behind that routed data on the router->controller edge.
  kFlush,         // controller router -> agg routers -> agg workers: the
                  // whole stage's input is drained; emit final aggregates.
                  // Control: serializes behind all data on every edge it
                  // travels, so a flush can never overtake routed tuples or
                  // in-flight migration state.
};

/// Number of MsgType values. Keep in lockstep with the enum above; the
/// message tests assert MsgTypeName covers exactly this many values, so an
/// unnamed (or uncounted) type cannot ship.
constexpr uint8_t kNumMsgTypes = 15;

/// kShed rate denominator: a kShed message with key == kShedExactPpm (or any
/// larger value) restores exact, unsampled probing.
constexpr int64_t kShedExactPpm = 1000000;

const char* MsgTypeName(MsgType type);

/// Epoch transition descriptor (kEpochChange / kReshufSignal / kExpand).
struct EpochSpec {
  uint32_t group = 0;    // group index (non-power-of-two J decomposition)
  uint32_t epoch = 0;    // new epoch number
  Mapping mapping;       // new (n,m) mapping of that group
  bool expansion = false;  // kExpand: mapping refers to the expanded grid
  bool contraction = false;  // elastic shrink: mapping quarters the grid
  /// Aggregation stages only: the new partition -> worker assignment
  /// (indexed by accumulator partition, values are worker machine indices).
  /// A keyed single-stream stage has no (n,m) grid to relabel, so its epoch
  /// change ships the whole assignment vector instead. Empty for join
  /// epochs.
  std::vector<uint32_t> agg_assign;
};

/// Owning pointer with value semantics: copying deep-copies the pointee,
/// and an empty box costs one null pointer. Envelope keeps its control-only
/// payload behind one, so data envelopes stay small and never allocate for
/// it.
template <typename T>
class Boxed {
 public:
  Boxed() = default;
  Boxed(const Boxed& other)
      : ptr_(other.ptr_ ? std::make_unique<T>(*other.ptr_) : nullptr) {}
  Boxed(Boxed&&) noexcept = default;
  Boxed& operator=(const Boxed& other) {
    if (this != &other) {
      ptr_ = other.ptr_ ? std::make_unique<T>(*other.ptr_) : nullptr;
    }
    return *this;
  }
  Boxed& operator=(Boxed&&) noexcept = default;
  Boxed& operator=(T value) {
    ptr_ = std::make_unique<T>(std::move(value));
    return *this;
  }

  explicit operator bool() const { return ptr_ != nullptr; }
  /// Reading an absent payload is a protocol bug (a control message built
  /// without its descriptor), so it fails loudly instead of crashing.
  const T& operator*() const {
    AJOIN_CHECK_MSG(ptr_ != nullptr, "control payload missing");
    return *ptr_;
  }
  const T* operator->() const { return &**this; }
  /// Replaces the payload with a default-constructed one and returns it.
  T& emplace() {
    ptr_ = std::make_unique<T>();
    return *ptr_;
  }

 private:
  std::unique_ptr<T> ptr_;
};

/// The one message type on every edge. Fields are ordered so the record
/// packs without interior padding; what a field means depends on `type`
/// (see MsgType). Data envelopes (kInput/kData/kMigrate/kResult) leave
/// `espec` empty and, in slim mode, `row` empty, so they carry no heap
/// payload; see ARCHITECTURE.md "Envelope layout".
struct Envelope {
  MsgType type = MsgType::kInput;
  Rel rel = Rel::kR;
  bool store = true;    // store-and-join vs probe-only (cross-group probes)
  bool has_row = false;
  int32_t from = -1;    // sender task id (engine-level)

  // -- tuple payload (kInput, kData, kMigrate, kResult) --
  int64_t key = 0;      // join key (slim mode; also cached in row mode)
  uint64_t tag = 0;     // uniform partition tag (assigned by reshuffler)
  uint64_t seq = 0;     // global arrival sequence number (kShed: version)
  uint32_t bytes = 0;   // accounted tuple size
  uint32_t epoch = 0;   // epoch the tuple was routed under (kData)
  uint32_t group = 0;   // target group (kData/kMigrate)
  /// Arrival timestamp for latency measurement: the engine clock when the
  /// tuple's ingress run opened (per tuple when the ingress batch is 1), so
  /// later tuples of a staged run share an earlier stamp.
  uint64_t ingest_us = 0;
  /// kResult only: Horvitz-Thompson weight. Exact results carry 1.0; a
  /// joiner probing at admission rate p stamps 1/p, so any downstream
  /// weighted aggregate stays an unbiased estimator of the exact join.
  double weight = 1.0;
  Row row;

  // -- control payload (kEpochChange, kReshufSignal, kMigAck), out of line --
  Boxed<EpochSpec> espec;
};

static_assert(sizeof(Envelope) <= 80,
              "Envelope is copied several times per input tuple; keep it "
              "within 80 bytes (control payloads go behind espec)");

/// Convenience constructors.
Envelope MakeInput(Rel rel, int64_t key, uint32_t bytes, uint64_t seq);

// ---------------------------------------------------------------------------
// TupleBatch: the unit that travels an exchange edge. Batching amortizes
// per-message costs — ring/channel synchronization, virtual dispatch into the
// task, in-flight accounting, and clock reads — over `batch_size` envelopes.
//
// Batches never mix control and data: control messages (epoch signals,
// migration markers, acks, EOS) always flush the edge's pending data batch
// first and then travel as a singleton batch, so a flush marker can never
// overtake — or be overtaken by — data buffered on the same edge. Because
// reshufflers emit the epoch-change signal before any tuple routed under the
// new mapping, this also means a data batch never mixes epochs.
// ---------------------------------------------------------------------------

struct TupleBatch {
  std::vector<Envelope> items;
  /// When the first envelope was buffered (producer clock, micros). Drives
  /// the deadline flush, and is the shared ingest stamp of a staged ingress
  /// run; read once per batch, not per tuple.
  uint64_t first_buffered_us = 0;

  TupleBatch() = default;
  explicit TupleBatch(Envelope&& single) { items.push_back(std::move(single)); }

  size_t size() const { return items.size(); }
  bool empty() const { return items.empty(); }

  void Add(Envelope&& msg) { items.push_back(std::move(msg)); }

  void Clear() {
    items.clear();
    first_buffered_us = 0;
  }
};

/// True for message types that cut batches: they flush the edge's buffered
/// data and travel alone, preserving their ordering role in the migration
/// protocol (kReshufSignal / kMigEnd are FIFO markers; kEos terminates).
inline bool IsControlMsg(MsgType type) {
  switch (type) {
    case MsgType::kInput:
    case MsgType::kData:
    case MsgType::kMigrate:
    case MsgType::kResult:
      return false;
    default:
      return true;
  }
}

}  // namespace ajoin
