// EpochProtocol: the per-slot half of the paper's Joiner-Epoch protocol
// (section 4.2, Algorithm 3), shared by both operator families. A slot
// (a joiner, or an aggregate worker) moves from epoch E to E+1 in four
// steps:
//
//   1. signal cut  — one kReshufSignal for E+1 from each of the R entry
//                    tasks (reshufflers / routers); the first one begins
//                    the migration, the last one proves (per-edge FIFO)
//                    that no old-epoch tuple can still arrive;
//   2. markers     — one kMigEnd from every peer that moves state here;
//   3. finalize    — once every signal and every expected marker is in;
//   4. ack         — one kMigAck{E+1} to the controller, from every slot
//                    (the universal ack keeps the whole allocation in
//                    epoch lockstep behind the controller's barrier).
//
// The protocol owns the counting, the epoch number, the begin/finalize
// trace events and the ack. What moves, and how, is the family's business:
// it plugs in a StateMover whose hooks run at begin, at the last signal,
// and at finalize. The marker rule is the same for both families: every
// kMigEnd received is counted (including markers that outrun this slot's
// first signal), the family arms the expected count at begin, and the slot
// finalizes when received == expected. A surplus marker is a protocol bug.

#pragma once

#include <cstdint>

#include "src/net/message.h"
#include "src/runtime/task.h"

namespace ajoin {

class TraceRing;  // src/common/trace_ring.h

class EpochProtocol {
 public:
  /// The family-specific state movement, called back at the protocol's
  /// three decision points. Hooks run inside the slot's dispatch, with the
  /// slot still in epoch E (epoch() is the old epoch throughout).
  class StateMover {
   public:
    /// First signal of epoch E+1 (`spec`): set up the move and send what
    /// can go eagerly. Returns the number of kMigEnd markers this slot must
    /// receive before it may finalize.
    virtual uint32_t BeginMigration(const EpochSpec& spec, Context& ctx) = 0;
    /// Last of the R signals: no old-epoch tuple can reach this slot any
    /// more. Ship deferred state and send this slot's kMigEnd markers.
    virtual void OnLastSignal(Context& ctx) = 0;
    /// Every signal and marker is in: commit the epoch E+1 state.
    virtual void FinalizeMigration(Context& ctx) = 0;

   protected:
    ~StateMover() = default;
  };

  struct Config {
    uint32_t num_signals = 1;   // R: entry tasks that each send one signal
    int controller_task = -1;   // kMigAck target
    uint32_t group = 0;         // stamped on kMigAck and kMigEnd
    uint64_t trace_tag = 0;     // `b` of the begin/finalize trace events
    TraceRing* trace = nullptr;
  };

  /// `mover` is not owned and must outlive the protocol (it is the slot
  /// task that embeds this object).
  EpochProtocol(Config config, StateMover* mover)
      : config_(config), mover_(mover) {}

  /// One kReshufSignal for `spec.epoch`, which must be epoch() + 1.
  void OnSignal(const EpochSpec& spec, Context& ctx);
  /// One kMigEnd marker from a peer.
  void OnMigEnd(Context& ctx);
  /// Sends this slot's kMigEnd marker for the running migration to engine
  /// task `peer` (StateMover::OnLastSignal uses it once per target).
  void SendMigEnd(int peer, Context& ctx) const;

  /// Restarts epoch numbering at 0 (checkpoint recovery into a fresh
  /// operator). Only valid between migrations.
  void Restart();

  /// The epoch this slot is in (the old epoch while migrating).
  uint32_t epoch() const { return epoch_; }
  /// Between the first signal and the finalize step?
  bool migrating() const { return migrating_; }

 private:
  void MaybeFinalize(Context& ctx);

  Config config_;
  StateMover* mover_;
  uint32_t epoch_ = 0;
  bool migrating_ = false;
  uint32_t signals_ = 0;   // signals seen for epoch_ + 1
  uint32_t migends_ = 0;   // markers received for epoch_ + 1
  uint32_t expected_ = 0;  // markers to expect (armed at begin)
};

}  // namespace ajoin
