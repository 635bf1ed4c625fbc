// ExchangePlane: the threaded runtime's data plane. One bounded lock-free
// SPSC BatchRing per producer→consumer edge (fan-in at the consumer), a
// per-edge Batcher that flushes on size, deadline, or control-message cut,
// and credit-based backpressure: the ring's capacity is the edge's credit
// window, so a slow consumer stalls only the producers feeding it instead of
// the whole driver (which the old global max_inflight throttle did).
//
// Scheduling: the plane owns no threads. Every push reports the consumer to
// the Scheduler the engine installs (MarkReady), and the engine runs the
// consumer on its worker pool.
//
// Blocking policy (deadlock freedom by resource ordering): a producer may
// wait for credits only on edges to *higher* task ids — which covers the
// natural downstream direction driver → reshuffler → joiner — plus all
// external (driver) edges, which are the system's strictly bounded ingress.
// Lateral and upstream edges (joiner→joiner migration traffic against id
// order, joiner→controller acks) never block: when out of credits they spill
// to an unbounded per-edge overflow lane that drains FIFO behind the ring.
// A worker-task producer out of credits first helps: if no other worker
// holds the consumer, it runs the consumer's slice inline (Scheduler::Help)
// and retries; only if another worker holds it does it park on the edge's
// credit condvar. Every help and every wait points at a strictly higher
// task id, so each worker's stack of nested tasks has increasing ids, any
// wait-for chain has increasing ids, and the wait-for graph is acyclic for
// any pool size; boundedness is enforced end-to-end at the ingress edges
// (overflow volume is bounded by the in-flight credit window times the
// operator's per-tuple fan-out, and by migrated state size during a
// migration). External ingress ports are not pool workers: they never help
// and just park.
//
// FIFO: per-edge order is structural (one SPSC ring per edge; the overflow
// lane is strictly younger than the ring because a producer only bypasses to
// overflow while the ring is full, and only returns to the ring once its
// overflow has fully drained). The consumer re-polls the ring after
// observing a non-empty overflow (the ov_count acquire synchronizes with the
// spill, making the producer's older ring pushes visible), so a stale
// ring-empty snapshot cannot let overflow overtake the ring. Cross-edge
// arrival order at a consumer is unspecified — the migration protocol only
// relies on per-edge FIFO.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/telemetry_fields.h"
#include "src/common/trace_ring.h"
#include "src/exchange/batch_ring.h"
#include "src/net/message.h"

namespace ajoin {

struct ExchangeConfig {
  /// Envelopes buffered per edge before a size flush. 1 = per-tuple exchange
  /// (every envelope ships as its own batch).
  uint32_t batch_size = 128;
  /// Per-edge credit window in batches (rounded up to a power of two).
  uint32_t ring_slots = 64;
  /// Max time a buffered envelope may wait before a deadline flush. A
  /// running task checks after every processed batch and flushes everything
  /// whenever its inbox runs dry; the ingress (driver) side checks on every
  /// Post and at WaitQuiescent.
  uint64_t flush_deadline_us = 200;
  /// External producer slots available to Engine::OpenIngress. Each slot is
  /// a full per-consumer edge row (rings created lazily on first send), so
  /// the cost of a generous bound is pointers.
  uint32_t max_ingress_ports = 8;
  /// Optional event trace: when set, the plane records a kCreditStall event
  /// (stall nanoseconds + producer id) for every credit-wait episode. Not
  /// owned; must outlive the plane.
  TraceRing* trace = nullptr;
};

/// Credit-stall counters rolled up across one producer's outgoing edges.
struct ProducerStallStats {
  uint64_t credit_waits = 0;
  uint64_t credit_wait_ns = 0;
};

class ExchangePlane {
 public:
  /// `num_tasks` consumers; producer ids are [0, num_tasks +
  /// config.max_ingress_ports): workers occupy [0, num_tasks), the
  /// remaining ids are external ingress-port slots handed out by the
  /// engine.
  ExchangePlane(size_t num_tasks, const ExchangeConfig& config);
  ~ExchangePlane();

  ExchangePlane(const ExchangePlane&) = delete;
  ExchangePlane& operator=(const ExchangePlane&) = delete;

  /// The scheduling hooks an engine installs. Both are called from producer
  /// threads mid-send with no plane locks held.
  class Scheduler {
   public:
    virtual ~Scheduler() = default;
    /// A batch was pushed onto one of `consumer`'s edges: make it runnable.
    virtual void MarkReady(int consumer) = 0;
    /// The calling worker task is out of credits on its edge to `consumer`
    /// (a higher task id). Runs one slice of `consumer` on the calling
    /// thread and returns true, or returns false when another worker holds
    /// `consumer` (the producer then parks until credits return).
    virtual bool Help(int consumer) = 0;
  };

  /// Installs the engine's scheduler (not owned; set before any traffic).
  /// Without one, pushes mark nothing and credit waits only park.
  void SetScheduler(Scheduler* scheduler) { scheduler_ = scheduler; }

  /// The first external (ingress-port) producer slot.
  size_t external_producer() const { return num_tasks_; }
  /// Total producer ids, workers + ingress-port slots.
  size_t num_producers() const { return outboxes_.size(); }

 private:
  struct Edge;  // defined below; PerEdge holds pointers to it

 public:
  /// Per-producer send side. NOT thread-safe: each outbox is owned by its
  /// producer (a task's runner, or an ingress port under its lock).
  class alignas(64) Outbox {
   public:
    /// Buffers (or immediately ships, for control types) one envelope.
    /// `now_hint_us` of 0 (the production path) means "read the clock
    /// lazily, once per batch start"; callers that already hold a timestamp
    /// (tests, future batch-aware drivers) can pass it to skip that read.
    void Send(int to, Envelope&& msg, uint64_t now_hint_us = 0);

    /// Ships a pre-formed run of *data* envelopes (precondition: no control
    /// messages) to one consumer, preserving edge FIFO: a previously
    /// buffered partial batch is topped up and flushed first, a remainder of
    /// at least batch_size/2 ships directly as one batch (no move through
    /// the pending buffer), and a smaller tail is buffered under the usual
    /// deadline. Amortizes edge resolution and deadline arming over the
    /// whole run. `run` is consumed (left empty).
    void SendRun(int to, TupleBatch&& run, uint64_t now_hint_us = 0);

    /// Ships every buffered batch.
    void FlushAll();

    /// Drops every buffered (unflushed) envelope without shipping and
    /// returns how many were dropped. Teardown only (a port closing after
    /// engine shutdown, when delivery is no longer possible); the caller
    /// owns the matching in-flight accounting.
    uint64_t DiscardPending();

    /// Ships batches whose first envelope has waited past the deadline.
    /// Cheap no-op until the earliest pending deadline is actually due.
    void FlushExpired(uint64_t now_us);

    /// True if any edge has a buffered (unflushed) batch. Lets callers skip
    /// the clock read FlushExpired would need.
    bool has_pending() const { return next_deadline_check_us_ != 0; }

    /// Envelopes currently buffered (unflushed) across all edges — the
    /// ingress backlog gauge. Needs the same producer serialization as
    /// every other Outbox call (the port lock, for ingress ports).
    uint64_t PendingEnvelopes() const {
      uint64_t n = 0;
      for (const PerEdge& pe : edges_) n += pe.pending.size();
      return n;
    }

   private:
    friend class ExchangePlane;
    struct PerEdge {
      Edge* edge = nullptr;  // lazily resolved
      TupleBatch pending;
    };

    void FlushEdge(PerEdge& pe, int consumer);
    /// Starts a fresh pending batch on an edge: reserves capacity, stamps
    /// the buffering time, and arms the deadline sweep.
    void ArmPending(PerEdge& pe, uint64_t now_hint_us);

    /// Single-writer increment of one of this outbox's flush counters.
    static void Bump(std::atomic<uint64_t>& counter) {
      counter.store(counter.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }

    ExchangePlane* plane_ = nullptr;
    size_t producer_ = 0;
    std::vector<PerEdge> edges_;          // indexed by consumer id
    uint64_t next_deadline_check_us_ = 0; // 0 = nothing pending
    // Flush counters: written only by this producer, on its own cache line;
    // stats() sums them across outboxes at read time.
    std::atomic<uint64_t> size_flushes_{0};
    std::atomic<uint64_t> deadline_flushes_{0};
    std::atomic<uint64_t> control_flushes_{0};
  };

  Outbox* outbox(size_t producer) { return &outboxes_[producer]; }

  // ---- consumer side (each called only from that consumer's runner) ----

  /// Round-robin pop across the consumer's incoming edges. Returns credits
  /// to (and wakes) a producer blocked on the popped edge.
  bool PopAny(int consumer, size_t* rr_cursor, TupleBatch* out);

  /// Marks the plane closed and wakes every parked producer. Call only when
  /// quiescent (nothing buffered or in flight).
  void Close();

  /// Plane-wide rollup, summed at read time from the per-edge counters and
  /// the per-outbox flush counters (no shared counter on the hot path).
  ExchangeStatsSnapshot stats() const;

  /// Per-edge counters and occupancy gauges for every materialized edge,
  /// ordered by (producer, consumer). Callable from any thread while the
  /// plane runs; gauges are racy estimates, counters are exact-to-date.
  std::vector<EdgeStatsSnapshot> edge_stats() const;

  /// Rolls up credit-stall counters across one producer's outgoing edges —
  /// the backpressure a single task (or ingress port) is experiencing.
  ProducerStallStats producer_stalls(size_t producer) const;

 private:
  friend class Outbox;

  struct Edge {
    Edge(size_t slots, bool bounded_in) : ring(slots), bounded(bounded_in) {}

    BatchRing ring;
    /// Bounded edges (to a higher task id, or from the external driver)
    /// block for credits; unbounded edges spill to the overflow lane.
    const bool bounded;

    // Overflow lane (unbounded edges), FIFO behind the ring.
    std::mutex ov_mu;
    std::deque<TupleBatch> overflow;
    std::atomic<size_t> ov_count{0};

    // Credit wait (bounded edges).
    std::atomic<bool> producer_waiting{false};
    std::mutex credit_mu;
    std::condition_variable credit_cv;

    // Per-edge telemetry: the atomic twin of EdgeStatsSnapshot's counters.
    // Bumped only by this edge's producer (relaxed RMWs on an owned line);
    // read by any thread via edge_stats().
    AJOIN_EDGE_FIELDS(AJOIN_TWIN_ATOMIC)
  };

  struct Inbox {
    std::mutex reg_mu;           // guards edge registration (writers)
    std::vector<Edge*> edges;    // reserved up front: never reallocates
    std::atomic<size_t> n_edges{0};
  };

  Edge* GetEdge(size_t producer, int consumer);
  void PushBatch(Edge& edge, TupleBatch& batch, int consumer,
                 size_t producer);
  void MarkReady(int consumer) {
    if (scheduler_ != nullptr) scheduler_->MarkReady(consumer);
  }
  static uint64_t NowMicros();

  const size_t num_tasks_;
  const ExchangeConfig config_;
  std::vector<std::atomic<Edge*>> edge_matrix_;  // num_producers() x num_tasks_
  std::vector<Inbox> inboxes_;
  std::vector<Outbox> outboxes_;
  Scheduler* scheduler_ = nullptr;
  std::atomic<bool> closed_{false};
};

}  // namespace ajoin
