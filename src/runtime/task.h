// Engine-agnostic task model. Operator logic (reshufflers, joiners,
// controller) is written once against Task/Context and runs on either the
// deterministic simulator or the multithreaded engine.
//
// One dispatch granularity: an engine hands a task a TupleBatch through
// OnBatch, and never calls anything else. The threaded engine's exchange
// plane delivers whole batches; the simulator hands each dequeued envelope
// over as a one-envelope batch, in its global FIFO order. So an operator
// core has one control switch and one data path, and both engines run the
// same code. A task may instead override OnMessage and take envelopes one
// at a time: OnBatch's default loops OnMessage, and OnMessage's default
// forwards a one-envelope batch to OnBatch (so a core's OnMessage — which
// unit tests use to drive it with crafted messages — is its OnBatch). A
// task overrides at least one of the two; overriding neither recurses.
//
// Invariants an OnBatch implementer may rely on (established by the exchange
// layer — see ARCHITECTURE.md "Operator dispatch"):
//
//  1. Single-threaded per task: OnBatch is never invoked concurrently for
//     the same task instance.
//  2. Per-edge FIFO: a batch contains consecutive envelopes of exactly one
//     sender→receiver edge, in send order, and batches of the same edge
//     arrive in send order.
//  3. Control cuts batches: control messages (epoch signals, migration
//     markers, acks, EOS) always travel as singleton batches, so a batch is
//     either pure data (kInput/kData/kMigrate/kResult) or a single control
//     message — never a mix. Because reshufflers emit the epoch-change
//     signal before routing under the new mapping, a data batch also never
//     mixes epochs, and a migration never begins or ends mid-batch.
//
// Blocking contract: a task never waits inside OnMessage/OnBatch for another
// task's progress (no locks held across messages, no polling for state
// another task writes). The one in-handler wait is the threaded engine's
// credit wait inside Context::Send/SendBatch, and it helps: when no other
// worker holds the consumer, the sending worker runs the consumer's slice
// inline. A task runs on whichever pool worker claims it, one worker at a
// time, so its state needs no synchronization of its own.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "src/net/message.h"

namespace ajoin {

/// Execution context handed to a task while processing a message.
class Context {
 public:
  virtual ~Context() = default;

  /// Id of the task being executed.
  virtual int self() const = 0;

  /// Sends a message to another task (FIFO per sender-receiver pair).
  virtual void Send(int to, Envelope msg) = 0;

  /// Sends a run of *data* envelopes (no control messages) to one task as a
  /// unit, preserving their order on the edge. Engines that batch the wire
  /// (the threaded engine's exchange plane) override this to amortize
  /// in-flight accounting and outbox work over the run; the default loops
  /// Send, so the two are observably equivalent. `run` is consumed.
  virtual void SendBatch(int to, TupleBatch&& run) {
    for (Envelope& msg : run.items) Send(to, std::move(msg));
    run.Clear();
  }

  /// Monotonic time in microseconds. The simulator returns a deterministic
  /// logical clock; the threaded engine returns wall-clock time.
  virtual uint64_t NowMicros() const = 0;
};

/// An event-driven task. Engines call only OnBatch, never concurrently for
/// the same task instance (see the file header).
class Task {
 public:
  virtual ~Task() = default;

  /// Per-envelope handler for tasks that take envelopes one at a time.
  virtual void OnMessage(Envelope msg, Context& ctx) {
    // Default: the envelope as a one-envelope batch.
    OnBatch(TupleBatch(std::move(msg)), ctx);
  }

  /// The engine entry point (see file header for the invariants callers
  /// guarantee). The default unpacks the batch into one OnMessage call per
  /// envelope, in order.
  virtual void OnBatch(TupleBatch batch, Context& ctx) {
    for (Envelope& msg : batch.items) {
      OnMessage(std::move(msg), ctx);
    }
  }
};

/// Point-in-time ingress telemetry (see IngressPort::stats). Counters are
/// cumulative; backlog is an instantaneous gauge.
struct IngressPortStats {
  uint64_t posted_envelopes = 0;  // envelopes accepted via Post/PostBatch
  uint64_t posted_batches = 0;    // PostBatch calls accepted
  uint64_t rejected_posts = 0;    // Post/PostBatch rejected after shutdown
  uint64_t backlog = 0;           // envelopes buffered, not yet shipped
  uint64_t credit_waits = 0;      // backpressure stalls on this port's edges
  uint64_t credit_wait_ns = 0;    // cumulative time stalled for credits
};

/// A per-producer ingress lane into the engine, obtained from
/// Engine::OpenIngress. Each port owns its own batching and credit state —
/// on the threaded engine a dedicated producer slot in the exchange plane
/// (one SPSC ring per port→task edge) — so concurrent drivers each holding
/// their own port never contend on a shared mutex; on the simulator a port
/// is a deterministic shim that enqueues per tuple. A port is single-
/// producer: it must be used from one thread at a time, and it must not
/// outlive the engine that opened it (the destructor flushes anything still
/// buffered and unregisters from the engine).
///
/// Post/PostBatch after Engine::Shutdown() reject cleanly: they return
/// false and drop the message, preserving clean post-Shutdown semantics
/// (the workers that would deliver it are gone, so rejecting is the only
/// honest answer). Posting *concurrently* with Shutdown is a caller bug —
/// stop or join producers first.
class IngressPort {
 public:
  virtual ~IngressPort() = default;

  /// The default destination task id, bound at OpenIngress time.
  virtual int to() const = 0;

  /// Posts one envelope to the bound default destination. Returns false —
  /// and drops the envelope — after the engine has shut down.
  bool Post(Envelope msg) { return Post(to(), std::move(msg)); }

  /// Posts one envelope to an explicit destination task, so fan-out
  /// producers (a driver spraying reshufflers) need only one port. FIFO is
  /// preserved per port→destination edge. Returns false after shutdown.
  virtual bool Post(int to, Envelope msg) = 0;

  /// Posts a pre-formed batch to the bound default destination. Returns
  /// false — and drops the batch — after the engine has shut down.
  bool PostBatch(TupleBatch&& batch) { return PostBatch(to(), std::move(batch)); }

  /// Posts a pre-formed batch to an explicit destination as one unit,
  /// preserving edge FIFO against earlier Post calls on this port. Pure
  /// data batches (no control messages) take the amortized run path;
  /// batches containing control fall back to the per-envelope path, which
  /// keeps the control-cuts-batches invariant. `batch` is consumed on
  /// success. Returns false after shutdown.
  virtual bool PostBatch(int to, TupleBatch&& batch) = 0;

  /// Ships every envelope still buffered in this port. Buffered envelopes
  /// count as in-flight, and only their owning port (or the engine's
  /// WaitQuiescent sweep) can ship them — call Flush() when this producer
  /// goes idle so quiescence is not held up on a stalled source.
  virtual void Flush() = 0;

  /// Ingress telemetry: post/backlog counters plus the backpressure this
  /// port has experienced (credit stalls on its outgoing edges). Callable
  /// from any thread while the producer keeps posting; gauges are racy
  /// estimates. The default returns zeros for engines without telemetry.
  virtual IngressPortStats stats() const { return IngressPortStats{}; }
};

/// Minimal engine interface shared by SimEngine and ThreadEngine.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registers a task; returns its id. Must be called before Start().
  virtual int AddTask(std::unique_ptr<Task> task) = 0;

  /// Starts dispatching (no-op for the simulator).
  virtual void Start() = 0;

  /// Opens a dedicated ingress lane with default destination `to` (see
  /// IngressPort). Each open port claims its own producer identity, so one
  /// port per driver thread gives mutex-free multi-producer ingress. On the
  /// threaded engine call after Start() and before Shutdown(); the number
  /// of ports is bounded by ExchangeConfig::max_ingress_ports. The port
  /// must be destroyed before the engine. This is the only external
  /// ingestion path (the old single-entry Post shim is retired).
  virtual std::unique_ptr<IngressPort> OpenIngress(int to) = 0;

  /// Number of registered tasks — equivalently, the id AddTask will assign
  /// next. Lets multi-operator assemblies (Dataflow) compute each stage's
  /// task-id block before construction, which the exchange plane's
  /// id-ordered credit blocking relies on (result edges must point at
  /// higher ids).
  virtual size_t num_tasks() const = 0;

  /// Blocks until all in-flight messages (and their transitive sends) have
  /// been processed. Envelopes buffered in an open ingress port count as
  /// in-flight; the threaded engine sweeps registered ports while waiting,
  /// so a partially filled port batch cannot stall quiescence.
  virtual void WaitQuiescent() = 0;

  /// Stops dispatching and joins workers (no-op for the simulator). From
  /// this point Post/PostBatch on any port reject.
  virtual void Shutdown() = 0;

  /// Access to a task for post-run inspection. Only valid when quiescent.
  virtual Task* task(int id) = 0;

  /// Monotonic time in microseconds (logical on the simulator, wall-clock
  /// on the threaded engine).
  virtual uint64_t NowMicros() const = 0;
};

}  // namespace ajoin
