#include "src/runtime/thread_engine.h"

#include <algorithm>

#include "src/common/status.h"
#include "src/common/stopwatch.h"

namespace ajoin {

// Context handed to tasks in batched mode: sends go through the worker's
// outbox (batched, credit-controlled). In-flight accounting happens here so
// envelopes buffered in a batcher still count toward quiescence.
class ThreadEngine::BatchedContext : public Context {
 public:
  BatchedContext(ThreadEngine* engine, int self, ExchangePlane::Outbox* outbox)
      : engine_(engine), self_(self), outbox_(outbox) {}

  int self() const override { return self_; }

  void Send(int to, Envelope msg) override {
    msg.from = self_;
    engine_->IncInflight();
    outbox_->Send(to, std::move(msg));
  }

  void SendBatch(int to, TupleBatch&& run) override {
    if (run.empty()) return;
    for (Envelope& msg : run.items) msg.from = self_;
    // One in-flight increment and one outbox pass for the whole run instead
    // of one per envelope.
    engine_->IncInflight(run.size());
    outbox_->SendRun(to, std::move(run));
  }

  uint64_t NowMicros() const override { return engine_->NowMicros(); }

 private:
  ThreadEngine* engine_;
  int self_;
  ExchangePlane::Outbox* outbox_;
};

// One ingress lane: owns a dedicated external producer slot (outbox_), so
// each port has private rings/batchers/credits; mu_ only serializes the
// port's producer against the engine's WaitQuiescent sweep — two ports
// never share a lock.
class ThreadEngine::PortImpl : public IngressPort {
 public:
  PortImpl(ThreadEngine* engine, int to, ExchangePlane::Outbox* outbox,
           size_t slot)
      : engine_(engine), to_(to), outbox_(outbox), slot_(slot) {}
  // Flushes anything still buffered (unless the engine already shut down)
  // and unregisters from the engine's port sweep.
  ~PortImpl() override { engine_->ClosePort(this); }

  int to() const override { return to_; }

  using IngressPort::Post;
  using IngressPort::PostBatch;

  // See IngressPort (task.h) for the contract on all three.
  bool Post(int to, Envelope msg) override {
    return engine_->PortPost(*this, to, std::move(msg));
  }
  bool PostBatch(int to, TupleBatch&& batch) override {
    return engine_->PortPostBatch(*this, to, std::move(batch));
  }
  void Flush() override { engine_->PortFlush(*this); }

  // Post/backlog counters plus the credit-stall rollup of this port's
  // producer slot (see IngressPort::stats in task.h).
  IngressPortStats stats() const override {
    IngressPortStats s;
    s.posted_envelopes = posted_envelopes_.load(std::memory_order_relaxed);
    s.posted_batches = posted_batches_.load(std::memory_order_relaxed);
    s.rejected_posts = rejected_posts_.load(std::memory_order_relaxed);
    if (engine_->plane_ != nullptr) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        s.backlog = outbox_->PendingEnvelopes();
      }
      const ProducerStallStats stalls = engine_->plane_->producer_stalls(slot_);
      s.credit_waits = stalls.credit_waits;
      s.credit_wait_ns = stalls.credit_wait_ns;
    }
    return s;
  }

 private:
  friend class ThreadEngine;

  ThreadEngine* engine_;
  const int to_;
  ExchangePlane::Outbox* outbox_;
  const size_t slot_;   // producer slot, returned to the free list on close
  mutable std::mutex mu_;  // this port's producer vs sweeps and stats()
  uint64_t posts_ = 0;  // amortized deadline-sweep counter (guarded by mu_)
  // Telemetry counters (atomic: stats() reads them from any thread).
  std::atomic<uint64_t> posted_envelopes_{0};
  std::atomic<uint64_t> posted_batches_{0};
  std::atomic<uint64_t> rejected_posts_{0};
};

ThreadEngine::ThreadEngine() : ThreadEngine(ExchangeConfig{}) {}

ThreadEngine::ThreadEngine(const ExchangeConfig& config)
    : exchange_config_(config) {}

ThreadEngine::~ThreadEngine() { Shutdown(); }

uint64_t ThreadEngine::NowMicros() const { return SteadyNowMicros(); }

int ThreadEngine::AddTask(std::unique_ptr<Task> task) {
  AJOIN_CHECK_MSG(!started_, "AddTask after Start");
  tasks_.push_back(std::move(task));
  return static_cast<int>(tasks_.size()) - 1;
}

void ThreadEngine::Start() {
  AJOIN_CHECK_MSG(!started_, "double Start");
  started_ = true;
  plane_ = std::make_unique<ExchangePlane>(tasks_.size(), exchange_config_);
  plane_->SetWakeHook([this](int id) { WakeTask(id); });
  worker_slots_ = std::vector<WorkerSlot>(tasks_.size());
  std::lock_guard<std::mutex> lock(workers_mu_);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    // Dormant tasks (elastic-scaling spare slots) get no thread up front;
    // the plane's dormant-wake hook spawns one on their first message.
    if (tasks_[i]->dormant()) {
      plane_->MarkDormant(static_cast<int>(i));
      continue;
    }
    SpawnWorkerLocked(static_cast<int>(i));
  }
}

void ThreadEngine::SpawnWorkerLocked(int id) {
  WorkerSlot& slot = worker_slots_[static_cast<size_t>(id)];
  if (slot.thread.joinable()) slot.thread.join();  // reap a kExited thread
  slot.state = WorkerState::kRunning;
  slot.wake_pending = false;
  if (plane_ != nullptr) plane_->ClearDormant(id);
  activations_.fetch_add(1, std::memory_order_relaxed);
  slot.thread = std::thread([this, id] { WorkerLoop(id); });
}

void ThreadEngine::WakeTask(int id) {
  std::lock_guard<std::mutex> lock(workers_mu_);
  // Refusing during shutdown is safe: a message that still needs this task
  // keeps inflight > 0, so Shutdown's WaitQuiescent cannot have passed, so
  // closing_ cannot be set yet.
  if (closing_) return;
  WorkerSlot& slot = worker_slots_[static_cast<size_t>(id)];
  switch (slot.state) {
    case WorkerState::kRunning:
      return;  // already attached (or a concurrent wake won)
    case WorkerState::kExiting:
      slot.wake_pending = true;  // the exiting worker revives itself
      return;
    case WorkerState::kExited:
    case WorkerState::kUnspawned:
      SpawnWorkerLocked(id);
      return;
  }
}

void ThreadEngine::ActivateTask(int id) {
  AJOIN_CHECK_MSG(id >= 0 && id < static_cast<int>(tasks_.size()),
                  "ActivateTask: unknown task");
  if (plane_ == nullptr) return;  // before Start
  WakeTask(id);
}

size_t ThreadEngine::live_workers() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  size_t n = 0;
  for (const WorkerSlot& slot : worker_slots_) {
    if (slot.state == WorkerState::kRunning ||
        slot.state == WorkerState::kExiting) {
      ++n;
    }
  }
  return n;
}

bool ThreadEngine::RetireWorker(int id) {
  WorkerSlot& slot = worker_slots_[static_cast<size_t>(id)];
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    slot.state = WorkerState::kExiting;
  }
  plane_->MarkDormant(id);
  // Dekker recheck, mirroring WaitForWork's sleeping protocol: a producer
  // that pushed before observing the dormant mark rings no wake hook, so
  // its message must be caught here, after the seq_cst mark.
  if (plane_->HasWork(id) || plane_->closed()) {
    std::lock_guard<std::mutex> lock(workers_mu_);
    slot.state = WorkerState::kRunning;
    slot.wake_pending = false;
    plane_->ClearDormant(id);
    return false;
  }
  std::lock_guard<std::mutex> lock(workers_mu_);
  if (slot.wake_pending) {  // a wake hook fired between mark and here
    slot.state = WorkerState::kRunning;
    slot.wake_pending = false;
    plane_->ClearDormant(id);
    return false;
  }
  slot.state = WorkerState::kExited;
  retirements_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::unique_ptr<IngressPort> ThreadEngine::OpenIngress(int to) {
  AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(tasks_.size()),
                  "OpenIngress: unknown destination task");
  AJOIN_CHECK_MSG(!shut_down_.load(std::memory_order_acquire),
                  "OpenIngress after Shutdown");
  AJOIN_CHECK_MSG(started_, "OpenIngress before Start");
  std::lock_guard<std::mutex> lock(ports_mu_);
  // Closed ports return their slot, so max_ingress_ports bounds
  // *concurrently open* ports, not total opens over the engine's lifetime.
  // A reclaimed slot's batcher was flushed at close, but its rings may
  // still hold the old port's undelivered batches — that is fine (the
  // consumer drains them in order, and credits/edges are per-slot state
  // the new port legitimately inherits), just not a blank-slate invariant.
  size_t slot;
  if (!free_port_slots_.empty()) {
    slot = free_port_slots_.back();
    free_port_slots_.pop_back();
  } else {
    AJOIN_CHECK_MSG(next_port_slot_ < exchange_config_.max_ingress_ports,
                    "out of ingress-port slots; raise "
                    "ExchangeConfig::max_ingress_ports");
    slot = plane_->external_producer() + next_port_slot_++;
  }
  auto port = std::make_unique<PortImpl>(this, to, plane_->outbox(slot), slot);
  ports_.push_back(port.get());
  return port;
}

bool ThreadEngine::PortPost(PortImpl& port, int to, Envelope msg) {
  AJOIN_CHECK_MSG(started_, "Post before Start");
  AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(tasks_.size()),
                  "Post to unknown task");
  if (shut_down_.load(std::memory_order_acquire)) {
    port.rejected_posts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  port.posted_envelopes_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(port.mu_);
  // Per-edge credit backpressure: Send blocks (inside the plane) only when
  // this port's edge to `to` is out of credits.
  IncInflight();
  port.outbox_->Send(to, std::move(msg));
  // Amortized deadline sweep: one clock read every 8 posts-with-backlog
  // (plus the lazy read Send does when it starts a batch) instead of one
  // per post. Bounds deadline staleness to 8 posts; Flush() and the
  // WaitQuiescent sweep ship whatever a stalled source leaves behind.
  if (port.outbox_->has_pending() && (++port.posts_ & 7u) == 0) {
    port.outbox_->FlushExpired(NowMicros());
  }
  return true;
}

bool ThreadEngine::PortPostBatch(PortImpl& port, int to, TupleBatch&& batch) {
  AJOIN_CHECK_MSG(started_, "PostBatch before Start");
  AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(tasks_.size()),
                  "PostBatch to unknown task");
  if (batch.empty()) return true;
  if (shut_down_.load(std::memory_order_acquire)) {
    port.rejected_posts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t n_envelopes = batch.size();
  port.posted_envelopes_.fetch_add(n_envelopes, std::memory_order_relaxed);
  port.posted_batches_.fetch_add(1, std::memory_order_relaxed);
  bool pure_data = true;
  for (const Envelope& msg : batch.items) {
    if (IsControlMsg(msg.type)) {
      pure_data = false;
      break;
    }
  }
  std::lock_guard<std::mutex> lock(port.mu_);
  // One in-flight increment for the whole batch (the counted-but-buffered
  // rule from the engine header applies to port batchers too).
  IncInflight(batch.size());
  if (pure_data) {
    port.outbox_->SendRun(to, std::move(batch));
  } else {
    // Control inside the batch: the per-envelope path preserves the
    // control-cuts-batches invariant (Outbox::Send flushes buffered data
    // before shipping each control message alone).
    for (Envelope& msg : batch.items) port.outbox_->Send(to, std::move(msg));
    batch.Clear();
  }
  if (port.outbox_->has_pending() && (++port.posts_ & 7u) == 0) {
    port.outbox_->FlushExpired(NowMicros());
  }
  return true;
}

void ThreadEngine::PortFlush(PortImpl& port) {
  if (shut_down_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(port.mu_);
  port.outbox_->FlushAll();
}

void ThreadEngine::ClosePort(PortImpl* port) {
  if (started_) {
    std::lock_guard<std::mutex> lock(port->mu_);
    if (!shut_down_.load(std::memory_order_acquire)) {
      // Last-chance flush so a dropped port cannot strand counted
      // envelopes.
      port->outbox_->FlushAll();
    } else {
      // Shutdown raced ahead of this close: its quiescence sweep can no
      // longer reach the port once we unregister, and anything a late
      // post buffered between that sweep and now can never ship. Drop it
      // and undo its in-flight accounting, or Shutdown's WaitQuiescent
      // would wait forever on envelopes nobody can deliver.
      const uint64_t dropped = port->outbox_->DiscardPending();
      if (dropped > 0) DecInflight(dropped);
    }
  }
  std::lock_guard<std::mutex> lock(ports_mu_);
  ports_.erase(std::remove(ports_.begin(), ports_.end(), port), ports_.end());
  free_port_slots_.push_back(port->slot_);
}

void ThreadEngine::FlushAllPorts() {
  std::lock_guard<std::mutex> reg_lock(ports_mu_);
  for (PortImpl* port : ports_) {
    std::lock_guard<std::mutex> lock(port->mu_);
    port->outbox_->FlushAll();
  }
}

void ThreadEngine::WorkerLoop(int id) {
  ExchangePlane::Outbox* outbox = plane_->outbox(static_cast<size_t>(id));
  BatchedContext ctx(this, id, outbox);
  Task* task = tasks_[static_cast<size_t>(id)].get();
  size_t cursor = 0;
  TupleBatch batch;
  while (true) {
    if (plane_->PopAny(id, &cursor, &batch)) {
      const uint64_t n = batch.size();
      // Hand the whole batch to the task: one virtual call (and one shot
      // at the operator's batch specializations) per batch.
      task->OnBatch(std::move(batch), ctx);
      batch.Clear();
      DecInflight(n);
      // One clock read per processed batch drives the deadline flushes
      // (skipped entirely while nothing is buffered).
      if (outbox->has_pending()) outbox->FlushExpired(NowMicros());
      continue;
    }
    // Inbox ran dry: publish everything we have buffered before parking, so
    // counted-but-buffered envelopes always drain (quiescence correctness).
    outbox->FlushAll();
    if (plane_->HasWork(id)) continue;
    if (plane_->closed()) return;
    if (task->dormant()) {
      // Dormant slot with a dry inbox: give the thread back (elastic
      // scaling). RetireWorker revives instead when a message raced in.
      if (RetireWorker(id)) return;
      continue;
    }
    plane_->WaitForWork(id);
  }
}

void ThreadEngine::IncInflight(uint64_t n) {
  inflight_.fetch_add(n, std::memory_order_relaxed);
}

void ThreadEngine::DecInflight(uint64_t n) {
  if (inflight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void ThreadEngine::WaitQuiescent() {
  if (plane_ != nullptr) {
    // Re-sweep every registered ingress port periodically while waiting:
    // a producer may Post (and buffer) after our flush, and only the
    // owning port or this sweep ever ships a port's partial batches.
    while (true) {
      FlushAllPorts();
      std::unique_lock<std::mutex> lock(idle_mu_);
      // ajoin-lint: timed-park — 1ms bound; the loop re-sweeps ports, so a
      // missed notify costs one period, not liveness.
      if (idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
            return inflight_.load(std::memory_order_acquire) == 0;
          })) {
        return;
      }
    }
  }
  // Before Start there are no ports to sweep; a plain wait suffices.
  std::unique_lock<std::mutex> lock(idle_mu_);
  // ajoin-lint: external-block — quiescence barrier for the driving thread;
  // workers never call this, so it cannot deadlock the task graph.
  idle_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadEngine::Shutdown() {
  if (!started_ || shut_down_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // The flag is up before the final drain, so ports and the Post shim start
  // rejecting while everything already accepted still gets processed.
  WaitQuiescent();
  {
    // Quiescent: every accepted message is processed, so any wake hook
    // still in flight is spurious — refuse further spawns, then close.
    std::lock_guard<std::mutex> lock(workers_mu_);
    closing_ = true;
  }
  plane_->Close();
  for (WorkerSlot& slot : worker_slots_) {
    std::thread t;
    {
      // Spawns hold workers_mu_ and check closing_, so after this point the
      // handle cannot be replaced behind our back.
      std::lock_guard<std::mutex> lock(workers_mu_);
      t = std::move(slot.thread);
    }
    if (t.joinable()) t.join();
  }
}

ExchangeStatsSnapshot ThreadEngine::exchange_stats() const {
  if (plane_ == nullptr) return ExchangeStatsSnapshot{};
  return plane_->stats();
}

std::vector<EdgeStatsSnapshot> ThreadEngine::edge_stats() const {
  if (plane_ == nullptr) return {};
  return plane_->edge_stats();
}

}  // namespace ajoin
