#include "src/runtime/thread_engine.h"

#include <sched.h>

#include <algorithm>
#include <chrono>

#include "src/common/status.h"
#include "src/common/stopwatch.h"

namespace ajoin {

namespace {
/// How long an idle worker parks before re-checking the run queue. Enqueue
/// notifies under the queue lock, so the timeout is only a backstop.
constexpr std::chrono::milliseconds kIdleParkTimeout{1};

/// CPUs this process may run on (at least 1).
size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}
}  // namespace

// Context handed to a task while it runs: sends go through the task's
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
  plane_->SetScheduler(this);
  runs_ = std::make_unique<TaskRun[]>(tasks_.size());
  // Every task starts idle; its first message queues it.
  const size_t pool = std::min(AffinityCpus(), tasks_.size());
  workers_.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

void ThreadEngine::MarkReady(int consumer) {
  if (runs_[static_cast<size_t>(consumer)].state.MarkReady()) {
    Enqueue(consumer);
  }
}

bool ThreadEngine::Help(int consumer) {
  if (!runs_[static_cast<size_t>(consumer)].state.Claim()) return false;
  RunSlice(consumer);
  return true;
}

void ThreadEngine::Enqueue(int id) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    run_queue_.push_back(id);
    wake = parked_workers_ > 0;
  }
  if (wake) run_cv_.notify_one();
}

void ThreadEngine::WorkerMain() {
  while (true) {
    int id;
    {
      std::unique_lock<std::mutex> lock(run_mu_);
      while (run_queue_.empty()) {
        if (stopping_) return;
        ++parked_workers_;
        // ajoin-lint: timed-park — an idle worker holds no task, and
        // Enqueue notifies under run_mu_; the timeout is a backstop.
        run_cv_.wait_for(lock, kIdleParkTimeout);
        --parked_workers_;
      }
      id = run_queue_.front();
      run_queue_.pop_front();
    }
    if (runs_[static_cast<size_t>(id)].state.Claim()) RunSlice(id);
  }
}

void ThreadEngine::RunSlice(int id) {
  TaskRun& run = runs_[static_cast<size_t>(id)];
  ExchangePlane::Outbox* outbox = plane_->outbox(static_cast<size_t>(id));
  BatchedContext ctx(this, id, outbox);
  Task* task = tasks_[static_cast<size_t>(id)].get();
  TupleBatch batch;
  for (uint32_t done = 0; done < kSliceBatches;) {
    if (plane_->PopAny(id, &run.cursor, &batch)) {
      const uint64_t n = batch.size();
      // Hand the whole batch to the task: one virtual call per batch.
      task->OnBatch(std::move(batch), ctx);
      batch.Clear();
      DecInflight(n);
      // One clock read per processed batch drives the deadline flushes
      // (skipped entirely while nothing is buffered).
      if (outbox->has_pending()) outbox->FlushExpired(NowMicros());
      ++done;
      continue;
    }
    // Inbox ran dry: publish everything buffered before going idle, so
    // counted-but-buffered envelopes always drain (quiescence), then go
    // idle unless a producer marked the task again meanwhile.
    outbox->FlushAll();
    if (run.state.TryIdle()) return;
  }
  run.state.Requeue();
  Enqueue(id);
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
  if (shut_down_.load(std::memory_order_acquire)) {
    port.rejected_posts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (batch.empty()) return true;
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
  // The flag is up before the final drain, so ports start rejecting while
  // everything already accepted still gets processed.
  WaitQuiescent();
  plane_->Close();
  {
    // Quiescent: every accepted message is processed. A worker may still be
    // finishing the slice whose last batch it just counted; it exits once
    // the run queue is empty.
    std::lock_guard<std::mutex> lock(run_mu_);
    stopping_ = true;
  }
  run_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
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
