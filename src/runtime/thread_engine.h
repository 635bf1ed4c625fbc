// Multithreaded engine: tasks run M:N on a pool of W worker threads, one
// per CPU in the process affinity mask (capped at the task count), on the
// src/exchange/ data plane — per-edge bounded lock-free SPSC rings carrying
// TupleBatches, with size/deadline/control batching and credit-based
// backpressure. A slow joiner stalls only the edges feeding it; the driver
// blocks only when the specific ingress edge it is posting on is out of
// credits. Each consumed batch is handed to Task::OnBatch whole — the only
// call the engine makes into a task — so an operator core runs its one data
// path over the batch, and a per-envelope task gets OnBatch's default loop.
// (ExchangeConfig with batch_size = 1 is the per-tuple reference
// configuration: one-envelope batches, as on the simulator.)
//
// Scheduling: each task has one RunState word (run_state.h). A push marks
// the consumer ready; an idle task becomes queued and goes on the shared run
// queue, from which workers claim it. A task runs until its inbox is dry,
// then flushes its outbox and goes idle; after kSliceBatches batches it is
// requeued instead, so one busy task cannot starve the rest. Idle workers
// park on the run queue; a dormant joiner slot is just an idle task.
//
// Contract for tasks: a task never waits inside OnBatch for another task's
// progress. The only in-handler wait is the exchange's
// credit wait, and it helps: a worker task out of credits on an edge runs
// the consumer inline when no other worker holds it (ExchangePlane::
// Scheduler::Help), and parks only when one does. Credit edges point at
// higher task ids, so nested tasks on a worker's stack have increasing ids
// and the system stays deadlock-free for any W >= 1.
//
// Quiescence: an in-flight envelope counter incremented at send (including
// envelopes still buffered in a batcher) and decremented once per consumed
// batch. A task flushes its outbox whenever its inbox runs dry, so
// counted-but-buffered envelopes always drain.
//
// Ingress: OpenIngress hands out IngressPort handles, each owning a
// dedicated external producer slot in the plane (its own per-consumer SPSC
// rings, batcher, and credit accounts), so N driver threads holding N ports
// never contend with each other. A port carries a private mutex, but it only
// serializes the port's single producer against the engine's WaitQuiescent
// port sweep — ports never share a lock. Port threads are not pool workers:
// out of credits, they park.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/exchange/exchange.h"
#include "src/runtime/run_state.h"
#include "src/runtime/task.h"

namespace ajoin {

class ThreadEngine : public Engine, private ExchangePlane::Scheduler {
 public:
  /// Batched exchange with default config.
  ThreadEngine();

  /// Batched exchange with explicit batching/credit config.
  explicit ThreadEngine(const ExchangeConfig& config);

  ~ThreadEngine() override;

  /// Registers a task before Start(); ids ascend in call order.
  int AddTask(std::unique_ptr<Task> task) override;
  /// Builds the exchange plane and starts the worker pool. Every task
  /// starts idle; its first message queues it.
  void Start() override;
  /// Opens a dedicated ingress lane (see IngressPort in task.h). Requires
  /// Start() first and a free slot (ExchangeConfig::max_ingress_ports).
  std::unique_ptr<IngressPort> OpenIngress(int to) override;
  /// Registered task count (the next id AddTask assigns).
  size_t num_tasks() const override { return tasks_.size(); }
  /// Blocks until no envelope is in flight, sweeping ingress ports.
  void WaitQuiescent() override;
  /// Drains (WaitQuiescent), closes the plane and joins the pool. Posts
  /// reject from the moment it starts.
  void Shutdown() override;
  /// Post-run inspection; only valid when quiescent.
  Task* task(int id) override { return tasks_[static_cast<size_t>(id)].get(); }
  /// Wall-clock steady_clock microseconds.
  uint64_t NowMicros() const override;

  /// Exchange-plane counters.
  ExchangeStatsSnapshot exchange_stats() const;
  /// Per-edge exchange counters and occupancy gauges (empty before Start).
  /// Callable from any thread — the TelemetrySampler's edge source.
  std::vector<EdgeStatsSnapshot> edge_stats() const;

  /// Pool worker threads (W: CPUs in the affinity mask, capped at the task
  /// count). Fixed from Start() to Shutdown(); 0 before Start.
  size_t num_workers() const { return workers_.size(); }

 private:
  class BatchedContext;
  class PortImpl;

  /// Batches one task runs per claim before it is requeued (fairness cap).
  static constexpr uint32_t kSliceBatches = 32;

  /// Per-task scheduling state. The cursor is touched only by the task's
  /// current runner, ordered across runners by the RunState word.
  struct alignas(64) TaskRun {
    RunState state;
    size_t cursor = 0;  // PopAny round-robin position
  };

  // ExchangePlane::Scheduler: a push marks its consumer ready; a worker task
  // out of credits helps the consumer when no other worker holds it.
  void MarkReady(int consumer) override;
  bool Help(int consumer) override;

  void WorkerMain();
  /// Runs one slice of task `id`, which the caller has claimed.
  void RunSlice(int id);
  /// Puts a queued task on the run queue and wakes a parked worker.
  void Enqueue(int id);
  void IncInflight(uint64_t n = 1);
  void DecInflight(uint64_t n = 1);

  bool PortPost(PortImpl& port, int to, Envelope msg);
  bool PortPostBatch(PortImpl& port, int to, TupleBatch&& batch);
  void PortFlush(PortImpl& port);
  void ClosePort(PortImpl* port);
  /// Ships every registered port's buffered batches (each under that port's
  /// own lock). Only the WaitQuiescent sweep uses it.
  void FlushAllPorts();

  ExchangeConfig exchange_config_;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::unique_ptr<TaskRun[]> runs_;  // one per task
  std::vector<std::thread> workers_;

  // Run queue: ids of queued tasks. A helper may run a queued task first,
  // leaving a stale id that fails Claim when popped.
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  std::deque<int> run_queue_;   // guarded by run_mu_
  size_t parked_workers_ = 0;   // guarded by run_mu_
  bool stopping_ = false;       // guarded by run_mu_

  std::atomic<uint64_t> inflight_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool started_ = false;
  std::atomic<bool> shut_down_{false};

  // Batched plane.
  std::unique_ptr<ExchangePlane> plane_;

  // Ingress ports. ports_mu_ guards the registry (open/close/sweep); each
  // port's payload is guarded by its own lock.
  std::mutex ports_mu_;
  std::vector<PortImpl*> ports_;
  size_t next_port_slot_ = 0;              // guarded by ports_mu_
  std::vector<size_t> free_port_slots_;    // closed ports' slots, reusable
};

}  // namespace ajoin
