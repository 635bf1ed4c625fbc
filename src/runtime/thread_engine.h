// Multithreaded engine: one worker thread per task, on the src/exchange/
// data plane — per-edge bounded lock-free SPSC rings carrying TupleBatches,
// with size/deadline/control batching and credit-based backpressure. A slow
// joiner stalls only the edges feeding it; the driver blocks only when the
// specific ingress edge it is posting on is out of credits. Consumed batches
// are handed to Task::OnBatch whole, so operators with batch specializations
// (reshuffler routing, joiner store/probe) skip the per-envelope dispatch
// entirely; tasks without one fall back to Task::OnBatch's default
// per-envelope loop. (The original per-tuple mutex+deque Channel plane is
// retired; ExchangeConfig with batch_size = 1 is the per-tuple reference
// configuration.)
//
// Quiescence: an in-flight envelope counter incremented at send (including
// envelopes still buffered in a batcher) and decremented once per consumed
// batch. Workers flush their own outboxes whenever their inbox runs dry,
// so counted-but-buffered envelopes always drain.
//
// Ingress: OpenIngress hands out IngressPort handles, each owning a
// dedicated external producer slot in the plane (its own per-consumer SPSC
// rings, batcher, and credit accounts), so N driver threads holding N ports
// never contend with each other. A port carries a private mutex, but it only
// serializes the port's single producer against the engine's WaitQuiescent
// port sweep — ports never share a lock. (The old single-entry Engine::Post
// shim — one shared default port whose lock was the global ingress mutex —
// is retired; ports are the only way in.)

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/exchange/exchange.h"
#include "src/runtime/task.h"

namespace ajoin {

class ThreadEngine : public Engine {
 public:
  /// Batched exchange with default config.
  ThreadEngine();

  /// Batched exchange with explicit batching/credit config.
  explicit ThreadEngine(const ExchangeConfig& config);

  ~ThreadEngine() override;

  int AddTask(std::unique_ptr<Task> task) override;
  void Start() override;
  /// Opens a dedicated ingress lane (see IngressPort in task.h). Requires
  /// Start() first and a free slot (ExchangeConfig::max_ingress_ports).
  std::unique_ptr<IngressPort> OpenIngress(int to) override;
  /// Registered task count (the next id AddTask assigns).
  size_t num_tasks() const override { return tasks_.size(); }
  void WaitQuiescent() override;
  void Shutdown() override;
  Task* task(int id) override { return tasks_[static_cast<size_t>(id)].get(); }
  uint64_t NowMicros() const override;

  /// Exchange-plane counters.
  ExchangeStatsSnapshot exchange_stats() const;
  /// Per-edge exchange counters and occupancy gauges (empty before Start).
  /// Callable from any thread — the TelemetrySampler's edge source.
  std::vector<EdgeStatsSnapshot> edge_stats() const;

  /// Eagerly attaches a worker to task `id` if it is currently parked
  /// dormant (see Task::dormant). Callable from any thread between
  /// Start() and Shutdown(). Redundant calls are no-ops — the same state
  /// machine also runs from the exchange plane's dormant-wake hook, so a
  /// message racing this call cannot double-spawn.
  void ActivateTask(int id) override;

  /// Worker threads currently attached (running or winding down); dormant
  /// slots have none.
  size_t live_workers() const;
  /// Cumulative worker spawns (including Start-time ones) — grows by one
  /// every time a dormant slot is woken. Test/telemetry accessor.
  uint64_t worker_activations() const {
    return activations_.load(std::memory_order_relaxed);
  }
  /// Cumulative dormant self-retirements of workers. Test/telemetry
  /// accessor.
  uint64_t worker_retirements() const {
    return retirements_.load(std::memory_order_relaxed);
  }

 private:
  class BatchedContext;
  class PortImpl;

  /// Worker attachment lifecycle of one task slot (guarded by workers_mu_).
  /// kUnspawned -> kRunning (Start or first wake); kRunning -> kExiting ->
  /// kExited (dormant self-retirement) or back to kRunning (revived by a
  /// racing message); kExited -> kRunning (join + respawn on wake).
  enum class WorkerState : uint8_t { kUnspawned, kRunning, kExiting, kExited };
  struct WorkerSlot {
    std::thread thread;
    WorkerState state = WorkerState::kUnspawned;
    bool wake_pending = false;  // wake arrived while the worker was exiting
  };

  void WorkerLoop(int id);
  /// Spawns (or respawns) task `id`'s worker. Caller holds workers_mu_.
  void SpawnWorkerLocked(int id);
  /// The dormant-wake state machine (doorbell hook + ActivateTask).
  void WakeTask(int id);
  /// Dormant self-retirement attempt: marks the inbox dormant, re-checks
  /// for racing messages, and either detaches this worker (true — the
  /// caller must return) or revives it (false — keep looping).
  bool RetireWorker(int id);
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
  mutable std::mutex workers_mu_;      // worker slot states + closing_
  std::vector<WorkerSlot> worker_slots_;
  bool closing_ = false;               // Shutdown: refuse new spawns
  std::atomic<uint64_t> activations_{0};
  std::atomic<uint64_t> retirements_{0};
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
