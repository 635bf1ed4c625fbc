// Deterministic single-threaded engine: a global FIFO event queue with
// run-to-completion semantics. Messages posted while processing are appended
// and processed in order, so every task observes arrivals in a single global
// order — the in-process equivalent of the paper's serial block-leader
// forwarding that keeps multi-group deliveries consistent (section 4.2.2).
// Each dequeued envelope is handed to Task::OnBatch as a one-envelope batch
// — the threaded engine's one entry point — so both engines run the same
// operator data paths.

#pragma once

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/runtime/task.h"

namespace ajoin {

class SimEngine : public Engine {
 public:
  SimEngine() = default;

  int AddTask(std::unique_ptr<Task> task) override {
    tasks_.push_back(std::move(task));
    return static_cast<int>(tasks_.size()) - 1;
  }

  void Start() override {}

  /// Deterministic ingress port: Post enqueues directly onto the global
  /// FIFO queue, PostBatch enqueues the batch's envelopes one by one in
  /// order (so per-tuple semantics — and a driver's drain_every cadence —
  /// are preserved), Flush is a no-op (nothing is ever buffered). May be
  /// opened at any time; any number of ports.
  std::unique_ptr<IngressPort> OpenIngress(int to) override;

  /// Registered task count (the next id AddTask assigns).
  size_t num_tasks() const override { return tasks_.size(); }

  /// Drains the queue to empty in FIFO order, one envelope per OnBatch
  /// call; the logical clock ticks once per envelope.
  void WaitQuiescent() override;

  /// Marks the engine shut down: subsequent Post/PostBatch on any port
  /// reject (return false). Messages accepted earlier still drain at the
  /// next WaitQuiescent, mirroring the threaded engine.
  void Shutdown() override { shut_down_ = true; }

  Task* task(int id) override { return tasks_[static_cast<size_t>(id)].get(); }

  uint64_t NowMicros() const override { return logical_time_; }

  /// Total messages dispatched (deterministic; used by tests).
  uint64_t dispatched() const { return dispatched_; }

 private:
  class SimContext;
  class SimPort;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::deque<std::pair<int, Envelope>> queue_;
  uint64_t logical_time_ = 0;
  uint64_t dispatched_ = 0;
  bool draining_ = false;
  bool shut_down_ = false;
};

}  // namespace ajoin
