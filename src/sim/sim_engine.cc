#include "src/sim/sim_engine.h"

#include "src/common/status.h"

namespace ajoin {

class SimEngine::SimContext : public Context {
 public:
  SimContext(SimEngine* engine, int self) : engine_(engine), self_(self) {}

  int self() const override { return self_; }

  void Send(int to, Envelope msg) override {
    msg.from = self_;
    engine_->queue_.emplace_back(to, std::move(msg));
  }

  uint64_t NowMicros() const override { return engine_->logical_time_; }

 private:
  SimEngine* engine_;
  int self_;
};

// Deterministic port: a stateless shim onto the engine's FIFO queue. See
// the OpenIngress doc comment for the contract it preserves.
class SimEngine::SimPort : public IngressPort {
 public:
  SimPort(SimEngine* engine, int to) : engine_(engine), to_(to) {}

  int to() const override { return to_; }

  using IngressPort::Post;
  using IngressPort::PostBatch;

  bool Post(int to, Envelope msg) override {
    if (engine_->shut_down_) {
      rejected_++;
      return false;
    }
    AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(engine_->tasks_.size()),
                    "Post to unknown task");
    engine_->queue_.emplace_back(to, std::move(msg));
    posted_++;
    return true;
  }

  bool PostBatch(int to, TupleBatch&& batch) override {
    if (engine_->shut_down_) {
      rejected_++;
      return false;
    }
    // One enqueue per envelope, in order: exactly what a per-tuple driver
    // would have produced, so simulator runs stay deterministic and
    // per-tuple drain cadences observe every envelope.
    for (Envelope& msg : batch.items) {
      if (!Post(to, std::move(msg))) return false;
    }
    batch.Clear();
    batches_++;
    return true;
  }

  void Flush() override {}

  // Plain counters: the simulator is single-threaded, so no atomics needed.
  // Backlog and credit stalls are structurally zero (the port never
  // buffers and the queue is unbounded).
  IngressPortStats stats() const override {
    IngressPortStats s;
    s.posted_envelopes = posted_;
    s.posted_batches = batches_;
    s.rejected_posts = rejected_;
    return s;
  }

 private:
  SimEngine* engine_;
  const int to_;
  uint64_t posted_ = 0;
  uint64_t batches_ = 0;
  uint64_t rejected_ = 0;
};

std::unique_ptr<IngressPort> SimEngine::OpenIngress(int to) {
  AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(tasks_.size()),
                  "OpenIngress: unknown destination task");
  return std::make_unique<SimPort>(this, to);
}

void SimEngine::WaitQuiescent() {
  AJOIN_CHECK_MSG(!draining_, "reentrant WaitQuiescent");
  draining_ = true;
  while (!queue_.empty()) {
    auto [to, msg] = std::move(queue_.front());
    queue_.pop_front();
    AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(tasks_.size()),
                    "message to unknown task");
    SimContext ctx(this, to);
    tasks_[static_cast<size_t>(to)]->OnBatch(TupleBatch(std::move(msg)), ctx);
    ++dispatched_;
    ++logical_time_;
  }
  draining_ = false;
}

}  // namespace ajoin
