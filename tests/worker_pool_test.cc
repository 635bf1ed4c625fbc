// ThreadEngine worker-pool tests: tasks run M:N on one worker per CPU, a
// producer out of credits helps its consumer instead of sleeping, and the
// run-state word orders consecutive dispatches of a task across workers.
// Run them under TSan and pinned to one CPU (taskset -c 0), where the pool
// has a single worker and every credit wait must resolve by help.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/runtime/task.h"
#include "src/runtime/thread_engine.h"

namespace ajoin {
namespace {

Envelope SeqMsg(uint64_t seq) {
  Envelope env;
  env.type = MsgType::kInput;
  env.seq = seq;
  return env;
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

// Forwards every message to each of `to` (all higher task ids).
class ForwardTask : public Task {
 public:
  explicit ForwardTask(std::vector<int> to) : to_(std::move(to)) {}
  void OnMessage(Envelope msg, Context& ctx) override {
    for (int to : to_) ctx.Send(to, Envelope(msg));
  }

 private:
  std::vector<int> to_;
};

// Counts deliveries per sequence number.
class CountingSink : public Task {
 public:
  explicit CountingSink(size_t n) : count_(n, 0) {}
  void OnMessage(Envelope msg, Context&) override {
    ASSERT_LT(msg.seq, count_.size());
    ++count_[msg.seq];
  }
  const std::vector<uint32_t>& count() const { return count_; }

 private:
  std::vector<uint32_t> count_;
};

// A chain of more than 4x as many tasks as CPUs, every edge a two-batch
// credit window of one-envelope batches, with a fan-out stage (0 -> 1,2,3)
// and a fan-in stage (1,2,3 -> 4): nearly every send runs out of credits.
// Each message must reach the sink exactly three times, and the run must
// complete — at W = 1 only help-while-blocked can make progress.
TEST(WorkerPool, CreditBlockingChainWithFanInAndFanOutDelivers) {
  ExchangeConfig config;
  config.batch_size = 1;
  config.ring_slots = 2;
  ThreadEngine engine(config);
  const int n_tasks = static_cast<int>(4 * AffinityCpus() + 6);
  constexpr uint64_t kPosts = 1500;
  engine.AddTask(std::make_unique<ForwardTask>(std::vector<int>{1, 2, 3}));
  for (int i = 1; i <= 3; ++i) {
    engine.AddTask(std::make_unique<ForwardTask>(std::vector<int>{4}));
  }
  for (int i = 4; i < n_tasks - 1; ++i) {
    engine.AddTask(std::make_unique<ForwardTask>(std::vector<int>{i + 1}));
  }
  auto* sink = new CountingSink(kPosts);
  engine.AddTask(std::unique_ptr<Task>(sink));
  ASSERT_EQ(engine.num_tasks(), static_cast<size_t>(n_tasks));
  engine.Start();
  EXPECT_EQ(engine.num_workers(),
            std::min(AffinityCpus(), static_cast<size_t>(n_tasks)));
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  for (uint64_t i = 0; i < kPosts; ++i) ASSERT_TRUE(port->Post(SeqMsg(i)));
  port->Flush();
  engine.WaitQuiescent();
  for (uint64_t i = 0; i < kPosts; ++i) {
    ASSERT_EQ(sink->count()[i], 3u) << "seq " << i;
  }
  EXPECT_GT(engine.exchange_stats().credit_waits, 0u);
  port.reset();
  engine.Shutdown();
}

// Plain, non-atomic task state: a FIFO log and the set of threads that ran
// the task. Only the RunState word orders one dispatch before the next.
class PlainStateTask : public Task {
 public:
  void OnMessage(Envelope msg, Context&) override {
    ++dispatches_;
    seen_.push_back(msg.seq);
    threads_.insert(std::this_thread::get_id());
  }
  uint64_t dispatches() const { return dispatches_; }
  const std::vector<uint64_t>& seen() const { return seen_; }
  size_t threads() const { return threads_.size(); }

 private:
  uint64_t dispatches_ = 0;
  std::vector<uint64_t> seen_;
  std::set<std::thread::id> threads_;
};

// Each task goes idle after nearly every message (one-envelope batches,
// flushed one at a time), so its thousands of dispatches land on whichever
// worker claims it next. Per-edge FIFO and exact counts must hold, and
// TSan must see every dispatch ordered after the previous one.
TEST(WorkerPool, PlainTaskStateIsOrderedAcrossWorkers) {
  ExchangeConfig config;
  config.batch_size = 1;
  ThreadEngine engine(config);
  constexpr int kTasks = 4;
  constexpr uint64_t kPerTask = 3000;
  std::vector<PlainStateTask*> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(new PlainStateTask());
    engine.AddTask(std::unique_ptr<Task>(tasks.back()));
  }
  engine.Start();
  std::vector<std::thread> drivers;
  for (int t = 0; t < kTasks; ++t) {
    drivers.emplace_back([&engine, t] {
      std::unique_ptr<IngressPort> port = engine.OpenIngress(t);
      for (uint64_t i = 0; i < kPerTask; ++i) {
        ASSERT_TRUE(port->Post(SeqMsg(i)));
        port->Flush();
        if (i % 64 == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  engine.WaitQuiescent();
  size_t max_threads = 0;
  for (PlainStateTask* task : tasks) {
    ASSERT_EQ(task->dispatches(), kPerTask);
    for (uint64_t i = 0; i < kPerTask; ++i) ASSERT_EQ(task->seen()[i], i);
    max_threads = std::max(max_threads, task->threads());
  }
  RecordProperty("max_workers_per_task", static_cast<int>(max_threads));
  engine.Shutdown();
}

}  // namespace
}  // namespace ajoin
