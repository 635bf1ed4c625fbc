#include "src/exchange/exchange.h"

#include <thread>

#include "src/common/status.h"
#include "src/common/stopwatch.h"

namespace ajoin {

namespace {
/// How long a producer parked for credits sleeps before re-checking on its
/// own. The consumer notifies on the fast path; the timeout only bounds the
/// cost of a lost wakeup race (and of a consumer requeued without popping
/// this edge, which the producer may then help).
constexpr std::chrono::milliseconds kParkTimeout{1};
}  // namespace

ExchangePlane::ExchangePlane(size_t num_tasks, const ExchangeConfig& config)
    : num_tasks_(num_tasks),
      config_(config),
      edge_matrix_((num_tasks + config.max_ingress_ports) * num_tasks),
      inboxes_(num_tasks),
      outboxes_(num_tasks + config.max_ingress_ports) {
  AJOIN_CHECK_MSG(config.batch_size >= 1, "batch_size must be >= 1");
  for (Inbox& inbox : inboxes_) {
    // Reserved so concurrent readers of edges[i < n_edges] never observe a
    // reallocation.
    inbox.edges.reserve(outboxes_.size());
  }
  for (size_t p = 0; p < outboxes_.size(); ++p) {
    outboxes_[p].plane_ = this;
    outboxes_[p].producer_ = p;
    outboxes_[p].edges_.resize(num_tasks);
  }
}

ExchangePlane::~ExchangePlane() {
  for (std::atomic<Edge*>& slot : edge_matrix_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

uint64_t ExchangePlane::NowMicros() { return SteadyNowMicros(); }

ExchangePlane::Edge* ExchangePlane::GetEdge(size_t producer, int consumer) {
  std::atomic<Edge*>& slot =
      edge_matrix_[producer * num_tasks_ + static_cast<size_t>(consumer)];
  Edge* edge = slot.load(std::memory_order_acquire);
  if (edge != nullptr) return edge;
  // Only this producer's thread creates this edge, so there is no creation
  // race on the slot; registration into the inbox is what needs the lock.
  // All external producers (the default lane and every ingress port) are
  // bounded: they are the system's strictly bounded ingress.
  const bool bounded = producer >= num_tasks_ ||
                       static_cast<int>(producer) < consumer;
  edge = new Edge(config_.ring_slots, bounded);
  Inbox& inbox = inboxes_[static_cast<size_t>(consumer)];
  {
    std::lock_guard<std::mutex> lock(inbox.reg_mu);
    inbox.edges.push_back(edge);
    inbox.n_edges.store(inbox.edges.size(), std::memory_order_release);
  }
  slot.store(edge, std::memory_order_release);
  return edge;
}

namespace {
/// Lifts `occ` into the edge's high-water occupancy gauge (CAS-max).
inline void RaisePeak(std::atomic<uint32_t>& peak, uint32_t occ) {
  uint32_t seen = peak.load(std::memory_order_relaxed);
  while (occ > seen &&
         !peak.compare_exchange_weak(seen, occ, std::memory_order_relaxed)) {
  }
}
}  // namespace

void ExchangePlane::PushBatch(Edge& edge, TupleBatch& batch, int consumer,
                              size_t producer) {
  edge.batches.fetch_add(1, std::memory_order_relaxed);
  edge.envelopes.fetch_add(batch.size(), std::memory_order_relaxed);
  if (edge.bounded) {
    if (!edge.ring.TryPush(batch)) {
      // Out of credits: backpressure. Our earlier pushes already marked the
      // consumer ready, so it is queued or running until it pops them; wait
      // for it to return credits by consuming. The whole episode — help,
      // spin, park, retry — is stamped as credit-wait time so telemetry
      // sees stall *duration*, not just the event count.
      edge.credit_waits.fetch_add(1, std::memory_order_relaxed);
      const uint64_t t0_ns = SteadyNowNanos();
      bool modeled_wait = false;
#ifdef AJOIN_MODELCHECK
      if (check::InModel()) {
        // Under the model checker the condvar park below is invisible to
        // the virtual scheduler; block cooperatively instead, and assert
        // the task-id lock order that keeps credit blocking deadlock-free.
        modeled_wait = true;
        AJOIN_MC_LEDGER_BLOCK(static_cast<int>(producer), consumer,
                              num_tasks_);
        while (!edge.ring.TryPush(batch)) {
          AJOIN_MC_BLOCKED("credit-wait");
        }
      }
#endif
      // Help while blocked: only worker tasks (producer ids below
      // num_tasks_, always below the consumer on a bounded edge) run the
      // consumer inline; ingress ports are not pool workers.
      const bool can_help = scheduler_ != nullptr && producer < num_tasks_;
      int spins = 0;
      while (!modeled_wait && !edge.ring.TryPush(batch)) {
        if (can_help && scheduler_->Help(consumer)) continue;
        if (++spins <= 4) {
          std::this_thread::yield();
          continue;
        }
        edge.producer_waiting.store(true, std::memory_order_seq_cst);
        if (edge.ring.ProbablyFull() &&
            !closed_.load(std::memory_order_acquire)) {
          std::unique_lock<std::mutex> lock(edge.credit_mu);
          // ajoin-lint: id-ordered-block — only producers below the
          // consumer's id (or ingress) wait, workers only on a consumer
          // another worker holds: acyclic wait-for graph (exchange.h).
          edge.credit_cv.wait_for(lock, kParkTimeout);
        }
        edge.producer_waiting.store(false, std::memory_order_relaxed);
      }
      const uint64_t stall_ns = SteadyNowNanos() - t0_ns;
      edge.credit_wait_ns.fetch_add(stall_ns, std::memory_order_relaxed);
      if (config_.trace != nullptr) {
        config_.trace->Record(TraceEventKind::kCreditStall, consumer,
                              NowMicros(), stall_ns, producer);
      }
    }
    AJOIN_MC_LEDGER_PUSH(&edge);
    RaisePeak(edge.ring_peak,
              static_cast<uint32_t>(edge.ring.SlotsUsed()));
    MarkReady(consumer);
    return;
  }
  // Unbounded edge: ring while the overflow lane is empty (FIFO invariant:
  // everything in overflow is younger than everything in the ring), else
  // spill. Never blocks — see the deadlock-freedom argument in the header.
  if (edge.ov_count.load(std::memory_order_relaxed) == 0 &&
      edge.ring.TryPush(batch)) {
    AJOIN_MC_LEDGER_PUSH(&edge);
    RaisePeak(edge.ring_peak,
              static_cast<uint32_t>(edge.ring.SlotsUsed()));
    MarkReady(consumer);
    return;
  }
  edge.overflow_batches.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(edge.ov_mu);
    edge.overflow.push_back(std::move(batch));
    edge.ov_count.fetch_add(1, std::memory_order_release);
  }
  AJOIN_MC_LEDGER_PUSH(&edge);
  MarkReady(consumer);
}

bool ExchangePlane::PopAny(int consumer, size_t* rr_cursor, TupleBatch* out) {
  Inbox& inbox = inboxes_[static_cast<size_t>(consumer)];
  const size_t n = inbox.n_edges.load(std::memory_order_acquire);
  if (n == 0) return false;
  for (size_t i = 0; i < n; ++i) {
    const size_t at = (*rr_cursor + i) % n;
    Edge& edge = *inbox.edges[at];
    if (edge.ring.TryPop(out)) {
      AJOIN_MC_LEDGER_POP(&edge);
      *rr_cursor = (at + 1) % n;
      if (edge.bounded &&
          edge.producer_waiting.load(std::memory_order_seq_cst)) {
        // Credits returned: wake the blocked producer. Taking the mutex
        // pairs with its wait_for, closing the notify/wait race.
        std::lock_guard<std::mutex> lock(edge.credit_mu);
        edge.credit_cv.notify_one();
      }
      return true;
    }
    if (!edge.bounded && edge.ov_count.load(std::memory_order_acquire) > 0) {
      // Everything in overflow is younger than everything in the ring, but
      // the TryPop above may have acted on a stale "empty" snapshot taken
      // while the producer's older ring pushes were still propagating. The
      // acquire load of ov_count synchronizes with the spill that published
      // it, which the producer sequenced *after* those pushes — so re-poll
      // the ring now that they are guaranteed visible, or a younger
      // overflow batch could overtake them and break per-edge FIFO.
      if (edge.ring.TryPop(out)) {
        AJOIN_MC_LEDGER_POP(&edge);
        *rr_cursor = (at + 1) % n;
        return true;  // unbounded edge: no credit waiter to wake
      }
      std::lock_guard<std::mutex> lock(edge.ov_mu);
      if (!edge.overflow.empty()) {
        *out = std::move(edge.overflow.front());
        edge.overflow.pop_front();
        edge.ov_count.fetch_sub(1, std::memory_order_release);
        AJOIN_MC_LEDGER_POP(&edge);
        *rr_cursor = (at + 1) % n;
        return true;
      }
    }
  }
  return false;
}

void ExchangePlane::Close() {
  closed_.store(true, std::memory_order_release);
  for (std::atomic<Edge*>& slot : edge_matrix_) {
    Edge* edge = slot.load(std::memory_order_acquire);
    if (edge != nullptr && edge->bounded) {
      std::lock_guard<std::mutex> lock(edge->credit_mu);
      edge->credit_cv.notify_all();
    }
  }
}

ExchangeStatsSnapshot ExchangePlane::stats() const {
  ExchangeStatsSnapshot out;
  for (const std::atomic<Edge*>& slot : edge_matrix_) {
    const Edge* edge = slot.load(std::memory_order_acquire);
    if (edge == nullptr) continue;
    out.envelopes += edge->envelopes.load(std::memory_order_relaxed);
    out.batches += edge->batches.load(std::memory_order_relaxed);
    out.credit_waits += edge->credit_waits.load(std::memory_order_relaxed);
    out.credit_wait_ns += edge->credit_wait_ns.load(std::memory_order_relaxed);
    out.overflow_batches +=
        edge->overflow_batches.load(std::memory_order_relaxed);
  }
  for (const Outbox& outbox : outboxes_) {
    out.size_flushes += outbox.size_flushes_.load(std::memory_order_relaxed);
    out.deadline_flushes +=
        outbox.deadline_flushes_.load(std::memory_order_relaxed);
    out.control_flushes +=
        outbox.control_flushes_.load(std::memory_order_relaxed);
  }
  out.avg_batch_fill = out.batches == 0
                           ? 0
                           : static_cast<double>(out.envelopes) /
                                 static_cast<double>(out.batches);
  return out;
}

std::vector<EdgeStatsSnapshot> ExchangePlane::edge_stats() const {
  std::vector<EdgeStatsSnapshot> all;
  for (size_t i = 0; i < edge_matrix_.size(); ++i) {
    const Edge* edge = edge_matrix_[i].load(std::memory_order_acquire);
    if (edge == nullptr) continue;
    EdgeStatsSnapshot out;
    const Edge& twin = *edge;
    AJOIN_EDGE_FIELDS(AJOIN_TWIN_LOAD)
    out.producer = static_cast<int>(i / num_tasks_);
    out.consumer = static_cast<int>(i % num_tasks_);
    out.bounded = edge->bounded;
    out.ring_occupancy = static_cast<uint32_t>(edge->ring.SlotsUsed());
    out.ring_capacity = static_cast<uint32_t>(edge->ring.capacity());
    out.overflow_depth = edge->ov_count.load(std::memory_order_relaxed);
    all.push_back(out);
  }
  return all;
}

ProducerStallStats ExchangePlane::producer_stalls(size_t producer) const {
  ProducerStallStats roll;
  if (producer >= num_producers()) return roll;
  for (size_t c = 0; c < num_tasks_; ++c) {
    const Edge* edge =
        edge_matrix_[producer * num_tasks_ + c].load(std::memory_order_acquire);
    if (edge == nullptr) continue;
    roll.credit_waits += edge->credit_waits.load(std::memory_order_relaxed);
    roll.credit_wait_ns += edge->credit_wait_ns.load(std::memory_order_relaxed);
  }
  return roll;
}

// ------------------------------------------------------------------ Outbox --

void ExchangePlane::Outbox::Send(int to, Envelope&& msg, uint64_t now_hint_us) {
  PerEdge& pe = edges_[static_cast<size_t>(to)];
  if (pe.edge == nullptr) pe.edge = plane_->GetEdge(producer_, to);
  if (IsControlMsg(msg.type)) {
    // Control cuts the batch: flush buffered data first so the control
    // message keeps its FIFO position on the edge, then ship it alone.
    if (!pe.pending.empty()) {
      Bump(control_flushes_);
      FlushEdge(pe, to);
    }
    TupleBatch single(std::move(msg));
    plane_->PushBatch(*pe.edge, single, to, producer_);
    return;
  }
  if (pe.pending.empty()) ArmPending(pe, now_hint_us);
  pe.pending.Add(std::move(msg));
  if (pe.pending.size() >= plane_->config_.batch_size) {
    Bump(size_flushes_);
    FlushEdge(pe, to);
  }
}

void ExchangePlane::Outbox::SendRun(int to, TupleBatch&& run,
                                    uint64_t now_hint_us) {
  const size_t n = run.size();
  if (n == 0) return;
  PerEdge& pe = edges_[static_cast<size_t>(to)];
  if (pe.edge == nullptr) pe.edge = plane_->GetEdge(producer_, to);
  const uint32_t batch_size = plane_->config_.batch_size;
  size_t i = 0;
  if (!pe.pending.empty()) {
    // Top up the buffered partial batch first: its envelopes are older than
    // this run, so edge FIFO requires they ship first.
    while (i < n && pe.pending.size() < batch_size) {
      pe.pending.Add(std::move(run.items[i++]));
    }
    if (pe.pending.size() >= batch_size) {
      Bump(size_flushes_);
      FlushEdge(pe, to);
    }
    if (i == n) {  // fully absorbed; the pending deadline is already armed
      run.Clear();
      return;
    }
  }
  // Here the pending buffer is empty and [i, n) remains. A remainder of at
  // least half a batch ships directly as one pre-formed batch: the wire
  // batch is a little smaller, but every envelope saves the move through
  // the pending buffer — the dominant per-envelope cost left on this path.
  const size_t left = n - i;
  if (left * 2 >= batch_size) {
    Bump(size_flushes_);
    if (i == 0) {
      plane_->PushBatch(*pe.edge, run, to, producer_);
    } else {
      TupleBatch rest;
      rest.items.reserve(left);
      for (; i < n; ++i) rest.items.push_back(std::move(run.items[i]));
      plane_->PushBatch(*pe.edge, rest, to, producer_);
    }
    run.Clear();
    return;
  }
  // Small tail: buffer it and arm the deadline, exactly as Send would.
  ArmPending(pe, now_hint_us);
  for (; i < n; ++i) pe.pending.Add(std::move(run.items[i]));
  run.Clear();
}

void ExchangePlane::Outbox::ArmPending(PerEdge& pe, uint64_t now_hint_us) {
  pe.pending.items.reserve(plane_->config_.batch_size);
  const uint64_t now = now_hint_us != 0 ? now_hint_us : NowMicros();
  pe.pending.first_buffered_us = now;
  const uint64_t due = now + plane_->config_.flush_deadline_us;
  if (next_deadline_check_us_ == 0 || due < next_deadline_check_us_) {
    next_deadline_check_us_ = due;
  }
}

void ExchangePlane::Outbox::FlushEdge(PerEdge& pe, int consumer) {
  plane_->PushBatch(*pe.edge, pe.pending, consumer, producer_);
  pe.pending.Clear();
}

void ExchangePlane::Outbox::FlushAll() {
  for (size_t to = 0; to < edges_.size(); ++to) {
    PerEdge& pe = edges_[to];
    if (!pe.pending.empty()) FlushEdge(pe, static_cast<int>(to));
  }
  next_deadline_check_us_ = 0;
}

uint64_t ExchangePlane::Outbox::DiscardPending() {
  uint64_t dropped = 0;
  for (PerEdge& pe : edges_) {
    dropped += pe.pending.size();
    pe.pending.Clear();
  }
  next_deadline_check_us_ = 0;
  return dropped;
}

void ExchangePlane::Outbox::FlushExpired(uint64_t now_us) {
  if (next_deadline_check_us_ == 0 || now_us < next_deadline_check_us_) return;
  const uint64_t deadline = plane_->config_.flush_deadline_us;
  uint64_t next = 0;
  for (size_t to = 0; to < edges_.size(); ++to) {
    PerEdge& pe = edges_[to];
    if (pe.pending.empty()) continue;
    if (now_us - pe.pending.first_buffered_us >= deadline) {
      Bump(deadline_flushes_);
      FlushEdge(pe, static_cast<int>(to));
    } else {
      const uint64_t due = pe.pending.first_buffered_us + deadline;
      if (next == 0 || due < next) next = due;
    }
  }
  next_deadline_check_us_ = next;
}

}  // namespace ajoin
