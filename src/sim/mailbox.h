// Timestamped message queue between simulated processes.
//
// send() deposits a message stamped with the sender's clock without
// blocking the sender. recv() blocks until a message is there and advances
// the receiver's clock to max(now, sent_at). Each message carries the
// causal token of the emission that sent it (Engine::emit_edge; 0 = none),
// which recv() acks when its wait advanced the clock.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "common/units.h"
#include "sim/engine.h"

namespace e10::sim {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposits a message stamped with the sender's current time. Never
  /// blocks.
  void send(T message, CausalToken cause = 0) {
    queue_.push_back(Entry{std::move(message), engine_.now(), cause});
    if (!waiters_.empty()) {
      const ProcessId next = waiters_.front();
      waiters_.pop_front();
      engine_.make_ready(next, queue_.back().sent_at);
    }
  }

  /// Blocks until a message is there; returns it in FIFO deposit order.
  T recv() {
    const Time before = engine_.now();
    while (queue_.empty()) {
      waiters_.push_back(engine_.current());
      engine_.block("Mailbox::recv");
    }
    Entry entry = std::move(queue_.front());
    queue_.pop_front();
    engine_.advance_to(entry.sent_at);
    engine_.ack_edge(entry.cause, before);
    return std::move(entry.message);
  }

  /// Non-blocking receive: a message only if one has already been deposited
  /// (the caller's clock still advances to its send time).
  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    Entry entry = std::move(queue_.front());
    queue_.pop_front();
    engine_.advance_to(entry.sent_at);
    return std::move(entry.message);
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  struct Entry {
    T message;
    Time sent_at;
    CausalToken cause;
  };
  Engine& engine_;
  std::deque<Entry> queue_;
  std::deque<ProcessId> waiters_;
};

}  // namespace e10::sim
