#include "mpi/request.h"

#include <stdexcept>

#include "sim/causal.h"

namespace e10::mpi {

void Request::wait() {
  if (!valid()) throw std::logic_error("wait on invalid Request");
  state_->done.wait();
}

bool Request::test() const {
  if (!valid()) throw std::logic_error("test on invalid Request");
  return state_->done.is_set();
}

Packet& Request::delivered() const {
  if (!valid() || !state_->has_packet) {
    throw std::logic_error("Request::packet: no delivered packet");
  }
  return state_->packet;
}

Request Request::grequest(sim::Engine& engine) {
  return Request(std::make_shared<State>(engine));
}

void Request::complete() {
  if (!valid()) throw std::logic_error("complete on invalid Request");
  sim::Engine& engine = state_->done.engine();
  const Time at = engine.now();
  state_->done.set_at(at, engine.emit_edge(sim::EdgeKind::grequest, at));
}

void Request::wait_all(std::vector<Request>& requests) {
  // Waiting in order is correct: each wait() only moves the clock forward,
  // so the caller ends at the max completion time.
  for (Request& r : requests) {
    if (r.valid()) r.wait();
  }
}

}  // namespace e10::mpi
