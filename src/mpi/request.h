// MPI request objects: handles for nonblocking point-to-point operations and
// user-completed generalized requests (MPI_Grequest — the mechanism the E10
// cache layer uses to track in-flight cache-to-PFS synchronisation, paper
// §III-A).
#pragma once

#include <any>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace e10::mpi {

/// Envelope + payload of a point-to-point message. The payload is type-
/// erased; `bytes` is what the cost model charges.
struct Packet {
  int src = -1;
  int tag = 0;
  Offset bytes = 0;
  std::any payload;
};

/// [[nodiscard]]: a dropped request handle is a lost completion — an
/// isend/irecv/grequest that can never be waited on or completed leaves
/// its peer hanging (enforced tree-wide with -Werror=unused-result and the
/// e10_lint nodiscard rule, docs/static_analysis.md).
class [[nodiscard]] Request {
 public:
  Request() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the operation completes; advances the caller's clock to
  /// the completion time. (MPI_Wait)
  void wait();

  /// Nonblocking completion check. (MPI_Test without status)
  [[nodiscard]] bool test() const;

  /// For completed receive requests: the delivered packet.
  const Packet& packet() const { return delivered(); }

  /// For completed receive requests: moves the delivered payload out as a
  /// T (std::bad_any_cast for another type); the packet keeps only the
  /// moved-from value.
  template <typename T>
  T take_payload() {
    return std::any_cast<T>(std::move(delivered().payload));
  }

  /// Creates a generalized request (MPI_Grequest_start): completed later by
  /// complete().
  static Request grequest(sim::Engine& engine);

  /// Completes a generalized request now (MPI_Grequest_complete).
  void complete();

  /// Waits on all requests; the caller's clock ends at the max completion.
  static void wait_all(std::vector<Request>& requests);

 private:
  friend class CommState;

  struct State {
    explicit State(sim::Engine& engine) : done(engine) {}
    sim::SimEvent done;
    Packet packet;
    bool has_packet = false;
  };

  explicit Request(std::shared_ptr<State> state) : state_(std::move(state)) {}

  /// The delivered packet; throws when there is none.
  Packet& delivered() const;

  std::shared_ptr<State> state_;
};

}  // namespace e10::mpi
