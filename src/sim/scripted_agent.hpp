// Plan-driven agent base class.
//
// The paper's algorithms are written as sequential programs ("visit v,
// return, repeat"), while the simulator drives agents one round at a time.
// ScriptedAgent bridges the two: subclasses implement on_idle(), which runs
// whenever the operation queue is empty and enqueues the next short run
// of per-round operations (moves, whiteboard writes, waits).
//
// A move names the neighbor it reaches and, when the planner knows it, the
// port that leads there (a Hop): the paper agents plan every hop with its
// port (core::Knowledge routes), so a step costs no search. A move planned
// by ID alone (plan_move) finds its port with View::port_of when it runs,
// which needs the KT1 model.
//
// The plan is a vector read from a head index, emptied when drained and
// before on_idle refills it: its capacity is reused for every later plan,
// so a long run stops allocating once the longest plan has been seen.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/view.hpp"
#include "util/check.hpp"

namespace fnr::sim {

/// One move: the neighbor `to` and the port of the current vertex that
/// leads to it.
struct Hop {
  /// Port sentinel: find the port with View::port_of(to) when the hop runs.
  static constexpr std::uint32_t kFind = ~std::uint32_t{0};
  /// Port sentinel: leave through the port the agent arrived by (the hop
  /// must directly follow a move that landed).
  static constexpr std::uint32_t kBack = kFind - 1;

  graph::VertexId to = 0;
  std::uint32_t port = kFind;
};

/// A route of at most two hops: the paper's agents never plan further
/// from home (core::Knowledge), so a route is a value, not an allocation.
class Route {
 public:
  Route() = default;
  explicit Route(Hop first) : hops_{first, Hop{}}, size_(1) {}
  Route(Hop first, Hop second) : hops_{first, second}, size_(2) {}

  [[nodiscard]] std::span<const Hop> hops() const noexcept {
    return {hops_.data(), size_};
  }

 private:
  std::array<Hop, 2> hops_{};
  std::size_t size_ = 0;
};

class ScriptedAgent : public Agent {
 public:
  /// Executes the front of the plan (refilling via on_idle when empty);
  /// an empty refill means the agent stays put this round.
  Action step(const View& view) final {
    // A reliable substrate lands every move on its target; still standing
    // where the move left from means edge churn blocked the traversal, and
    // the agent holds position re-issuing the same port until it goes
    // through. The retry draws nothing and runs on_idle only after the
    // arrival it was scripted for, so plans stay aligned with the agent's
    // true position. Standing anywhere else means the port was wrong.
    if (in_flight_) {
      if (view.here() != last_move_.to) {
        FNR_CHECK_MSG(view.here() == last_from_,
                      "hop from " << last_from_ << " to " << last_move_.to
                                  << " through port " << last_move_.port
                                  << " left the agent on " << view.here());
        return Action::move(last_move_.port);
      }
      in_flight_ = false;
    }

    if (plan_empty()) {
      plan_clear();
      on_idle(view);
      if (plan_empty()) return Action::stay();
    }

    const Op& op = ops_[head_++];

    if (op.wait_until.has_value()) {
      // Hold position until the given absolute round; re-arm while early.
      if (view.round() + 1 < *op.wait_until) --head_;
      Action action = Action::stay();
      action.whiteboard_write = op.write;
      return action;
    }

    Action action;
    action.whiteboard_write = op.write;
    if (op.moves) {
      last_move_ = Hop{op.to, resolve_port(Hop{op.to, op.port}, view)};
      last_from_ = view.here();
      in_flight_ = true;
      action.move_port = last_move_.port;
    }
    return action;
  }

  /// Plan storage, two words per queued operation (subclasses add their
  /// own state on top).
  [[nodiscard]] std::size_t memory_words() const override {
    return (ops_.size() - head_) * 2;
  }

 protected:
  /// Called with the agent's current view whenever the plan is empty.
  /// Implementations observe the view and enqueue the next operations; if
  /// nothing is enqueued the agent stays put this round.
  virtual void on_idle(const View& view) = 0;

  /// One round: move to adjacent vertex `v` (port found when it runs).
  void plan_move(graph::VertexId v) { plan_move(Hop{v, Hop::kFind}); }

  /// One round: take `hop`.
  void plan_move(Hop hop) {
    ops_.push_back(Op{hop.to, hop.port, true, {}, {}});
  }

  /// One round per hop of `route`.
  void plan_route(const Route& route) {
    for (const Hop& hop : route.hops()) plan_move(hop);
  }

  /// One round: write the current whiteboard and move to `v`.
  void plan_write_and_move(std::uint64_t value, graph::VertexId v) {
    ops_.push_back(Op{v, Hop::kFind, true, value, {}});
  }

  /// Stay for `rounds` rounds.
  void plan_wait(std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) ops_.push_back(Op{});
  }

  /// Stay until the global round counter reaches `round` (no-op if past).
  void plan_wait_until(std::uint64_t round) {
    ops_.push_back(Op{0, 0, false, {}, round});
  }

  /// True when no operations are queued (on_idle will run next round).
  [[nodiscard]] bool plan_empty() const noexcept {
    return head_ == ops_.size();
  }
  /// Drops every queued operation (e.g. on a protocol restart).
  void plan_clear() noexcept {
    ops_.clear();
    head_ = 0;
  }

 private:
  struct Op {
    graph::VertexId to = 0;  ///< the move's target, when `moves`
    std::uint32_t port = 0;  ///< the move's port or a Hop sentinel
    bool moves = false;
    std::optional<std::uint64_t> write;
    std::optional<std::uint64_t> wait_until;
  };

  [[nodiscard]] static std::uint32_t resolve_port(const Hop& hop,
                                                  const View& view) {
    if (hop.port == Hop::kFind)
      return static_cast<std::uint32_t>(view.port_of(hop.to));
    if (hop.port == Hop::kBack) {
      const auto arrival = view.arrival_port();
      FNR_CHECK_MSG(arrival.has_value(),
                    "hop back to " << hop.to << " without an arrival port");
      return static_cast<std::uint32_t>(*arrival);
    }
    return hop.port;
  }

  std::vector<Op> ops_;
  /// Index of the next operation to run; ops_[0, head_) are spent.
  std::size_t head_ = 0;
  /// The last issued move and the vertex it left, pending arrival
  /// confirmation (churn blocks traversals; the port is re-issued until
  /// the agent stands on the hop's target).
  Hop last_move_;
  graph::VertexId last_from_ = 0;
  bool in_flight_ = false;
};

}  // namespace fnr::sim
