// Plan-driven agent base class.
//
// The paper's algorithms are written as sequential programs ("visit v,
// return, repeat"), while the simulator drives agents one round at a time.
// ScriptedAgent bridges the two: subclasses implement on_idle(), which runs
// whenever the operation queue is empty and enqueues the next short run
// of per-round operations (moves addressed by neighbor ID, whiteboard
// writes, waits). Requires the KT1 model because moves are addressed by ID.
//
// The plan is a vector read from a head index, emptied when drained and
// before on_idle refills it: its capacity is reused for every later plan,
// so a long run stops allocating once the longest plan has been seen.
#pragma once

#include <optional>
#include <vector>

#include "sim/view.hpp"

namespace fnr::sim {

class ScriptedAgent : public Agent {
 public:
  /// Executes the front of the plan (refilling via on_idle when empty);
  /// an empty refill means the agent stays put this round.
  Action step(const View& view) final {
    // A reliable substrate lands every move on its target; standing
    // anywhere else means edge churn blocked the traversal, and the agent
    // holds position re-issuing the same hop until it goes through. The
    // retry draws nothing and runs on_idle only after the arrival it was
    // scripted for, so plans stay aligned with the agent's true position.
    if (last_move_.has_value()) {
      if (view.here() != *last_move_) {
        Action action;
        action.move_port = view.port_of(*last_move_);
        return action;
      }
      last_move_.reset();
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
    if (op.move_to.has_value()) {
      action.move_port = view.port_of(*op.move_to);
      last_move_ = *op.move_to;
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

  /// One round: move to adjacent vertex `v`.
  void plan_move(graph::VertexId v) { ops_.push_back(Op{v, {}, {}}); }

  /// One round per hop along `hops` (each must be adjacent when reached).
  void plan_route(const std::vector<graph::VertexId>& hops) {
    for (const auto v : hops) plan_move(v);
  }

  /// One round: write the current whiteboard and move to `v`.
  void plan_write_and_move(std::uint64_t value, graph::VertexId v) {
    ops_.push_back(Op{v, value, {}});
  }

  /// Stay for `rounds` rounds.
  void plan_wait(std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) ops_.push_back(Op{{}, {}, {}});
  }

  /// Stay until the global round counter reaches `round` (no-op if past).
  void plan_wait_until(std::uint64_t round) {
    ops_.push_back(Op{{}, {}, round});
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
    std::optional<graph::VertexId> move_to;
    std::optional<std::uint64_t> write;
    std::optional<std::uint64_t> wait_until;
  };
  std::vector<Op> ops_;
  /// Index of the next operation to run; ops_[0, head_) are spent.
  std::size_t head_ = 0;
  /// Target of the last issued move, pending arrival confirmation (churn
  /// blocks traversals; the hop is retried until the agent stands there).
  std::optional<graph::VertexId> last_move_;
};

}  // namespace fnr::sim
