// The agent's window onto the world.
//
// Algorithms never see the Graph; each round they receive a View exposing
// exactly the observations the paper's model grants: the agent's own name,
// the current vertex's ID and degree, the accessible port map (neighbor IDs
// only under KT1), the whiteboard at the current vertex (only if the model
// has whiteboards), the ID bound n', and the global round counter. The
// lower-bound experiments rely on this enforcement: an algorithm written
// against View physically cannot use what the model withholds.
//
// Views are arena objects: the Scheduler keeps one View per agent alive for
// the whole run and re-points it each round. A View holds no tables of its
// own — neighborhood observations are spans into the graph's per-slot
// arrays (Graph::neighbor_ids, built once per graph), so observing costs no
// copy and the hot loop performs no heap allocation after warm-up.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "graph/graph.hpp"
#include "sim/model.hpp"
#include "sim/whiteboard.hpp"

namespace fnr::fault {
class FaultSession;
}  // namespace fnr::fault

namespace fnr::sim {

class Scheduler;

class View {
 public:
  /// Default-constructed Views are inert placeholders; only the Scheduler
  /// populates them (all observation setters are private to it).
  View() = default;

  /// Which program role this agent runs (the paper's a / b split).
  [[nodiscard]] AgentName agent() const noexcept { return agent_; }
  /// The agent's local round counter (0 on its first awake round).
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }

  /// ID of the current vertex (IDs are always visible; §2.1).
  [[nodiscard]] graph::VertexId here() const noexcept { return here_id_; }
  /// Degree of the current vertex (the size of its port map).
  [[nodiscard]] std::size_t degree() const noexcept { return degree_; }

  /// n' — exclusive upper bound on vertex IDs, known to agents.
  [[nodiscard]] graph::VertexId id_bound() const noexcept {
    return graph_->id_bound();
  }
  /// Number of vertices n. The paper lets agents know n (they compute log n
  /// and thresholds from it); we expose it explicitly.
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return graph_->num_vertices();
  }

  /// Whether neighbor IDs are observable (KT1).
  [[nodiscard]] bool has_neighborhood_ids() const noexcept {
    return model_.neighborhood_ids;
  }
  /// Whether the current model grants whiteboards.
  [[nodiscard]] bool has_whiteboards() const noexcept {
    return model_.whiteboards;
  }

  /// IDs of the current vertex's neighbors, indexed by port: a view of the
  /// graph's precomputed table, valid as long as the graph.
  /// Throws CheckError unless the model grants neighborhood IDs.
  [[nodiscard]] std::span<const graph::VertexId> neighbor_ids() const;

  /// Port leading to the neighbor with ID `id`; requires KT1 and that `id`
  /// names a neighbor of the current vertex. (Computed via the graph's index
  /// structures for speed; observationally identical to scanning
  /// neighbor_ids().)
  [[nodiscard]] std::size_t port_of(graph::VertexId id) const;

  /// Whiteboard content at the current vertex; requires a whiteboard model.
  [[nodiscard]] std::optional<std::uint64_t> whiteboard() const;

  /// The port of the current vertex through which the agent arrived last
  /// round (standard in port-numbered mobile-agent models; lets port-only
  /// agents backtrack). nullopt at the start vertex or after staying.
  [[nodiscard]] std::optional<std::size_t> arrival_port() const noexcept {
    return arrival_port_;
  }

 private:
  friend class Scheduler;

  AgentName agent_ = AgentName::A;
  std::uint64_t round_ = 0;
  graph::VertexId here_id_ = 0;
  std::size_t degree_ = 0;
  Model model_;
  const graph::Graph* graph_ = nullptr;  // non-owning; private to the View
  Whiteboards* boards_ = nullptr;        // non-owning; null w/o whiteboards
  // Active fault session, or null (the scheduler re-points this at the
  // start of every run, so a faulty run can never leak injection into a
  // later fault-free run on the same arena). Consulted only by
  // whiteboard() for wb-stale reads.
  fault::FaultSession* faults_ = nullptr;
  graph::VertexIndex here_index_ = graph::kNoVertex;
  std::optional<std::size_t> arrival_port_;
};

/// What an agent does in a round: optionally write the current vertex's
/// whiteboard, then stay or move through a port.
struct Action {
  /// Sentinel port meaning "hold position this round".
  static constexpr std::size_t kStay = static_cast<std::size_t>(-1);

  /// Port to move through at the end of the round (kStay = hold position).
  std::size_t move_port = kStay;
  /// Value to write on the current vertex's whiteboard before moving.
  std::optional<std::uint64_t> whiteboard_write;

  /// The no-op action: no write, no move.
  [[nodiscard]] static Action stay() noexcept { return {}; }
  /// Move through `port` without writing.
  [[nodiscard]] static Action move(std::size_t port) noexcept {
    Action a;
    a.move_port = port;
    return a;
  }
};

/// Algorithm interface. One instance drives one agent for one run.
class Agent {
 public:
  virtual ~Agent() = default;
  Agent() = default;
  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Called once per round while the run is live.
  virtual Action step(const View& view) = 0;

  /// Approximate current internal memory footprint in 64-bit words; used by
  /// the resource experiment (paper claims O(n log n) bits suffice).
  [[nodiscard]] virtual std::size_t memory_words() const { return 0; }

  /// Scheduler::run_single (the round loop's k=1 case) ends the run at the
  /// first round boundary where this is true; runs of two or more agents
  /// never read it (they end at gathering or the cap).
  [[nodiscard]] virtual bool halted() const { return false; }
};

}  // namespace fnr::sim
