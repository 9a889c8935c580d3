// Explore-then-rally gathering baseline.
//
// The classic way k >= 2 agents with unique vertex IDs gather without any
// pre-agreement: each agent DFS-explores the graph (KT1 makes the map
// learnable — every visited vertex reveals its neighbors' IDs), then walks
// to the smallest vertex ID it has seen and halts there. On a connected
// graph every agent learns the same minimum, so all agents end on one
// vertex within O(n) rounds — the coordination the independent random walks
// lack (k-way co-location of walkers has probability ~n^{1-k} per round).
// Symmetric: every agent runs the same program, any placement, any k.
//
// Learned-map layout. The agent knows vertices only by the IDs it has
// observed, so the map is keyed by ID, never by the simulator's vertex
// index, and nothing is sized by the ID range (sparse or 64-bit IDs cost
// the same as dense ones). Two flat arrays hold it:
//   - slots_: an open-addressing table (power-of-two size, linear probing,
//     grown at load 1/2) from a discovered vertex's ID to its local index;
//   - vertices_: one record per discovered vertex, by local index (the DFS
//     parent and the port back to it, the child-scan cursor, and the span
//     View::neighbor_ids() returned on its first visit, which stays valid
//     as long as the graph, so no row is copied); the DFS root, discovered
//     first, is local index 0.
// Local indices are assigned in discovery order, so the DFS child order and
// the rally route's BFS tie-breaks follow the observed port order exactly.
// A whole exploration allocates O(log n) times (array doublings), instead
// of once or more per vertex with node-based hash maps.
//
// Moves are by port, as in the model (§2.1): the agent never turns an ID
// back into a port. The neighbor IDs are in port order, so the child-scan
// cursor is the port of the neighbor it reads. The port back to the DFS
// parent is the arrival port observed on the vertex's first visit (the DFS
// always enters a vertex first from its parent). The rally route is a list
// of (port, target ID) hops whose ports the BFS records. A hop blocked by
// edge churn leaves the agent where it was, and the agent tries the same
// port again until it stands on the hop's target.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/view.hpp"

namespace fnr::baselines {

class GatherAtMinAgent final : public sim::Agent {
 public:
  GatherAtMinAgent() = default;

  /// True once the agent stands on the rally vertex with nothing to do.
  [[nodiscard]] bool arrived() const noexcept { return arrived_; }
  /// Lets single-agent runs stop at the rally instead of burning the cap.
  [[nodiscard]] bool halted() const override { return arrived_; }
  [[nodiscard]] std::size_t visited_count() const noexcept {
    return visited_;
  }
  [[nodiscard]] std::size_t memory_words() const override;

  sim::Action step(const sim::View& view) override;

 private:
  using Local = std::uint32_t;
  static constexpr Local kNone = static_cast<Local>(-1);

  struct Vertex {
    graph::VertexId id;
    Local parent;       ///< local index of the DFS parent (0 at the root)
    Local parent_port;  ///< port back to the parent (unset at the root)
    Local cursor;       ///< next port the child scan reads (kNone: unvisited)
    /// Neighbor IDs by port; empty until the vertex is visited.
    std::span<const graph::VertexId> neighbors;
  };

  /// One move: leave through `port`, expecting to stand on `target` next.
  struct Hop {
    std::size_t port;
    graph::VertexId target;
  };

  struct Slot {
    graph::VertexId id;
    Local local;  ///< kNone while the slot is empty
  };

  /// Slot holding `id`, or the empty slot where it would go (slots_ must
  /// be non-empty).
  [[nodiscard]] std::size_t probe(graph::VertexId id) const noexcept;
  /// Local index of `id`, or kNone if it was never discovered.
  [[nodiscard]] Local find(graph::VertexId id) const noexcept;
  /// Discovers `id` with DFS parent `parent` unless it is already known;
  /// returns true if it was new.
  bool discover(graph::VertexId id, Local parent);
  /// Doubles slots_ and re-inserts every discovered vertex.
  void grow_slots();

  /// Fills route_ with the BFS route over the learned map from `from` to
  /// `to` (exclusive of `from`, inclusive of `to`).
  void plan_route(Local from, Local to);
  /// Moves through `hop` from the vertex `here`, remembered until arrival.
  [[nodiscard]] sim::Action depart(const Hop& hop, graph::VertexId here);
  /// The DFS and rally decision for a round with no hop in flight.
  [[nodiscard]] sim::Action decide(const sim::View& view);

  bool rallying_ = false;
  bool arrived_ = false;
  graph::VertexId min_seen_ = 0;
  std::size_t visited_ = 0;
  std::size_t learned_ids_ = 0;  ///< sum of the visited vertices' degrees
  std::vector<Slot> slots_;
  std::vector<Vertex> vertices_;
  /// The rally route; route_[0, route_head_) are taken.
  std::vector<Hop> route_;
  std::size_t route_head_ = 0;
  /// The last hop taken and the vertex it left from, while its arrival is
  /// unconfirmed.
  bool in_flight_ = false;
  Hop last_hop_{0, 0};
  graph::VertexId last_from_ = 0;
};

}  // namespace fnr::baselines
