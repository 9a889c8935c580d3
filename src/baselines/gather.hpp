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
// the same as dense ones). Three flat arrays hold it:
//   - slots_: an open-addressing table (power-of-two size, linear probing,
//     grown at load 1/2) from a discovered vertex's ID to its local index;
//   - vertices_: one record per discovered vertex, by local index (the DFS
//     parent, the child-scan cursor, and the vertex's slice of neighbors_);
//     the DFS root, discovered first, is local index 0;
//   - neighbors_: each visited vertex's neighbor IDs, appended on its first
//     visit in port order.
// Local indices are assigned in discovery order, so the DFS child order and
// the rally route's BFS tie-breaks follow the observed port order exactly.
// A whole exploration allocates O(log n) times (array doublings), instead
// of once or more per vertex with node-based hash maps.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scripted_agent.hpp"

namespace fnr::baselines {

class GatherAtMinAgent final : public sim::ScriptedAgent {
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

 protected:
  void on_idle(const sim::View& view) override;

 private:
  using Local = std::uint32_t;
  static constexpr Local kNone = static_cast<Local>(-1);

  struct Vertex {
    graph::VertexId id;
    Local parent;     ///< local index of the DFS parent (0 at the root)
    Local cursor;     ///< next neighbors_ position the child scan reads
    Local adj_begin;  ///< [adj_begin, adj_end) = [kNone, kNone) until the
    Local adj_end;    ///< vertex is visited
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

  /// BFS route over the learned map from `from` to `to` (exclusive of
  /// `from`, inclusive of `to`).
  [[nodiscard]] std::vector<graph::VertexId> route(Local from, Local to) const;

  bool rallying_ = false;
  bool arrived_ = false;
  graph::VertexId min_seen_ = 0;
  std::size_t visited_ = 0;
  std::vector<Slot> slots_;
  std::vector<Vertex> vertices_;
  std::vector<graph::VertexId> neighbors_;
};

}  // namespace fnr::baselines
