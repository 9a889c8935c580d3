// Immutable undirected graph with distinct vertex identifiers.
//
// The paper's model (§2.1): each vertex carries a distinct integer ID in
// [0, n'-1] with n >= n' ... n' = n^{O(1)}; agents know n'. Internally
// vertices are dense indices [0, n); the ID space is attached at build time
// (see id_space.hpp). Adjacency is CSR with per-vertex neighbor lists sorted
// by neighbor index — that order defines the local port numbering ˆP_v.
// GraphBuilder::build emits the rows in that order by construction, with no
// per-row sort: dense graphs read them from a bit matrix, sparse ones from
// an O(n + m) counting sort of the edge list.
//
// The observation tables agents read every round (KT1 neighbor IDs, the
// arrival port behind each move, ID → index) are built once in
// GraphBuilder::build as flat arrays indexed by adjacency slot, so every
// scheduler, worker and trial on one graph shares them read-only.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace fnr::graph {

/// Dense internal vertex index in [0, n).
using VertexIndex = std::uint32_t;

/// Externally visible vertex identifier in [0, n').
using VertexId = std::uint64_t;

/// Sentinel for "no vertex".
inline constexpr VertexIndex kNoVertex = static_cast<VertexIndex>(-1);

/// The naming regime attached to a graph (paper §2.1 and §4.2).
struct IdSpace {
  std::vector<VertexId> ids;  ///< index -> ID, all distinct, < bound
  VertexId bound = 0;         ///< n' : exclusive upper bound, known to agents
  bool tight = false;         ///< n' = O(n) (required by Theorem 2)
};

/// Immutable simple undirected graph. Construct via GraphBuilder.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return adjacency_.size() / 2;
  }

  [[nodiscard]] std::size_t degree(VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v ordered by increasing neighbor index; position in this
  /// span is the local port number ˆP_v.
  [[nodiscard]] std::span<const VertexIndex> neighbors(VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// The neighbor behind port `port` of vertex v (ˆP_v(port)).
  [[nodiscard]] VertexIndex neighbor_at_port(VertexIndex v,
                                             std::size_t port) const {
    const auto nbrs = neighbors(v);
    FNR_CHECK_MSG(port < nbrs.size(),
                  "port " << port << " out of range for degree "
                          << nbrs.size());
    return nbrs[port];
  }

  /// Inverse port map ˆP_v^{-1}: the port of v leading to u, found by a
  /// binary search over v's sorted row. Throws CheckError unless (v, u) is
  /// an edge.
  [[nodiscard]] std::size_t port_to(VertexIndex v, VertexIndex u) const;

  /// IDs of v's neighbors in port order: neighbor_ids(v)[p] ==
  /// id_of(neighbors(v)[p]).
  [[nodiscard]] std::span<const VertexId> neighbor_ids(VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return {neighbor_ids_.data() + offsets_[v],
            neighbor_ids_.data() + offsets_[v + 1]};
  }

  /// Arrival ports in port order: reverse_ports(v)[p] is the port of
  /// u = neighbors(v)[p] leading back to v, i.e. port_to(u, v).
  [[nodiscard]] std::span<const std::uint32_t> reverse_ports(
      VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return {reverse_ports_.data() + offsets_[v],
            reverse_ports_.data() + offsets_[v + 1]};
  }

  /// index_by_id()[id] is the vertex named `id` (kNoVertex for unused IDs).
  /// Built only for dense ID spaces (id_bound <= 8n + 1024); empty under
  /// sparse polynomial naming, where try_index_of uses a hash index.
  [[nodiscard]] std::span<const VertexIndex> index_by_id() const noexcept {
    return index_by_id_;
  }

  [[nodiscard]] bool has_edge(VertexIndex u, VertexIndex v) const;

  /// Decodes flat adjacency slot `slot` in [0, 2m) into the directed pair
  /// (owner, neighbor). Each undirected edge owns exactly two slots, so a
  /// uniform slot is a uniform directed edge (used for uniform placements).
  [[nodiscard]] std::pair<VertexIndex, VertexIndex> edge_at_slot(
      std::uint64_t slot) const;

  [[nodiscard]] std::size_t min_degree() const noexcept { return min_degree_; }
  [[nodiscard]] std::size_t max_degree() const noexcept { return max_degree_; }

  // --- identifier space -----------------------------------------------

  [[nodiscard]] VertexId id_of(VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return id_space_.ids[v];
  }
  /// Throws CheckError if the ID does not name a vertex.
  [[nodiscard]] VertexIndex index_of(VertexId id) const;
  /// kNoVertex if the ID does not name a vertex.
  [[nodiscard]] VertexIndex try_index_of(VertexId id) const noexcept;

  /// n' — the exclusive ID bound known to agents.
  [[nodiscard]] VertexId id_bound() const noexcept { return id_space_.bound; }
  [[nodiscard]] bool tight_ids() const noexcept { return id_space_.tight; }

  /// Human-readable one-line summary (n, m, δ, Δ, naming).
  [[nodiscard]] std::string describe() const;

 private:
  friend class GraphBuilder;

  std::vector<std::uint64_t> offsets_;   // size n+1
  std::vector<VertexIndex> adjacency_;   // size 2m, sorted per vertex
  std::vector<VertexId> neighbor_ids_;   // per slot: id_of(adjacency_[s])
  std::vector<std::uint32_t> reverse_ports_;  // per slot: arrival port
  IdSpace id_space_;
  std::vector<VertexIndex> index_by_id_;  // dense ID spaces only
  std::unordered_map<VertexId, VertexIndex> id_to_index_;  // sparse only
  std::size_t min_degree_ = 0;
  std::size_t max_degree_ = 0;
};

}  // namespace fnr::graph
