// Mutable edge accumulator producing an immutable Graph.
//
// Generators work in index space [0, n); the ID space (naming regime) is
// attached at build() time. The builder rejects self-loops and silently
// deduplicates parallel edges, so generators may add an edge from both
// endpoints, in any order, without bookkeeping. build() is O(n + m): a
// two-pass counting sort orders the edges by (u, v), so every CSR row comes
// out sorted by construction, with no per-row sort.
#pragma once

#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace fnr::graph {

class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices);

  /// Adds undirected edge {u, v}. Requires u != v and both < n.
  void add_edge(VertexIndex u, VertexIndex v);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }

  /// Finalizes into a Graph with the given naming. `ids.ids.size()` must be
  /// n, IDs must be distinct and < ids.bound. The builder is consumed.
  [[nodiscard]] Graph build(IdSpace ids) &&;

  /// Finalizes with the tight identity naming (ID = index, n' = n).
  [[nodiscard]] Graph build_identity_ids() &&;

 private:
  std::size_t n_;
  std::vector<std::pair<VertexIndex, VertexIndex>> edges_;
};

}  // namespace fnr::graph
