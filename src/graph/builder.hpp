// Mutable edge accumulator producing an immutable Graph.
//
// Generators work in index space [0, n); the ID space (naming regime) is
// attached at build() time. The builder rejects self-loops and silently
// deduplicates parallel edges, so generators may add an edge from both
// endpoints, in any order, without bookkeeping. build() is O(n + m) and
// emits every CSR row sorted, with no per-row sort, by one of two paths:
// when an n x ceil(n/64)-word bit matrix takes no more words than the edge
// list has entries, each edge sets its two bits and the rows are read out
// word by word; sparser graphs order the edge list by (u, v) with a
// two-pass counting sort.
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
