#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace fnr::graph {

std::size_t Graph::port_to(VertexIndex v, VertexIndex u) const {
  if (!port_by_pair_.empty() && u < num_vertices()) {
    const std::uint16_t port = port_by_pair_[v * num_vertices() + u];
    if (port != kNoPort) return port;
    // Not an edge: fall through so the search raises the canonical error.
  }
  const auto nbrs = neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
  FNR_CHECK_MSG(it != nbrs.end() && *it == u,
                "port_to: (" << v << ", " << u << ") is not an edge");
  return static_cast<std::size_t>(it - nbrs.begin());
}

bool Graph::has_edge(VertexIndex u, VertexIndex v) const {
  if (u >= num_vertices() || v >= num_vertices() || u == v) return false;
  // Search the smaller adjacency list.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::pair<VertexIndex, VertexIndex> Graph::edge_at_slot(
    std::uint64_t slot) const {
  FNR_CHECK_MSG(slot < adjacency_.size(),
                "slot " << slot << " out of range 2m=" << adjacency_.size());
  // Find the owner: last vertex whose offset is <= slot.
  const auto it =
      std::upper_bound(offsets_.begin(), offsets_.end(), slot) - 1;
  const auto owner =
      static_cast<VertexIndex>(it - offsets_.begin());
  return {owner, adjacency_[slot]};
}

VertexIndex Graph::index_of(VertexId id) const {
  const VertexIndex v = try_index_of(id);
  FNR_CHECK_MSG(v != kNoVertex, "no vertex with ID " << id);
  return v;
}

VertexIndex Graph::try_index_of(VertexId id) const noexcept {
  if (!index_by_id_.empty())
    return id < index_by_id_.size() ? index_by_id_[id] : kNoVertex;
  const auto it = id_to_index_.find(id);
  return it == id_to_index_.end() ? kNoVertex : it->second;
}

std::string Graph::describe() const {
  std::ostringstream os;
  os << "Graph(n=" << num_vertices() << ", m=" << num_edges()
     << ", delta=" << min_degree_ << ", Delta=" << max_degree_
     << ", id_bound=" << id_space_.bound
     << (id_space_.tight ? ", tight" : ", sparse") << ")";
  return os.str();
}

}  // namespace fnr::graph
