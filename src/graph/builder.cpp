#include "graph/builder.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

namespace fnr::graph {

namespace {

using EdgeList = std::vector<std::pair<VertexIndex, VertexIndex>>;

/// A graph's CSR rows: n + 1 offsets and every row, sorted and
/// duplicate-free. Both builders consume the edge list.
struct Rows {
  std::vector<std::uint64_t> offsets;
  std::vector<VertexIndex> adjacency;
};

Rows rows_by_sort(std::size_t n, EdgeList& edges) {
  // Stable counting sorts by v, then by u: an O(n + m) LSD radix sort that
  // leaves the pairs in (u, v) order, parallel edges side by side.
  {
    EdgeList scratch(edges.size());
    std::vector<std::size_t> start(n + 1);
    const auto counting_pass = [&start](const auto& from, auto& to,
                                        auto key) {
      std::fill(start.begin(), start.end(), 0);
      for (const auto& e : from) ++start[key(e) + 1];
      std::partial_sum(start.begin(), start.end(), start.begin());
      for (const auto& e : from) to[start[key(e)]++] = e;
    };
    counting_pass(edges, scratch, [](const auto& e) { return e.second; });
    counting_pass(scratch, edges, [](const auto& e) { return e.first; });
  }  // frees the scratch pairs before the CSR arrays are allocated
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Rows rows;
  rows.offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++rows.offsets[u + 1];
    ++rows.offsets[v + 1];
  }
  std::partial_sum(rows.offsets.begin(), rows.offsets.end(),
                   rows.offsets.begin());
  // Rows fill in ascending order with no per-row sort: edges arrive in
  // (u, v) order with u < v, so row w first receives its smaller neighbors
  // u (edges (u, w), ascending u) and then its larger ones v (edges (w, v),
  // ascending v).
  rows.adjacency.resize(edges.size() * 2);
  std::vector<std::uint64_t> cursor(rows.offsets.begin(),
                                    rows.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    rows.adjacency[cursor[u]++] = v;
    rows.adjacency[cursor[v]++] = u;
  }
  // The edge list is spent: free it before the per-slot tables grow.
  EdgeList().swap(edges);
  return rows;
}

Rows rows_from_matrix(std::size_t n, std::size_t words, EdgeList& edges) {
  // Row v of the matrix holds bit u exactly when {u, v} was added, in either
  // orientation and any number of times, so each row reads out ascending
  // and duplicate-free.
  std::vector<std::uint64_t> bits(n * words, 0);
  for (const auto& [u, v] : edges) {
    bits[std::size_t{u} * words + v / 64] |= std::uint64_t{1} << (v % 64);
    bits[std::size_t{v} * words + u / 64] |= std::uint64_t{1} << (u % 64);
  }
  EdgeList().swap(edges);

  Rows rows;
  rows.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t degree = 0;
    for (std::size_t w = 0; w < words; ++w)
      degree += std::popcount(bits[v * words + w]);
    rows.offsets[v + 1] = rows.offsets[v] + degree;
  }
  rows.adjacency.resize(rows.offsets[n]);
  VertexIndex* out = rows.adjacency.data();
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t word = bits[v * words + w]; word != 0;
           word &= word - 1)
        *out++ = static_cast<VertexIndex>(w * 64 + std::countr_zero(word));
    }
  }
  return rows;
}

}  // namespace

GraphBuilder::GraphBuilder(std::size_t num_vertices) : n_(num_vertices) {
  FNR_CHECK_MSG(num_vertices >= 1, "graph needs at least one vertex");
  FNR_CHECK_MSG(num_vertices <= static_cast<std::size_t>(kNoVertex),
                "too many vertices for 32-bit indices");
}

void GraphBuilder::add_edge(VertexIndex u, VertexIndex v) {
  FNR_CHECK_MSG(u != v, "self-loop at vertex " << u);
  FNR_CHECK_MSG(u < n_ && v < n_,
                "edge (" << u << ", " << v << ") out of range n=" << n_);
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build(IdSpace ids) && {
  FNR_CHECK_MSG(ids.ids.size() == n_,
                "ID space size " << ids.ids.size() << " != n=" << n_);

  // Rows come from an n x ceil(n/64)-word bit matrix when it is no larger
  // than the edge list itself (both are 8 bytes per entry), so the heap
  // stays O(n + m); sparser graphs take the counting sorts.
  const std::size_t words = (n_ + 63) / 64;
  Rows rows = n_ * words <= edges_.size()
                  ? rows_from_matrix(n_, words, edges_)
                  : rows_by_sort(n_, edges_);
  Graph g;
  g.offsets_ = std::move(rows.offsets);
  g.adjacency_ = std::move(rows.adjacency);

  g.min_degree_ = n_ > 0 ? g.degree(0) : 0;
  g.max_degree_ = 0;
  for (VertexIndex v = 0; v < n_; ++v) {
    const std::size_t d = g.degree(v);
    g.min_degree_ = std::min(g.min_degree_, d);
    g.max_degree_ = std::max(g.max_degree_, d);
  }

  // ID -> index: a flat array when the ID space is dense enough (id_bound =
  // O(n)) for it to be cheap, a hash index under sparse polynomial naming
  // (id_bound = n^e), where the array would be quadratic-or-worse in n.
  const bool dense = ids.bound <= 8 * n_ + 1024;
  if (dense)
    g.index_by_id_.assign(ids.bound, kNoVertex);
  else
    g.id_to_index_.reserve(n_ * 2);
  for (VertexIndex v = 0; v < n_; ++v) {
    const VertexId id = ids.ids[v];
    FNR_CHECK_MSG(id < ids.bound,
                  "ID " << id << " >= bound n'=" << ids.bound);
    const bool inserted = dense ? g.index_by_id_[id] == kNoVertex
                                : g.id_to_index_.emplace(id, v).second;
    FNR_CHECK_MSG(inserted, "duplicate vertex ID " << id);
    if (dense) g.index_by_id_[id] = v;
  }

  // Per-slot tables. Visiting owners v in ascending order, v is the k-th
  // visitor of u exactly when v is u's k-th smallest neighbor, i.e. sits
  // behind u's port k — so a per-vertex counter yields port_to(u, v) for
  // every slot in one O(m) sweep, with no search.
  const std::size_t slots = g.adjacency_.size();
  g.neighbor_ids_.resize(slots);
  g.reverse_ports_.resize(slots);
  std::vector<std::uint32_t> next_port(n_, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    const VertexIndex u = g.adjacency_[s];
    g.neighbor_ids_[s] = ids.ids[u];
    g.reverse_ports_[s] = next_port[u]++;
  }
  g.id_space_ = std::move(ids);
  return g;
}

Graph GraphBuilder::build_identity_ids() && {
  IdSpace ids;
  ids.ids.resize(n_);
  std::iota(ids.ids.begin(), ids.ids.end(), VertexId{0});
  ids.bound = n_;
  ids.tight = true;
  return std::move(*this).build(std::move(ids));
}

}  // namespace fnr::graph
