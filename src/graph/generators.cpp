#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

namespace fnr::graph {

namespace {

/// Joins every u in [0, range) to `out_degree` distinct uniform picks in
/// [0, range) \ {u}. picked_by[v] == u marks v as drawn by u, and u stamps
/// itself first, so a loop is rejected like a repeat.
void add_uniform_out_edges(GraphBuilder& b, std::size_t range,
                           std::size_t out_degree, Rng& rng) {
  std::vector<VertexIndex> picked_by(range, kNoVertex);
  for (VertexIndex u = 0; u < range; ++u) {
    picked_by[u] = u;
    for (std::size_t picks = 0; picks < out_degree;) {
      const auto v = static_cast<VertexIndex>(rng.below(range));
      if (picked_by[v] == u) continue;
      picked_by[v] = u;
      b.add_edge(u, v);
      ++picks;
    }
  }
}

}  // namespace

Graph make_complete(std::size_t n) {
  FNR_CHECK(n >= 2);
  GraphBuilder b(n);
  for (VertexIndex u = 0; u < n; ++u)
    for (VertexIndex v = u + 1; v < n; ++v) b.add_edge(u, v);
  return std::move(b).build_identity_ids();
}

Graph make_ring(std::size_t n) {
  FNR_CHECK(n >= 3);
  GraphBuilder b(n);
  for (VertexIndex v = 0; v < n; ++v)
    b.add_edge(v, static_cast<VertexIndex>((v + 1) % n));
  return std::move(b).build_identity_ids();
}

Graph make_path(std::size_t n) {
  FNR_CHECK(n >= 2);
  GraphBuilder b(n);
  for (VertexIndex v = 0; v + 1 < n; ++v)
    b.add_edge(v, static_cast<VertexIndex>(v + 1));
  return std::move(b).build_identity_ids();
}

Graph make_star(std::size_t leaves) {
  FNR_CHECK(leaves >= 1);
  GraphBuilder b(leaves + 1);
  for (VertexIndex v = 1; v <= leaves; ++v) b.add_edge(0, v);
  return std::move(b).build_identity_ids();
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  FNR_CHECK(rows >= 1 && cols >= 1 && rows * cols >= 2);
  GraphBuilder b(rows * cols);
  auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<VertexIndex>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c));
    }
  }
  return std::move(b).build_identity_ids();
}

Graph make_erdos_renyi(std::size_t n, double p, Rng& rng) {
  FNR_CHECK(n >= 2);
  FNR_CHECK_MSG(p > 0.0 && p <= 1.0, "G(n,p) needs p in (0, 1]");
  GraphBuilder b(n);
  if (p >= 1.0) return make_complete(n);
  // Geometric skipping over the linearized upper triangle. Skips are
  // monotone, so the (row, col) decoding advances a cursor instead of
  // inverting the quadratic index formula.
  const double log1mp = std::log1p(-p);
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;  // number of vertex pairs
  auto row_start = [n](std::uint64_t r) {
    return r * (n - 1) - r * (r - 1) / 2;
  };
  std::uint64_t pos = 0;
  std::uint64_t row = 0;
  while (true) {
    const double u = std::max(rng.uniform01(), 1e-300);
    pos += 1 + static_cast<std::uint64_t>(std::floor(std::log(u) / log1mp));
    if (pos > total) break;
    const std::uint64_t k = pos - 1;
    while (row + 1 < n && row_start(row + 1) <= k) ++row;
    const std::uint64_t col = k - row_start(row) + row + 1;
    b.add_edge(static_cast<VertexIndex>(row), static_cast<VertexIndex>(col));
  }
  return std::move(b).build_identity_ids();
}

Graph make_near_regular(std::size_t n, std::size_t out_degree, Rng& rng) {
  FNR_CHECK(n >= 2);
  FNR_CHECK_MSG(out_degree >= 1 && out_degree < n,
                "out_degree must be in [1, n)");
  GraphBuilder b(n);
  add_uniform_out_edges(b, n, out_degree, rng);
  return std::move(b).build_identity_ids();
}

Graph make_hub_augmented(std::size_t n, std::size_t base_out_degree,
                         std::size_t num_hubs, Rng& rng) {
  FNR_CHECK(n >= 4);
  FNR_CHECK_MSG(num_hubs < n, "need fewer hubs than vertices");
  FNR_CHECK_MSG(base_out_degree >= 1 && base_out_degree < n - num_hubs,
                "base_out_degree out of range");
  GraphBuilder b(n);
  // Hubs are the last `num_hubs` indices; adjacent to everything.
  const auto hub_start = static_cast<VertexIndex>(n - num_hubs);
  for (VertexIndex h = hub_start; h < n; ++h)
    for (VertexIndex v = 0; v < n; ++v)
      if (v != h && (v < hub_start || v > h)) b.add_edge(h, v);
  // Near-regular base among non-hub vertices.
  add_uniform_out_edges(b, hub_start, base_out_degree, rng);
  return std::move(b).build_identity_ids();
}

Graph make_torus(std::size_t rows, std::size_t cols) {
  FNR_CHECK_MSG(rows >= 3 && cols >= 3,
                "torus needs rows, cols >= 3 to stay simple");
  GraphBuilder b(rows * cols);
  auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<VertexIndex>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      b.add_edge(at(r, c), at(r, (c + 1) % cols));
      b.add_edge(at(r, c), at((r + 1) % rows, c));
    }
  }
  return std::move(b).build_identity_ids();
}

Graph make_hypercube(std::size_t dim) {
  FNR_CHECK_MSG(dim >= 1 && dim <= 24, "hypercube dim must be in [1, 24]");
  const std::size_t n = std::size_t{1} << dim;
  GraphBuilder b(n);
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t bit = 0; bit < dim; ++bit) {
      const std::size_t u = v ^ (std::size_t{1} << bit);
      if (v < u)
        b.add_edge(static_cast<VertexIndex>(v), static_cast<VertexIndex>(u));
    }
  return std::move(b).build_identity_ids();
}

Graph make_barabasi_albert(std::size_t n, std::size_t m, Rng& rng) {
  FNR_CHECK_MSG(m >= 1, "attachment count m must be >= 1");
  FNR_CHECK_MSG(n >= m + 2, "Barabási–Albert needs n >= m + 2");
  GraphBuilder b(n);
  // One endpoint entry per degree unit: sampling a uniform slot is sampling
  // a vertex proportionally to its degree.
  std::vector<VertexIndex> slots;
  slots.reserve(2 * (m * (m + 1) / 2 + (n - m - 1) * m));
  for (VertexIndex u = 0; u <= m; ++u)
    for (VertexIndex v = u + 1; v <= m; ++v) {
      b.add_edge(u, v);
      slots.push_back(u);
      slots.push_back(v);
    }
  std::vector<VertexIndex> picked_by(n, kNoVertex);  // == v: v drew it
  std::vector<VertexIndex> picks;                    // v's picks, in order
  for (VertexIndex v = static_cast<VertexIndex>(m + 1); v < n; ++v) {
    picks.clear();
    while (picks.size() < m) {
      const VertexIndex target = slots[rng.below(slots.size())];
      if (picked_by[target] == v) continue;  // attachments are distinct
      picked_by[target] = v;
      picks.push_back(target);
      b.add_edge(v, target);
    }
    // Publish the new edges only after all m picks: a vertex never attaches
    // to itself, and its own fresh degree does not bias its own picks.
    for (const VertexIndex target : picks) {
      slots.push_back(v);
      slots.push_back(target);
    }
  }
  return std::move(b).build_identity_ids();
}

Graph make_watts_strogatz(std::size_t n, std::size_t k, double beta,
                          Rng& rng) {
  FNR_CHECK_MSG(k >= 1, "ring lattice needs k >= 1 neighbors per side");
  FNR_CHECK_MSG(2 * k + 1 <= n, "ring lattice needs 2k + 1 <= n");
  FNR_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "beta must be in [0, 1]");
  // Track adjacency so rewiring never creates a duplicate (the builder
  // would silently dedup it, quietly lowering the edge count).
  std::vector<std::unordered_set<VertexIndex>> adj(n);
  auto connect = [&](VertexIndex u, VertexIndex v) {
    adj[u].insert(v);
    adj[v].insert(u);
  };
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t j = 1; j <= k; ++j)
      connect(static_cast<VertexIndex>(v),
              static_cast<VertexIndex>((v + j) % n));
  for (std::size_t v = 0; v < n; ++v) {
    // Offset-1 edges (the base cycle) are exempt: they keep the graph
    // connected no matter how aggressively the long-range edges rewire.
    for (std::size_t j = 2; j <= k; ++j) {
      const auto u = static_cast<VertexIndex>((v + j) % n);
      if (!rng.bernoulli(beta)) continue;
      // A handful of rejection draws; on pathological (tiny, dense) inputs
      // keep the lattice edge rather than loop forever.
      for (int attempt = 0; attempt < 32; ++attempt) {
        const auto t = static_cast<VertexIndex>(rng.below(n));
        if (t == v || adj[v].contains(t)) continue;
        adj[v].erase(u);
        adj[u].erase(static_cast<VertexIndex>(v));
        connect(static_cast<VertexIndex>(v), t);
        break;
      }
    }
  }
  GraphBuilder b(n);
  for (std::size_t v = 0; v < n; ++v)
    for (const VertexIndex u : adj[v])
      if (v < u) b.add_edge(static_cast<VertexIndex>(v), u);
  return std::move(b).build_identity_ids();
}

namespace {

double squared_distance(const std::array<double, 2>& p,
                        const std::array<double, 2>& q) {
  const double dx = p[0] - q[0];
  const double dy = p[1] - q[1];
  return dx * dx + dy * dy;
}

std::vector<std::array<double, 2>> draw_points(std::size_t n, Rng& rng) {
  std::vector<std::array<double, 2>> points(n);
  for (auto& p : points) {
    p[0] = rng.uniform01();
    p[1] = rng.uniform01();
  }
  return points;
}

/// Uniform spatial grid over the unit square. Cell side is >= radius, so
/// every point within `radius` of p lives in the 3x3 cell block around p's
/// cell; the axis count is additionally capped near sqrt(n) so the grid
/// never allocates more cells than points. Buckets are CSR-packed in point
/// order (counting sort), which keeps every scan deterministic.
class PointGrid {
 public:
  PointGrid(const std::vector<std::array<double, 2>>& points, double radius)
      : points_(points) {
    const auto n = points.size();
    const auto sqrt_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(std::sqrt(static_cast<double>(n)))));
    // Clamp in double space BEFORE the integer cast: 1 / radius exceeds
    // the uint64 range for tiny (but valid) radii, and casting an
    // out-of-range double is UB.
    const double wanted =
        std::min(1.0 / radius, static_cast<double>(sqrt_n));
    per_axis_ = wanted < 1.0 ? 1 : static_cast<std::size_t>(wanted);
    cell_side_ = 1.0 / static_cast<double>(per_axis_);
    offsets_.assign(per_axis_ * per_axis_ + 1, 0);
    for (const auto& p : points_) ++offsets_[cell_index(p) + 1];
    for (std::size_t c = 1; c < offsets_.size(); ++c)
      offsets_[c] += offsets_[c - 1];
    slots_.resize(n);
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      slots_[cursor[cell_index(points_[i])]++] = i;
  }

  [[nodiscard]] std::size_t per_axis() const noexcept { return per_axis_; }
  [[nodiscard]] double cell_side() const noexcept { return cell_side_; }

  [[nodiscard]] std::size_t axis_cell(double coord) const noexcept {
    const auto c = static_cast<std::size_t>(
        std::max(0.0, coord) * static_cast<double>(per_axis_));
    return std::min(c, per_axis_ - 1);
  }

  /// Calls visit(j) for every point in cell (cx, cy), in point order.
  template <typename Visit>
  void for_cell(std::size_t cx, std::size_t cy, Visit&& visit) const {
    const std::size_t cell = cy * per_axis_ + cx;
    for (std::size_t s = offsets_[cell]; s < offsets_[cell + 1]; ++s)
      visit(slots_[s]);
  }

 private:
  [[nodiscard]] std::size_t cell_index(
      const std::array<double, 2>& p) const noexcept {
    return axis_cell(p[1]) * per_axis_ + axis_cell(p[0]);
  }

  const std::vector<std::array<double, 2>>& points_;
  std::size_t per_axis_ = 1;
  double cell_side_ = 1.0;
  std::vector<std::size_t> offsets_;  ///< CSR offsets, one per grid cell
  std::vector<std::size_t> slots_;    ///< point indices packed by cell
};

std::vector<std::pair<VertexIndex, VertexIndex>> radius_edges(
    const std::vector<std::array<double, 2>>& points, double radius) {
  // Grid bucketing: each point only tests the 3x3 cell block around it, so
  // the scan is O(n + edges) in expectation instead of the old all-pairs
  // O(n^2). The (i < j) filter emits each pair exactly once, and the edge
  // set is identical to the all-pairs scan. Emission order is left as is:
  // the builder sorts in O(n + m), and the connectivity patching depends
  // only on the edge set (see make_random_geometric_connected).
  std::vector<std::pair<VertexIndex, VertexIndex>> edges;
  const double r2 = radius * radius;
  const PointGrid grid(points, radius);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t cx = grid.axis_cell(points[i][0]);
    const std::size_t cy = grid.axis_cell(points[i][1]);
    const std::size_t x_lo = cx > 0 ? cx - 1 : 0;
    const std::size_t x_hi = std::min(cx + 1, grid.per_axis() - 1);
    const std::size_t y_lo = cy > 0 ? cy - 1 : 0;
    const std::size_t y_hi = std::min(cy + 1, grid.per_axis() - 1);
    for (std::size_t y = y_lo; y <= y_hi; ++y)
      for (std::size_t x = x_lo; x <= x_hi; ++x)
        grid.for_cell(x, y, [&](std::size_t j) {
          if (j <= i) return;
          if (squared_distance(points[i], points[j]) <= r2)
            edges.emplace_back(static_cast<VertexIndex>(i),
                               static_cast<VertexIndex>(j));
        });
  }
  return edges;
}

/// Union-find over vertex indices (path halving + union by size).
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), VertexIndex{0});
  }
  VertexIndex find(VertexIndex v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  bool unite(VertexIndex u, VertexIndex v) {
    u = find(u);
    v = find(v);
    if (u == v) return false;
    if (size_[u] < size_[v]) std::swap(u, v);
    parent_[v] = u;
    size_[u] += size_[v];
    return true;
  }

 private:
  std::vector<VertexIndex> parent_;
  std::vector<std::size_t> size_;
};

/// Globally closest pair of points in different components, minimizing
/// (distance², u, v) lexicographically with u < v — the same winner
/// (including tie-breaks) as the old all-pairs scan. Each point searches
/// expanding cell rings around itself and stops once the nearest possible
/// cell of the next ring is already farther than the best pair found, so
/// the scan is near-linear when components are spatially separated.
std::pair<VertexIndex, VertexIndex> closest_inter_component_pair(
    const std::vector<std::array<double, 2>>& points, const PointGrid& grid,
    DisjointSets& components) {
  double best = std::numeric_limits<double>::infinity();
  VertexIndex best_u = 0, best_v = 0;
  bool found = false;
  const std::size_t per_axis = grid.per_axis();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const VertexIndex root_i =
        components.find(static_cast<VertexIndex>(i));
    const std::size_t cx = grid.axis_cell(points[i][0]);
    const std::size_t cy = grid.axis_cell(points[i][1]);
    const std::size_t last_ring =
        std::max(std::max(cx, cy),
                 std::max(per_axis - 1 - cx, per_axis - 1 - cy));
    auto visit = [&](std::size_t x, std::size_t y) {
      grid.for_cell(x, y, [&](std::size_t j) {
        if (j == i) return;
        if (components.find(static_cast<VertexIndex>(j)) == root_i) return;
        const double d2 = squared_distance(points[i], points[j]);
        const auto u = static_cast<VertexIndex>(std::min(i, j));
        const auto v = static_cast<VertexIndex>(std::max(i, j));
        if (d2 < best || (d2 == best && (u < best_u ||
                                         (u == best_u && v < best_v)))) {
          best = d2;
          best_u = u;
          best_v = v;
          found = true;
        }
      });
    };
    for (std::size_t ring = 0; ring <= last_ring; ++ring) {
      // A point in a ring-r cell is at least (r - 1) cell sides away.
      if (found && ring >= 2) {
        const double min_d =
            static_cast<double>(ring - 1) * grid.cell_side();
        if (min_d * min_d > best) break;
      }
      const std::size_t x_lo = cx >= ring ? cx - ring : 0;
      const std::size_t x_hi = std::min(cx + ring, per_axis - 1);
      const std::size_t y_lo = cy >= ring ? cy - ring : 0;
      const std::size_t y_hi = std::min(cy + ring, per_axis - 1);
      for (std::size_t y = y_lo; y <= y_hi; ++y) {
        const bool edge_row =
            (cy >= ring && y == cy - ring) || y == cy + ring;
        if (edge_row) {
          for (std::size_t x = x_lo; x <= x_hi; ++x) visit(x, y);
        } else {
          if (cx >= ring && cx - ring == x_lo) visit(x_lo, y);
          if (cx + ring == x_hi) visit(x_hi, y);
        }
      }
    }
  }
  FNR_CHECK_MSG(found, "no inter-component pair exists");
  return {best_u, best_v};
}

}  // namespace

GeometricGraph make_random_geometric(std::size_t n, double radius, Rng& rng) {
  FNR_CHECK(n >= 2);
  FNR_CHECK_MSG(radius > 0.0, "geometric radius must be positive");
  GeometricGraph out;
  out.points = draw_points(n, rng);
  GraphBuilder b(n);
  for (const auto& [u, v] : radius_edges(out.points, radius)) b.add_edge(u, v);
  out.graph = std::move(b).build_identity_ids();
  return out;
}

GeometricGraph make_random_geometric_connected(std::size_t n, double radius,
                                               Rng& rng) {
  FNR_CHECK(n >= 2);
  FNR_CHECK_MSG(radius > 0.0, "geometric radius must be positive");
  GeometricGraph out;
  out.points = draw_points(n, rng);
  auto edges = radius_edges(out.points, radius);
  DisjointSets components(n);
  std::size_t num_components = n;
  for (const auto& [u, v] : edges)
    if (components.unite(u, v)) --num_components;
  // Bridge the globally closest inter-component pair until one component
  // remains; the points are fixed, so the patching is deterministic (and
  // picks the same pairs, tie-breaks included, as the historical all-pairs
  // scan — see closest_inter_component_pair). Neither step depends on edge
  // order: the union-find only compares roots for equality, and the bridge
  // is the global minimum of (d², u, v).
  const PointGrid grid(out.points, radius);
  while (num_components > 1) {
    const auto [best_u, best_v] =
        closest_inter_component_pair(out.points, grid, components);
    edges.emplace_back(best_u, best_v);
    components.unite(best_u, best_v);
    --num_components;
  }
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  out.graph = std::move(b).build_identity_ids();
  return out;
}

DoubleStar make_double_star(std::size_t leaves_per_center) {
  FNR_CHECK(leaves_per_center >= 1);
  const std::size_t n = 2 * leaves_per_center + 2;
  GraphBuilder b(n);
  const VertexIndex center_a = 0;
  const auto center_b = static_cast<VertexIndex>(1);
  b.add_edge(center_a, center_b);
  // a's leaves: [2, 2+leaves); b's leaves: [2+leaves, n).
  for (std::size_t i = 0; i < leaves_per_center; ++i) {
    b.add_edge(center_a, static_cast<VertexIndex>(2 + i));
    b.add_edge(center_b, static_cast<VertexIndex>(2 + leaves_per_center + i));
  }
  return DoubleStar{std::move(b).build_identity_ids(), center_a, center_b};
}

DoubleStar make_double_star_cliques(std::size_t branches,
                                    std::size_t clique_size) {
  FNR_CHECK(branches >= 1);
  FNR_CHECK(clique_size >= 2);
  const std::size_t n = 2 + 2 * branches * clique_size;
  GraphBuilder b(n);
  const VertexIndex center_a = 0;
  const VertexIndex center_b = 1;
  b.add_edge(center_a, center_b);
  // Cliques are laid out consecutively after the two centers; the first
  // vertex of each clique is its gateway.
  VertexIndex next = 2;
  for (int side = 0; side < 2; ++side) {
    const VertexIndex center = side == 0 ? center_a : center_b;
    for (std::size_t br = 0; br < branches; ++br) {
      const VertexIndex gateway = next;
      for (std::size_t i = 0; i < clique_size; ++i)
        for (std::size_t j = i + 1; j < clique_size; ++j)
          b.add_edge(static_cast<VertexIndex>(next + i),
                     static_cast<VertexIndex>(next + j));
      b.add_edge(center, gateway);
      next = static_cast<VertexIndex>(next + clique_size);
    }
  }
  return DoubleStar{std::move(b).build_identity_ids(), center_a, center_b};
}

BridgedCliques make_bridged_cliques(std::size_t half) {
  FNR_CHECK_MSG(half >= 3, "bridged cliques need half >= 3");
  const std::size_t n = 2 * half;
  GraphBuilder b(n);
  // C1 = [0, half), C2 = [half, n).
  const VertexIndex a_start = 0;
  const VertexIndex x1 = 1;
  const auto b_start = static_cast<VertexIndex>(half);
  const auto x2 = static_cast<VertexIndex>(half + 1);
  for (int side = 0; side < 2; ++side) {
    const auto base = static_cast<VertexIndex>(side * half);
    for (std::size_t i = 0; i < half; ++i)
      for (std::size_t j = i + 1; j < half; ++j) {
        const auto u = static_cast<VertexIndex>(base + i);
        const auto v = static_cast<VertexIndex>(base + j);
        // Drop the (start, x) edge inside each clique.
        if (side == 0 && u == a_start && v == x1) continue;
        if (side == 1 && u == b_start && v == x2) continue;
        b.add_edge(u, v);
      }
  }
  b.add_edge(a_start, b_start);
  b.add_edge(x1, x2);
  return BridgedCliques{std::move(b).build_identity_ids(), a_start, b_start,
                        x1, x2};
}

SharedVertexCliques make_shared_vertex_cliques(std::size_t half) {
  FNR_CHECK_MSG(half >= 3, "shared-vertex cliques need half >= 3");
  const std::size_t n = 2 * half - 1;
  GraphBuilder b(n);
  // Shared vertex is index 0; clique A = {0} ∪ [1, half); clique B = {0} ∪
  // [half, n).
  const VertexIndex shared = 0;
  for (std::size_t i = 0; i < half; ++i)
    for (std::size_t j = i + 1; j < half; ++j)
      b.add_edge(static_cast<VertexIndex>(i), static_cast<VertexIndex>(j));
  for (std::size_t i = 0; i < half; ++i)
    for (std::size_t j = i + 1; j < half; ++j) {
      const auto u =
          i == 0 ? shared : static_cast<VertexIndex>(half - 1 + i);
      const auto v = static_cast<VertexIndex>(half - 1 + j);
      b.add_edge(u, v);
    }
  return SharedVertexCliques{std::move(b).build_identity_ids(),
                             /*a_start=*/1,
                             /*b_start=*/static_cast<VertexIndex>(half),
                             shared};
}

PermutedGraph permute_indices(const Graph& g, Rng& rng) {
  PermutedGraph out;
  out.mapping.resize(g.num_vertices());
  std::iota(out.mapping.begin(), out.mapping.end(), VertexIndex{0});
  shuffle(out.mapping, rng);
  GraphBuilder b(g.num_vertices());
  for (VertexIndex u = 0; u < g.num_vertices(); ++u)
    for (const VertexIndex v : g.neighbors(u))
      if (u < v) b.add_edge(out.mapping[u], out.mapping[v]);
  out.graph = std::move(b).build_identity_ids();
  return out;
}

Graph with_ids(const Graph& g, IdSpace ids) {
  GraphBuilder b(g.num_vertices());
  for (VertexIndex u = 0; u < g.num_vertices(); ++u)
    for (const VertexIndex v : g.neighbors(u))
      if (u < v) b.add_edge(u, v);
  return std::move(b).build(std::move(ids));
}

}  // namespace fnr::graph
