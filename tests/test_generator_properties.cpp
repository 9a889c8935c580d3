// Property-based randomized tests for every graph generator, old and new.
//
// Each family's header comment makes promises — connectivity, δ/Δ bounds,
// regularity, geometric edge semantics. This suite sweeps every generator
// over many seeds and checks those promises plus the invariants every Graph
// must satisfy: sorted-CSR adjacency, consistent port numbering (ˆP_v and
// ˆP_v^{-1} are inverses), degree aggregates, uniform edge-slot decoding,
// and ID-space distinctness under every naming regime.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/id_space.hpp"
#include "sweep/spec.hpp"
#include "test_support.hpp"

namespace fnr::graph {
namespace {

constexpr std::uint64_t kSeeds = 10;

/// The invariants every Graph must satisfy, regardless of family.
void expect_well_formed(const Graph& g) {
  ASSERT_TRUE(validate_structure(g));

  std::size_t min_degree = std::numeric_limits<std::size_t>::max();
  std::size_t max_degree = 0;
  std::uint64_t degree_sum = 0;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const std::size_t degree = g.degree(v);
    min_degree = std::min(min_degree, degree);
    max_degree = std::max(max_degree, degree);
    degree_sum += degree;
    // Port numbering: neighbors ascend by index, and the inverse port map
    // agrees with the forward one on every port.
    const auto nbrs = g.neighbors(v);
    for (std::size_t port = 0; port < nbrs.size(); ++port) {
      if (port > 0) EXPECT_LT(nbrs[port - 1], nbrs[port]);
      EXPECT_EQ(g.neighbor_at_port(v, port), nbrs[port]);
      EXPECT_EQ(g.port_to(v, nbrs[port]), port);
      EXPECT_TRUE(g.has_edge(v, nbrs[port]));
      EXPECT_TRUE(g.has_edge(nbrs[port], v));
    }
  }
  EXPECT_EQ(min_degree, g.min_degree());
  EXPECT_EQ(max_degree, g.max_degree());
  EXPECT_EQ(degree_sum, 2 * g.num_edges());

  // Every adjacency slot decodes to a unique directed edge.
  std::set<std::pair<VertexIndex, VertexIndex>> slots;
  for (std::uint64_t slot = 0; slot < 2 * g.num_edges(); ++slot) {
    const auto [u, v] = g.edge_at_slot(slot);
    EXPECT_TRUE(g.has_edge(u, v));
    EXPECT_TRUE(slots.insert({u, v}).second) << "slot " << slot << " repeats";
  }

  // ID space: distinct, bounded, and invertible.
  std::unordered_set<VertexId> ids;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const VertexId id = g.id_of(v);
    EXPECT_LT(id, g.id_bound());
    EXPECT_TRUE(ids.insert(id).second) << "duplicate ID " << id;
    EXPECT_EQ(g.index_of(id), v);
  }
  EXPECT_EQ(ids.size(), g.num_vertices());
}

void expect_regular(const Graph& g, std::size_t degree) {
  EXPECT_EQ(g.min_degree(), degree);
  EXPECT_EQ(g.max_degree(), degree);
}

TEST(GeneratorProperties, ElementaryFamilies) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{7}, std::size_t{33}}) {
    if (n >= 2) {
      const auto g = make_complete(n);
      expect_well_formed(g);
      expect_regular(g, n - 1);
      EXPECT_TRUE(is_connected(g));
    }
    if (n >= 3) {
      const auto g = make_ring(n);
      expect_well_formed(g);
      expect_regular(g, 2);
      EXPECT_TRUE(is_connected(g));
      EXPECT_EQ(g.num_edges(), n);
    }
    {
      const auto g = make_path(n);
      expect_well_formed(g);
      EXPECT_EQ(g.min_degree(), 1u);
      EXPECT_LE(g.max_degree(), 2u);
      EXPECT_TRUE(is_connected(g));
      EXPECT_EQ(g.num_edges(), n - 1);
    }
    {
      const auto g = make_star(n);
      expect_well_formed(g);
      EXPECT_EQ(g.min_degree(), 1u);
      EXPECT_EQ(g.max_degree(), n);  // the center
      EXPECT_TRUE(is_connected(g));
    }
  }
  const auto grid = make_grid(5, 7);
  expect_well_formed(grid);
  EXPECT_TRUE(is_connected(grid));
  EXPECT_EQ(grid.min_degree(), 2u);  // corners
  EXPECT_EQ(grid.max_degree(), 4u);  // interior
}

TEST(GeneratorProperties, ErdosRenyi) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 2);
    const auto g = make_erdos_renyi(80, 0.08, rng);
    expect_well_formed(g);  // no connectivity promise below the threshold
  }
  Rng rng(1, 2);
  const auto dense = make_erdos_renyi(20, 1.0, rng);
  expect_regular(dense, 19);  // p = 1 is K_n
}

TEST(GeneratorProperties, NearRegularMinDegreePromise) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 3);
    const std::size_t out_degree = 2 + seed % 7;
    const auto g = make_near_regular(100, out_degree, rng);
    expect_well_formed(g);
    EXPECT_GE(g.min_degree(), out_degree);
  }
}

TEST(GeneratorProperties, HubAugmentedDegreeSplit) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 4);
    const std::size_t base = 3 + seed % 5;
    const std::size_t hubs = 1 + seed % 3;
    const auto g = make_hub_augmented(90, base, hubs, rng);
    expect_well_formed(g);
    EXPECT_TRUE(is_connected(g));  // hubs touch everything
    EXPECT_EQ(g.max_degree(), 89u);
    EXPECT_GE(g.min_degree(), base + hubs);
  }
}

TEST(GeneratorProperties, TorusIsFourRegularAndConnected) {
  for (const auto [rows, cols] :
       {std::pair<std::size_t, std::size_t>{3, 3}, {3, 8}, {5, 5}, {6, 11}}) {
    const auto g = make_torus(rows, cols);
    expect_well_formed(g);
    expect_regular(g, 4);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.num_vertices(), rows * cols);
    EXPECT_EQ(g.num_edges(), 2 * rows * cols);
  }
  EXPECT_THROW((void)make_torus(2, 5), CheckError);
}

TEST(GeneratorProperties, HypercubeIsDimRegularAndConnected) {
  for (const std::size_t dim : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    const auto g = make_hypercube(dim);
    expect_well_formed(g);
    expect_regular(g, dim);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.num_vertices(), std::size_t{1} << dim);
    EXPECT_EQ(2 * g.num_edges(), dim * (std::size_t{1} << dim));
  }
}

TEST(GeneratorProperties, BarabasiAlbertPromises) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 5);
    const std::size_t m = 1 + seed % 5;
    const auto g = make_barabasi_albert(120, m, rng);
    expect_well_formed(g);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.min_degree(), m);
    // Seed clique + m edges per later vertex, all distinct (simple graph).
    EXPECT_EQ(g.num_edges(), m * (m + 1) / 2 + (120 - m - 1) * m);
  }
}

TEST(GeneratorProperties, WattsStrogatzPromises) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 6);
    const std::size_t k = 2 + seed % 3;
    const auto g = make_watts_strogatz(100, k, 0.3, rng);
    expect_well_formed(g);
    EXPECT_TRUE(is_connected(g));  // the base cycle is never rewired
    EXPECT_GE(g.min_degree(), 2u);
    EXPECT_EQ(g.num_edges(), 100 * k);  // rewiring preserves the edge count
  }
  // beta = 0 is the exact ring lattice.
  Rng rng(3, 6);
  const auto lattice = make_watts_strogatz(40, 4, 0.0, rng);
  expect_well_formed(lattice);
  expect_regular(lattice, 8);
}

TEST(GeneratorProperties, RandomGeometricEdgeSemantics) {
  const double radius = 0.18;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 7);
    const auto [g, points] = make_random_geometric(70, radius, rng);
    expect_well_formed(g);
    ASSERT_EQ(points.size(), g.num_vertices());
    // Edge if and only if the points are within the radius.
    for (VertexIndex u = 0; u < g.num_vertices(); ++u)
      for (VertexIndex v = u + 1; v < g.num_vertices(); ++v) {
        const double dx = points[u][0] - points[v][0];
        const double dy = points[u][1] - points[v][1];
        const bool close = dx * dx + dy * dy <= radius * radius;
        EXPECT_EQ(g.has_edge(u, v), close)
            << "pair (" << u << ", " << v << ") at seed " << seed;
      }
  }
}

TEST(GeneratorProperties, RandomGeometricConnectedPatches) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 8);
    // Radius far below the connectivity threshold: patching must do real
    // work, and the result must still contain every radius edge.
    const auto connected = make_random_geometric_connected(60, 0.08, rng);
    expect_well_formed(connected.graph);
    EXPECT_TRUE(is_connected(connected.graph));
    Rng replay(seed, 8);
    const auto base = make_random_geometric(60, 0.08, replay);
    ASSERT_EQ(base.points, connected.points);  // same point draw
    EXPECT_GE(connected.graph.num_edges(), base.graph.num_edges());
    for (VertexIndex u = 0; u < base.graph.num_vertices(); ++u)
      for (const VertexIndex v : base.graph.neighbors(u))
        EXPECT_TRUE(connected.graph.has_edge(u, v));
  }
}

TEST(GeneratorProperties, LowerBoundFamilies) {
  for (const std::size_t size : {std::size_t{3}, std::size_t{5}, std::size_t{9}}) {
    const auto ds = make_double_star(size);
    expect_well_formed(ds.graph);
    EXPECT_TRUE(is_connected(ds.graph));
    EXPECT_EQ(ds.graph.min_degree(), 1u);
    EXPECT_EQ(ds.graph.max_degree(), size + 1);
    EXPECT_TRUE(ds.graph.has_edge(ds.center_a, ds.center_b));

    const auto dsc = make_double_star_cliques(size, 4);
    expect_well_formed(dsc.graph);
    EXPECT_TRUE(is_connected(dsc.graph));
    EXPECT_EQ(dsc.graph.min_degree(), 3u);  // clique_size - 1
    EXPECT_EQ(dsc.graph.max_degree(), size + 1);

    const auto bc = make_bridged_cliques(size + 2);
    expect_well_formed(bc.graph);
    EXPECT_TRUE(is_connected(bc.graph));
    expect_regular(bc.graph, size + 1);  // half - 1
    EXPECT_TRUE(bc.graph.has_edge(bc.a_start, bc.b_start));
    EXPECT_TRUE(bc.graph.has_edge(bc.x1, bc.x2));
    EXPECT_FALSE(bc.graph.has_edge(bc.a_start, bc.x1));

    const auto svc = make_shared_vertex_cliques(size + 2);
    expect_well_formed(svc.graph);
    EXPECT_TRUE(is_connected(svc.graph));
    EXPECT_EQ(svc.graph.max_degree(), 2 * (size + 1));  // the shared vertex
    EXPECT_EQ(graph::distance(svc.graph, svc.a_start, svc.b_start), 2u);
  }
}

TEST(GeneratorProperties, NamingRegimesKeepIdsDistinct) {
  Rng graph_rng(5, 9);
  const auto base = make_near_regular(64, 6, graph_rng);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed, 10);
    for (const auto& ids :
         {identity_ids(64), shuffled_ids(64, rng), tight_ids(64, 1.7, rng),
          sparse_ids(64, 1.8, rng)}) {
      const auto g = with_ids(base, ids);
      expect_well_formed(g);  // includes distinctness + invertibility
      EXPECT_EQ(g.num_edges(), base.num_edges());
    }
    Rng perm_rng(seed, 12);
    const auto permuted = permute_indices(base, perm_rng);
    expect_well_formed(permuted.graph);
    EXPECT_EQ(permuted.graph.num_edges(), base.num_edges());
    // The mapping is a bijection preserving degrees.
    std::vector<bool> hit(base.num_vertices(), false);
    for (VertexIndex v = 0; v < base.num_vertices(); ++v) {
      const VertexIndex image = permuted.mapping[v];
      ASSERT_LT(image, base.num_vertices());
      EXPECT_FALSE(hit[image]);
      hit[image] = true;
      EXPECT_EQ(permuted.graph.degree(image), base.degree(v));
    }
  }
}

// --- pinned bytes ------------------------------------------------------------
//
// The property tests above accept any graph that keeps each family's
// promises; these digests pin the exact bytes. A change to a generator's
// draw sequence or to the builder's row order moves a digest here, in
// tier-1, before it can move a report.

/// 64-bit FNV-1a over every row's neighbors, neighbor IDs and reverse ports,
/// each value fed as 8 little-endian bytes.
std::uint64_t row_digest(const Graph& g) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto feed = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  feed(g.num_vertices());
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    feed(g.degree(v));
    for (const VertexIndex u : g.neighbors(v)) feed(u);
    for (const VertexId id : g.neighbor_ids(v)) feed(id);
    for (const std::uint32_t port : g.reverse_ports(v)) feed(port);
  }
  return hash;
}

TEST(GeneratorDigests, PinnedForEveryFamily) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const auto& [n, seed] :
       {std::pair<std::uint64_t, std::uint64_t>{200, 1}, {1500, 7}}) {
    for (const auto& family : sweep::topology_families())
      graphs.emplace_back(family + " n=" + std::to_string(n),
                          sweep::parse_topology(family).build(n, seed));
  }
  Rng rng(31, 5);
  graphs.emplace_back("hub-augmented", make_hub_augmented(600, 6, 3, rng));
  graphs.emplace_back("barabasi-albert m=5",
                      make_barabasi_albert(700, 5, rng));
  const Graph base = make_near_regular(500, 12, rng);
  graphs.emplace_back("permute-indices", permute_indices(base, rng).graph);
  graphs.emplace_back("sparse-ids", with_ids(base, sparse_ids(500, 2.0, rng)));
  // bench::dense_family's graphs for exp01 (seed 1000 + n, δ ≈ n^0.78) and
  // exp05 (seed 700 + n, δ ≈ n^0.8): dense enough for the builder's bit
  // matrix rows.
  for (const auto& [n, exponent, seed] :
       {std::tuple<std::size_t, double, std::uint64_t>{1024, 0.78, 2024},
        {2048, 0.78, 3048},
        {1024, 0.8, 1724}}) {
    Rng dense_rng(seed, 911);
    const auto out = static_cast<std::size_t>(
        std::pow(static_cast<double>(n), exponent) / 2.0);
    graphs.emplace_back(
        "near-regular n=" + std::to_string(n) + " out=" + std::to_string(out),
        make_near_regular(n, out, dense_rng));
  }

  // Recorded before the builder's counting sort and the generators' stamp
  // arrays replaced std::sort and hash sets; they must not move.
  const std::vector<std::uint64_t> expected = {
      0x3efe4018b774c38dULL,  // ring n=200
      0xb8a434ea933e998dULL,  // path n=200
      0x7de589a05b75f30dULL,  // complete n=200
      0xb95a27397b4e8fe1ULL,  // grid n=200
      0x9fbfba5526d78081ULL,  // torus n=200
      0xc961c9afbaf76845ULL,  // hypercube n=200
      0xfe04204e3ee95275ULL,  // near-regular n=200
      0xa31e03f37553092cULL,  // erdos-renyi n=200
      0x82a0b4bb115efc61ULL,  // barabasi-albert n=200
      0xd372b7f1e3c44e23ULL,  // watts-strogatz n=200
      0x3367b0c8bcccedc5ULL,  // random-geometric n=200
      0xd3145d3810deb5e2ULL,  // ring n=1500
      0x89741d5749dd5126ULL,  // path n=1500
      0x88b718476effe2beULL,  // complete n=1500
      0xa36803451b948ef6ULL,  // grid n=1500
      0x399baeeabb12c462ULL,  // torus n=1500
      0x9365e0ed372b4939ULL,  // hypercube n=1500
      0xc2c16087659669f8ULL,  // near-regular n=1500
      0x52fdfb6292ccd4b1ULL,  // erdos-renyi n=1500
      0xdd3ba39c52e683baULL,  // barabasi-albert n=1500
      0xdd8bd54098e5d6c0ULL,  // watts-strogatz n=1500
      0xb1b5caf01b132f17ULL,  // random-geometric n=1500
      0x23657887f26b30a4ULL,  // hub-augmented
      0x864ac17becc21603ULL,  // barabasi-albert m=5
      0xc504bcc53c729fbfULL,  // permute-indices
      0x281a8ff60ce648a3ULL,  // sparse-ids
      // Recorded with the counting-sort rows, before dense graphs took
      // theirs from the bit matrix.
      0x547880a515dca79aULL,  // near-regular n=1024 out=111
      0x4f7e838ae135406dULL,  // near-regular n=2048 out=191
      0x549536e746934bfaULL,  // near-regular n=1024 out=128
  };
  std::ostringstream actual;
  for (const auto& [label, g] : graphs)
    actual << "      0x" << std::hex << row_digest(g) << "ULL,  // " << label
           << "\n";
  ASSERT_EQ(graphs.size(), expected.size()) << actual.str();
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(row_digest(graphs[i].second), expected[i])
        << graphs[i].first << "; all digests:\n"
        << actual.str();
}

}  // namespace
}  // namespace fnr::graph
