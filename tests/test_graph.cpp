// Unit tests for the graph substrate: builder, CSR invariants, ID spaces,
// the per-slot observation tables, and every generator family
// (parameterized structural sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/id_space.hpp"
#include "sim/neighbor_table.hpp"
#include "util/rng.hpp"

namespace fnr::graph {
namespace {

TEST(Builder, BuildsTriangle) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  const Graph g = std::move(b).build_identity_ids();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_TRUE(validate_structure(g));
}

TEST(Builder, DeduplicatesParallelEdges) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build_identity_ids();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, RejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), CheckError);
}

TEST(Builder, RejectsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), CheckError);
}

TEST(Builder, RejectsDuplicateIds) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  IdSpace ids;
  ids.ids = {5, 5};
  ids.bound = 10;
  EXPECT_THROW((void)std::move(b).build(std::move(ids)), CheckError);
}

TEST(Builder, RejectsIdAboveBound) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  IdSpace ids;
  ids.ids = {0, 10};
  ids.bound = 10;  // exclusive
  EXPECT_THROW((void)std::move(b).build(std::move(ids)), CheckError);
}

TEST(Graph, PortNumberingIsConsistent) {
  const Graph g = make_complete(5);
  for (VertexIndex v = 0; v < 5; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      EXPECT_EQ(g.neighbor_at_port(v, p), nbrs[p]);
      EXPECT_EQ(g.port_to(v, nbrs[p]), p);
    }
  }
}

TEST(Graph, PortOutOfRangeThrows) {
  const Graph g = make_ring(4);
  EXPECT_THROW((void)g.neighbor_at_port(0, 2), CheckError);
}

TEST(Graph, HasEdgeMatchesConstruction) {
  const Graph g = make_ring(6);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(5, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, IdLookupRoundTrips) {
  Rng rng(5);
  Graph g = with_ids(make_ring(8), shuffled_ids(8, rng));
  for (VertexIndex v = 0; v < 8; ++v)
    EXPECT_EQ(g.index_of(g.id_of(v)), v);
  EXPECT_EQ(g.try_index_of(12345), kNoVertex);
  EXPECT_THROW((void)g.index_of(12345), CheckError);
}

TEST(Graph, EdgeAtSlotCoversAllDirectedEdges) {
  const Graph g = make_ring(5);
  std::set<std::pair<VertexIndex, VertexIndex>> seen;
  for (std::uint64_t s = 0; s < 2 * g.num_edges(); ++s)
    seen.insert(g.edge_at_slot(s));
  EXPECT_EQ(seen.size(), 2 * g.num_edges());
  for (const auto& [u, v] : seen) EXPECT_TRUE(g.has_edge(u, v));
}

TEST(IdSpace, IdentityIsTight) {
  const auto ids = identity_ids(10);
  EXPECT_TRUE(ids.tight);
  EXPECT_EQ(ids.bound, 10u);
  EXPECT_EQ(ids.ids[3], 3u);
}

TEST(IdSpace, TightWithSlackHasDistinctBoundedIds) {
  Rng rng(9);
  const auto ids = tight_ids(100, 3.0, rng);
  EXPECT_TRUE(ids.tight);
  EXPECT_EQ(ids.bound, 300u);
  std::set<VertexId> unique(ids.ids.begin(), ids.ids.end());
  EXPECT_EQ(unique.size(), 100u);
  for (const auto id : ids.ids) EXPECT_LT(id, 300u);
}

TEST(IdSpace, SparseIsPolynomialAndNotTight) {
  Rng rng(9);
  const auto ids = sparse_ids(100, 2.0, rng);
  EXPECT_FALSE(ids.tight);
  EXPECT_EQ(ids.bound, 10000u);
  std::set<VertexId> unique(ids.ids.begin(), ids.ids.end());
  EXPECT_EQ(unique.size(), 100u);
}

TEST(IdSpace, SparseRejectsExponentBelowOne) {
  Rng rng(9);
  EXPECT_THROW((void)sparse_ids(10, 0.9, rng), CheckError);
}

TEST(Generators, CompleteGraphShape) {
  const Graph g = make_complete(7);
  EXPECT_EQ(g.num_edges(), 21u);
  EXPECT_EQ(g.min_degree(), 6u);
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_TRUE(validate_structure(g));
}

TEST(Generators, RingAndPathShape) {
  const Graph ring = make_ring(9);
  EXPECT_EQ(ring.num_edges(), 9u);
  EXPECT_EQ(ring.min_degree(), 2u);
  const Graph path = make_path(9);
  EXPECT_EQ(path.num_edges(), 8u);
  EXPECT_EQ(path.min_degree(), 1u);
  EXPECT_TRUE(is_connected(ring));
  EXPECT_TRUE(is_connected(path));
}

TEST(Generators, StarShape) {
  const Graph g = make_star(6);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.degree(0), 6u);
}

TEST(Generators, GridShape) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2u * 4);  // horizontal + vertical
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(validate_structure(g));
}

TEST(Generators, ErdosRenyiDensityIsPlausible) {
  Rng rng(123);
  const std::size_t n = 400;
  const double p = 0.05;
  const Graph g = make_erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              6 * std::sqrt(expected));
  EXPECT_TRUE(validate_structure(g));
}

TEST(Generators, ErdosRenyiFullProbabilityIsComplete) {
  Rng rng(1);
  const Graph g = make_erdos_renyi(20, 1.0, rng);
  EXPECT_EQ(g.num_edges(), 190u);
}

TEST(Generators, NearRegularDegreeBand) {
  Rng rng(7);
  const std::size_t n = 500, k = 20;
  const Graph g = make_near_regular(n, k, rng);
  EXPECT_GE(g.min_degree(), k);          // every vertex chose k partners
  EXPECT_LE(g.max_degree(), 4 * k);      // concentration (loose band)
  EXPECT_TRUE(validate_structure(g));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, HubAugmentedSeparatesDeltaFromMaxDegree) {
  Rng rng(11);
  const std::size_t n = 300;
  const Graph g = make_hub_augmented(n, 10, 3, rng);
  EXPECT_EQ(g.max_degree(), n - 1);      // hubs touch everything
  EXPECT_GE(g.min_degree(), 13u);        // base degree + hubs
  EXPECT_LE(g.min_degree(), 60u);
  EXPECT_TRUE(validate_structure(g));
}

TEST(Generators, DoubleStarMatchesFigure1a) {
  const auto built = make_double_star(50);
  const Graph& g = built.graph;
  EXPECT_EQ(g.num_vertices(), 102u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 51u);  // leaves + other center
  EXPECT_TRUE(g.has_edge(built.center_a, built.center_b));
  EXPECT_EQ(distance(g, built.center_a, built.center_b), 1u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, DoubleStarCliquesMatchesFigure1b) {
  const auto built = make_double_star_cliques(8, 5);
  const Graph& g = built.graph;
  EXPECT_EQ(g.num_vertices(), 2u + 2u * 8 * 5);
  EXPECT_EQ(g.min_degree(), 4u);             // clique interior
  EXPECT_EQ(g.degree(built.center_a), 9u);   // branches + other center
  EXPECT_TRUE(g.has_edge(built.center_a, built.center_b));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, BridgedCliquesMatchesFigure2) {
  const auto built = make_bridged_cliques(20);
  const Graph& g = built.graph;
  EXPECT_EQ(g.num_vertices(), 40u);
  // Every vertex has degree exactly n/2 - 1 = 19.
  EXPECT_EQ(g.min_degree(), 19u);
  EXPECT_EQ(g.max_degree(), 19u);
  EXPECT_TRUE(g.has_edge(built.a_start, built.b_start));
  EXPECT_TRUE(g.has_edge(built.x1, built.x2));
  EXPECT_FALSE(g.has_edge(built.a_start, built.x1));
  EXPECT_FALSE(g.has_edge(built.b_start, built.x2));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, SharedVertexCliquesMatchesFigure3) {
  const auto built = make_shared_vertex_cliques(15);
  const Graph& g = built.graph;
  EXPECT_EQ(g.num_vertices(), 29u);
  EXPECT_EQ(g.max_degree(), 28u);  // the shared vertex sees both cliques
  EXPECT_EQ(g.min_degree(), 14u);
  EXPECT_EQ(distance(g, built.a_start, built.b_start), 2u);
  EXPECT_EQ(distance(g, built.a_start, built.shared), 1u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, WithIdsPreservesTopology) {
  Rng rng(3);
  const Graph g = make_ring(10);
  const Graph h = with_ids(g, sparse_ids(10, 2.0, rng));
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexIndex v = 0; v < 10; ++v) EXPECT_EQ(h.degree(v), g.degree(v));
  EXPECT_FALSE(h.tight_ids());
}

// --- per-slot observation tables --------------------------------------------

/// Checks the tables GraphBuilder::build fills against the accessors they
/// mirror. Reverse ports are checked against a binary search of their own,
/// and port_to against the port of every slot.
::testing::AssertionResult tables_match(const Graph& g) {
  const std::size_t n = g.num_vertices();
  const bool dense = g.id_bound() <= 8 * n + 1024;
  if (g.index_by_id().size() != (dense ? g.id_bound() : 0))
    return ::testing::AssertionFailure()
           << "index_by_id has " << g.index_by_id().size() << " entries";
  for (VertexIndex v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ids = g.neighbor_ids(v);
    const auto rev = g.reverse_ports(v);
    if (ids.size() != nbrs.size() || rev.size() != nbrs.size())
      return ::testing::AssertionFailure() << "row size differs at " << v;
    if (g.try_index_of(g.id_of(v)) != v)
      return ::testing::AssertionFailure() << "try_index_of at " << v;
    if (dense && g.index_by_id()[g.id_of(v)] != v)
      return ::testing::AssertionFailure() << "index_by_id at " << v;
    for (std::size_t port = 0; port < nbrs.size(); ++port) {
      const VertexIndex u = nbrs[port];
      const auto back = g.neighbors(u);
      const auto expected_rev = static_cast<std::size_t>(
          std::lower_bound(back.begin(), back.end(), v) - back.begin());
      if (ids[port] != g.id_of(u) || rev[port] != expected_rev ||
          back[rev[port]] != v || g.port_to(v, u) != port)
        return ::testing::AssertionFailure()
               << "slot (" << v << ", port " << port << ") differs";
    }
  }
  if (dense) {
    const auto named = std::count_if(
        g.index_by_id().begin(), g.index_by_id().end(),
        [](VertexIndex v) { return v != kNoVertex; });
    if (static_cast<std::size_t>(named) != n)
      return ::testing::AssertionFailure() << named << " IDs name a vertex";
  }
  return ::testing::AssertionSuccess();
}

/// Every generator family at a target size; structured families round to
/// the nearest size their shape allows.
std::vector<std::pair<std::string, Graph>> every_family(std::size_t n,
                                                        Rng& rng) {
  std::size_t rows = 3;
  for (std::size_t d = 3; d * d <= n; ++d)
    if (n % d == 0) rows = d;
  std::size_t dim = 1;
  while ((std::size_t{1} << dim) < n) ++dim;
  const double radius = std::sqrt(8.0 / (3.14159 * static_cast<double>(n)));
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("complete", make_complete(std::min<std::size_t>(n, 96)));
  out.emplace_back("ring", make_ring(n));
  out.emplace_back("path", make_path(n));
  out.emplace_back("star", make_star(n - 1));
  out.emplace_back("grid", make_grid(rows, n / rows));
  out.emplace_back("torus", make_torus(rows, n / rows));
  out.emplace_back("hypercube", make_hypercube(dim));
  out.emplace_back("erdos-renyi",
                   make_erdos_renyi(n, 8.0 / static_cast<double>(n), rng));
  out.emplace_back("near-regular", make_near_regular(n, 8, rng));
  out.emplace_back("hub", make_hub_augmented(n, 6, 2, rng));
  out.emplace_back("barabasi-albert", make_barabasi_albert(n, 4, rng));
  out.emplace_back("watts-strogatz", make_watts_strogatz(n, 4, 0.2, rng));
  // Not patched to connectivity: isolated vertices have empty rows.
  out.emplace_back("geometric", make_random_geometric(n, radius, rng).graph);
  out.emplace_back("double-star", make_double_star((n - 1) / 2).graph);
  out.emplace_back("double-star-cliques",
                   make_double_star_cliques((n + 13) / 16, 8).graph);
  out.emplace_back("bridged-cliques",
                   make_bridged_cliques(std::min<std::size_t>(n, 192) / 2)
                       .graph);
  out.emplace_back("shared-vertex-cliques",
                   make_shared_vertex_cliques(
                       (std::min<std::size_t>(n, 192) + 1) / 2)
                       .graph);
  return out;
}

TEST(GraphTables, MatchAccessorsOnEveryFamilyAndNaming) {
  Rng rng(2048);
  bool saw_dense = false, saw_sparse = false;
  // 2048 and 2049 straddle the cutoff of the n² port table graphs once
  // kept; every size now answers port_to by searching the row.
  for (const std::size_t target : {64, 2048, 2049}) {
    for (auto& [family, base] : every_family(target, rng)) {
      const std::size_t n = base.num_vertices();
      std::vector<std::pair<std::string, Graph>> namings;
      namings.emplace_back("shuffled-tight",
                           with_ids(base, shuffled_ids(n, rng)));
      namings.emplace_back("tight-slack",
                           with_ids(base, tight_ids(n, 3.0, rng)));
      namings.emplace_back("sparse", with_ids(base, sparse_ids(n, 2.0, rng)));
      namings.emplace_back("identity", std::move(base));
      for (const auto& [naming, g] : namings) {
        SCOPED_TRACE(family + " n=" + std::to_string(n) + " " + naming);
        EXPECT_TRUE(tables_match(g));
        (g.index_by_id().empty() ? saw_sparse : saw_dense) = true;
      }
    }
  }
  EXPECT_TRUE(saw_dense && saw_sparse);
}

TEST(GraphTables, ShuffledEdgeListsBuildAscendingRows) {
  // Rows come out ascending from the builder's edge order alone (there is
  // no per-row sort): feed it edges in random order, in both orientations,
  // with duplicates, and compare every row with a std::set reference.
  Rng rng(77, 3);
  for (const std::size_t n : {2, 3, 17, 500, 2048, 2049, 4000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::pair<VertexIndex, VertexIndex>> edges;
    const std::size_t draws = 6 * n;
    for (std::size_t i = 0; i < draws; ++i) {
      const auto u = static_cast<VertexIndex>(rng.below(n));
      const auto v = static_cast<VertexIndex>(rng.below(n));
      if (u == v) continue;
      edges.emplace_back(u, v);
      if (rng.bernoulli(0.25)) edges.emplace_back(v, u);  // duplicate
    }
    shuffle(edges, rng);
    std::vector<std::set<VertexIndex>> reference(n);
    GraphBuilder b(n);
    for (const auto& [u, v] : edges) {
      b.add_edge(u, v);
      reference[u].insert(v);
      reference[v].insert(u);
    }
    const Graph g = std::move(b).build(shuffled_ids(n, rng));
    std::size_t slots = 0;
    for (VertexIndex v = 0; v < n; ++v) {
      const auto row = g.neighbors(v);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), reference[v].begin(),
                             reference[v].end()))
          << "row " << v << " is not the ascending, duplicate-free set";
      slots += reference[v].size();
    }
    EXPECT_EQ(g.num_edges(), slots / 2);
    EXPECT_TRUE(tables_match(g));
  }
}

TEST(GraphTables, NonEdgesAndUnknownIdsStillThrow) {
  const Graph small = make_ring(8);
  EXPECT_THROW((void)small.port_to(0, 4), CheckError);
  const Graph large = make_ring(2049);
  EXPECT_THROW((void)large.port_to(0, 4), CheckError);
  Rng rng(3);
  const Graph sparse = with_ids(make_ring(8), sparse_ids(8, 4.0, rng));
  EXPECT_TRUE(sparse.index_by_id().empty());
  EXPECT_EQ(sparse.try_index_of(sparse.id_bound() + 1), kNoVertex);
  EXPECT_EQ(small.try_index_of(small.id_bound()), kNoVertex);
}

TEST(GraphTables, BuildHeapIsLinearInTheGraph) {
  // Every per-graph table is sized by n, m or the ID bound (n here), so
  // generating and building a graph requests O(n + m) bytes. Measured:
  // 1,006,504 bytes for n = 2048, m = 16,349 (~55 per vertex or edge);
  // 9,395,112 while graphs with n <= 2048 also kept an n² port table.
  const auto before = test::allocated_bytes();
  Rng rng(11, 5);
  const Graph g = make_near_regular(2048, 8, rng);
  const auto bytes = test::allocated_bytes() - before;
  const std::size_t bound = 64 * (g.num_vertices() + g.num_edges());
  EXPECT_LE(bytes, bound) << "building n = " << g.num_vertices()
                          << ", m = " << g.num_edges() << " requested "
                          << bytes << " bytes";
}

TEST(GraphTables, NeighborTableRowsServeExactNeighborViews) {
  // sim::NeighborTable is the row view over the per-slot tables: it must
  // serve exactly the neighbor-ID sequence, arrival ports and ID→index
  // mapping the graph defines.
  Rng graph_rng(23, 17);
  const Graph g = make_near_regular(32, 5, graph_rng);
  const sim::NeighborTable table(g);
  ASSERT_EQ(table.ids.size(), g.num_vertices());
  std::size_t rows = 0;
  for (const auto row : table.ids) rows += row.size() > 0;
  EXPECT_EQ(rows, g.num_vertices());
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(table.ids[v].size(), nbrs.size());
    ASSERT_EQ(table.rev[v].size(), nbrs.size());
    for (std::size_t port = 0; port < nbrs.size(); ++port) {
      EXPECT_EQ(table.ids[v][port], g.id_of(nbrs[port]));
      ASSERT_LT(table.ids[v][port], table.index_by_id.size());
      EXPECT_EQ(table.index_by_id[table.ids[v][port]], nbrs[port]);
      EXPECT_EQ(g.neighbors(nbrs[port])[table.rev[v][port]], v);
    }
  }
}

// Parameterized structural sweep: every random family, several sizes/seeds.
struct FamilyCase {
  const char* name;
  std::size_t n;
  std::uint64_t seed;
};

class RandomFamilyStructure
    : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(RandomFamilyStructure, InvariantsHold) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  Graph g;
  const std::string name = param.name;
  if (name == "er") {
    g = make_erdos_renyi(param.n, 8.0 / static_cast<double>(param.n), rng);
  } else if (name == "near_regular") {
    g = make_near_regular(param.n, 8, rng);
  } else {
    g = make_hub_augmented(param.n, 6, 2, rng);
  }
  EXPECT_TRUE(validate_structure(g));
  EXPECT_EQ(g.num_vertices(), param.n);
  std::size_t degree_sum = 0;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());  // handshake lemma
}

INSTANTIATE_TEST_SUITE_P(
    Families, RandomFamilyStructure,
    ::testing::Values(FamilyCase{"er", 64, 1}, FamilyCase{"er", 256, 2},
                      FamilyCase{"er", 1024, 3},
                      FamilyCase{"near_regular", 64, 4},
                      FamilyCase{"near_regular", 256, 5},
                      FamilyCase{"near_regular", 1024, 6},
                      FamilyCase{"hub", 64, 7}, FamilyCase{"hub", 256, 8},
                      FamilyCase{"hub", 1024, 9}),
    [](const auto& info) {
      return std::string(info.param.name) + "_n" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace fnr::graph
