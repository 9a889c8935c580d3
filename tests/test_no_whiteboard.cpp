// Theorem 2 / Algorithm 4: schedule arithmetic, Φ-set properties, and
// end-to-end whiteboard-free rendezvous.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/no_whiteboard.hpp"
#include "graph/id_space.hpp"
#include "test_support.hpp"

namespace fnr::core {
namespace {

TEST(NoWbSchedule, ArithmeticIsConsistent) {
  const auto params = Params::practical();
  const auto s = NoWbSchedule::make(1024, 1024, 64.0, params);
  EXPECT_EQ(s.beta, 8u);                       // ceil(sqrt(64))
  EXPECT_EQ(s.num_blocks, 128u);               // 1024 / 8
  EXPECT_GE(s.a_wait, 2 * params.b_pass_rounds(1024));
  EXPECT_EQ(s.phase_end(0), s.t_start + s.phase_len);
  EXPECT_EQ(s.total_rounds(), s.t_start + s.num_blocks * s.phase_len);
}

TEST(NoWbSchedule, BlocksCoverRaggedIdSpace) {
  const auto params = Params::practical();
  // id_bound not divisible by beta: the last block is short but must exist.
  const auto s = NoWbSchedule::make(100, 103, 100.0, params);
  EXPECT_EQ(s.beta, 10u);
  EXPECT_EQ(s.num_blocks, 11u);
}

TEST(BuildBlocks, PartitionsSortsAndTruncates) {
  NoWbSchedule s;
  s.beta = 10;
  s.num_blocks = 3;
  s.block_cap = 2;
  const auto blocks = build_blocks({25, 3, 21, 7, 1, 23, 29}, s);
  // One flat array: block i is ids[offsets[i], offsets[i + 1]).
  EXPECT_EQ(blocks.ids, (std::vector<graph::VertexId>{1, 3, 21, 23}));
  EXPECT_EQ(blocks.offsets, (std::vector<std::size_t>{0, 2, 2, 4}));
  const auto first = blocks.block(0);  // truncated
  EXPECT_EQ(std::vector<graph::VertexId>(first.begin(), first.end()),
            (std::vector<graph::VertexId>{1, 3}));
  EXPECT_TRUE(blocks.block(1).empty());
  const auto last = blocks.block(2);
  EXPECT_EQ(std::vector<graph::VertexId>(last.begin(), last.end()),
            (std::vector<graph::VertexId>{21, 23}));
  // An empty Φ still has every block, all empty.
  EXPECT_EQ(build_blocks({}, s).offsets, (std::vector<std::size_t>(4, 0)));
}

TEST(BuildBlocks, RejectsOutOfSpaceIds) {
  NoWbSchedule s;
  s.beta = 10;
  s.num_blocks = 2;
  s.block_cap = 5;
  EXPECT_THROW((void)build_blocks({25}, s), CheckError);
}

TEST(NoWhiteboard, MeetsOnNearRegularGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto g = test::dense_graph(256, seed + 50);
    const auto report = test::quick_run(g, Strategy::NoWhiteboard, seed * 3);
    EXPECT_TRUE(report.run.met) << "seed " << seed << " "
                                << report.describe();
    EXPECT_EQ(report.run.metrics.whiteboard_writes, 0u);
    EXPECT_EQ(report.run.metrics.whiteboard_reads, 0u);
  }
}

TEST(NoWhiteboard, MeetingInsideConstructReportsItsLiveCounters) {
  // As for the whiteboard agent: a meeting before T^a is ready still
  // reports the Construct work done so far.
  const auto g = test::dense_graph(256, 60);
  int inside = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const auto report = test::quick_run(g, Strategy::NoWhiteboard, seed);
    if (!report.run.met || report.agent_a.t_set_size != 0) continue;
    ++inside;
    const ConstructStats& construct = report.agent_a.construct;
    EXPECT_GT(construct.sample_visits + construct.probe_visits, 0u)
        << "seed " << seed << " " << report.describe();
    EXPECT_EQ(construct.rounds_used, 0u);  // set when Construct finishes
    EXPECT_GT(report.agent_a.delta_hat_final, 0.0)
        << "seed " << seed << " " << report.describe();
  }
  EXPECT_GT(inside, 0) << "no seed met inside Construct";
}

TEST(NoWhiteboard, MeetsOnCompleteGraph) {
  const auto g = graph::make_complete(128);
  const auto report = test::quick_run(g, Strategy::NoWhiteboard, 5);
  EXPECT_TRUE(report.run.met) << report.describe();
}

TEST(NoWhiteboard, MeetingAfterSynchronizedStart) {
  // Unless the agents stumbled into each other during Construct, the
  // meeting must happen inside the phase schedule, i.e. after t'.
  const auto g = test::dense_graph(256, 60);
  const auto report = test::quick_run(g, Strategy::NoWhiteboard, 21);
  ASSERT_TRUE(report.run.met);
  const auto schedule = NoWbSchedule::make(
      g.num_vertices(), g.id_bound(), report.delta_used,
      Params::practical());
  if (report.run.meeting_round > schedule.t_start) {
    EXPECT_LE(report.run.meeting_round, schedule.total_rounds() + 1);
  }
}

TEST(NoWhiteboard, RequiresTightNaming) {
  Rng rng(3);
  const auto base = test::dense_graph(128, 70);
  const auto sparse = graph::with_ids(
      base, graph::sparse_ids(base.num_vertices(), 2.0, rng));
  Rng placement_rng(3, 3);
  const auto placement = sim::random_adjacent_placement(sparse, placement_rng);
  RendezvousOptions options;
  options.strategy = Strategy::NoWhiteboard;
  EXPECT_THROW((void)run_rendezvous(sparse, placement, options), CheckError);
}

TEST(NoWhiteboard, WorksUnderShuffledTightNaming) {
  // Tight naming with slack 2 (IDs random in [0, 2n)) must still work.
  Rng rng(9);
  const auto base = test::dense_graph(256, 80);
  const auto renamed = graph::with_ids(
      base, graph::tight_ids(base.num_vertices(), 2.0, rng));
  const auto report = test::quick_run(renamed, Strategy::NoWhiteboard, 31);
  EXPECT_TRUE(report.run.met) << report.describe();
}

TEST(NoWhiteboard, DeterministicGivenSeed) {
  const auto g = test::dense_graph(256, 90);
  const auto r1 = test::quick_run(g, Strategy::NoWhiteboard, 77);
  const auto r2 = test::quick_run(g, Strategy::NoWhiteboard, 77);
  EXPECT_EQ(r1.run.meeting_round, r2.run.meeting_round);
  EXPECT_EQ(r1.run.meeting_vertex, r2.run.meeting_vertex);
}

TEST(NoWhiteboard, PhasesUsedStaysInSchedule) {
  const auto g = test::dense_graph(256, 95);
  const auto report = test::quick_run(g, Strategy::NoWhiteboard, 41);
  ASSERT_TRUE(report.run.met);
  const auto schedule = NoWbSchedule::make(
      g.num_vertices(), g.id_bound(), report.delta_used,
      Params::practical());
  EXPECT_LE(report.agent_a.phases_used, schedule.num_blocks);
}

TEST(NoWbOracle, RowsAreTheGraphsRowsInPortOrder) {
  // The oracle's routes take their ports from the row indexes, so every row
  // must be x's row in port order, as the graph stores it.
  Rng rng(4, 4);
  const auto g = graph::with_ids(test::dense_graph(128, 12),
                                 graph::shuffled_ids(128, rng));
  const auto oracle = NoWbOracle::from_graph(g, 5);
  EXPECT_TRUE(oracle.enabled);
  ASSERT_EQ(oracle.two_ball.size(), g.degree(5));
  for (std::size_t p = 0; p < oracle.two_ball.size(); ++p) {
    const auto& [x, row] = oracle.two_ball[p];
    EXPECT_EQ(x, g.neighbor_ids(5)[p]);
    const auto want = g.neighbor_ids(g.index_of(x));
    EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
        << "row of " << x;
  }
}

TEST(NoWbOracle, PhaseScheduleMeetsOnOracleRoutes) {
  // exp05's ablation: the oracle map and an unsynchronized start. Every
  // tour hop, two-hop ones included, runs on the oracle's ports; a port
  // that led elsewhere would fail the run with a CheckError.
  const auto g = test::dense_graph(256, 44);
  const auto params = Params::practical();
  const double delta = static_cast<double>(g.min_degree());
  const auto schedule =
      NoWbSchedule::make(g.num_vertices(), g.id_bound(), delta, params);
  sim::Scheduler scheduler(g, sim::Model::no_whiteboards());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng placement_rng(seed, 3);
    const auto placement = sim::random_adjacent_placement(g, placement_rng);
    Rng agent_seed(seed);
    NoWhiteboardAgentA agent_a(params, delta, agent_seed.split(),
                               NoWbOracle::from_graph(g, placement.a_start));
    NoWhiteboardAgentB agent_b(params, delta, agent_seed.split(),
                               /*synchronized_start=*/false);
    const auto result = scheduler.run(agent_a, agent_b, placement,
                                      4 * schedule.total_rounds() + 1024);
    EXPECT_TRUE(result.met) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fnr::core
