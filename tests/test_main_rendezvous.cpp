// End-to-end tests of Theorem 1's algorithm (Construct + Main-Rendezvous),
// including the §4.1 doubling variant.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/wait_and_sweep.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"

namespace fnr::core {
namespace {

TEST(MainRendezvous, MeetsOnCompleteGraph) {
  const auto g = graph::make_complete(128);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto report = test::quick_run(g, Strategy::Whiteboard, seed);
    EXPECT_TRUE(report.run.met) << "seed " << seed;
  }
}

TEST(MainRendezvous, MeetsOnNearRegularGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto g = test::dense_graph(256, seed);
    const auto report = test::quick_run(g, Strategy::Whiteboard, seed * 7);
    EXPECT_TRUE(report.run.met) << "seed " << seed << " "
                                << report.describe();
  }
}

TEST(MainRendezvous, MeetsOnHubGraphs) {
  Rng rng(2);
  const auto g = graph::make_hub_augmented(256, 48, 4, rng);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto report = test::quick_run(g, Strategy::Whiteboard, seed);
    EXPECT_TRUE(report.run.met) << report.describe();
  }
}

TEST(MainRendezvous, TSetSatisfiesDenseCondition) {
  const auto g = test::dense_graph(256, 4);
  const auto report = test::quick_run(g, Strategy::Whiteboard, 11);
  ASSERT_TRUE(report.run.met);
  // If rendezvous happened before Construct finished, T^a is empty — the
  // dense-set claim only applies once construction completed.
  if (!report.agent_a.t_set_ids.empty()) {
    const double alpha = static_cast<double>(g.min_degree()) / 8.0;
    // T^a was built from a's start; recover it as the first vertex of the
    // placement we used in quick_run (seeded identically there).
    Rng rng(11, 3);
    const auto placement = sim::random_adjacent_placement(g, rng);
    EXPECT_TRUE(graph::is_dense_set(
        g, placement.a_start, test::to_indices(g, report.agent_a.t_set_ids),
        alpha, 2));
  }
}

TEST(MainRendezvous, MeetingInsideConstructReportsItsLiveCounters) {
  // A meeting before T^a is ready leaves t_set_size at 0; Construct's
  // counters must still show the work done so far, not zeros.
  const auto g = test::dense_graph(256, 4);
  int inside = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const auto report = test::quick_run(g, Strategy::Whiteboard, seed);
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

TEST(MainRendezvous, MeetingWithinTheoremBudget) {
  // Rounds <= construct budget + C * Theorem-1 probing bound, with a
  // generous constant C; this pins the asymptotic shape without relying on
  // the paper's worst-case constants.
  const auto params = Params::practical();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto g = test::dense_graph(512, seed + 10);
    const auto report = test::quick_run(g, Strategy::Whiteboard, seed);
    ASSERT_TRUE(report.run.met);
    const double budget =
        static_cast<double>(params.construct_round_budget(
            g.num_vertices(), static_cast<double>(g.min_degree()))) +
        32.0 * theorem1_bound(g.num_vertices(),
                              static_cast<double>(g.min_degree()),
                              static_cast<double>(g.max_degree()));
    EXPECT_LE(static_cast<double>(report.run.meeting_round), budget)
        << report.describe();
  }
}

TEST(MainRendezvous, FoundMarkOrMetDuringConstruction) {
  const auto g = test::dense_graph(256, 6);
  const auto report = test::quick_run(g, Strategy::Whiteboard, 3);
  ASSERT_TRUE(report.run.met);
  // Either a read one of b's marks, or the agents stumbled into each other
  // earlier (both are legitimate rendezvous).
  EXPECT_TRUE(report.agent_a.found_mark || report.run.meeting_round > 0);
}

TEST(MainRendezvous, AgentBKeepsMarking) {
  const auto g = test::dense_graph(256, 7);
  const auto report = test::quick_run(g, Strategy::Whiteboard, 9);
  ASSERT_TRUE(report.run.met);
  EXPECT_GT(report.agent_b_marks, 0u);
  EXPECT_GT(report.run.metrics.whiteboard_writes, 0u);
}

TEST(MainRendezvous, DeterministicGivenSeed) {
  const auto g = test::dense_graph(256, 12);
  const auto r1 = test::quick_run(g, Strategy::Whiteboard, 1234);
  const auto r2 = test::quick_run(g, Strategy::Whiteboard, 1234);
  EXPECT_EQ(r1.run.meeting_round, r2.run.meeting_round);
  EXPECT_EQ(r1.run.meeting_vertex, r2.run.meeting_vertex);
  EXPECT_EQ(r1.agent_a.construct.iterations, r2.agent_a.construct.iterations);
}

TEST(MainRendezvous, DifferentSeedsExploreDifferently) {
  const auto g = test::dense_graph(256, 12);
  const auto r1 = test::quick_run(g, Strategy::Whiteboard, 1);
  const auto r2 = test::quick_run(g, Strategy::Whiteboard, 2);
  // Not a strict requirement, but identical meeting rounds for different
  // seeds on a 256-vertex graph would indicate frozen randomness.
  EXPECT_TRUE(r1.run.meeting_round != r2.run.meeting_round ||
              r1.agent_a.main_probes != r2.agent_a.main_probes);
}

TEST(MainRendezvous, WorksWithPaperConstantsAtSmallN) {
  const auto g = graph::make_complete(64);
  const auto report =
      test::quick_run(g, Strategy::Whiteboard, 5, Params::paper());
  EXPECT_TRUE(report.run.met) << report.describe();
}

TEST(Doubling, MeetsWithoutKnowingDelta) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto g = test::dense_graph(256, seed + 20);
    const auto report =
        test::quick_run(g, Strategy::WhiteboardDoubling, seed * 13);
    EXPECT_TRUE(report.run.met) << "seed " << seed << " "
                                << report.describe();
  }
}

TEST(Doubling, EstimateStaysInSaneRange) {
  const auto g = test::dense_graph(256, 30);
  const auto report = test::quick_run(g, Strategy::WhiteboardDoubling, 8);
  ASSERT_TRUE(report.run.met);
  if (report.agent_a.t_set_size > 0) {
    // δ' starts at deg(v0^a)/2 <= Δ/2 and only shrinks; it never needs to go
    // below δ/2 (restarts stop once δ' < δ).
    EXPECT_GE(report.delta_used,
              static_cast<double>(g.min_degree()) / 4.0);
    EXPECT_LE(report.delta_used, static_cast<double>(g.max_degree()));
  }
}

TEST(Doubling, CostWithinConstantFactorOfKnownDelta) {
  // Corollary 2: the doubling variant pays only a constant factor. Compare
  // medians across seeds to suppress variance.
  const auto g = test::dense_graph(512, 31);
  std::vector<double> known, doubling;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    known.push_back(static_cast<double>(
        test::quick_run(g, Strategy::Whiteboard, seed).run.meeting_round));
    doubling.push_back(static_cast<double>(
        test::quick_run(g, Strategy::WhiteboardDoubling, seed)
            .run.meeting_round));
  }
  const double known_med = summarize(known).median;
  const double doubling_med = summarize(doubling).median;
  EXPECT_LE(doubling_med, 16.0 * known_med + 1024.0);
}

TEST(MainRendezvous, RespectsRoundCap) {
  const auto g = test::dense_graph(256, 40);
  Rng rng(5, 3);
  const auto placement = sim::random_adjacent_placement(g, rng);
  RendezvousOptions options;
  options.strategy = Strategy::Whiteboard;
  options.max_rounds = 5;  // far too small to finish Construct
  options.seed = 5;
  const auto report = run_rendezvous(g, placement, options);
  EXPECT_FALSE(report.run.met);
  EXPECT_LE(report.run.metrics.rounds, 5u);
}

TEST(MainRendezvous, RejectsNonAdjacentStarts) {
  const auto g = graph::make_path(4);
  RendezvousOptions options;
  EXPECT_THROW((void)run_rendezvous(g, sim::Placement{0, 3}, options),
               CheckError);
}

/// Cycles between its start u and the adjacent `target`, stamping `mark`
/// on target's whiteboard each visit — a stand-in for a foreign agent b
/// whose home is nowhere near agent a.
class ForeignStampAgent final : public sim::Agent {
 public:
  ForeignStampAgent(graph::VertexId target, graph::VertexId mark)
      : target_(target), mark_(mark) {}

  sim::Action step(const sim::View& view) override {
    if (view.here() != target_) return sim::Action::move(view.port_of(target_));
    sim::Action action;
    action.whiteboard_write = mark_;
    action.move_port = *view.arrival_port();  // back to u
    return action;
  }

 private:
  graph::VertexId target_;
  graph::VertexId mark_;
};

TEST(MainRendezvous, ForeignMarksAreCountedSkippedAndNeverDereferenced) {
  // The k-agent hazard the paper's two-agent instance cannot produce: a
  // reads a mark naming a vertex OUTSIDE its home neighborhood. The stamp
  // agent keeps writing the ID of the far vertex 4 onto a's home (vertex 1,
  // whose closed neighborhood is {0, 1, 2}); a must count the mark as
  // foreign, keep probing (never enter Sit / plan a route to 4 — it has
  // none), and finish the run without touching unknown state (the ASan CI
  // job turns any dereference into a failure).
  graph::GraphBuilder builder(5);
  for (graph::VertexIndex v = 0; v + 1 < 5; ++v) builder.add_edge(v, v + 1);
  const auto g = std::move(builder).build_identity_ids();

  sim::Scheduler scheduler(g, sim::Model::full());
  WhiteboardAgentA a(Params::practical(), /*known_delta=*/1.0, Rng(3, 1));
  ForeignStampAgent stamp(/*target=*/1, /*mark=*/4);
  baselines::WaitingAgent waiter;

  sim::ScenarioPlacement placement;
  placement.starts = {1, 0, 4};
  // All-meet gathering so a and the stamp agent co-locating on vertex 1
  // does not end the run (the waiter at 4 never joins). Construct needs
  // ~400 rounds on this path; 2000 leaves the Main phase plenty of probes.
  const auto result = scheduler.run_scenario({&a, &stamp, &waiter}, placement,
                                             sim::Gathering::All, 2000);
  EXPECT_FALSE(result.met);
  EXPECT_GE(a.stats().foreign_marks, 1u);
  EXPECT_FALSE(a.stats().found_mark);  // a foreign mark is not a find
}

}  // namespace
}  // namespace fnr::core
