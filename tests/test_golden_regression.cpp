// Golden-value regression: per-strategy aggregate statistics and one full
// scheduler trace, pinned on fixed seeds.
//
// The expected values below were captured from the PRE-scenario-engine
// synchronous two-agent scheduler (the seed of this PR), so they guard the
// acceptance invariant "a k = 2, delay = 0 scenario reproduces the
// pre-change synchronous scheduler output bit-for-bit" — through three
// paths: core::run_trials aggregates, a single run_rendezvous trace, and the
// same trace replayed through the scenario engine's sync-pair descriptor.
// If any of these numbers move, a refactor silently shifted the simulated
// distributions; that must be a deliberate, documented change.
#include <gtest/gtest.h>

#include <iterator>

#include "fault/fault.hpp"
#include "scenario/run.hpp"
#include "test_support.hpp"

namespace fnr {
namespace {

/// The exact graph the goldens were captured on: near-regular, n = 128,
/// out-degree 36 (≈ n^0.75 without touching libm), Rng(5, 17).
graph::Graph golden_graph() {
  Rng rng(5, 17);
  return graph::make_near_regular(128, 36, rng);
}

struct GoldenAggregate {
  core::Strategy strategy;
  std::uint64_t successes;
  double rounds_mean;
  double rounds_median;
  double rounds_p90;
  double rounds_p95;
  double rounds_min;
  double rounds_max;
  double rounds_stddev;
  std::uint64_t total_marks;
  double mean_marks;
  double mean_moves_a;
  double mean_moves_b;
};

// Captured 2026-07-29 from commit ab6a24f (pre-change build), seed 33,
// 24 trials, printed with %.17g.
constexpr GoldenAggregate kGoldenAggregates[] = {
    {core::Strategy::Whiteboard, 24, 127.54166666666667, 93.0,
     295.79999999999995, 312.29999999999995, 3.0, 347.0, 113.64283453249354,
     1533, 63.875, 127.54166666666667, 126.66666666666667},
    {core::Strategy::WhiteboardDoubling, 24, 127.54166666666667, 93.0,
     295.79999999999995, 312.29999999999995, 3.0, 347.0, 113.64283453249354,
     1533, 63.875, 127.54166666666667, 126.66666666666667},
    {core::Strategy::NoWhiteboard, 24, 107.16666666666667, 113.0,
     205.79999999999998, 226.59999999999997, 3.0, 319.0, 77.770938277609275,
     0, 0.0, 107.16666666666667, 0.0},
};

TEST(GoldenRegression, PerStrategyAggregatesOnFixedSeeds) {
  const auto g = golden_graph();
  for (const auto& golden : kGoldenAggregates) {
    core::RendezvousOptions options;
    options.seed = 33;
    const auto agg =
        core::run_trials(golden.strategy, g, options, 24, 1u).aggregate();
    SCOPED_TRACE(core::to_string(golden.strategy));
    EXPECT_EQ(agg.trials, 24u);
    EXPECT_EQ(agg.successes, golden.successes);
    EXPECT_EQ(agg.failures, 24u - golden.successes);
    EXPECT_DOUBLE_EQ(agg.rounds.mean, golden.rounds_mean);
    EXPECT_DOUBLE_EQ(agg.rounds.median, golden.rounds_median);
    EXPECT_DOUBLE_EQ(agg.rounds.p90, golden.rounds_p90);
    EXPECT_DOUBLE_EQ(agg.rounds.p95, golden.rounds_p95);
    EXPECT_DOUBLE_EQ(agg.rounds.min, golden.rounds_min);
    EXPECT_DOUBLE_EQ(agg.rounds.max, golden.rounds_max);
    EXPECT_DOUBLE_EQ(agg.rounds.stddev, golden.rounds_stddev);
    EXPECT_EQ(agg.total_marks, golden.total_marks);
    EXPECT_DOUBLE_EQ(agg.mean_marks, golden.mean_marks);
    EXPECT_DOUBLE_EQ(agg.mean_moves_a, golden.mean_moves_a);
    EXPECT_DOUBLE_EQ(agg.mean_moves_b, golden.mean_moves_b);
  }
}

struct GoldenTrace {
  core::Strategy strategy;
  std::uint64_t meeting_round;
  graph::VertexIndex meeting_vertex;
  std::uint64_t rounds;
  std::uint64_t moves_a;
  std::uint64_t moves_b;
  std::uint64_t wb_reads;
  std::uint64_t wb_writes;
  std::size_t wb_used;
};

// Captured from the same pre-change build: seed 2024, placement drawn with
// Rng(2024, 3). (Whiteboard and its doubling variant happen to follow the
// same trajectory on this instance — the doubling estimate never restarts.)
constexpr GoldenTrace kGoldenTraces[] = {
    {core::Strategy::Whiteboard, 67, 124, 67, 67, 66, 0, 34, 25},
    {core::Strategy::WhiteboardDoubling, 67, 124, 67, 67, 66, 0, 34, 25},
    {core::Strategy::NoWhiteboard, 67, 124, 67, 67, 0, 0, 0, 0},
};

void expect_matches(const sim::RunResult& run, const GoldenTrace& golden) {
  EXPECT_TRUE(run.met);
  EXPECT_EQ(run.meeting_round, golden.meeting_round);
  EXPECT_EQ(run.meeting_vertex, golden.meeting_vertex);
  EXPECT_EQ(run.metrics.rounds, golden.rounds);
  EXPECT_EQ(run.metrics.moves_of(sim::AgentName::A), golden.moves_a);
  EXPECT_EQ(run.metrics.moves_of(sim::AgentName::B), golden.moves_b);
  EXPECT_EQ(run.metrics.whiteboard_reads, golden.wb_reads);
  EXPECT_EQ(run.metrics.whiteboard_writes, golden.wb_writes);
  EXPECT_EQ(run.metrics.whiteboards_used, golden.wb_used);
}

TEST(GoldenRegression, SingleRunTracesOnFixedSeed) {
  const auto g = golden_graph();
  for (const auto& golden : kGoldenTraces) {
    SCOPED_TRACE(core::to_string(golden.strategy));
    Rng rng(2024, 3);
    const auto placement = sim::random_adjacent_placement(g, rng);
    core::RendezvousOptions options;
    options.strategy = golden.strategy;
    options.seed = 2024;
    const auto report = core::run_rendezvous(g, placement, options);
    expect_matches(report.run, golden);
    // The paper's two-agent distance-1 invariant: every mark a reads names
    // a neighbor of home. Foreign marks exist only in k-agent scenarios.
    EXPECT_EQ(report.agent_a.foreign_marks, 0u);
  }
}

TEST(GoldenRegression, SyncPairScenarioReproducesPreChangeTraces) {
  // The same traces through the scenario engine: sync-pair, k = 2, zero
  // delay, same per-agent seed split as run_rendezvous. Bit-for-bit.
  const auto g = golden_graph();
  const auto& sync = scenario::find_scenario("sync-pair");
  const scenario::Program programs[] = {scenario::find_program("whiteboard"),
                                        scenario::find_program("whiteboard+doubling"),
                                        scenario::find_program("no-whiteboard")};
  for (std::size_t i = 0; i < std::size(kGoldenTraces); ++i) {
    SCOPED_TRACE(scenario::to_string(programs[i]));
    Rng rng(2024, 3);
    const auto pair = sim::random_adjacent_placement(g, rng);
    sim::ScenarioPlacement placement;
    placement.starts = {pair.a_start, pair.b_start};
    scenario::ScenarioOptions options;
    options.seed = 2024;
    const auto report =
        scenario::run_scenario(sync, programs[i], g, placement, options);
    ASSERT_EQ(report.run.agents.size(), 2u);
    expect_matches(report.run.to_run_result(), kGoldenTraces[i]);
  }
}

// --- swarm gathering goldens ------------------------------------------------

/// Per-trial swarm trace: did trial t meet, at which round, with how many
/// agents co-located on the meeting vertex.
struct GoldenSwarmTrial {
  bool met;
  std::uint64_t meeting_round;
  std::uint64_t gathered_count;
};

struct GoldenSwarmCell {
  sim::Gathering gathering;
  std::uint64_t successes;
  double rounds_mean;
  double rounds_min;
  double rounds_max;
  double rounds_stddev;
  double mean_gathered;
  double mean_moves_a;
  double mean_moves_b;
  GoldenSwarmTrial trials[12];
};

// Captured 2026-08-08 from the build that introduced quorum/fraction
// gathering: explore-rally, k = 6 dropped anywhere on golden_graph(), zero
// delay, seed 77, 12 trials, printed with %.17g. Quorum(3) and
// Fraction(0.5) resolve to the same threshold at k = 6, so their rows are
// deliberately identical — divergence means threshold() broke, not that one
// row is redundant. The All row pins the same trials under the strictest
// predicate (and is where the per-trial rounds actually spread out).
const GoldenSwarmCell kGoldenSwarmCells[] = {
    {sim::Gathering::quorum_of(3), 12, 1.0833333333333333, 1.0, 2.0,
     0.28867513459481287, 3.6666666666666665, 1.0833333333333333,
     5.416666666666667,
     {{true, 2, 3}, {true, 1, 4}, {true, 1, 4}, {true, 1, 3}, {true, 1, 4},
      {true, 1, 4}, {true, 1, 3}, {true, 1, 4}, {true, 1, 4}, {true, 1, 3},
      {true, 1, 3}, {true, 1, 5}}},
    {sim::Gathering::fraction_of(0.5), 12, 1.0833333333333333, 1.0, 2.0,
     0.28867513459481287, 3.6666666666666665, 1.0833333333333333,
     5.416666666666667,
     {{true, 2, 3}, {true, 1, 4}, {true, 1, 4}, {true, 1, 3}, {true, 1, 4},
      {true, 1, 4}, {true, 1, 3}, {true, 1, 4}, {true, 1, 4}, {true, 1, 3},
      {true, 1, 3}, {true, 1, 5}}},
    {sim::Gathering::All, 12, 40.083333333333336, 2.0, 256.0,
     70.309004121848147, 6.0, 40.0, 200.16666666666666,
     {{true, 15, 6}, {true, 15, 6}, {true, 15, 6}, {true, 15, 6},
      {true, 2, 6}, {true, 74, 6}, {true, 29, 6}, {true, 256, 6},
      {true, 15, 6}, {true, 15, 6}, {true, 15, 6}, {true, 15, 6}}},
};

TEST(GoldenRegression, QuorumAndFractionGatheringOnFixedSeeds) {
  const auto g = golden_graph();
  const auto program = scenario::find_program("explore-rally");
  scenario::Scenario scen;
  scen.name = "golden-swarm";
  scen.summary = "golden swarm cell";
  scen.num_agents = 6;
  scen.placement = scenario::PlacementModel::RandomDistinct;
  scen.delay = scenario::DelayModel::None;
  for (const auto& golden : kGoldenSwarmCells) {
    SCOPED_TRACE(sim::to_string(golden.gathering));
    scen.gathering = golden.gathering;
    scenario::ScenarioOptions options;
    options.seed = 77;
    const runner::TrialRunner trial_runner(runner::RunnerOptions{1});
    const auto acc = scenario::run_scenario_trials(scen, program, g, options,
                                                   12, trial_runner);
    const auto agg = acc.aggregate();
    EXPECT_EQ(agg.trials, 12u);
    EXPECT_EQ(agg.successes, golden.successes);
    EXPECT_DOUBLE_EQ(agg.rounds.mean, golden.rounds_mean);
    EXPECT_DOUBLE_EQ(agg.rounds.min, golden.rounds_min);
    EXPECT_DOUBLE_EQ(agg.rounds.max, golden.rounds_max);
    EXPECT_DOUBLE_EQ(agg.rounds.stddev, golden.rounds_stddev);
    EXPECT_DOUBLE_EQ(agg.mean_gathered, golden.mean_gathered);
    EXPECT_DOUBLE_EQ(agg.mean_moves_a, golden.mean_moves_a);
    EXPECT_DOUBLE_EQ(agg.mean_moves_b, golden.mean_moves_b);
    EXPECT_EQ(agg.total_marks, 0u);  // GatherAtMin writes no whiteboards
    const auto outcomes = acc.sorted_outcomes();
    ASSERT_EQ(outcomes.size(), std::size(golden.trials));
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      EXPECT_EQ(outcomes[t].met, golden.trials[t].met) << "trial " << t;
      EXPECT_EQ(outcomes[t].meeting_round, golden.trials[t].meeting_round)
          << "trial " << t;
      EXPECT_EQ(outcomes[t].gathered_count, golden.trials[t].gathered_count)
          << "trial " << t;
    }
  }
}

// --- explore-rally under faults ---------------------------------------------

struct GoldenFaultCell {
  const char* fault;
  std::uint64_t successes;
  double rounds_mean;
  double rounds_min;
  double rounds_max;
  double rounds_stddev;
  double mean_gathered;
  double mean_moves_a;
  double mean_moves_b;
  fault::FaultStats totals;  ///< summed over the 12 trials
  GoldenSwarmTrial trials[12];
};

// Captured 2026-10-18 from commit 6b0babf (explore-rally still planning
// its hops by ID): the predefined swarm-fraction scenario (k = 12, half the
// swarm on one vertex) on a sparse near-regular graph, n = 96, out-degree
// 4, Rng(5, 17); seed 77, 12 trials, printed with %.17g. Crashes revive
// agents in the middle of their walks and churn makes them retry blocked
// hops, so these pin the agent's root, parent-port and rally-route
// bookkeeping under both faults.
const GoldenFaultCell kGoldenFaultCells[] = {
    {"crash?rate=0.002&downtime=4", 12, 197.66666666666666, 192.0, 253.0,
     17.432119431635037, 7.0, 196.16666666666666, 2131.4166666666665,
     fault::FaultStats{57, 56, 0, 0, 0, 0},
     {{true, 193, 8}, {true, 193, 6}, {true, 253, 6}, {true, 192, 7},
      {true, 193, 8}, {true, 192, 6}, {true, 192, 6}, {true, 193, 8},
      {true, 193, 9}, {true, 193, 7}, {true, 192, 6}, {true, 193, 7}}},
    {"churn?rate=0.05", 12, 142.0, 5.0, 204.0, 87.059018644094124,
     6.416666666666667, 133.75, 1483.25,
     fault::FaultStats{0, 0, 0, 0, 0, 970},
     {{true, 31, 6}, {true, 5, 6}, {true, 44, 7}, {true, 199, 6},
      {true, 203, 7}, {true, 19, 6}, {true, 202, 7}, {true, 195, 6},
      {true, 200, 7}, {true, 201, 6}, {true, 204, 6}, {true, 201, 7}}},
};

TEST(GoldenRegression, ExploreRallySwarmUnderCrashAndChurn) {
  Rng rng(5, 17);
  const auto g = graph::make_near_regular(96, 4, rng);
  const auto program = scenario::find_program("explore-rally");
  const auto& scen = scenario::find_scenario("swarm-fraction");
  for (const auto& golden : kGoldenFaultCells) {
    SCOPED_TRACE(golden.fault);
    scenario::ScenarioOptions options;
    options.seed = 77;
    options.fault = fault::FaultPlan::parse(golden.fault);
    const runner::TrialRunner trial_runner(runner::RunnerOptions{1});
    const auto acc = scenario::run_scenario_trials(scen, program, g, options,
                                                   12, trial_runner);
    const auto agg = acc.aggregate();
    EXPECT_EQ(agg.trials, 12u);
    EXPECT_EQ(agg.successes, golden.successes);
    EXPECT_DOUBLE_EQ(agg.rounds.mean, golden.rounds_mean);
    EXPECT_DOUBLE_EQ(agg.rounds.min, golden.rounds_min);
    EXPECT_DOUBLE_EQ(agg.rounds.max, golden.rounds_max);
    EXPECT_DOUBLE_EQ(agg.rounds.stddev, golden.rounds_stddev);
    EXPECT_DOUBLE_EQ(agg.mean_gathered, golden.mean_gathered);
    EXPECT_DOUBLE_EQ(agg.mean_moves_a, golden.mean_moves_a);
    EXPECT_DOUBLE_EQ(agg.mean_moves_b, golden.mean_moves_b);
    const auto& got = agg.fault_totals;
    EXPECT_EQ(got.crashes, golden.totals.crashes);
    EXPECT_EQ(got.restarts, golden.totals.restarts);
    EXPECT_EQ(got.writes_dropped, golden.totals.writes_dropped);
    EXPECT_EQ(got.wipes, golden.totals.wipes);
    EXPECT_EQ(got.stale_reads, golden.totals.stale_reads);
    EXPECT_EQ(got.moves_blocked, golden.totals.moves_blocked);
    const auto outcomes = acc.sorted_outcomes();
    ASSERT_EQ(outcomes.size(), std::size(golden.trials));
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      EXPECT_EQ(outcomes[t].met, golden.trials[t].met) << "trial " << t;
      EXPECT_EQ(outcomes[t].meeting_round, golden.trials[t].meeting_round)
          << "trial " << t;
      EXPECT_EQ(outcomes[t].gathered_count, golden.trials[t].gathered_count)
          << "trial " << t;
    }
  }
}

}  // namespace
}  // namespace fnr
