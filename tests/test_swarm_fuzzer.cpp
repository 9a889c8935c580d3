// Randomized property fuzzer for the swarm gathering engine. Each iteration
// draws a random cell — k up to 4096 agents, a random wake-delay model, a
// random quorum — and checks algebraic identities the predicates must
// satisfy regardless of k, program, or topology:
//
//   AnyPair        ≡ Quorum(2)       (bit-identical trials)
//   All            ≡ Fraction(1.0)   (bit-identical trials)
//   Quorum(q)      monotone in q     (a larger quorum never meets earlier)
//   extending the round budget never changes an already-found meeting
//   occupancy counters stay consistent (self-check recount every round)
//
// Every cell pins max_rounds explicitly: the auto cap scales with the
// gathering threshold, so predicate pairs would otherwise run under
// different budgets and the equivalences would be vacuously incomparable.
// Seeds are fixed — "fuzz" here means breadth of drawn cells, with every
// failure exactly reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "graph/generators.hpp"
#include "runner/trial_runner.hpp"
#include "scenario/program_registry.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "sim/model.hpp"
#include "sim/scheduler.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace fnr {
namespace {

constexpr std::uint64_t kFuzzSeed = 20260808;
constexpr int kIterations = 10;
constexpr std::uint64_t kRoundBudget = 1536;

/// One random swarm cell: k agents dropped anywhere on a 256-vertex torus
/// under a random delay model. Gathering is filled in by each property.
/// k is drawn log-uniform so small crowds (where predicates actually
/// diverge round-by-round) dominate, but every scale up to a full graph
/// appears; the dedicated 4096-agent cell lives in its own test below.
scenario::Scenario random_cell(Rng& rng) {
  scenario::Scenario scen;
  scen.name = "fuzz-cell";
  scen.summary = "randomized swarm fuzz cell";
  const std::uint64_t scale = std::uint64_t{1} << (1 + rng.below(8));
  scen.num_agents = std::min<std::size_t>(
      2 + static_cast<std::size_t>(rng.below(scale)), 256);  // skewed low
  scen.placement = scenario::PlacementModel::RandomDistinct;
  switch (rng.below(3)) {
    case 0:
      scen.delay = scenario::DelayModel::None;
      break;
    case 1:
      scen.delay = scenario::DelayModel::RandomUniform;
      scen.max_delay = 1 + rng.below(32);
      break;
    default:
      scen.delay = scenario::DelayModel::Adversarial;
      scen.max_delay = 1 + rng.below(32);
      break;
  }
  return scen;
}

runner::TrialAccumulator run_cell(const scenario::Scenario& scen,
                                  const graph::Graph& g, std::uint64_t seed,
                                  std::uint64_t max_rounds = kRoundBudget) {
  const auto program = scenario::find_program("explore-rally");
  scenario::ScenarioOptions options;
  options.seed = seed;
  options.max_rounds = max_rounds;
  const runner::TrialRunner trial_runner(runner::RunnerOptions{1});
  return scenario::run_scenario_trials(scen, program, g, options,
                                       /*n_trials=*/2, trial_runner);
}

TEST(SwarmFuzzer, AnyPairIsQuorumTwoAndAllIsFractionOne) {
  const auto g = graph::make_torus(16, 16);
  Rng rng(kFuzzSeed, 1);
  for (int iter = 0; iter < kIterations; ++iter) {
    scenario::Scenario scen = random_cell(rng);
    const std::uint64_t seed = rng();

    scen.gathering = sim::Gathering::AnyPair;
    const auto any_pair = run_cell(scen, g, seed);
    scen.gathering = sim::Gathering::quorum_of(2);
    const auto quorum_two = run_cell(scen, g, seed);
    EXPECT_TRUE(test::bits_equal(any_pair.aggregate(), quorum_two.aggregate()))
        << "iter " << iter << " k=" << scen.num_agents
        << ": AnyPair != Quorum(2)";

    scen.gathering = sim::Gathering::All;
    const auto all = run_cell(scen, g, seed);
    scen.gathering = sim::Gathering::fraction_of(1.0);
    const auto fraction_one = run_cell(scen, g, seed);
    EXPECT_TRUE(test::bits_equal(all.aggregate(), fraction_one.aggregate()))
        << "iter " << iter << " k=" << scen.num_agents
        << ": All != Fraction(1.0)";
  }
}

TEST(SwarmFuzzer, QuorumIsMonotoneAndMeetingsSurviveLongerBudgets) {
  const auto g = graph::make_torus(16, 16);
  Rng rng(kFuzzSeed, 2);
  for (int iter = 0; iter < kIterations; ++iter) {
    scenario::Scenario scen = random_cell(rng);
    const std::uint64_t seed = rng();
    const std::uint64_t q_small = 2 + rng.below(scen.num_agents - 1);
    const std::uint64_t q_large =
        q_small + rng.below(scen.num_agents - q_small + 1);

    scen.gathering = sim::Gathering::quorum_of(q_small);
    const auto small = run_cell(scen, g, seed).sorted_outcomes();
    scen.gathering = sim::Gathering::quorum_of(q_large);
    const auto large = run_cell(scen, g, seed).sorted_outcomes();
    ASSERT_EQ(small.size(), large.size());
    for (std::size_t t = 0; t < small.size(); ++t) {
      // q' >= q: any q'-gathering is also a q-gathering, so the smaller
      // quorum can only meet earlier (or when the larger one missed).
      if (large[t].met) {
        EXPECT_TRUE(small[t].met) << "iter " << iter << " trial " << t;
        EXPECT_LE(small[t].meeting_round, large[t].meeting_round)
            << "iter " << iter << " trial " << t << " (q " << q_small
            << " vs " << q_large << ")";
      }
    }

    // Extending the budget only appends rounds: a meeting found under the
    // short cap must recur at the identical round under the long cap.
    scen.gathering = sim::Gathering::quorum_of(q_small);
    const auto longer =
        run_cell(scen, g, seed, kRoundBudget * 3).sorted_outcomes();
    ASSERT_EQ(small.size(), longer.size());
    for (std::size_t t = 0; t < small.size(); ++t) {
      if (!small[t].met) continue;
      EXPECT_TRUE(longer[t].met) << "iter " << iter << " trial " << t;
      EXPECT_EQ(small[t].meeting_round, longer[t].meeting_round)
          << "iter " << iter << " trial " << t;
      EXPECT_EQ(small[t].gathered_count, longer[t].gathered_count)
          << "iter " << iter << " trial " << t;
    }
  }
}

TEST(SwarmFuzzer, MaxScaleCellHoldsTheQuorumTwoIdentity) {
  // The upper end of the fuzz range in one deliberate cell: k = 4096 agents
  // saturating a 4096-vertex torus. At that density AnyPair resolves almost
  // immediately, so a short budget suffices — the point is that the
  // occupancy engine and the predicate algebra survive full saturation.
  const auto g = graph::make_torus(64, 64);
  scenario::Scenario scen;
  scen.name = "fuzz-max";
  scen.summary = "saturated torus";
  scen.num_agents = 4096;
  scen.placement = scenario::PlacementModel::RandomDistinct;
  scen.delay = scenario::DelayModel::None;

  scen.gathering = sim::Gathering::AnyPair;
  const auto any_pair = run_cell(scen, g, kFuzzSeed, /*max_rounds=*/256);
  scen.gathering = sim::Gathering::quorum_of(2);
  const auto quorum_two = run_cell(scen, g, kFuzzSeed, /*max_rounds=*/256);
  EXPECT_TRUE(test::bits_equal(any_pair.aggregate(), quorum_two.aggregate()));
  for (const auto& outcome : any_pair.sorted_outcomes()) {
    EXPECT_TRUE(outcome.met);
    EXPECT_GE(outcome.gathered_count, 2u);
  }
}

TEST(SwarmFuzzer, OccupancySelfCheckRunsCleanOnRandomCells) {
  // set_occupancy_self_check recounts the occupancy array against agent
  // positions every round (total == k, threshold counter exact), runs the
  // pairwise oracle (met and meeting pair) and throws on the first
  // difference — a clean run IS the assertion. Smaller k range: the check
  // is O(n + k^2) per round by design.
  const auto g = graph::make_torus(16, 16);
  const auto program = scenario::find_program("explore-rally");
  Rng rng(kFuzzSeed, 3);
  for (int iter = 0; iter < 4; ++iter) {
    scenario::Scenario scen = random_cell(rng);
    scen.num_agents = 2 + static_cast<std::size_t>(rng.below(255));
    const std::uint64_t q = 2 + rng.below(scen.num_agents - 1);
    scen.gathering = sim::Gathering::quorum_of(q);
    scen.validate();

    sim::SchedulerScratch scratch;
    scratch.scheduler_for(g, program.def().model)
        .set_occupancy_self_check(true);
    Rng instance_rng(kFuzzSeed + iter, /*stream=*/11);
    const auto placement = scenario::draw_instance(scen, g, instance_rng);
    scenario::ScenarioOptions options;
    options.seed = rng();
    options.max_rounds = kRoundBudget;
    const auto report = scenario::run_scenario(scen, program, g, placement,
                                               options, scratch);
    // Self-check violations throw before we get here; sanity-check the run
    // actually executed rounds.
    EXPECT_GT(report.run.rounds, 0u) << "iter " << iter;
  }
}

}  // namespace
}  // namespace fnr
