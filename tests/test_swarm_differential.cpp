// Differential battery for the swarm meeting engine: the scheduler picks
// the pairwise oracle up to 8 agents and occupancy counting above, and its
// self-check (set_occupancy_self_check) keeps the counts at every k and
// compares them with the oracle at each round boundary, throwing on any
// difference. Each trial here runs on a scratch with the self-check on,
// for every builtin scenario at k ∈ {2, 3, 5, 8, 9, 17} (8 and 9 straddle
// the engine switch) and on fault-active cells; the checked outcomes must
// equal run_scenario_trials' — field for field, and in the merged
// aggregate — on 1 and 4 runner threads. Any divergence is a correctness
// bug, not noise.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "runner/trial_runner.hpp"
#include "scenario/program_registry.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "sim/scheduler.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace fnr {
namespace {

constexpr std::uint64_t kTrials = 3;

bool outcomes_equal(const runner::TrialOutcome& x,
                    const runner::TrialOutcome& y) {
  return x.trial == y.trial && x.seed == y.seed && x.met == y.met &&
         x.meeting_round == y.meeting_round &&
         x.gathered_count == y.gathered_count && x.rounds == y.rounds &&
         x.moves_a == y.moves_a && x.moves_b == y.moves_b &&
         x.whiteboard_marks == y.whiteboard_marks &&
         std::memcmp(&x.faults, &y.faults, sizeof x.faults) == 0;
}

scenario::ScenarioOptions cell_options(const fault::FaultPlan& fault) {
  scenario::ScenarioOptions options;
  options.seed = 4711;
  options.fault = fault;
  return options;
}

/// The cell's trials the way run_scenario_trial_span draws them (trial t on
/// trial_seed(seed, t), its instance from stream 11), one after another on
/// one scratch whose scheduler has the self-check on.
runner::TrialAccumulator checked_cell(const scenario::Scenario& scen,
                                      const scenario::Program& program,
                                      const graph::Graph& g,
                                      const fault::FaultPlan& fault) {
  const auto options = cell_options(fault);
  sim::SchedulerScratch scratch;
  scratch.scheduler_for(g, program.def().model).set_occupancy_self_check(true);
  runner::TrialAccumulator acc;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    const std::uint64_t seed = runner::trial_seed(options.seed, t);
    Rng instance_rng(seed, /*stream=*/11);
    const auto placement = scenario::draw_instance(scen, g, instance_rng);
    scenario::ScenarioOptions trial_options = options;
    trial_options.seed = seed;
    acc.add(scenario::to_outcome(
        t, seed,
        scenario::run_scenario(scen, program, g, placement, trial_options,
                               scratch)
            .run));
  }
  return acc;
}

/// The same cell through the trial runner (no self-check).
runner::TrialAccumulator runner_cell(const scenario::Scenario& scen,
                                     const scenario::Program& program,
                                     const graph::Graph& g, unsigned threads,
                                     const fault::FaultPlan& fault) {
  const runner::TrialRunner trial_runner(runner::RunnerOptions{threads});
  return scenario::run_scenario_trials(scen, program, g, cell_options(fault),
                                       kTrials, trial_runner);
}

/// Asserts `cell` is byte-identical to the reference accumulator: same
/// per-trial outcomes (field-for-field) and a bit-identical aggregate.
void expect_identical(const runner::TrialAccumulator& reference,
                      const runner::TrialAccumulator& cell,
                      const std::string& label) {
  const auto want = reference.sorted_outcomes();
  const auto got = cell.sorted_outcomes();
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_TRUE(outcomes_equal(want[t], got[t]))
        << label << ": trial " << t << " diverged (met " << want[t].met
        << " vs " << got[t].met << ", meeting_round "
        << want[t].meeting_round << " vs " << got[t].meeting_round
        << ", gathered " << want[t].gathered_count << " vs "
        << got[t].gathered_count << ")";
  }
  EXPECT_TRUE(test::bits_equal(reference.aggregate(), cell.aggregate()))
      << label << ": merged aggregates diverged";
}

/// Runs the cell with the self-check on (a CheckError fails the test) and
/// asserts the trial runner's outcomes equal it at 1 and 4 threads.
void expect_checked_cell(const scenario::Scenario& scen,
                         const scenario::Program& program,
                         const graph::Graph& g, const std::string& label,
                         const fault::FaultPlan& fault = {}) {
  const auto checked = checked_cell(scen, program, g, fault);
  expect_identical(checked, runner_cell(scen, program, g, 1, fault),
                   label + " 1t");
  expect_identical(checked, runner_cell(scen, program, g, 4, fault),
                   label + " 4t");
}

/// First registry program the capability masks accept for `scen`; null
/// handle never escapes (the registry always has a universally-compatible
/// program — explore-rally supports every gathering predicate).
scenario::Program program_for(const scenario::Scenario& scen) {
  for (const auto& def : scenario::all_program_defs()) {
    const auto program = scenario::find_program(def.label);
    if (scenario::compatible(program, scen)) return program;
  }
  FNR_CHECK_MSG(false,
                "no registered program is compatible with scenario '"
                    << scen.name << "'");
  throw std::logic_error("unreachable");
}

TEST(SwarmDifferential, SelfCheckedTrialsMatchTheRunnerForEveryBuiltinScenario) {
  // Degree 20 so NeighborhoodCluster placements can host k = 17 (needs a
  // closed neighborhood of size >= k).
  const auto g = test::dense_graph(48, 12, 20);
  std::size_t cells = 0;
  for (const auto& builtin : scenario::all_scenarios()) {
    for (const std::size_t k : {2, 3, 5, 8, 9, 17}) {
      scenario::Scenario scen = builtin;
      scen.num_agents = k;
      try {
        scen.validate();  // skips AdjacentPair at k != 2, quorum > k, ...
      } catch (const CheckError&) {
        continue;
      }
      expect_checked_cell(scen, program_for(scen), g,
                          builtin.name + " k=" + std::to_string(k));
      ++cells;
    }
  }
  // The registry always exposes at least the pair scenarios at k = 2 and
  // the swarm scenarios at overridden k; an empty sweep means the override
  // loop rotted, not that there was nothing to test.
  EXPECT_GE(cells, 8u);
}

TEST(SwarmDifferential, FaultActiveCellsPassTheSelfCheck) {
  // Fault sites draw from the session RNG in round order; the self-check
  // must not perturb a single draw. crash exercises agent removal /
  // revival (occupancy unseed + reseed), wb-drop exercises the whiteboard
  // path, churn exercises permanent leave. k = 5 runs the pairwise engine,
  // k = 9 the occupancy counts.
  const auto g = test::dense_graph(48, 12, 20);
  const auto program = scenario::find_program("explore-rally");
  for (const std::size_t k : {5, 9}) {
    scenario::Scenario scen = scenario::find_scenario("swarm-quorum");
    scen.num_agents = k;
    scen.gathering = sim::Gathering::quorum_of(3);
    scen.validate();
    for (const std::string plan_spec :
         {"crash?rate=0.05&downtime=2", "wb-drop?rate=0.2",
          "churn?rate=0.02"}) {
      const auto plan = fault::FaultPlan::parse(plan_spec);
      // Faulted trials must still be doing work worth differencing: the
      // plan parsed as active (rate-0 no-op plans are a different test's
      // job).
      ASSERT_TRUE(plan.active()) << plan_spec;
      expect_checked_cell(scen, program, g,
                          plan_spec + " k=" + std::to_string(k), plan);
    }
  }
}

}  // namespace
}  // namespace fnr
