// The program registry: label stability, capability masks, parameter
// suffixes, open registration, and the invariants the sweep grid expander
// hangs on — every registered program must be runnable on some compatible
// scenario, and expansion must never emit a cell the capability masks
// forbid.
#include "scenario/program_registry.hpp"

#include <set>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/run.hpp"
#include "sweep/spec.hpp"
#include "test_support.hpp"

namespace fnr {
namespace {

TEST(ProgramRegistry, BuiltinLabelsAreUniqueAndStable) {
  // Labels name cells in sweep checkpoints and the work gate; the first
  // eight and their order are a compatibility contract, not a preference.
  const std::vector<std::string> expected = {
      "whiteboard",     "whiteboard+doubling", "no-whiteboard",
      "random-walk",    "explore-rally",       "anderson-weber",
      "wait-and-explore", "wait-and-sweep"};
  const auto& defs = scenario::all_program_defs();
  ASSERT_GE(defs.size(), expected.size());
  std::set<std::string> labels;
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(defs[i].label, expected[i]);
  for (const auto& def : defs) {
    EXPECT_TRUE(labels.insert(def.label).second)
        << "duplicate label " << def.label;
    EXPECT_NO_THROW(def.validate());
    EXPECT_FALSE(def.description.empty());
    EXPECT_FALSE(def.caps.describe().empty());
    EXPECT_TRUE(scenario::has_program(def.label));
  }
  EXPECT_FALSE(scenario::has_program("no-such-program"));
}

TEST(ProgramRegistry, FindProgramResolvesAndEnumeratesOnError) {
  const auto program = scenario::find_program("whiteboard");
  EXPECT_TRUE(program.valid());
  EXPECT_EQ(scenario::to_string(program), "whiteboard");
  EXPECT_EQ(program.def().label, "whiteboard");
  try {
    (void)scenario::find_program("quantum-walk");
    FAIL() << "unknown label must throw";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("quantum-walk"), std::string::npos);
    // The message enumerates the valid label set.
    EXPECT_NE(what.find("whiteboard"), std::string::npos);
    EXPECT_NE(what.find("wait-and-sweep"), std::string::npos);
  }
  EXPECT_THROW((void)scenario::Program().def(), CheckError);
}

TEST(ProgramRegistry, ParameterSuffixesParseValidateAndCanonicalize) {
  const auto lazy = scenario::find_program("random-walk?laziness=0.25");
  EXPECT_EQ(lazy.label(), "random-walk?laziness=0.25");
  EXPECT_DOUBLE_EQ(lazy.param("laziness"), 0.25);
  // Defaults apply when no override is given.
  EXPECT_DOUBLE_EQ(scenario::find_program("random-walk").param("laziness"),
                   0.5);
  // The canonical label is a cell identity: resolving it back must yield
  // the exact same program, including awkward override values.
  const auto precise = scenario::find_program("random-walk?laziness=0.1234567");
  EXPECT_DOUBLE_EQ(precise.param("laziness"), 0.1234567);
  EXPECT_TRUE(scenario::find_program(precise.label()) == precise)
      << precise.label();
  // Unknown parameter names are rejected, naming the declared set.
  try {
    (void)scenario::find_program("random-walk?bogus=1");
    FAIL() << "unknown parameter must throw";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("laziness"), std::string::npos);
  }
  // Programs without parameters reject every override.
  EXPECT_THROW((void)scenario::find_program("whiteboard?delta=3"),
               CheckError);
  EXPECT_THROW((void)scenario::find_program("random-walk?laziness"),
               CheckError);  // not key=value
  EXPECT_THROW((void)scenario::find_program(
                   "random-walk?laziness=0.1&laziness=0.2"),
               CheckError);  // repeated
}

TEST(ProgramRegistry, MalformedSuffixShapesAreRejectedNotTruncated) {
  // Each of these used to slip through as a silently-ignored fragment or a
  // degenerate label; now the shape itself is rejected.
  EXPECT_THROW((void)scenario::find_program("random-walk?"), CheckError);
  try {
    (void)scenario::find_program("?laziness=0.5");
    FAIL() << "empty label before '?' must throw";
  } catch (const CheckError& error) {
    // The message enumerates the registry, like the unknown-label path.
    EXPECT_NE(std::string(error.what()).find("random-walk"),
              std::string::npos);
  }
  EXPECT_THROW((void)scenario::find_program("random-walk?laziness="),
               CheckError);  // empty value
  EXPECT_THROW((void)scenario::find_program("random-walk?=0.5"),
               CheckError);  // empty key
  EXPECT_THROW((void)scenario::find_program("random-walk?laziness=0.5&"),
               CheckError);  // stray '&'
  EXPECT_THROW((void)scenario::find_program("random-walk?&laziness=0.5"),
               CheckError);
}

TEST(ProgramRegistry, NonFiniteParameterValuesAreRejected) {
  // NaN/inf would poison every downstream threshold computation and,
  // worse, produce a canonical label that no longer round-trips; the
  // override parser rejects them explicitly.
  EXPECT_THROW((void)scenario::find_program("random-walk?laziness=nan"),
               CheckError);
  EXPECT_THROW((void)scenario::find_program("random-walk?laziness=inf"),
               CheckError);
  EXPECT_THROW((void)scenario::find_program("random-walk?laziness=-inf"),
               CheckError);
  EXPECT_THROW((void)scenario::find_program("random-walk?laziness=1e999"),
               CheckError);  // overflows to inf
}

TEST(ProgramRegistry, ParameterOverridesReachTheAgents) {
  // Same seeds, different laziness: the walks must diverge (deterministic
  // given the fixed seeds, so this cannot flake).
  const auto g = graph::make_ring(32);
  const auto& sync = scenario::find_scenario("sync-pair");
  const runner::TrialRunner runner(runner::RunnerOptions{1});
  scenario::ScenarioOptions options;
  options.seed = 9;
  const auto sluggish =
      scenario::run_scenario_trials(sync,
                                    scenario::find_program(
                                        "random-walk?laziness=0.9"),
                                    g, options, 8, runner)
          .aggregate();
  const auto brisk =
      scenario::run_scenario_trials(sync,
                                    scenario::find_program(
                                        "random-walk?laziness=0.1"),
                                    g, options, 8, runner)
          .aggregate();
  EXPECT_NE(sluggish.rounds.mean, brisk.rounds.mean);
}

TEST(ProgramRegistry, EveryProgramRunsOnACompatibleSmokeScenario) {
  // The registration contract behind the CI registry smoke: for every
  // program there is a compatible built-in scenario, and one tiny trial
  // run on a suitable graph completes without throwing.
  Rng rng(3, 911);
  const auto sparse = graph::make_near_regular(16, 6, rng);
  const auto complete = graph::make_complete(16);
  const runner::TrialRunner runner(runner::RunnerOptions{1});
  for (const auto& program : scenario::all_programs()) {
    const graph::Graph& g =
        scenario::runnable_on(program.def(), sparse) ? sparse : complete;
    ASSERT_TRUE(scenario::runnable_on(program.def(), g)) << program.label();
    const scenario::Scenario* smoke = nullptr;
    for (const auto& s : scenario::all_scenarios())
      if (scenario::compatible(program, s)) {
        smoke = &s;
        break;
      }
    ASSERT_NE(smoke, nullptr)
        << program.label() << " is compatible with no built-in scenario";
    scenario::ScenarioOptions options;
    options.seed = 5;
    EXPECT_NO_THROW({
      const auto agg = scenario::run_scenario_trials(*smoke, program, g,
                                                     options, 2, runner)
                           .aggregate();
      EXPECT_EQ(agg.trials, 2u);
    }) << program.label() << " on " << smoke->name;
  }
}

TEST(ProgramRegistry, HardRequirementsAreEnforcedByRunScenario) {
  // anderson-weber off a complete graph / no-whiteboard without tight
  // naming must throw a CheckError, not crash mid-run.
  Rng rng(3, 911);
  const auto sparse = graph::make_near_regular(16, 6, rng);
  const auto& sync = scenario::find_scenario("sync-pair");
  Rng instance_rng(1, 11);
  const auto placement = scenario::draw_instance(sync, sparse, instance_rng);
  scenario::ScenarioOptions options;
  EXPECT_THROW((void)scenario::run_scenario(
                   sync, scenario::find_program("anderson-weber"), sparse,
                   placement, options),
               CheckError);
  EXPECT_FALSE(scenario::runnable_on(
      scenario::find_program("anderson-weber").def(), sparse));
  EXPECT_TRUE(scenario::runnable_on(
      scenario::find_program("anderson-weber").def(),
      graph::make_complete(8)));
}

TEST(ProgramRegistry, CapabilityMasksGateScenarioShapes) {
  const auto whiteboard = scenario::find_program("whiteboard");
  const auto rally = scenario::find_program("explore-rally");
  const auto walk = scenario::find_program("random-walk");
  EXPECT_TRUE(scenario::compatible(whiteboard,
                                   scenario::find_scenario("sync-pair")));
  EXPECT_TRUE(scenario::compatible(
      whiteboard, scenario::find_scenario("trio-neighborhood")));
  // Dropped-anywhere placements are no measurement for neighborhood
  // strategies; all-meet gathering needs the coordinated rally.
  EXPECT_FALSE(scenario::compatible(
      whiteboard, scenario::find_scenario("pair-anywhere")));
  EXPECT_FALSE(scenario::compatible(whiteboard,
                                    scenario::find_scenario("swarm-gather")));
  EXPECT_FALSE(scenario::compatible(walk,
                                    scenario::find_scenario("swarm-gather")));
  EXPECT_TRUE(scenario::compatible(rally,
                                   scenario::find_scenario("swarm-gather")));
  EXPECT_TRUE(scenario::compatible(rally,
                                   scenario::find_scenario("pair-anywhere")));
}

TEST(ProgramRegistry, GridExpanderHonorsCapabilityMasks) {
  const auto spec = sweep::parse_spec(
      "name       = caps\n"
      "trials     = 1\n"
      "programs   = *\n"
      "scenarios  = *\n"
      "topologies = near-regular:deg=6, complete\n"
      "sizes      = 16\n"
      "seeds      = 1\n");
  const auto grid = sweep::expand(spec);
  ASSERT_FALSE(grid.empty());
  std::set<std::pair<std::string, std::string>> pairs;
  for (const auto& cell : grid) {
    // Every emitted cell passes the mask it was filtered by.
    EXPECT_TRUE(scenario::compatible(
        cell.program, scenario::find_scenario(cell.scenario)))
        << cell.key();
    if (cell.program.def().caps.needs_complete_graph)
      EXPECT_EQ(cell.topology.family, "complete") << cell.key();
    pairs.insert({cell.program.label(), cell.scenario});
  }
  // Spot checks: the rally covers all-meet, the paper's strategy does not,
  // and anderson-weber appears only via the complete family.
  EXPECT_TRUE(pairs.contains({"explore-rally", "swarm-gather"}));
  EXPECT_FALSE(pairs.contains({"whiteboard", "swarm-gather"}));
  EXPECT_FALSE(pairs.contains({"whiteboard", "pair-anywhere"}));
  EXPECT_TRUE(pairs.contains({"anderson-weber", "sync-pair"}));
  // A spec whose only pairing is masked off must fail loudly, not expand
  // to an empty grid.
  EXPECT_THROW((void)sweep::expand(sweep::parse_spec(
                   "name = empty\ntrials = 1\nprograms = whiteboard\n"
                   "scenarios = swarm-gather\ntopologies = ring\n"
                   "sizes = 16\nseeds = 1\n")),
               CheckError);
}

TEST(ProgramRegistry, RegistrationIsOpenAndValidated) {
  // The tentpole's point: a new strategy is one registration, after which
  // every consumer (trials, grids, listings) can run it by label.
  if (!scenario::has_program("test-sitter")) {
    scenario::ProgramDef def;
    def.label = "test-sitter";
    def.description = "registered by the test suite: every agent stays put";
    def.paper_ref = "test";
    def.caps.supports_multi_agent = true;
    def.symmetric = [](scenario::AgentBuild&)
        -> std::unique_ptr<sim::Agent> {
      class Sitter final : public sim::Agent {
        sim::Action step(const sim::View&) override {
          return sim::Action::stay();
        }
      };
      return std::make_unique<Sitter>();
    };
    def.round_cap = [](const graph::Graph&, const core::Params&) {
      return std::uint64_t{64};
    };
    scenario::register_program(def);
  }
  EXPECT_TRUE(scenario::has_program("test-sitter"));
  EXPECT_THROW(scenario::register_program(
                   scenario::find_program("test-sitter").def()),
               CheckError);  // duplicate label

  const auto program = scenario::find_program("test-sitter");
  const auto g = graph::make_ring(16);
  const runner::TrialRunner runner(runner::RunnerOptions{1});
  scenario::ScenarioOptions options;
  options.seed = 2;
  const auto agg = scenario::run_scenario_trials(
                       scenario::find_scenario("sync-pair"), program, g,
                       options, 3, runner)
                       .aggregate();
  EXPECT_EQ(agg.trials, 3u);
  EXPECT_EQ(agg.successes, 0u);  // sitters at distinct starts never meet

  // Malformed registrations are rejected.
  scenario::ProgramDef bad;
  bad.label = "test bad label";
  bad.description = "spaces are not allowed";
  bad.symmetric = [](scenario::AgentBuild&) -> std::unique_ptr<sim::Agent> {
    return nullptr;
  };
  bad.round_cap = [](const graph::Graph&, const core::Params&) {
    return std::uint64_t{1};
  };
  EXPECT_THROW(scenario::register_program(bad), CheckError);
  bad.label = "test-bad";
  bad.round_cap = nullptr;
  EXPECT_THROW(scenario::register_program(bad), CheckError);
}

TEST(ProgramRegistry, TrialsStayBitIdenticalAcrossThreadCounts) {
  // The registry path must preserve the runner's determinism contract for
  // the baselines it newly exposes.
  Rng rng(17, 911);
  const auto g = graph::make_near_regular(64, 8, rng);
  const auto& delayed = scenario::find_scenario("delayed-pair");
  for (const auto& label : {"wait-and-explore", "wait-and-sweep"}) {
    const auto program = scenario::find_program(label);
    scenario::ScenarioOptions options;
    options.seed = 77;
    runner::TrialAggregate reference;
    bool first = true;
    for (const unsigned threads : {1u, 4u}) {
      const runner::TrialRunner runner(runner::RunnerOptions{threads});
      const auto agg = scenario::run_scenario_trials(delayed, program, g,
                                                     options, 16, runner)
                           .aggregate();
      if (first) {
        reference = agg;
        first = false;
      } else {
        EXPECT_TRUE(test::bits_equal(reference, agg))
            << label << " differs at " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace fnr
