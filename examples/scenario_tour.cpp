// Tour of the scenario and program registries: list every registered
// scenario and program, then run each scenario once on a small-world graph
// and narrate the outcome. Also shows how to register a custom scenario
// next to the built-ins and how `?key=value` suffixes parameterize a
// registered program.
#include <iostream>

#include "graph/generators.hpp"
#include "scenario/run.hpp"
#include "util/cli.hpp"

using namespace fnr;

static int run_example(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.reject_unknown();

  // A custom scenario slots into the same registry the benches sweep.
  if (!scenario::has_scenario("ambush-trio")) {
    scenario::Scenario custom;
    custom.name = "ambush-trio";
    custom.summary = "3 agents in one neighborhood, partners sleep 64 rounds";
    custom.num_agents = 3;
    custom.placement = scenario::PlacementModel::NeighborhoodCluster;
    custom.delay = scenario::DelayModel::Adversarial;
    custom.max_delay = 64;
    custom.gathering = sim::Gathering::AnyPair;
    scenario::register_scenario(custom);
  }

  std::cout << "## Registered scenarios\n\n";
  scenario::print_scenario_listing(std::cout);

  std::cout << "## Registered programs\n\n";
  scenario::print_program_listing(std::cout);

  Rng graph_rng(7, 1);
  const auto g = graph::make_watts_strogatz(256, 6, 0.1, graph_rng);
  std::cout << "Running each scenario once on " << g.describe() << "\n\n";

  for (const auto& s : scenario::all_scenarios()) {
    // The paper's strategies need a shared neighborhood; dropped-anywhere
    // agents fall back to a sluggish random walk (a `?laziness` override on
    // the registered program), and all-meet gathering needs the coordinated
    // rally (k-way walker co-location is a lottery).
    const auto program =
        s.gathering == sim::Gathering::All
            ? scenario::find_program("explore-rally")
            : s.placement == scenario::PlacementModel::RandomDistinct
                  ? scenario::find_program("random-walk?laziness=0.25")
                  : scenario::find_program("whiteboard");
    Rng instance_rng(99, 2);
    const auto placement = scenario::draw_instance(s, g, instance_rng);
    scenario::ScenarioOptions options;
    options.seed = 424242;
    const auto report =
        scenario::run_scenario(s, program, g, placement, options);
    std::cout << "- " << s.name << " [" << scenario::to_string(program)
              << "]: " << report.run.describe() << "\n";
  }
  std::cout << "\nA k=2 scenario with zero delay is exactly the paper's "
               "synchronous model; see tests/test_scenario_engine.cpp for "
               "the bit-for-bit guarantee.\n";
  return 0;
}

int main(int argc, char** argv) {
  return fnr::guarded_main(argc, argv, run_example);
}
