// Side-by-side of every strategy and baseline on one instance — a compact
// "which tool when" table for library users.
//
//   ./model_comparison [--n=2048] [--seed=11]
#include <iostream>

#include "baselines/anderson_weber.hpp"
#include "baselines/random_walk.hpp"
#include "baselines/wait_and_explore.hpp"
#include "baselines/wait_and_sweep.hpp"
#include "core/rendezvous.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int run_example(int argc, char** argv) {
  using namespace fnr;
  Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 2048));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
  cli.reject_unknown();

  Rng rng(seed);
  const auto g = graph::make_near_regular(n, n / 8, rng);
  const auto placement = sim::random_adjacent_placement(g, rng);
  std::cout << "instance: " << g.describe() << ", adjacent start\n\n";

  Table table({"algorithm", "model needs", "rounds", "moves a", "moves b"});

  auto add_core = [&](core::Strategy strategy, const char* needs) {
    core::RendezvousOptions options;
    options.strategy = strategy;
    options.seed = seed;
    const auto report = core::run_rendezvous(g, placement, options);
    table.add_row(RowBuilder()
                      .add(core::to_string(strategy))
                      .add(needs)
                      .add(std::uint64_t{report.run.meeting_round})
                      .add(report.run.metrics.moves[0])
                      .add(report.run.metrics.moves[1])
                      .build());
  };
  add_core(core::Strategy::Whiteboard, "KT1+whiteboards+delta");
  add_core(core::Strategy::WhiteboardDoubling, "KT1+whiteboards");
  add_core(core::Strategy::NoWhiteboard, "KT1+tight IDs+delta");

  auto add_baseline = [&](const char* name, const char* needs,
                          sim::Model model, auto&& make_a, auto&& make_b) {
    sim::Scheduler scheduler(g, model);
    auto agent_a = make_a();
    auto agent_b = make_b();
    const auto result =
        scheduler.run(agent_a, agent_b, placement, 400 * n);
    table.add_row(
        RowBuilder()
            .add(name)
            .add(needs)
            .add(result.met ? std::to_string(result.meeting_round) : ">cap")
            .add(result.metrics.moves[0])
            .add(result.metrics.moves[1])
            .build());
  };
  add_baseline(
      "wait+sweep", "ports only", sim::Model{false, false},
      [] { return baselines::SweepAgent(); },
      [] { return baselines::WaitingAgent(); });
  add_baseline(
      "wait+explore", "KT1", sim::Model::no_whiteboards(),
      [] { return baselines::ExploreAgent(); },
      [] { return baselines::WaitingAgent(); });
  add_baseline(
      "random walks", "ports only", sim::Model{false, false},
      [&] { return baselines::RandomWalkAgent(Rng(seed, 1)); },
      [&] { return baselines::RandomWalkAgent(Rng(seed, 2)); });

  table.print(std::cout);
  std::cout << "(complete-graph specialist Anderson-Weber [6] omitted: this "
               "instance is not complete)\n";
  return 0;
}

int main(int argc, char** argv) {
  return fnr::guarded_main(argc, argv, run_example);
}
