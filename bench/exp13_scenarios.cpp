// E13 — the scenario × topology matrix.
//
// The paper proves bounds for one scenario (two agents, adjacent starts,
// synchronous wake-up) on abstract dense graphs. This bench measures how
// each strategy degrades as the scenario leaves that sweet spot — staggered
// and adversarial wake-ups, k > 2 agents sharing a neighborhood, agents
// dropped anywhere, full gathering — across realistic topologies
// (scale-free, small-world, torus, hypercube, random-geometric) plus the
// near-regular control family the theorems are tuned for.
//
// Matrix policy: the cell set is the program registry filtered by its own
// capability masks — a program runs on a scenario exactly when
// scenario::compatible says the pairing is a measurement (shared
// neighborhoods for the paper's strategies, all-meet only for coordinated
// rallies) and runnable_on admits the family graph (complete-graph-only
// programs skip every family here). Registering a new program grows this
// matrix with no edit to the bench. Aggregates are bit-identical across
// --threads values: every trial derives all randomness from its split
// seed.
//
// Extra flags: --list-programs / --list-scenarios print the registries and
// exit.
#include "bench_support.hpp"

#include <cmath>

#include "scenario/run.hpp"

using namespace fnr;

namespace {

struct Family {
  std::string name;
  graph::Graph graph;
};

std::vector<Family> make_families(bool quick, std::uint64_t seed) {
  std::vector<Family> families;
  const std::size_t n = quick ? 256 : 1024;
  {
    Rng rng(seed, 21);
    const std::size_t out = quick ? 16 : 24;
    families.push_back({"near-regular", graph::make_near_regular(n, out, rng)});
  }
  {
    Rng rng(seed, 22);
    families.push_back({"scale-free",
                        graph::make_barabasi_albert(n, 8, rng)});
  }
  {
    Rng rng(seed, 23);
    families.push_back({"small-world",
                        graph::make_watts_strogatz(n, 6, 0.1, rng)});
  }
  {
    const std::size_t side = quick ? 16 : 32;
    families.push_back({"torus", graph::make_torus(side, side)});
  }
  {
    families.push_back({"hypercube", graph::make_hypercube(quick ? 8 : 10)});
  }
  {
    Rng rng(seed, 24);
    // 1.2x the connectivity threshold sqrt(ln n / (pi n)); the connected
    // variant bridges whatever stragglers remain.
    const auto dn = static_cast<double>(n);
    const double radius = 1.2 * std::sqrt(std::log(dn) / (3.14159265 * dn));
    families.push_back(
        {"geometric",
         graph::make_random_geometric_connected(n, radius, rng).graph});
  }
  return families;
}

std::vector<scenario::Program> programs_for(const scenario::Scenario& s,
                                            const graph::Graph& g) {
  std::vector<scenario::Program> programs;
  for (auto& program : scenario::all_programs())
    if (scenario::compatible(program, s) &&
        scenario::runnable_on(program.def(), g))
      programs.push_back(std::move(program));
  return programs;
}

}  // namespace

int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  if (bench::handle_registry_listings(cli)) return 0;
  const auto config = bench::BenchConfig::from_cli(cli);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E13 — scenarios x topologies",
      "How far does each strategy stretch beyond the paper's model? "
      "Delayed and adversarial wake-ups should cost roughly the delay bound "
      "on adjacent pairs; the paper's strategies should keep beating the "
      "random walk wherever a common neighborhood exists.");
  bench::print_runner_info(runner);

  Table table({"family", "scenario", "program", "trials", "ok", "rounds(med)",
               "rounds(p95)", "moves(a)", "moves(b)"});

  const auto families = make_families(config.quick, /*seed=*/4242);
  std::uint64_t cell = 0;
  for (const auto& family : families) {
    for (const auto& s : scenario::all_scenarios()) {
      for (const auto& program : programs_for(s, family.graph)) {
        scenario::ScenarioOptions options;
        options.seed = 1300 + 17 * cell++;  // stable per-cell base seed
        const auto acc = scenario::run_scenario_trials(
            s, program, family.graph, options, config.reps, runner);
        const auto aggregate = acc.aggregate();
        const std::string label =
            family.name + ":" + s.name + ":" + scenario::to_string(program);
        bench::emit_aggregate(config, label, aggregate);
        table.add_row(RowBuilder()
                          .add(family.name)
                          .add(s.name)
                          .add(scenario::to_string(program))
                          .add(aggregate.trials)
                          .add(aggregate.success_rate, 2)
                          .add(aggregate.rounds.median, 0)
                          .add(aggregate.rounds.p95, 0)
                          .add(aggregate.mean_moves_a, 1)
                          .add(aggregate.mean_moves_b, 1)
                          .build());
      }
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
