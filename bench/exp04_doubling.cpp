// E4 — Corollary 2: removing the known-δ assumption by doubling estimation.
//
// Paper claim: restarting Construct with halved δ' costs only a constant
// factor (the geometric sum collapses), so the doubling variant matches the
// known-δ algorithm asymptotically.
//
// To actually exercise restarts, agent a starts on a hub of a hub-augmented
// graph: its initial estimate δ' = deg(v₀ᵃ)/2 ≈ n/2 is far above the true
// minimum degree, so a discovers low-degree vertices and halves its way
// down — exactly the §4.1 mechanism. Near-regular rows (no restarts needed)
// are included as the baseline case.
#include "bench_support.hpp"

using namespace fnr;

namespace {

struct Cell {
  Summary rounds;
  std::uint64_t failures = 0;
  double restarts_med = 0.0;
  runner::TrialAggregate aggregate;
};

Cell run_cell(const runner::TrialRunner& runner, const graph::Graph& g,
              sim::Placement placement, core::Strategy strategy,
              std::uint64_t base_seed, std::uint64_t reps) {
  const auto reports = runner.run_map(
      reps, base_seed, [&](std::uint64_t, std::uint64_t seed) {
        core::RendezvousOptions options;
        options.strategy = strategy;
        options.seed = seed;
        return core::run_rendezvous(g, placement, options);
      });
  Cell cell;
  cell.aggregate = bench::collect(reports, base_seed).aggregate;
  cell.rounds = cell.aggregate.rounds;
  cell.failures = cell.aggregate.failures;
  std::vector<double> restarts;
  for (const auto& report : reports) {
    if (!report.run.met) continue;
    restarts.push_back(
        static_cast<double>(report.agent_a.doubling_restarts));
  }
  cell.restarts_med = summarize(restarts).median;
  return cell;
}

}  // namespace

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E4 — Corollary 2: known delta vs doubling estimation",
      "Expected shape: the doubling column stays within a small constant "
      "factor of the known-delta column; restarts ~ log2(deg(v0_a)/delta) "
      "on hub starts and ~0 on near-regular starts.");
  bench::print_runner_info(runner);

  Table table({"family", "n", "delta", "known(med)", "doubling(med)",
               "ratio", "restarts(med)", "fail"});

  for (const auto n : config.sizes({512, 1024, 2048, 4096})) {
    // Near-regular: deg(v0)/2 ≈ delta already, no restarts expected.
    {
      const auto g = bench::dense_family(n, 0.78, 500 + n);
      Rng rng(n, 3);
      const auto placement = sim::random_adjacent_placement(g, rng);
      const auto known = run_cell(runner, g, placement,
                                  core::Strategy::Whiteboard, 500 + n,
                                  config.reps);
      const auto doubling = run_cell(runner, g, placement,
                                     core::Strategy::WhiteboardDoubling,
                                     500 + n, config.reps);
      bench::emit_aggregate(config, "e4_regular_known_n" + std::to_string(n),
                            known.aggregate);
      bench::emit_aggregate(config,
                            "e4_regular_doubling_n" + std::to_string(n),
                            doubling.aggregate);
      table.add_row(
          RowBuilder()
              .add("near-regular")
              .add(std::uint64_t{n})
              .add(std::uint64_t{g.min_degree()})
              .add(known.rounds.median, 0)
              .add(doubling.rounds.median, 0)
              .add(known.rounds.median > 0
                       ? doubling.rounds.median / known.rounds.median
                       : 0.0,
                   2)
              .add(doubling.restarts_med, 1)
              .add(known.failures + doubling.failures)
              .build());
    }
    // Hub start: the estimate begins at ~n/2 and must walk down to delta.
    {
      Rng rng(n, 7);
      const auto g = graph::make_hub_augmented(n, 32, 2, rng);
      const sim::Placement placement{
          static_cast<graph::VertexIndex>(n - 2),
          static_cast<graph::VertexIndex>(n - 1)};
      const auto known = run_cell(runner, g, placement,
                                  core::Strategy::Whiteboard, 900 + n,
                                  config.reps);
      const auto doubling = run_cell(runner, g, placement,
                                     core::Strategy::WhiteboardDoubling,
                                     900 + n, config.reps);
      bench::emit_aggregate(config, "e4_hub_known_n" + std::to_string(n),
                            known.aggregate);
      bench::emit_aggregate(config, "e4_hub_doubling_n" + std::to_string(n),
                            doubling.aggregate);
      table.add_row(
          RowBuilder()
              .add("hub-start")
              .add(std::uint64_t{n})
              .add(std::uint64_t{g.min_degree()})
              .add(known.rounds.median, 0)
              .add(doubling.rounds.median, 0)
              .add(known.rounds.median > 0
                       ? doubling.rounds.median / known.rounds.median
                       : 0.0,
                   2)
              .add(doubling.restarts_med, 1)
              .add(known.failures + doubling.failures)
              .build());
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
