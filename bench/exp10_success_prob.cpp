// E10 — the "with high probability" claims of Theorems 1 and 2, sampled.
//
// Paper claim: both algorithms succeed with probability >= 1 - 1/n^{Ω(1)}.
// The bench runs many independent seeds per size and reports the success
// fraction within the automatic cap and the p90/p50 round dispersion (a
// heavy tail would betray borderline constants).
#include "bench_support.hpp"

using namespace fnr;

int run_bench(int argc, char** argv) {
  auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  const std::uint64_t trials = config.quick ? 10 : 40;
  bench::print_header(
      "E10 — success probability across " + std::to_string(trials) +
          " independent seeds (near-regular, delta ~ n^0.78)",
      "Expected shape: success fraction 1.0 at every size for both "
      "strategies; p90/p50 stays close to 1 (no heavy tail).");
  bench::print_runner_info(runner);

  Table table({"n", "strategy", "trials", "met", "success", "p50 rounds",
               "p90/p50"});

  for (const auto n : config.sizes({256, 512, 1024})) {
    const auto g = bench::dense_family(n, 0.78, 900 + n);
    for (const auto strategy :
         {core::Strategy::Whiteboard, core::Strategy::NoWhiteboard}) {
      // The trial entry point: fresh placement + RNG stream per trial,
      // executed across the pool.
      core::RendezvousOptions options;
      options.seed = 900 + n;
      const auto agg =
          core::run_trials(strategy, g, options, trials, runner).aggregate();
      bench::emit_aggregate(config,
                            std::string("e10_n") + std::to_string(n) + "_" +
                                core::to_string(strategy),
                            agg);
      table.add_row(
          RowBuilder()
              .add(std::uint64_t{n})
              .add(core::to_string(strategy))
              .add(agg.trials)
              .add(agg.successes)
              .add(agg.success_rate, 3)
              .add(agg.rounds.median, 0)
              .add(agg.rounds.median > 0 ? agg.rounds.p90 / agg.rounds.median
                                         : 0.0,
                   2)
              .build());
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
