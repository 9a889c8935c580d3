// E1 — Theorem 1 scaling (DESIGN.md).
//
// Paper claim: with whiteboards, KT1 and δ >= √n, rendezvous completes in
// O((n/δ)·log²n + (√(nΔ)/δ)·log n) rounds w.h.p. — sublinear in Δ once
// δ = ω(√n·log n).
//
// This bench sweeps n on near-regular graphs with δ ≈ n^0.78 and reports the
// median meeting round against the analytic bound shape, plus the trivial
// O(Δ) sweep and O(n) exploration yardsticks.
#include "bench_support.hpp"

#include "baselines/wait_and_explore.hpp"
#include "baselines/wait_and_sweep.hpp"

using namespace fnr;

namespace {

std::uint64_t sweep_rounds(const graph::Graph& g, std::uint64_t seed) {
  Rng rng(seed, 3);
  const auto placement = sim::random_adjacent_placement(g, rng);
  sim::Scheduler scheduler(g, sim::Model::port_only());
  baselines::SweepAgent a;
  baselines::WaitingAgent b;
  const auto result =
      scheduler.run(a, b, placement, 4 * g.max_degree() + 16);
  return result.met ? result.meeting_round : result.metrics.rounds;
}

}  // namespace

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E1 — Theorem 1: whiteboard rendezvous scaling (near-regular, "
      "delta ~ n^0.78)",
      "Reported: median meeting round (any co-location, Construct "
      "included) beside the bound shape (n/d)ln^2 n + (sqrt(nD)/d)ln n and "
      "two yardsticks, an O(D) neighbor sweep and an O(n) exploration.");
  bench::print_runner_info(runner);

  Table table({"n", "delta", "Delta", "rounds(med)", "met in construct",
               "bound", "rounds/bound", "sweep O(D)", "explore O(n)",
               "fail"});

  std::vector<double> ns, rounds_series;
  for (const auto n : config.sizes({256, 512, 1024, 2048, 4096})) {
    const auto g = bench::dense_family(n, 0.78, 1000 + n);
    // Agents frequently collide while a is still constructing T^a (their
    // two-hop balls overlap); the paper counts any co-location as
    // rendezvous, so we report how often the run ended that early. The
    // per-trial reports come back in trial order, so the count is
    // deterministic regardless of thread count.
    const std::uint64_t base_seed = 1000 + n;
    const auto reports = runner.run_map(
        config.reps, base_seed, [&](std::uint64_t, std::uint64_t seed) {
          return bench::run_once(g, core::Strategy::Whiteboard, seed);
        });
    std::uint64_t met_in_construct = 0;
    for (const auto& report : reports) {
      met_in_construct += report.run.met && report.agent_a.t_set_size == 0;
    }
    const auto outcome = bench::collect(reports, base_seed);
    bench::emit_aggregate(config, "e1_n" + std::to_string(n),
                          outcome.aggregate);
    const double bound = core::theorem1_bound(
        g.num_vertices(), static_cast<double>(g.min_degree()),
        static_cast<double>(g.max_degree()));
    const double sweep = static_cast<double>(sweep_rounds(g, n));

    table.add_row(RowBuilder()
                      .add(std::uint64_t{n})
                      .add(std::uint64_t{g.min_degree()})
                      .add(std::uint64_t{g.max_degree()})
                      .add(outcome.rounds.median, 0)
                      .add(std::to_string(met_in_construct) + "/" +
                           std::to_string(config.reps))
                      .add(bound, 0)
                      .add(outcome.rounds.median / bound, 2)
                      .add(sweep, 0)
                      .add(2.0 * static_cast<double>(n), 0)
                      .add(outcome.failures)
                      .build());
    if (outcome.rounds.count > 0) {
      ns.push_back(static_cast<double>(n));
      rounds_series.push_back(outcome.rounds.median);
    }
  }
  table.print(std::cout);
  bench::print_fit("power-law fit of measured rounds", ns, rounds_series);
  if (ns.size() >= kMinFitPoints) {
    std::vector<double> bounds;
    for (const auto n : ns)
      bounds.push_back(core::theorem1_bound(static_cast<std::size_t>(n),
                                            std::pow(n, 0.78),
                                            2.2 * std::pow(n, 0.78)));
    std::cout << "Reference: bound shape has fitted exponent ~"
              << format_double(fit_power_law(ns, bounds).exponent, 2)
              << " over the same sweep.\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
