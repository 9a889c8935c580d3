// E2 — the sublinearity threshold: rounds vs δ at fixed n, Δ = n-1.
//
// Paper claim: Theorem 1 beats the trivial O(Δ) sweep exactly when δ is
// large (δ = ω(√n·log n) asymptotically); Theorem 3 shows Ω(Δ) is
// unavoidable for δ = o(√n).
//
// Hub-augmented graphs fix Δ = n-1 while δ is swept. Both agents start on
// hubs: that is the hard configuration — with a high-degree v₀ᵇ the
// accidental shortcut (b stumbling onto a's home) costs Θ(n), and with a
// high-degree v₀ᵃ the trivial sweep really pays Θ(Δ). What remains is the
// δ-dependence the theorem is about. (With practical constants the measured
// crossover sits above the asymptotic threshold; the shape — algorithm
// rounds falling in δ against a flat sweep — is the claim under test.)
#include "bench_support.hpp"

#include "baselines/wait_and_sweep.hpp"

using namespace fnr;

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  const std::size_t n = config.quick ? 2048 : 4096;
  bench::print_header(
      "E2 — delta sweep at fixed n = " + std::to_string(n) +
          ", Delta = n-1 (hub-augmented graphs, hub-to-hub placement)",
      "Expected shape: algorithm rounds fall as delta grows; the trivial "
      "sweep stays pinned near 2*Delta; the crossover appears once delta is "
      "well above sqrt(n) = " +
          format_double(std::sqrt(static_cast<double>(n)), 0) + ".");
  bench::print_runner_info(runner);

  Table table({"delta", "Delta", "rounds(med)", "bound", "sweep(worst)",
               "algo wins", "fail"});

  for (const std::size_t base :
       config.sizes({16, 32, 64, 128, 256, 512, 1024})) {
    Rng rng(base, 5);
    const auto g = graph::make_hub_augmented(n, base, 2, rng);
    // The two hubs are the last two indices and are adjacent.
    const auto hub1 = static_cast<graph::VertexIndex>(n - 2);
    const auto hub2 = static_cast<graph::VertexIndex>(n - 1);
    const sim::Placement placement{hub1, hub2};

    // Meeting times on hub-to-hub placements have heavy variance (the
    // protocol path races an accidental-collision path); use extra reps.
    const auto outcome = bench::repeat(
        runner, 3 * config.reps, base,
        [&](std::uint64_t, std::uint64_t seed) {
          core::RendezvousOptions options;
          options.strategy = core::Strategy::Whiteboard;
          options.seed = seed;
          return core::run_rendezvous(g, placement, options).run;
        });
    bench::emit_aggregate(config, "e2_delta" + std::to_string(g.min_degree()),
                          outcome.aggregate);

    // Sweep worst case from a hub: b sits behind the last port. Measured
    // with b parked on the highest-index neighbor of hub1 (= hub2's slot).
    sim::Scheduler scheduler(g, sim::Model::port_only());
    baselines::SweepAgent sweep_agent;
    baselines::WaitingAgent waiter;
    const auto nbrs = g.neighbors(hub1);
    const auto sweep =
        scheduler.run(sweep_agent, waiter,
                      sim::Placement{hub1, nbrs[nbrs.size() - 1]},
                      4 * g.max_degree() + 16);

    const double bound = core::theorem1_bound(
        n, static_cast<double>(g.min_degree()),
        static_cast<double>(g.max_degree()));
    table.add_row(
        RowBuilder()
            .add(std::uint64_t{g.min_degree()})
            .add(std::uint64_t{g.max_degree()})
            .add(outcome.rounds.median, 0)
            .add(bound, 0)
            .add(std::uint64_t{sweep.meeting_round})
            .add(outcome.rounds.median <
                         static_cast<double>(sweep.meeting_round)
                     ? "yes"
                     : "no")
            .add(outcome.failures)
            .build());
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
