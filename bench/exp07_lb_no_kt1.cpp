// E7 — Theorem 4 / Figure 2: the Ω(Δ) lower bound without neighborhood IDs.
//
// Paper claim: on bridged cliques (δ = Δ = n/2 - 1, distance 1), any
// algorithm that cannot observe neighborhood IDs needs Ω(Δ) rounds.
//
// The bench runs the port-only algorithms on the hidden-ID model and, as
// the contrast the theorem is about, Theorem 1's algorithm on the SAME
// topology with KT1 enabled: the port-only families scale linearly while
// the KT1 algorithm's rounds grow only polylogarithmically (δ = Θ(n)).
#include "bench_support.hpp"

#include "baselines/random_walk.hpp"
#include "baselines/wait_and_sweep.hpp"
#include "lower_bounds/instances.hpp"

using namespace fnr;

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E7 — Theorem 4 / Figure 2: bridged cliques, neighborhood IDs hidden",
      "Expected shape: port-only algorithms (sweep, random walk) pay "
      "Omega(n); the identical topology with KT1 restored is solved by "
      "Theorem 1's algorithm in polylog-growing rounds (exponent << 1).");
  bench::print_runner_info(runner);

  Table table({"n", "delta=Delta", "sweep port-only(med)",
               "walk port-only(med)", "core with KT1(med)", "walk fail"});

  std::vector<double> ns, sweep_r, walk_r, core_r;
  for (const auto half : config.sizes({128, 256, 512, 1024, 2048})) {
    const auto inst = lower_bounds::theorem4_instance(half);
    const auto& g = inst.graph;
    const std::uint64_t cap = 200 * g.num_vertices();

    // Sweep vs a waiting partner on a fixed placement is deterministic —
    // one trial carries all the information.
    const auto sweep_out = bench::repeat(
        runner, 1, 100 + half, [&](std::uint64_t, std::uint64_t) {
          sim::Scheduler scheduler(g, inst.model);  // port-only
          baselines::SweepAgent a;
          baselines::WaitingAgent b;
          return scheduler.run(a, b, inst.placement, cap);
        });
    const auto walk_out = bench::repeat(
        runner, config.reps, 200 + half,
        [&](std::uint64_t, std::uint64_t seed) {
          sim::Scheduler scheduler(g, inst.model);
          Rng walk_rng(seed);
          baselines::RandomWalkAgent a(walk_rng.split());
          baselines::RandomWalkAgent b(walk_rng.split());
          return scheduler.run(a, b, inst.placement, cap);
        });
    const auto core_out = bench::repeat(
        runner, config.reps, 300 + half,
        [&](std::uint64_t, std::uint64_t seed) {
          core::RendezvousOptions options;
          options.strategy = core::Strategy::Whiteboard;  // full model (KT1)
          options.seed = seed;
          return core::run_rendezvous(g, inst.placement, options).run;
        });

    const std::string cell = "_n" + std::to_string(g.num_vertices());
    bench::emit_aggregate(config, "e7_sweep" + cell, sweep_out.aggregate);
    bench::emit_aggregate(config, "e7_walk" + cell, walk_out.aggregate);
    bench::emit_aggregate(config, "e7_core" + cell, core_out.aggregate);
    // Only the random walks ever hit their cap; report that separately so
    // the protocol columns are unambiguous.
    table.add_row(RowBuilder()
                      .add(std::uint64_t{g.num_vertices()})
                      .add(std::uint64_t{g.min_degree()})
                      .add(sweep_out.rounds.median, 0)
                      .add(walk_out.rounds.median, 0)
                      .add(core_out.rounds.median, 0)
                      .add(walk_out.failures)
                      .build());
    ns.push_back(static_cast<double>(g.num_vertices()));
    sweep_r.push_back(sweep_out.rounds.median);
    walk_r.push_back(walk_out.rounds.median);
    core_r.push_back(core_out.rounds.median);
  }
  table.print(std::cout);
  bench::print_fit("sweep (port-only)", ns, sweep_r);
  bench::print_fit("random walks (port-only)", ns, walk_r);
  bench::print_fit("core algorithm (KT1 restored)", ns, core_r);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
