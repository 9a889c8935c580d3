// E6 — Theorem 3 / Figure 1: the Ω(Δ) lower bound without a minimum-degree
// promise.
//
// Paper claim: with δ = o(√n) and Δ = ω(√n) there are instances (glued
// stars) where EVERY algorithm needs Ω(Δ) rounds with constant probability.
//
// The bench runs four very different algorithm families (Theorem 1's
// whiteboard algorithm, wait+explore, wait+sweep, random walks) on the
// glued-star instance and shows every one of them scaling linearly in
// Δ ≈ n/2 — no sublinear escape exists. Vertex indices are freshly permuted
// per repetition so no strategy (port-ordered or ID-ordered) can ride the
// construction's layout.
#include "bench_support.hpp"

#include "baselines/random_walk.hpp"
#include "baselines/wait_and_explore.hpp"
#include "baselines/wait_and_sweep.hpp"
#include "lower_bounds/instances.hpp"

using namespace fnr;

namespace {

struct PermutedInstance {
  graph::Graph graph;
  sim::Placement placement;
};

PermutedInstance permuted_double_star(std::size_t leaves,
                                      std::uint64_t seed) {
  auto inst = lower_bounds::theorem3_instance(leaves);
  Rng rng(seed, 21);
  auto permuted = graph::permute_indices(inst.graph, rng);
  return PermutedInstance{
      std::move(permuted.graph),
      sim::Placement{permuted.mapping[inst.placement.a_start],
                     permuted.mapping[inst.placement.b_start]}};
}

}  // namespace

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E6 — Theorem 3 / Figure 1: glued stars (delta = 1, Delta = n/2 + 1)",
      "Expected shape: every algorithm family needs Omega(Delta) = Omega(n) "
      "rounds — fitted exponents ~1 across the board.");
  bench::print_runner_info(runner);

  Table table({"n", "Delta", "core algo(med)", "explore(med)", "sweep(med)",
               "random walk(med)", "fail"});

  std::vector<double> ns, core_r, explore_r, sweep_r, walk_r;
  for (const auto leaves : config.sizes({128, 256, 512, 1024, 2048})) {
    // Meeting times here are heavy-tailed; use extra reps.
    const std::uint64_t reps = 5 * config.reps;
    // Permutation preserves n and the degree sequence; read the metadata
    // off one reference instance rather than from inside the trial lambdas
    // (which run concurrently).
    const auto reference = permuted_double_star(leaves, 0);
    const std::size_t n_vertices = reference.graph.num_vertices();
    const std::size_t max_degree = reference.graph.max_degree();

    const auto core_out = bench::repeat(
        runner, reps, 170 + leaves, [&](std::uint64_t, std::uint64_t seed) {
          const auto inst = permuted_double_star(leaves, seed);
          core::RendezvousOptions options;
          options.strategy = core::Strategy::Whiteboard;
          options.seed = seed;
          options.max_rounds = 500 * inst.graph.num_vertices();
          return core::run_rendezvous(inst.graph, inst.placement, options)
              .run;
        });
    const auto explore_out = bench::repeat(
        runner, reps, 270 + leaves, [&](std::uint64_t, std::uint64_t seed) {
          const auto inst = permuted_double_star(leaves, seed);
          sim::Scheduler scheduler(inst.graph, sim::Model::full());
          baselines::ExploreAgent a;
          baselines::WaitingAgent b;
          return scheduler.run(a, b, inst.placement,
                               500 * inst.graph.num_vertices());
        });
    const auto sweep_out = bench::repeat(
        runner, reps, 370 + leaves, [&](std::uint64_t, std::uint64_t seed) {
          const auto inst = permuted_double_star(leaves, seed);
          sim::Scheduler scheduler(inst.graph, sim::Model::full());
          baselines::SweepAgent a;
          baselines::WaitingAgent b;
          return scheduler.run(a, b, inst.placement,
                               500 * inst.graph.num_vertices());
        });
    const auto walk_out = bench::repeat(
        runner, reps, 470 + leaves, [&](std::uint64_t, std::uint64_t seed) {
          const auto inst = permuted_double_star(leaves, seed);
          sim::Scheduler scheduler(inst.graph, sim::Model::full());
          Rng walk_rng(seed);
          baselines::RandomWalkAgent a(walk_rng.split());
          baselines::RandomWalkAgent b(walk_rng.split());
          return scheduler.run(a, b, inst.placement,
                               500 * inst.graph.num_vertices());
        });

    const std::string cell = "_n" + std::to_string(n_vertices);
    bench::emit_aggregate(config, "e6_core" + cell, core_out.aggregate);
    bench::emit_aggregate(config, "e6_explore" + cell, explore_out.aggregate);
    bench::emit_aggregate(config, "e6_sweep" + cell, sweep_out.aggregate);
    bench::emit_aggregate(config, "e6_walk" + cell, walk_out.aggregate);
    table.add_row(RowBuilder()
                      .add(std::uint64_t{n_vertices})
                      .add(std::uint64_t{max_degree})
                      .add(core_out.rounds.median, 0)
                      .add(explore_out.rounds.median, 0)
                      .add(sweep_out.rounds.median, 0)
                      .add(walk_out.rounds.median, 0)
                      .add(core_out.failures + explore_out.failures +
                           sweep_out.failures + walk_out.failures)
                      .build());
    ns.push_back(static_cast<double>(n_vertices));
    core_r.push_back(core_out.rounds.median);
    explore_r.push_back(explore_out.rounds.median);
    sweep_r.push_back(sweep_out.rounds.median);
    walk_r.push_back(walk_out.rounds.median);
  }
  table.print(std::cout);
  bench::print_fit("core algorithm", ns, core_r);
  bench::print_fit("wait+explore", ns, explore_r);
  bench::print_fit("wait+sweep", ns, sweep_r);
  bench::print_fit("random walks", ns, walk_r);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
