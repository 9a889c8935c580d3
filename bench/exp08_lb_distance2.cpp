// E8 — Theorem 5 / Figure 3: the Ω(Δ) lower bound at initial distance two.
//
// Paper claim: two cliques sharing a single vertex force Ω(Δ) rounds when
// the agents start at distance TWO — neighborhood rendezvous' distance-1
// promise is essential.
//
// The bench measures algorithm families on the distance-2 instance and, as
// the control, the same graph with a distance-1 placement inside one clique
// (where Theorem 1's algorithm applies and is fast).
#include "bench_support.hpp"

#include "baselines/random_walk.hpp"
#include "baselines/wait_and_explore.hpp"
#include "baselines/wait_and_sweep.hpp"  // WaitingAgent
#include "lower_bounds/instances.hpp"

using namespace fnr;

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E8 — Theorem 5 / Figure 3: shared-vertex cliques, initial distance 2",
      "Expected shape: at distance 2 every family pays Omega(n) (the agents "
      "must discover the unique cut vertex); the distance-1 control on the "
      "same graph is solved fast. The core algorithm refuses distance-2 "
      "inputs (its promise is distance 1) — recorded as 'precondition'.");
  bench::print_runner_info(runner);

  Table table({"n", "Delta", "explore d2(med)", "walk d2(med)",
               "core d2", "core d1 control(med)", "fail"});

  std::vector<double> ns, explore_r, walk_r;
  for (const auto half : config.sizes({128, 256, 512, 1024})) {
    const auto inst = lower_bounds::theorem5_instance(half);
    const auto& g = inst.graph;
    const std::uint64_t cap = 200 * g.num_vertices();

    // Shuffle IDs so the DFS cannot ride the construction's index layout.
    Rng id_rng(half, 8);
    const auto shuffled_graph =
        graph::with_ids(g, graph::shuffled_ids(g.num_vertices(), id_rng));

    // DFS exploration vs a waiting partner on a fixed placement is
    // deterministic — one trial carries all the information.
    const auto explore_out = bench::repeat(
        runner, 1, 100 + half, [&](std::uint64_t, std::uint64_t) {
          sim::Scheduler scheduler(shuffled_graph, inst.model);
          baselines::ExploreAgent a;
          baselines::WaitingAgent b;
          return scheduler.run(a, b, inst.placement, cap);
        });
    const auto walk_out = bench::repeat(
        runner, config.reps, 200 + half,
        [&](std::uint64_t, std::uint64_t seed) {
          sim::Scheduler scheduler(shuffled_graph, inst.model);
          Rng walk_rng(seed);
          baselines::RandomWalkAgent a(walk_rng.split());
          baselines::RandomWalkAgent b(walk_rng.split());
          return scheduler.run(a, b, inst.placement, cap);
        });

    // Core algorithm: distance-2 placement violates the promise (throws);
    // distance-1 control inside clique A works.
    std::string core_d2 = "precondition";
    try {
      (void)core::run_rendezvous(shuffled_graph, inst.placement, {});
      core_d2 = "ran";
    } catch (const CheckError&) {
    }
    const auto control = bench::repeat(
        runner, config.reps, 300 + half,
        [&](std::uint64_t, std::uint64_t seed) {
          core::RendezvousOptions options;
          options.strategy = core::Strategy::Whiteboard;
          options.seed = seed;
          // a_start and the shared vertex are adjacent (both in clique A).
          return core::run_rendezvous(
                     shuffled_graph,
                     sim::Placement{inst.placement.a_start, inst.aux},
                     options)
              .run;
        });

    const std::string cell = "_n" + std::to_string(g.num_vertices());
    bench::emit_aggregate(config, "e8_explore_d2" + cell,
                          explore_out.aggregate);
    bench::emit_aggregate(config, "e8_walk_d2" + cell, walk_out.aggregate);
    bench::emit_aggregate(config, "e8_control_d1" + cell, control.aggregate);
    table.add_row(RowBuilder()
                      .add(std::uint64_t{g.num_vertices()})
                      .add(std::uint64_t{g.max_degree()})
                      .add(explore_out.rounds.median, 0)
                      .add(walk_out.rounds.median, 0)
                      .add(core_d2)
                      .add(control.rounds.median, 0)
                      .add(explore_out.failures + walk_out.failures +
                           control.failures)
                      .build());
    ns.push_back(static_cast<double>(g.num_vertices()));
    explore_r.push_back(explore_out.rounds.median);
    walk_r.push_back(walk_out.rounds.median);
  }
  table.print(std::cout);
  bench::print_fit("wait+explore at distance 2", ns, explore_r);
  bench::print_fit("random walks at distance 2", ns, walk_r);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
