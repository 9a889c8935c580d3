// Why the paper's assumptions are all necessary: build each of the four
// lower-bound worlds (Theorems 3-6) and watch algorithms struggle.
//
//   ./lower_bound_demo [--n=512]
#include <iostream>

#include "baselines/random_walk.hpp"
#include "baselines/wait_and_explore.hpp"
#include "baselines/wait_and_sweep.hpp"
#include "core/rendezvous.hpp"
#include "lower_bounds/adversary.hpp"
#include "lower_bounds/instances.hpp"
#include "util/cli.hpp"

using namespace fnr;

namespace {

void banner(const std::string& text) {
  std::cout << "\n=== " << text << " ===\n";
}

}  // namespace

static int run_example(int argc, char** argv) {
  Cli cli(argc, argv);
  auto n = static_cast<std::size_t>(cli.get_int("n", 512));
  cli.reject_unknown();
  n = (n / 32) * 32;  // Theorem 6 wants n ≡ 0 (mod 32)

  banner("Theorem 3 / Figure 1: minimum degree matters (glued stars)");
  {
    const auto inst = lower_bounds::theorem3_instance(n / 2);
    Rng rng(1, 21);
    auto permuted = graph::permute_indices(inst.graph, rng);
    sim::Placement placement{permuted.mapping[inst.placement.a_start],
                             permuted.mapping[inst.placement.b_start]};
    sim::Scheduler scheduler(permuted.graph, sim::Model::full());
    baselines::ExploreAgent a;
    baselines::WaitingAgent b;
    const auto result = scheduler.run(a, b, placement,
                                      100 * permuted.graph.num_vertices());
    std::cout << "delta = 1, Delta = " << permuted.graph.max_degree()
              << ": exhaustive exploration needed " << result.meeting_round
              << " rounds — Omega(Delta), as Theorem 3 predicts.\n";
  }

  banner("Theorem 4 / Figure 2: neighborhood IDs matter (bridged cliques)");
  {
    const auto inst = lower_bounds::theorem4_instance(n / 2);
    sim::Scheduler blind(inst.graph, inst.model);  // port-only
    baselines::SweepAgent sweep;
    baselines::WaitingAgent waiter;
    const auto blind_run =
        blind.run(sweep, waiter, inst.placement,
                  100 * inst.graph.num_vertices());
    core::RendezvousOptions options;
    options.seed = 2;
    const auto sighted =
        core::run_rendezvous(inst.graph, inst.placement, options);
    std::cout << "port-only sweep: " << blind_run.meeting_round
              << " rounds; the same graph with KT1 restored: "
              << sighted.run.meeting_round << " rounds.\n";
  }

  banner("Theorem 5 / Figure 3: distance 1 matters (shared-vertex cliques)");
  {
    const auto inst = lower_bounds::theorem5_instance(n / 2);
    try {
      (void)core::run_rendezvous(inst.graph, inst.placement, {});
    } catch (const CheckError& e) {
      std::cout << "core algorithm rejects the distance-2 start:\n  "
                << e.what() << "\n";
    }
    sim::Scheduler scheduler(inst.graph, inst.model);
    baselines::RandomWalkAgent a(Rng(3, 1));
    baselines::RandomWalkAgent b(Rng(3, 2));
    const auto result = scheduler.run(a, b, inst.placement,
                                      200 * inst.graph.num_vertices());
    std::cout << "random walks from distance 2 needed "
              << (result.met ? std::to_string(result.meeting_round)
                             : "more than the cap of")
              << " rounds on " << inst.graph.num_vertices()
              << " vertices.\n";
  }

  banner("Theorem 6: randomization matters (adaptive adversary)");
  {
    const auto inst = lower_bounds::build_theorem6_instance(
        &lower_bounds::make_lex_dfs, &lower_bounds::make_lex_dfs, n);
    std::cout << "the adversary stranded " << inst.w_a << " + " << inst.w_b
              << " of " << n << " vertices away from two deterministic "
              << "DFS agents;\n";
    sim::Scheduler scheduler(inst.graph, sim::Model::full());
    lower_bounds::DetAgentAdapter agent_a(lower_bounds::make_lex_dfs());
    lower_bounds::DetAgentAdapter agent_b(lower_bounds::make_lex_dfs());
    const auto result = scheduler.run(agent_a, agent_b, inst.placement,
                                      32 * n);
    std::cout << "on the glued instance the deterministic pair "
              << (result.met ? "met only at round " +
                                   std::to_string(result.meeting_round)
                             : "never met within " +
                                   std::to_string(32 * n) + " rounds")
              << " (bound: n/32 = " << n / 32 << ").\n";
    core::RendezvousOptions options;
    options.seed = 4;
    const auto randomized =
        core::run_rendezvous(inst.graph, inst.placement, options);
    std::cout << "the randomized algorithm on the same instance: "
              << randomized.run.meeting_round << " rounds.\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return fnr::guarded_main(argc, argv, run_example);
}
