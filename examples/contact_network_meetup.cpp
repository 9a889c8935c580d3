// Scenario: two couriers in a dense urban contact network must meet at a
// shared location, knowing only their own neighborhoods.
//
// The network is a hub-augmented random graph: a few "depot" locations are
// connected to everything (Δ = n-1) while ordinary locations maintain a
// bounded contact list (δ ≪ Δ). This is exactly the regime where the naive
// "check every neighbor" plan costs Θ(Δ) and the paper's algorithm pays
// only in terms of δ. The example also shows the doubling variant (§4.1)
// for couriers that do not know the network's minimum degree.
//
//   ./contact_network_meetup [--n=4096] [--contacts=96] [--seed=3]
#include <iostream>

#include "baselines/wait_and_sweep.hpp"
#include "core/rendezvous.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

static int run_example(int argc, char** argv) {
  using namespace fnr;
  Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 4096));
  const auto contacts = static_cast<std::size_t>(cli.get_int("contacts", 96));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  cli.reject_unknown();

  Rng rng(seed);
  const auto g = graph::make_hub_augmented(n, contacts, /*num_hubs=*/2, rng);
  std::cout << "contact network: " << g.describe() << "\n";

  // Both couriers are at the two depots (worst case for the naive plan:
  // the depot's contact list is the whole city).
  const sim::Placement placement{static_cast<graph::VertexIndex>(n - 2),
                                 static_cast<graph::VertexIndex>(n - 1)};

  // Plan A: the naive sweep — check every contact of the depot in turn.
  {
    sim::Scheduler scheduler(g, sim::Model::port_only());
    baselines::SweepAgent sweeper;
    baselines::WaitingAgent waiter;
    const auto nbrs = g.neighbors(placement.a_start);
    // Adversarial: the partner is behind the last port.
    const auto worst = scheduler.run(
        sweeper, waiter,
        sim::Placement{placement.a_start, nbrs[nbrs.size() - 1]},
        4 * g.max_degree() + 8);
    std::cout << "naive sweep, partner behind the last port: "
              << worst.meeting_round << " rounds (Θ(Δ))\n";
  }

  // Plan B: the paper's algorithm, couriers know δ.
  {
    core::RendezvousOptions options;
    options.strategy = core::Strategy::Whiteboard;
    options.seed = seed;
    const auto report = core::run_rendezvous(g, placement, options);
    std::cout << "Theorem 1 algorithm (known delta):   "
              << report.run.meeting_round << " rounds — "
              << report.describe() << "\n";
  }

  // Plan C: couriers do not know δ — doubling estimation (§4.1).
  {
    core::RendezvousOptions options;
    options.strategy = core::Strategy::WhiteboardDoubling;
    options.seed = seed;
    const auto report = core::run_rendezvous(g, placement, options);
    std::cout << "Theorem 1 + doubling (unknown delta): "
              << report.run.meeting_round << " rounds, "
              << report.agent_a.doubling_restarts
              << " restart(s), final estimate delta' = "
              << report.delta_used << "\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return fnr::guarded_main(argc, argv, run_example);
}
