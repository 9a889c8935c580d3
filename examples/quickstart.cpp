// Quickstart: run the paper's whiteboard algorithm (Theorem 1) on a random
// dense graph and print what happened.
//
//   ./quickstart [--n=1024] [--seed=7]
#include <cmath>
#include <iostream>

#include "core/rendezvous.hpp"
#include "graph/generators.hpp"
#include "sim/scheduler.hpp"
#include "util/cli.hpp"

static int run_example(int argc, char** argv) {
  using namespace fnr;
  Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 1024));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  cli.reject_unknown();

  // 1. A graph with a healthy minimum degree (Theorem 1 wants δ >= √n).
  Rng rng(seed);
  const auto g = graph::make_near_regular(n, /*out_degree=*/n / 8, rng);
  std::cout << "graph: " << g.describe() << "\n";

  // 2. Two agents on adjacent vertices — the neighborhood-rendezvous
  //    instance class I₁ of the paper.
  const auto placement = sim::random_adjacent_placement(g, rng);
  std::cout << "agent a starts at vertex " << g.id_of(placement.a_start)
            << ", agent b at adjacent vertex " << g.id_of(placement.b_start)
            << "\n";

  // 3. Run Construct + Main-Rendezvous (Algorithm 1 + 3).
  core::RendezvousOptions options;
  options.strategy = core::Strategy::Whiteboard;
  options.seed = seed;
  const auto report = core::run_rendezvous(g, placement, options);

  std::cout << "outcome: " << report.describe() << "\n";
  const double bound = core::theorem1_bound(
      n, static_cast<double>(g.min_degree()),
      static_cast<double>(g.max_degree()));
  std::cout << "Theorem 1 bound shape for this graph: ~" << std::llround(bound)
            << " rounds; measured " << report.run.meeting_round << "\n";
  return report.run.met ? 0 : 1;
}

int main(int argc, char** argv) {
  return fnr::guarded_main(argc, argv, run_example);
}
