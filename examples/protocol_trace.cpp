// Protocol anatomy: dissect Theorem 1's algorithm on a small graph.
//
// Part 1 runs Construct (Algorithm 3) alone — agent a builds its
// (a, δ/8, 2)-dense set T^a with nobody to bump into, so every counter is
// meaningful. Part 2 runs the full two-agent protocol; on dense graphs the
// agents frequently collide while a is still constructing (the paper counts
// any co-location as rendezvous), which the output calls out.
//
//   ./protocol_trace [--n=64] [--seed=5] [--verbose]
#include <iostream>
#include <memory>

#include "core/construct.hpp"
#include "core/rendezvous.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sim/scripted_agent.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace fnr;

namespace {

/// Minimal lone-agent driver for ConstructRun (mirrors WhiteboardAgentA's
/// construct phase; see also tests/test_construct.cpp).
class ConstructTracer final : public sim::ScriptedAgent {
 public:
  ConstructTracer(const core::Params& params, double delta, Rng rng)
      : params_(params), delta_(delta), rng_(rng) {}

  [[nodiscard]] bool halted() const override { return done_; }
  std::vector<graph::VertexId> t_set;
  core::ConstructStats stats;

 protected:
  void on_idle(const sim::View& view) override {
    if (!init_) {
      knowledge_.init_home(view.here(), view.neighbor_ids());
      run_ = std::make_unique<core::ConstructRun>(knowledge_, params_, delta_,
                                                  view.num_vertices());
      init_ = true;
    }
    if (view.here() != knowledge_.home()) {
      run_->on_arrival(view);
      plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
      return;
    }
    while (auto target = run_->next_target(rng_)) {
      if (*target == view.here()) {
        run_->on_arrival(view);
        continue;
      }
      plan_route(knowledge_.route_from_home(*target));
      return;
    }
    t_set = run_->t_set();
    stats = run_->stats();
    done_ = true;
  }

 private:
  core::Params params_;
  double delta_;
  Rng rng_;
  bool init_ = false;
  bool done_ = false;
  core::Knowledge knowledge_;
  std::unique_ptr<core::ConstructRun> run_;
};

}  // namespace

static int run_example(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 64));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));
  const bool verbose = cli.get_flag("verbose");
  cli.reject_unknown();
  if (verbose) set_log_level(LogLevel::Debug);

  Rng rng(seed);
  const auto g = graph::make_near_regular(n, n / 4, rng);
  const auto placement = sim::random_adjacent_placement(g, rng);
  std::cout << "graph: " << g.describe() << "\n"
            << "a at " << g.id_of(placement.a_start) << " (degree "
            << g.degree(placement.a_start) << "), b at "
            << g.id_of(placement.b_start) << " (degree "
            << g.degree(placement.b_start) << ")\n\n";

  // --- Part 1: Construct, alone -------------------------------------------
  const auto params = core::Params::practical();
  const double delta = static_cast<double>(g.min_degree());
  sim::Scheduler solo(g, sim::Model::full());
  ConstructTracer tracer(params, delta, Rng(seed, 42));
  const auto solo_run = solo.run_single(
      tracer, placement.a_start, params.construct_round_budget(n, delta) * 4);

  std::cout << "Construct (Algorithm 3), agent a alone:\n"
            << "  adopted x_i vertices (iterations): "
            << tracer.stats.iterations << "\n"
            << "  optimistic Sample runs:            "
            << tracer.stats.optimistic_runs << "\n"
            << "  strict Sample runs:                "
            << tracer.stats.strict_runs << "\n"
            << "  Sample target visits:              "
            << tracer.stats.sample_visits << "\n"
            << "  direct lightness probes:           "
            << tracer.stats.probe_visits << "\n"
            << "  rounds until T^a ready:            "
            << solo_run.metrics.rounds << "\n"
            << "  |T^a| = " << tracer.t_set.size() << " of n = " << n << "\n";
  std::vector<graph::VertexIndex> t_idx;
  for (const auto id : tracer.t_set) t_idx.push_back(g.index_of(id));
  std::cout << "  (a, delta/8, 2)-dense condition verified: "
            << (graph::is_dense_set(g, placement.a_start, t_idx, delta / 8.0,
                                    2)
                    ? "yes"
                    : "NO")
            << "\n\n";

  // --- Part 2: the full two-agent protocol --------------------------------
  core::RendezvousOptions options;
  options.strategy = core::Strategy::Whiteboard;
  options.seed = seed;
  const auto report = core::run_rendezvous(g, placement, options);

  std::cout << "Full protocol (Algorithm 1):\n"
            << "  outcome: " << report.run.describe() << "\n";
  if (report.agent_a.t_set_size == 0) {
    std::cout << "  the agents collided while a was still constructing T^a\n"
              << "  (dense graphs: both roam the same two-hop ball; the\n"
              << "  paper counts any co-location as rendezvous)\n";
  } else {
    std::cout << "  T^a completed with " << report.agent_a.t_set_size
              << " vertices; a probed it " << report.agent_a.main_probes
              << " times; b wrote " << report.agent_b_marks << " marks; "
              << (report.agent_a.found_mark
                      ? "a read a mark and walked to b's start"
                      : "the agents met by collision")
              << "\n";
  }
  std::cout << "\n(re-run with --verbose for per-phase debug logging)\n";
  return report.run.met ? 0 : 1;
}

int main(int argc, char** argv) {
  return fnr::guarded_main(argc, argv, run_example);
}
