// E3 — Construct (Lemmas 6-8): iterations, strict runs, rounds.
//
// Paper claims: Construct finishes in O(n/δ) iterations, with O(log n)
// strict Sample runs, within O((n/δ)·log²n) rounds, and the output satisfies
// the (a, δ/8, 2)-dense condition.
#include "bench_support.hpp"

#include "core/construct.hpp"
#include "sim/scripted_agent.hpp"

using namespace fnr;

namespace {

/// Lone-agent driver (same pattern as WhiteboardAgentA's construct phase).
class ConstructProbe final : public sim::ScriptedAgent {
 public:
  ConstructProbe(const core::Params& params, double delta, Rng rng)
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

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E3 — Construct cost (Lemmas 6-8) on near-regular graphs, "
      "delta ~ n^0.78",
      "Expected shape: iterations <= 2n/delta, strict runs = O(log n), "
      "rounds <= the deterministic budget t' both Algorithm-4 agents "
      "synchronize on; the dense condition holds in every run.");
  bench::print_runner_info(runner);
  bench::note_no_aggregates(config);

  Table table({"n", "delta", "iters(med)", "2n/delta", "strict(med)",
               "log2 n", "rounds(med)", "budget t'", "|T^a|(med)",
               "dense ok"});

  struct Trial {
    bool halted = false;
    bool dense = false;
    double iters = 0, strict = 0, rounds = 0, t_size = 0;
  };

  const auto params = core::Params::practical();
  for (const auto n : config.sizes({256, 512, 1024, 2048, 4096})) {
    const auto g = bench::dense_family(n, 0.78, 300 + n);
    const double delta = static_cast<double>(g.min_degree());
    const auto trials = runner.run_map(
        config.reps, 300 + n, [&](std::uint64_t, std::uint64_t seed) {
          Trial trial;
          sim::Scheduler scheduler(g, sim::Model::full());
          ConstructProbe probe(params, delta, Rng(seed));
          const auto result = scheduler.run_single(
              probe, 0, params.construct_round_budget(n, delta) * 4);
          if (!probe.halted()) return trial;
          trial.halted = true;
          trial.iters = static_cast<double>(probe.stats.iterations);
          trial.strict = static_cast<double>(probe.stats.strict_runs);
          trial.rounds = static_cast<double>(result.metrics.rounds);
          trial.t_size = static_cast<double>(probe.t_set.size());
          std::vector<graph::VertexIndex> t_idx;
          for (const auto id : probe.t_set) t_idx.push_back(g.index_of(id));
          trial.dense = graph::is_dense_set(g, 0, t_idx, delta / 8.0, 2);
          return trial;
        });
    std::vector<double> iters, strict, rounds, t_sizes;
    bool dense_ok = true;
    for (const auto& trial : trials) {
      if (!trial.halted) {
        dense_ok = false;
        continue;
      }
      iters.push_back(trial.iters);
      strict.push_back(trial.strict);
      rounds.push_back(trial.rounds);
      t_sizes.push_back(trial.t_size);
      dense_ok = dense_ok && trial.dense;
    }
    table.add_row(RowBuilder()
                      .add(std::uint64_t{n})
                      .add(delta, 0)
                      .add(summarize(iters).median, 1)
                      .add(2.0 * static_cast<double>(n) / delta, 1)
                      .add(summarize(strict).median, 1)
                      .add(std::log2(static_cast<double>(n)), 1)
                      .add(summarize(rounds).median, 0)
                      .add(std::uint64_t{params.construct_round_budget(
                          n, delta)})
                      .add(summarize(t_sizes).median, 0)
                      .add(dense_ok ? "yes" : "NO")
                      .build());
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
