// E13/ablation — why Construct's two-step decision exists (§3.3).
//
// The paper motivates the optimistic-then-strict structure explicitly: a
// strict Sample over all of N+(Sᵃ) every iteration would cost O((n/δ)²)
// rounds, while sampling only the newly added difference sets (falling back
// to strict runs O(log n) times) costs O((n/δ)·log²n). This ablation runs
// Construct both ways (Params::optimistic_decision) on the same instances
// and reports the measured speedup, which must widen as n/δ grows.
#include "bench_support.hpp"

#include "core/construct.hpp"
#include "sim/scripted_agent.hpp"

using namespace fnr;

namespace {

class ConstructProbe final : public sim::ScriptedAgent {
 public:
  ConstructProbe(const core::Params& params, double delta, Rng rng)
      : params_(params), delta_(delta), rng_(rng) {}
  [[nodiscard]] bool halted() const override { return done_; }
  core::ConstructStats stats;
  std::vector<graph::VertexId> t_set;

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
    stats = run_->stats();
    t_set = run_->t_set();
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
      "Ablation — Construct's two-step decision vs strict-only (δ ~ n^0.6)",
      "Expected shape: the paper's optimistic/strict mix beats the naive "
      "always-strict variant by a factor that widens with n/delta "
      "(O((n/d)log^2 n) vs O((n/d)^2) rounds), with identical output "
      "quality (both T^a dense).");
  bench::print_runner_info(runner);
  bench::note_no_aggregates(config);

  Table table({"n", "delta", "n/delta", "two-step rounds(med)",
               "strict-only rounds(med)", "speedup", "iters(med)",
               "both dense"});

  for (const auto n : config.sizes({512, 1024, 2048, 4096})) {
    Rng grng(40 + n, 911);
    const auto out_degree = static_cast<std::size_t>(
        std::max(2.0, std::pow(static_cast<double>(n), 0.6) / 2.0));
    const auto g = graph::make_near_regular(n, out_degree, grng);
    const double delta = static_cast<double>(g.min_degree());

    struct Trial {
      bool halted = false;
      bool dense = false;
      double rounds = 0, iters = 0;
    };
    auto run_variant = [&](bool optimistic, std::vector<double>& rounds,
                           std::vector<double>& iters, bool& dense) {
      auto params = core::Params::practical();
      params.optimistic_decision = optimistic;
      const auto trials = runner.run_map(
          config.reps, 40 + n + (optimistic ? 0 : 1),
          [&](std::uint64_t, std::uint64_t seed) {
            Trial trial;
            sim::Scheduler scheduler(g, sim::Model::full());
            ConstructProbe probe(params, delta, Rng(seed));
            const auto result = scheduler.run_single(
                probe, 0, 400 * params.construct_round_budget(n, delta));
            if (!probe.halted()) return trial;
            trial.halted = true;
            trial.rounds = static_cast<double>(result.metrics.rounds);
            trial.iters = static_cast<double>(probe.stats.iterations);
            std::vector<graph::VertexIndex> t_idx;
            for (const auto id : probe.t_set) t_idx.push_back(g.index_of(id));
            trial.dense = graph::is_dense_set(g, 0, t_idx, delta / 8.0, 2);
            return trial;
          });
      for (const auto& trial : trials) {
        if (!trial.halted) {
          dense = false;
          continue;
        }
        rounds.push_back(trial.rounds);
        iters.push_back(trial.iters);
        dense = dense && trial.dense;
      }
    };

    std::vector<double> two_step, strict_only, iters_two, iters_strict;
    bool dense = true;
    run_variant(true, two_step, iters_two, dense);
    run_variant(false, strict_only, iters_strict, dense);

    const double med_two = summarize(two_step).median;
    const double med_strict = summarize(strict_only).median;
    table.add_row(RowBuilder()
                      .add(std::uint64_t{n})
                      .add(delta, 0)
                      .add(static_cast<double>(n) / delta, 1)
                      .add(med_two, 0)
                      .add(med_strict, 0)
                      .add(med_two > 0 ? med_strict / med_two : 0.0, 2)
                      .add(summarize(iters_two).median, 1)
                      .add(dense ? "yes" : "NO")
                      .build());
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
