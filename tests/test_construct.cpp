// Algorithm 3 (Construct): the produced T^a really is (a, δ/8, 2)-dense
// (verified against ground truth), and the iteration / strict-run counts
// stay inside the Lemma 6-8 budgets.
#include <gtest/gtest.h>

#include <cmath>

#include "core/construct.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sim/scheduler.hpp"
#include "sim/scripted_agent.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace fnr::core {
namespace {

/// Runs Construct to completion as a lone agent.
class ConstructDriver final : public sim::ScriptedAgent {
 public:
  ConstructDriver(const Params& params, double delta, Rng rng)
      : params_(params), delta_(delta), rng_(rng) {}

  [[nodiscard]] bool halted() const override { return done_; }
  std::vector<graph::VertexId> t_set;
  ConstructStats stats;

 protected:
  void on_idle(const sim::View& view) override {
    if (!init_) {
      knowledge_.init_home(view.here(), view.neighbor_ids());
      run_ = std::make_unique<ConstructRun>(knowledge_, params_, delta_,
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
    stats.rounds_used = view.round();
    done_ = true;
  }

 private:
  Params params_;
  double delta_;
  Rng rng_;
  bool init_ = false;
  bool done_ = false;
  Knowledge knowledge_;
  std::unique_ptr<ConstructRun> run_;
};

struct ConstructOutcome {
  std::vector<graph::VertexId> t_set;
  ConstructStats stats;
};

ConstructOutcome run_construct(const graph::Graph& g, graph::VertexIndex home,
                               std::uint64_t seed,
                               Params params = Params::practical()) {
  sim::Scheduler scheduler(g, sim::Model::full());
  ConstructDriver driver(params, static_cast<double>(g.min_degree()),
                         Rng(seed));
  const auto result = scheduler.run_single(driver, home, 50'000'000);
  EXPECT_TRUE(driver.halted()) << "Construct did not finish within "
                               << result.metrics.rounds << " rounds";
  return {driver.t_set, driver.stats};
}

TEST(Construct, CompleteGraphTakesWholeVertexSet) {
  const auto g = graph::make_complete(64);
  const auto out = run_construct(g, 0, 3);
  // Every vertex is heavy for N+(v0) = V immediately: no iterations needed.
  EXPECT_EQ(out.t_set.size(), 64u);
  EXPECT_EQ(out.stats.iterations, 0u);
}

TEST(Construct, DenseConditionHoldsOnNearRegular) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto g = test::dense_graph(256, seed);
    const auto out = run_construct(g, 0, seed * 31);
    const double alpha = static_cast<double>(g.min_degree()) / 8.0;
    EXPECT_TRUE(graph::is_dense_set(g, 0, test::to_indices(g, out.t_set),
                                    alpha, 2))
        << "dense condition violated, seed=" << seed
        << " |T|=" << out.t_set.size();
  }
}

TEST(Construct, DenseConditionHoldsOnHubGraph) {
  Rng rng(5);
  const auto g = graph::make_hub_augmented(256, 40, 4, rng);
  const auto out = run_construct(g, 0, 17);
  const double alpha = static_cast<double>(g.min_degree()) / 8.0;
  EXPECT_TRUE(
      graph::is_dense_set(g, 0, test::to_indices(g, out.t_set), alpha, 2));
}

TEST(Construct, TSetIsWithinTwoHops) {
  const auto g = test::dense_graph(256, 9);
  const auto out = run_construct(g, 5, 23);
  const auto dist = graph::bfs_distances(g, 5);
  for (const auto id : out.t_set) EXPECT_LE(dist[g.index_of(id)], 2u);
}

TEST(Construct, IterationBudgetLemma6) {
  // Lemma 6: O(n/δ) iterations; each adopted x_i contributes >= δ/2 fresh
  // vertices w.h.p., so iterations <= 2n/δ (+1 slack).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto g = test::dense_graph(512, seed);
    const auto out = run_construct(g, 0, seed);
    const double budget =
        2.0 * static_cast<double>(g.num_vertices()) /
            static_cast<double>(g.min_degree()) + 1.0;
    EXPECT_LE(static_cast<double>(out.stats.iterations), budget)
        << "seed=" << seed;
  }
}

TEST(Construct, StrictRunBudgetLemma7) {
  // Lemma 7: O(log n) strict runs w.h.p.
  const auto g = test::dense_graph(512, 21);
  const auto out = run_construct(g, 0, 77);
  const double budget = 4.0 * std::log2(512.0) + 4.0;
  EXPECT_LE(static_cast<double>(out.stats.strict_runs), budget);
}

TEST(Construct, RoundBudgetLemma8) {
  // Lemma 8: O((n/δ) log² n) rounds; our Params expose the same deterministic
  // budget Algorithm 4 synchronizes on — Construct must fit inside it.
  const auto params = Params::practical();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto g = test::dense_graph(256, seed + 40);
    sim::Scheduler scheduler(g, sim::Model::full());
    ConstructDriver driver(params, static_cast<double>(g.min_degree()),
                           Rng(seed));
    const auto result = scheduler.run_single(driver, 0, 50'000'000);
    ASSERT_TRUE(driver.halted());
    EXPECT_LE(result.metrics.rounds,
              params.construct_round_budget(
                  g.num_vertices(), static_cast<double>(g.min_degree())))
        << "seed=" << seed;
  }
}

TEST(Construct, WorksWithPaperConstantsAtSmallN) {
  const auto g = test::dense_graph(128, 3);
  const auto out = run_construct(g, 0, 5, Params::paper());
  const double alpha = static_cast<double>(g.min_degree()) / 8.0;
  EXPECT_TRUE(
      graph::is_dense_set(g, 0, test::to_indices(g, out.t_set), alpha, 2));
}

TEST(Construct, DeterministicGivenSeed) {
  const auto g = test::dense_graph(256, 8);
  const auto a = run_construct(g, 0, 99);
  const auto b = run_construct(g, 0, 99);
  EXPECT_EQ(a.t_set, b.t_set);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.strict_runs, b.stats.strict_runs);
}

TEST(Construct, RejectsDeltaBelowOne) {
  Knowledge knowledge;
  knowledge.init_home(0, std::vector<graph::VertexId>{1, 2});
  EXPECT_THROW(
      ConstructRun(knowledge, Params::practical(), 0.0, 16), CheckError);
}

}  // namespace
}  // namespace fnr::core
