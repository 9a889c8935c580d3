// Statistical correctness of Algorithm 2 (Sample): heavy vertices are
// reported heavy, light vertices light, on graphs where ground truth is
// known exactly (Lemma 2 / Corollary 1). Plus a lock-step differential
// test of SampleRun's deferred, branch-free overlap scan against the eager
// per-visit bump it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>

#include "core/knowledge.hpp"
#include "core/sample.hpp"
#include "graph/generators.hpp"
#include "graph/id_space.hpp"
#include "sim/scheduler.hpp"
#include "sim/scripted_agent.hpp"
#include "util/rng.hpp"

namespace fnr::core {
namespace {

/// Drives one SampleRun from `home` with Γ = N+(home) and records H'.
class SampleDriver final : public sim::ScriptedAgent {
 public:
  SampleDriver(double alpha, const Params& params, Rng rng)
      : alpha_(alpha), params_(params), rng_(rng) {}

  std::vector<graph::VertexId> heavy;
  [[nodiscard]] bool halted() const override { return done_; }

 protected:
  void on_idle(const sim::View& view) override {
    if (!init_) {
      knowledge_.init_home(view.here(), view.neighbor_ids());
      std::vector<graph::VertexId> gamma = knowledge_.ns_list();
      run_ = std::make_unique<SampleRun>(std::move(gamma), alpha_,
                                         view.num_vertices(), params_);
      init_ = true;
    }
    if (view.here() != knowledge_.home()) {
      run_->record_visit(view, knowledge_);
      plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
      return;
    }
    while (auto target = run_->next_target(rng_)) {
      if (*target == view.here()) {
        run_->record_visit(view, knowledge_);
        continue;
      }
      plan_route(knowledge_.route_from_home(*target));
      return;
    }
    heavy = run_->heavy_output(knowledge_);
    done_ = true;
  }

 private:
  double alpha_;
  Params params_;
  Rng rng_;
  bool init_ = false;
  bool done_ = false;
  Knowledge knowledge_;
  std::unique_ptr<SampleRun> run_;
};

std::vector<graph::VertexId> run_sample(const graph::Graph& g,
                                        graph::VertexIndex home, double alpha,
                                        const Params& params,
                                        std::uint64_t seed) {
  sim::Scheduler scheduler(g, sim::Model::full());
  SampleDriver driver(alpha, params, Rng(seed));
  const auto result = scheduler.run_single(driver, home, 10'000'000);
  EXPECT_TRUE(driver.halted()) << "sample did not finish, rounds="
                               << result.metrics.rounds;
  return driver.heavy;
}

TEST(Sample, CompleteGraphEverythingHeavy) {
  // K_n: |Γ ∩ N+(u)| = |Γ| = n for every u, so with alpha = n/8 every
  // member of N+(home) = V must come back heavy.
  const auto g = graph::make_complete(64);
  const auto heavy = run_sample(g, 0, 64.0 / 8.0, Params::practical(), 7);
  EXPECT_EQ(heavy.size(), 64u);
}

TEST(Sample, StarLeavesAreLight) {
  // Star with center home: Γ = V. A leaf u has N+(u) = {u, center}, so
  // |Γ ∩ N+(u)| = 2; the center is n-heavy. With alpha = 10 the output must
  // be exactly {center}.
  const auto g = graph::make_star(127);
  const auto heavy = run_sample(g, 0, 10.0, Params::practical(), 11);
  ASSERT_EQ(heavy.size(), 1u);
  EXPECT_EQ(heavy[0], g.id_of(0));
}

TEST(Sample, PaperConstantsAgreeOnStar) {
  const auto g = graph::make_star(63);
  const auto heavy = run_sample(g, 0, 8.0, Params::paper(), 13);
  ASSERT_EQ(heavy.size(), 1u);
  EXPECT_EQ(heavy[0], g.id_of(0));
}

TEST(Sample, ClassificationIsSeedStable) {
  const auto g = graph::make_star(63);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto heavy = run_sample(g, 0, 10.0, Params::practical(), seed);
    EXPECT_EQ(heavy.size(), 1u) << "seed " << seed;
  }
}

TEST(Sample, BorderlineVerticesLandSomewhere) {
  // Two hubs sharing half the leaves: the shared leaves' closed
  // neighborhoods intersect Γ in 3 vertices. With alpha between 1 and 3 the
  // guarantee only promises: heavy output is alpha-heavy, lights are
  // 4*alpha-light. Verify no classification violates the one-sided bounds.
  graph::GraphBuilder b(34);
  // hub 0 adjacent to all leaves 2..33; hub 1 adjacent to leaves 2..17.
  for (graph::VertexIndex leaf = 2; leaf < 34; ++leaf) b.add_edge(0, leaf);
  for (graph::VertexIndex leaf = 2; leaf < 18; ++leaf) b.add_edge(1, leaf);
  b.add_edge(0, 1);
  const auto g = std::move(b).build_identity_ids();

  const double alpha = 4.0;
  const auto heavy = run_sample(g, 0, alpha, Params::practical(), 5);
  // Ground truth per Definition 2 with Γ = N+(0) = V:
  for (const auto id : heavy) {
    const auto u = g.index_of(id);
    const std::size_t weight = g.degree(u) + 1;  // |Γ ∩ N+(u)|, Γ = V
    EXPECT_GE(weight, static_cast<std::size_t>(alpha))
        << "vertex " << id << " reported heavy but is alpha-light";
  }
}

TEST(Sample, VisitBudgetMatchesFormula) {
  std::vector<graph::VertexId> gamma(100);
  for (std::size_t i = 0; i < gamma.size(); ++i) gamma[i] = i;
  const auto params = Params::practical();
  SampleRun run(gamma, 5.0, 1000, params);
  EXPECT_EQ(run.visits_planned(), params.sample_visits(100, 5.0, 1000));
  Rng rng(3);
  std::uint64_t count = 0;
  while (run.next_target(rng)) ++count;
  EXPECT_EQ(count, run.visits_planned());
  EXPECT_TRUE(run.exhausted());
}

TEST(Sample, EmptyGammaIsImmediatelyExhausted) {
  SampleRun run({}, 5.0, 1000, Params::practical());
  Rng rng(3);
  EXPECT_FALSE(run.next_target(rng).has_value());
  EXPECT_TRUE(run.exhausted());
}

// --- the overlap scan against the eager-bump reference ---------------------

/// Sample as first written: every visit bumps C[u] at once for each
/// u ∈ N+(target) ∩ N+(home), and touched_ grows in first-bump order.
/// SampleRun defers the bumps and scans without branching on membership;
/// what it exposes must not differ from this.
class EagerSampleRun {
 public:
  EagerSampleRun(std::vector<graph::VertexId> gamma, double alpha,
                 std::size_t n, const Params& params)
      : gamma_(std::move(gamma)),
        visits_total_(params.sample_visits(gamma_.size(), alpha, n)),
        threshold_(params.sample_threshold(n)) {}

  std::optional<graph::VertexId> next_target(Rng& rng) {
    if (gamma_.empty() || visits_done_ == visits_total_) return std::nullopt;
    ++visits_done_;
    return gamma_[rng.below(gamma_.size())];
  }

  void record_visit(const sim::View& view, const Knowledge& knowledge) {
    const auto bump = [&](graph::VertexId u) {
      if (!knowledge.in_home_closed(u)) {
        beyond_mask += u >= knowledge.home_mask().size() ? 1 : 0;
        return;
      }
      if (counts_[u]++ == 0) touched_.push_back(u);
    };
    bump(view.here());
    for (const auto u : view.neighbor_ids()) bump(u);
  }

  [[nodiscard]] std::vector<graph::VertexId> heavy_output() const {
    std::vector<graph::VertexId> heavy;
    for (const auto u : touched_)
      if (counts_.at(u) >= threshold_) heavy.push_back(u);
    return heavy;
  }
  [[nodiscard]] std::size_t memory_words() const {
    return gamma_.size() + 2 * touched_.size();
  }
  [[nodiscard]] const std::vector<graph::VertexId>& touched() const {
    return touched_;
  }
  [[nodiscard]] std::uint64_t count(graph::VertexId u) const {
    return counts_.at(u);
  }

  /// Scanned IDs at or past the home mask's end (the scan's bounds case).
  std::uint64_t beyond_mask = 0;

 private:
  std::vector<graph::VertexId> gamma_;
  std::uint64_t visits_total_ = 0;
  std::uint64_t visits_done_ = 0;
  std::uint64_t threshold_ = 0;
  std::unordered_map<graph::VertexId, std::uint64_t> counts_;
  std::vector<graph::VertexId> touched_;
};

/// Runs `runs` SampleRuns from one home, each beside an EagerSampleRun on
/// the same draws, and compares them at every visit. The runs share one
/// OverlapMemo and pass the counter scratch on, as a Construct's runs do,
/// so later runs replay slices that earlier ones recorded. Before the
/// first run the agent absorbs the rows of `absorb` home neighbors (read
/// from the graph, in port order), so Γ reaches distance two, where IDs
/// can lie past the home mask.
class LockStepSampler final : public sim::ScriptedAgent {
 public:
  LockStepSampler(const graph::Graph& g, std::size_t absorb, int runs,
                  Rng rng)
      : graph_(g), absorb_(absorb), runs_left_(runs), rng_(rng),
        ref_rng_(rng) {}

  [[nodiscard]] bool halted() const override { return runs_left_ == 0; }

  std::uint64_t visits = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  std::uint64_t beyond_mask = 0;
  std::uint64_t heavy_total = 0;

 protected:
  void on_idle(const sim::View& view) override {
    if (!init_) {
      init_ = true;
      knowledge_.init_home(view.here(), view.neighbor_ids());
      const auto row = view.neighbor_ids();
      for (std::size_t i = 0; i < std::min(absorb_, row.size()); ++i)
        (void)knowledge_.absorb_neighborhood(
            row[i], graph_.neighbor_ids(graph_.index_of(row[i])));
      start_run();
    }
    if (view.here() != knowledge_.home()) {
      visit(view);
      plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
      return;
    }
    while (runs_left_ > 0) {
      const auto target = run_->next_target(rng_);
      const auto ref_target = ref_->next_target(ref_rng_);
      expect(target == ref_target, "targets differ");
      if (!target.has_value()) {
        finish_run();
        continue;
      }
      if (*target == view.here()) {
        visit(view);
        continue;
      }
      plan_route(knowledge_.route_from_home(*target));
      return;
    }
  }

 private:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (mismatches++ == 0) {
      std::ostringstream os;
      os << what << " at visit " << visits << " of run " << run_index_;
      first_mismatch = os.str();
    }
  }

  /// Γ per run: all of NS, NS again (mostly replays), then its back half.
  void start_run() {
    std::vector<graph::VertexId> gamma = knowledge_.ns_list();
    if (run_index_ == 2)
      gamma.erase(gamma.begin(), gamma.begin() + gamma.size() / 2);
    const std::size_t n = graph_.num_vertices();
    const double alpha = static_cast<double>(graph_.min_degree()) / 4.0;
    run_ = std::make_unique<SampleRun>(gamma, alpha, n, params_, &memo_);
    run_->adopt_scratch(std::move(scratch_));
    ref_ = std::make_unique<EagerSampleRun>(std::move(gamma), alpha, n,
                                            params_);
  }

  void finish_run() {
    const auto heavy = run_->heavy_output(knowledge_);
    expect(heavy == ref_->heavy_output(), "heavy_output differs");
    heavy_total += heavy.size();
    for (const auto u : ref_->touched())
      expect(run_->count(u) == ref_->count(u), "counter differs");
    beyond_mask += ref_->beyond_mask;
    scratch_ = run_->release_scratch();
    ++run_index_;
    if (--runs_left_ > 0) start_run();
  }

  void visit(const sim::View& view) {
    ++visits;
    run_->record_visit(view, knowledge_);
    ref_->record_visit(view, knowledge_);
    expect(run_->touched() == ref_->touched(), "touched order differs");
    expect(run_->memory_words() == ref_->memory_words(),
           "memory_words differs");
  }

  const graph::Graph& graph_;
  std::size_t absorb_;
  int runs_left_;
  int run_index_ = 0;
  Rng rng_;
  Rng ref_rng_;
  Params params_ = Params::practical();
  bool init_ = false;
  Knowledge knowledge_;
  OverlapMemo memo_;
  std::vector<std::uint64_t> scratch_;
  std::unique_ptr<SampleRun> run_;
  std::unique_ptr<EagerSampleRun> ref_;
};

TEST(SampleScan, MatchesEagerBumpReferenceEveryVisit) {
  Rng rng(31, 7);
  const auto base = graph::make_near_regular(400, 12, rng);
  struct Case {
    const char* name;
    graph::Graph g;
    bool sparse;
  };
  std::vector<Case> cases;
  cases.push_back({"near-regular", graph::make_near_regular(512, 24, rng),
                   false});
  cases.push_back(
      {"near-regular-shuffled",
       graph::with_ids(base, graph::shuffled_ids(base.num_vertices(), rng)),
       false});
  cases.push_back(
      {"sparse-ids",
       graph::with_ids(base, graph::sparse_ids(base.num_vertices(), 2.0, rng)),
       true});
  for (const auto& [name, g, sparse] : cases) {
    sim::Scheduler scheduler(g, sim::Model::full());
    const auto n = static_cast<graph::VertexIndex>(g.num_vertices());
    // Besides two fixed homes, the one whose home mask is shortest (the
    // smallest largest ID in N+(home)), so most of the ball lies past it.
    const auto mask_end = [&](graph::VertexIndex v) {
      const auto row = g.neighbor_ids(v);
      return std::max(g.id_of(v), *std::max_element(row.begin(), row.end()));
    };
    graph::VertexIndex low = 0;
    for (graph::VertexIndex v = 1; v < n; ++v)
      if (mask_end(v) < mask_end(low)) low = v;
    std::uint64_t beyond_mask = 0;
    for (const graph::VertexIndex home : {low, n / 2, n - 1}) {
      LockStepSampler agent(g, /*absorb=*/3, /*runs=*/3, Rng(home + 5, 2));
      (void)scheduler.run_single(agent, home, 10'000'000);
      ASSERT_TRUE(agent.halted()) << name << " home " << home;
      EXPECT_EQ(agent.mismatches, 0u)
          << name << " home " << home << ": first " << agent.first_mismatch;
      EXPECT_GT(agent.visits, 0u) << name;
      EXPECT_GT(agent.heavy_total, 0u) << name << " home " << home;
      beyond_mask += agent.beyond_mask;
    }
    // The scan's bounds case must be exercised where IDs are sparse.
    if (sparse) EXPECT_GT(beyond_mask, 0u) << name;
  }
}

}  // namespace
}  // namespace fnr::core
