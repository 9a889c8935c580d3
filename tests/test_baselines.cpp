// Baseline algorithms: the trivial O(Δ) sweep, O(n) exploration, random
// walks, the Anderson-Weber complete-graph algorithm, and explore-rally
// gathering (checked round by round against a hash-map reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "baselines/anderson_weber.hpp"
#include "baselines/gather.hpp"
#include "baselines/random_walk.hpp"
#include "baselines/wait_and_explore.hpp"
#include "baselines/wait_and_sweep.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/id_space.hpp"
#include "sim/scheduler.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"

namespace fnr::baselines {
namespace {

TEST(WaitAndSweep, MeetsWithinTwoDegreeRounds) {
  Rng rng(3);
  const auto g = graph::make_near_regular(128, 8, rng);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng prng(seed);
    const auto placement = sim::random_adjacent_placement(g, prng);
    sim::Scheduler scheduler(g, sim::Model::port_only());
    SweepAgent a;
    WaitingAgent b;
    const auto result = scheduler.run(
        a, b, placement, 2 * g.max_degree() + 4);
    ASSERT_TRUE(result.met) << "seed " << seed;
    EXPECT_LE(result.meeting_round, 2 * g.degree(placement.a_start));
  }
}

TEST(WaitAndSweep, WorksWithoutNeighborhoodIdsOrWhiteboards) {
  // The whole point of the trivial bound: it needs nothing but ports.
  const auto g = graph::make_complete(32);
  sim::Scheduler scheduler(g, sim::Model{false, false});
  SweepAgent a;
  WaitingAgent b;
  const auto result = scheduler.run(a, b, sim::Placement{0, 17}, 100);
  EXPECT_TRUE(result.met);
}

TEST(WaitAndSweep, LastPortIsWorstCase) {
  // On a star with b at the highest-index leaf, the sweep needs ~2Δ rounds.
  const auto g = graph::make_star(50);
  sim::Scheduler scheduler(g, sim::Model::port_only());
  SweepAgent a;
  WaitingAgent b;
  const auto result = scheduler.run(a, b, sim::Placement{0, 50}, 200);
  ASSERT_TRUE(result.met);
  EXPECT_GE(result.meeting_round, 2u * 49u);
}

TEST(WaitAndExplore, CoversEveryVertexWithinTwoN) {
  Rng rng(5);
  const auto g = graph::make_near_regular(128, 5, rng);
  sim::Scheduler scheduler(g, sim::Model::full());
  ExploreAgent agent;
  const auto result = scheduler.run_single(agent, 0, 4 * g.num_vertices());
  (void)result;
  EXPECT_EQ(agent.visited_count(), g.num_vertices());
  EXPECT_LE(result.metrics.moves[0], 2 * g.num_vertices());
}

TEST(WaitAndExplore, MeetsOnRingInLinearTime) {
  const auto g = graph::make_ring(64);
  sim::Scheduler scheduler(g, sim::Model::full());
  ExploreAgent a;
  WaitingAgent b;
  const auto result = scheduler.run(a, b, sim::Placement{0, 32}, 300);
  ASSERT_TRUE(result.met);
  EXPECT_LE(result.meeting_round, 2u * 64u);
}

TEST(WaitAndExplore, HaltsAfterFullExploration) {
  const auto g = graph::make_path(16);
  sim::Scheduler scheduler(g, sim::Model::full());
  ExploreAgent agent;
  (void)scheduler.run_single(agent, 0, 100);
  EXPECT_TRUE(agent.finished());
}

TEST(RandomWalk, TwoWalkersMeetOnCompleteGraph) {
  const auto g = graph::make_complete(32);
  int met = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Scheduler scheduler(g, sim::Model::port_only());
    RandomWalkAgent a(Rng(seed, 1));
    RandomWalkAgent b(Rng(seed, 2));
    const auto result =
        scheduler.run(a, b, sim::Placement{0, 1}, 100 * g.num_vertices());
    met += result.met;
  }
  EXPECT_EQ(met, 10);
}

TEST(RandomWalk, LazinessBreaksBipartiteParity) {
  // On an even ring two synchronized non-lazy walkers at odd distance can
  // co-locate only via lazy steps.
  const auto g = graph::make_ring(8);
  sim::Scheduler scheduler(g, sim::Model::port_only());
  RandomWalkAgent a(Rng(3, 1), 0.5);
  RandomWalkAgent b(Rng(3, 2), 0.5);
  const auto result = scheduler.run(a, b, sim::Placement{0, 1}, 20000);
  EXPECT_TRUE(result.met);
}

TEST(AndersonWeber, MeetsOnCompleteGraph) {
  const auto g = graph::make_complete(256);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Scheduler scheduler(g, sim::Model::full());
    AndersonWeberAgentA a{Rng(seed, 1)};
    AndersonWeberAgentB b{Rng(seed, 2)};
    const auto result =
        scheduler.run(a, b, sim::Placement{3, 200}, 50 * g.num_vertices());
    EXPECT_TRUE(result.met) << "seed " << seed;
  }
}

TEST(AndersonWeber, SqrtNScalingIsPlausible) {
  // Median meeting time on K_n should scale far below n (birthday bound).
  const auto g = graph::make_complete(1024);
  std::vector<double> rounds;
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    sim::Scheduler scheduler(g, sim::Model::full());
    AndersonWeberAgentA a{Rng(seed, 1)};
    AndersonWeberAgentB b{Rng(seed, 2)};
    const auto result =
        scheduler.run(a, b, sim::Placement{0, 1}, 100 * g.num_vertices());
    ASSERT_TRUE(result.met);
    rounds.push_back(static_cast<double>(result.meeting_round));
  }
  const double median = summarize(rounds).median;
  // ~4·sqrt(n) expected probes with 2 rounds each; allow a wide margin but
  // stay well under n = 1024.
  EXPECT_LT(median, 512.0);
}

TEST(AndersonWeber, RejectsNonCompleteGraphs) {
  const auto g = graph::make_ring(16);
  sim::Scheduler scheduler(g, sim::Model::full());
  AndersonWeberAgentA a{Rng(1, 1)};
  AndersonWeberAgentB b{Rng(1, 2)};
  EXPECT_THROW((void)scheduler.run(a, b, sim::Placement{0, 1}, 10),
               CheckError);
}

// --- explore-rally ---------------------------------------------------------

/// Reference explore-rally agent: the straightforward form of
/// GatherAtMinAgent, its learned map held in three ID-keyed hash maps. The
/// flat agent must match it action for action and word for word.
class HashMapGatherAgent final : public sim::ScriptedAgent {
 public:
  [[nodiscard]] bool arrived() const noexcept { return arrived_; }
  [[nodiscard]] bool halted() const override { return arrived_; }
  [[nodiscard]] std::size_t visited_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t memory_words() const override {
    return sim::ScriptedAgent::memory_words() + 4 + adjacency_words_ +
           2 * parent_.size() + 2 * next_child_.size();
  }

 protected:
  void on_idle(const sim::View& view) override {
    const graph::VertexId here = view.here();
    if (!init_) {
      root_ = here;
      min_seen_ = here;
      parent_[here] = here;
      init_ = true;
    }
    if (arrived_) return;
    if (!rallying_) {
      if (!adjacency_.contains(here)) {
        const auto ids = view.neighbor_ids();
        adjacency_[here].assign(ids.begin(), ids.end());
        adjacency_words_ += 1 + ids.size();
        min_seen_ = std::min(min_seen_, here);
      }
      const auto& nbrs = adjacency_[here];
      std::size_t& cursor = next_child_[here];
      while (cursor < nbrs.size()) {
        const graph::VertexId u = nbrs[cursor++];
        if (parent_.contains(u)) continue;
        parent_[u] = here;
        plan_move(u);
        return;
      }
      if (here != root_) {
        plan_move(parent_.at(here));
        return;
      }
      rallying_ = true;
      if (here == min_seen_) {
        arrived_ = true;
        return;
      }
      for (const graph::VertexId v : route(here, min_seen_)) plan_move(v);
      return;
    }
    arrived_ = true;
  }

 private:
  [[nodiscard]] std::vector<graph::VertexId> route(graph::VertexId from,
                                                   graph::VertexId to) const {
    std::unordered_map<graph::VertexId, graph::VertexId> prev;
    std::deque<graph::VertexId> frontier{from};
    prev[from] = from;
    while (!frontier.empty() && !prev.contains(to)) {
      const graph::VertexId v = frontier.front();
      frontier.pop_front();
      const auto it = adjacency_.find(v);
      if (it == adjacency_.end()) continue;
      for (const graph::VertexId u : it->second) {
        if (prev.contains(u)) continue;
        prev[u] = v;
        frontier.push_back(u);
      }
    }
    std::vector<graph::VertexId> hops;
    for (graph::VertexId v = to; v != from; v = prev.at(v)) hops.push_back(v);
    std::reverse(hops.begin(), hops.end());
    return hops;
  }

  bool init_ = false;
  bool rallying_ = false;
  bool arrived_ = false;
  graph::VertexId root_ = 0;
  graph::VertexId min_seen_ = 0;
  std::size_t adjacency_words_ = 0;
  std::unordered_map<graph::VertexId, std::vector<graph::VertexId>> adjacency_;
  std::unordered_map<graph::VertexId, graph::VertexId> parent_;
  std::unordered_map<graph::VertexId, std::size_t> next_child_;
};

/// Feeds every view to a GatherAtMinAgent and to the reference, acts on the
/// former's action, and counts the rounds on which the two disagree.
class LockStepGather final : public sim::Agent {
 public:
  sim::Action step(const sim::View& view) override {
    const sim::Action ours = flat.step(view);
    const sim::Action theirs = reference.step(view);
    if (ours.move_port != theirs.move_port ||
        ours.whiteboard_write != theirs.whiteboard_write ||
        flat.memory_words() != reference.memory_words() ||
        flat.halted() != reference.halted()) {
      if (mismatches++ == 0) first_mismatch = view.round();
    }
    last_here = view.here();
    return ours;
  }
  [[nodiscard]] bool halted() const override { return flat.halted(); }
  [[nodiscard]] std::size_t memory_words() const override {
    return flat.memory_words();
  }

  GatherAtMinAgent flat;
  HashMapGatherAgent reference;
  std::uint64_t mismatches = 0;
  std::uint64_t first_mismatch = 0;
  graph::VertexId last_here = 0;
};

graph::VertexId min_id(const graph::Graph& g) {
  graph::VertexId best = g.id_of(0);
  for (graph::VertexIndex v = 1; v < g.num_vertices(); ++v)
    best = std::min(best, g.id_of(v));
  return best;
}

std::vector<std::pair<const char*, graph::Graph>> differential_graphs() {
  std::vector<std::pair<const char*, graph::Graph>> graphs;
  Rng rng(21, 4);
  graphs.emplace_back("near-regular", graph::make_near_regular(300, 6, rng));
  graphs.emplace_back("torus", graph::make_torus(12, 15));
  graphs.emplace_back("hypercube", graph::make_hypercube(8));
  const auto base = graph::make_near_regular(250, 4, rng);
  graphs.emplace_back("sparse-ids",
                      graph::with_ids(base, graph::sparse_ids(250, 3.0, rng)));
  return graphs;
}

TEST(ExploreRally, MatchesHashMapReferenceEveryRound) {
  for (const auto& [name, g] : differential_graphs()) {
    sim::Scheduler scheduler(g, sim::Model::full());
    const auto n = static_cast<graph::VertexIndex>(g.num_vertices());
    for (const graph::VertexIndex start : {0u, n / 3, n - 1}) {
      LockStepGather agent;
      const auto result = scheduler.run_single(agent, start, 8 * n);
      EXPECT_EQ(agent.mismatches, 0u)
          << name << " start " << start << ": first at round "
          << agent.first_mismatch;
      EXPECT_TRUE(agent.flat.arrived()) << name << " start " << start;
      EXPECT_EQ(agent.flat.visited_count(), agent.reference.visited_count());
      EXPECT_EQ(agent.flat.visited_count(), g.num_vertices()) << name;
      EXPECT_EQ(g.id_of(result.meeting_vertex), min_id(g)) << name;
    }
  }
}

TEST(ExploreRally, MatchesHashMapReferenceUnderChurn) {
  // Churn blocks traversals, so every hop is retried until it goes
  // through; the flat agent must stay in lock step across the retries. The
  // quorum is above k, so the run lasts the whole cap and every agent
  // finishes its own exploration and rally.
  for (const auto& [name, g] : differential_graphs()) {
    sim::Scheduler scheduler(g, sim::Model::full());
    const auto plan = fault::FaultPlan::parse("churn?rate=0.2");
    fault::FaultSession session(plan, Rng(5, 9));
    LockStepGather agents[3];
    sim::ScenarioPlacement placement;
    const auto n = static_cast<graph::VertexIndex>(g.num_vertices());
    placement.starts = {1, n / 2, n - 2};
    const auto result = scheduler.run_scenario(
        {&agents[0], &agents[1], &agents[2]}, placement,
        sim::Gathering::quorum_of(4), 40 * n, &session);
    EXPECT_GT(result.faults.moves_blocked, 0u) << name;
    for (const auto& agent : agents) {
      EXPECT_EQ(agent.mismatches, 0u)
          << name << ": first at round " << agent.first_mismatch;
      EXPECT_EQ(agent.flat.visited_count(), agent.reference.visited_count());
      EXPECT_TRUE(agent.flat.arrived()) << name;
      EXPECT_EQ(agent.last_here, min_id(g)) << name;
    }
  }
}

TEST(ExploreRally, MatchesHashMapReferenceAcrossCrashRevivals) {
  // A crash replaces the agent by a fresh instance on the crash vertex, so
  // a revived agent roots its DFS in the middle of the old walk, with no
  // arrival port. Every instance, first or revived, must stay in lock step.
  // The second plan caps the crashes and adds churn, so the last instances
  // also finish their exploration and rally with retried hops.
  for (const char* spec : {"crash?rate=0.01&downtime=4",
                           "crash?rate=0.01&downtime=4&count=8+"
                           "churn?rate=0.1"}) {
    const bool capped = std::string_view(spec).find("count") !=
                        std::string_view::npos;
    for (const auto& [name, g] : differential_graphs()) {
      SCOPED_TRACE(std::string(name) + " " + spec);
      sim::Scheduler scheduler(g, sim::Model::full());
      const auto plan = fault::FaultPlan::parse(spec);
      fault::FaultSession session(plan, Rng(6, 3));
      std::deque<LockStepGather> instances(3);  // stable addresses
      LockStepGather* current[3] = {&instances[0], &instances[1],
                                    &instances[2]};
      session.revive = [&](std::size_t slot) -> sim::Agent* {
        current[slot] = &instances.emplace_back();
        return current[slot];
      };
      sim::ScenarioPlacement placement;
      const auto n = static_cast<graph::VertexIndex>(g.num_vertices());
      placement.starts = {1, n / 2, n - 2};
      const auto result = scheduler.run_scenario(
          {current[0], current[1], current[2]}, placement,
          sim::Gathering::quorum_of(4), 40 * n, &session);
      EXPECT_GT(result.faults.restarts, 0u);
      EXPECT_EQ(instances.size(), 3 + result.faults.restarts);
      for (const auto& agent : instances)
        EXPECT_EQ(agent.mismatches, 0u)
            << "first at round " << agent.first_mismatch;
      if (!capped) continue;
      EXPECT_EQ(result.faults.crashes, 8u);
      EXPECT_GT(result.faults.moves_blocked, 0u);
      for (const LockStepGather* agent : current) {
        EXPECT_TRUE(agent->flat.arrived());
        EXPECT_EQ(agent->last_here, min_id(g));
      }
    }
  }
}

TEST(ExploreRally, LoneAgentVisitsEveryVertexAndHaltsOnMinimumId) {
  Rng rng(8, 2);
  const auto g = graph::with_ids(graph::make_grid(9, 11),
                                 graph::shuffled_ids(99, rng));
  sim::Scheduler scheduler(g, sim::Model::full());
  // The last start sits on the minimum ID: the agent must still explore
  // everything before it may settle there.
  for (const graph::VertexIndex start : {0u, 40u, g.index_of(min_id(g))}) {
    GatherAtMinAgent agent;
    const auto result = scheduler.run_single(agent, start, 8 * 99);
    EXPECT_TRUE(agent.arrived()) << "start " << start;
    EXPECT_TRUE(agent.halted());
    EXPECT_EQ(agent.visited_count(), g.num_vertices());
    EXPECT_EQ(g.id_of(result.meeting_vertex), min_id(g)) << "start " << start;
    // The DFS crosses each tree edge twice, then the rally route is at most
    // a further n - 1 hops.
    EXPECT_LE(result.metrics.moves[0], 3 * g.num_vertices());
  }
}

}  // namespace
}  // namespace fnr::baselines
