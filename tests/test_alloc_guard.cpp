// Allocation-count guard for the scheduler hot path.
//
// The whole binary's global operator new/delete are replaced with counting
// versions (alloc_counter.hpp); tests snapshot the counter around a
// scheduler run and assert the arena invariants of docs/PERFORMANCE.md:
//   1. Scheduler::run (the k=2 projection of the shared round loop) performs
//      ZERO heap allocations once the arena is warm.
//   2. A warm run_scenario allocates exactly once per run (the returned
//      result's agent vector), however many rounds it runs.
//   3. An explore-rally agent learns its map in flat arrays: one whole
//      exploration allocates O(log n) times, not once per vertex, and it
//      keeps no copy of the adjacency rows it observes.
//   4. A paper agent's routes are values: planning one allocates nothing.
// Plus bit-exactness regressions for arena reuse (a reused scheduler must
// reproduce a fresh scheduler's run exactly, including after a k-downsize).
#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "baselines/gather.hpp"
#include "core/knowledge.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace fnr {
namespace {

using test::allocated_bytes;
using test::allocation_count;

/// Heap-free agent that exercises every hot-path observation: whiteboard
/// read + periodic write, neighbor IDs, arrival port, and movement.
class ProbeAgent final : public sim::Agent {
 public:
  sim::Action step(const sim::View& view) override {
    if (view.has_whiteboards()) (void)view.whiteboard();
    if (view.has_neighborhood_ids()) (void)view.neighbor_ids();
    (void)view.arrival_port();
    sim::Action action = sim::Action::move(view.round() % view.degree());
    if (view.has_whiteboards() && (view.round() & 7) == 0)
      action.whiteboard_write = view.here();
    return action;
  }
  [[nodiscard]] std::size_t memory_words() const override { return 2; }
};

/// Heap-free agent that stays put and writes its board every round; with
/// distinct starts a team of these never gathers, which pins the round
/// count of a scenario run to its cap exactly.
class CampingScribe final : public sim::Agent {
 public:
  sim::Action step(const sim::View& view) override {
    if (view.has_neighborhood_ids()) (void)view.neighbor_ids();
    sim::Action action = sim::Action::stay();
    if (view.has_whiteboards()) action.whiteboard_write = view.round();
    return action;
  }
};

graph::Graph guard_graph() {
  Rng rng(5, 17);
  return graph::make_near_regular(64, 8, rng);
}

TEST(AllocGuard, PairFastPathAllocatesNothingAfterWarmup) {
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  {
    ProbeAgent a, b;
    const auto cold = allocation_count();
    (void)scheduler.run(a, b, {0, 1}, 512);  // warm-up fills the arena
    // Self-check that the counting operator new is actually linked in:
    // the cold run must allocate (arena growth, cache reservations).
    ASSERT_GT(allocation_count(), cold);
  }

  ProbeAgent a, b;  // constructed before the counted region
  const auto before = allocation_count();
  const auto result = scheduler.run(a, b, {0, 1}, 512);
  const auto after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "Scheduler::run heap-allocated on a warm arena";
  EXPECT_GT(result.metrics.rounds, 0u);
  EXPECT_GT(result.metrics.whiteboard_reads, 0u);
}

TEST(AllocGuard, ScenarioRoundLoopIsAllocationFree) {
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  sim::ScenarioPlacement placement;
  placement.starts = {0, 7, 21};

  const auto count_run = [&](std::uint64_t cap) {
    CampingScribe agents[3];
    const std::vector<sim::Agent*> team = {&agents[0], &agents[1],
                                           &agents[2]};
    const auto before = allocation_count();
    const auto result =
        scheduler.run_scenario(team, placement, sim::Gathering::AnyPair, cap);
    const auto after = allocation_count();
    EXPECT_FALSE(result.met);  // campers never co-locate
    EXPECT_EQ(result.rounds, cap);
    return after - before;
  };

  (void)count_run(8);  // warm-up
  const auto short_run = count_run(64);
  const auto long_run = count_run(4096);
  // Per-run cost (the returned result's agent vector) is allowed; per-round
  // cost is not: 64x the rounds must allocate exactly the same number of
  // times.
  EXPECT_EQ(short_run, long_run)
      << "run_scenario's round loop heap-allocates per round";
  // Everything else a run needs (sort buffer, reused result) is arena.
  EXPECT_EQ(short_run, 1u) << "a warm run_scenario allocated " << short_run
                           << " times";
}

TEST(AllocGuard, FaultLayerLeavesTheDisarmedHotPathAllocationFree) {
  // The fault hooks must be zero-cost when inactive: after a *faulty*
  // scenario dirtied the arena, a run given no session must go through the
  // round loop without a single heap allocation — and produce the exact
  // metrics of a scheduler that never saw a fault session at all.
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  sim::ScenarioPlacement placement;
  placement.starts = {0, 7, 21};
  const auto scribes_run = [&](sim::Scheduler& s, std::uint64_t cap,
                               fault::FaultSession* faults = nullptr) {
    CampingScribe agents[3];
    const std::vector<sim::Agent*> team = {&agents[0], &agents[1],
                                           &agents[2]};
    return s.run_scenario(team, placement, sim::Gathering::AnyPair, cap,
                          faults);
  };

  // Dirty the arena with an active session (stationary scribes tolerate
  // crashes of nobody: arm only whiteboard faults, which need no reviver).
  auto plan = fault::FaultPlan::parse("wb-drop?rate=0.5+wb-wipe?rate=0.25");
  fault::FaultSession session(plan, Rng(9, 21));
  const auto faulty = scribes_run(scheduler, 64, &session);
  ASSERT_GT(faulty.faults.writes_dropped, 0u);

  (void)scribes_run(scheduler, 8);  // fault-free warm-up
  const auto counted = [&](std::uint64_t cap) {
    CampingScribe agents[3];
    const std::vector<sim::Agent*> team = {&agents[0], &agents[1],
                                           &agents[2]};
    const auto before = allocation_count();
    const auto result =
        scheduler.run_scenario(team, placement, sim::Gathering::AnyPair, cap);
    const auto after = allocation_count();
    EXPECT_FALSE(result.faults.any()) << "session leaked into a later run";
    return after - before;
  };
  EXPECT_EQ(counted(64), counted(4096))
      << "idle fault hooks heap-allocate per round";

  // And the fault-free runs are indistinguishable from those of a
  // scheduler that never ran with a session.
  sim::Scheduler untouched(g, sim::Model::full());
  const auto ours = scribes_run(scheduler, 256);
  const auto theirs = scribes_run(untouched, 256);
  EXPECT_EQ(ours.rounds, theirs.rounds);
  EXPECT_EQ(ours.whiteboard_reads, theirs.whiteboard_reads);
  EXPECT_EQ(ours.whiteboard_writes, theirs.whiteboard_writes);
  EXPECT_EQ(ours.whiteboards_used, theirs.whiteboards_used);
  EXPECT_FALSE(ours.faults.any());
}

TEST(AllocGuard, ExploreRallyAllocatesLogarithmicallyInN) {
  // Heap allocations of one explore-rally exploration (agent construction,
  // DFS over the whole graph, rally route, destruction) on a warm
  // scheduler. The learned map lives in a handful of doubling arrays, so
  // the count grows by a constant per doubling of n.
  const auto count_exploration = [](std::size_t n) {
    Rng rng(7, 3);
    const auto g = graph::make_near_regular(n, 6, rng);
    sim::Scheduler scheduler(g, sim::Model::full());
    {
      baselines::GatherAtMinAgent warm;
      (void)scheduler.run_single(warm, 0, 8 * n);
    }
    const auto before = allocation_count();
    {
      baselines::GatherAtMinAgent agent;
      // Start away from vertex 0 (the minimum ID) so a rally route is
      // planned after the DFS.
      const auto start = static_cast<graph::VertexIndex>(n / 2);
      (void)scheduler.run_single(agent, start, 8 * n);
      EXPECT_TRUE(agent.arrived());
      EXPECT_EQ(agent.visited_count(), n);
    }
    return allocation_count() - before;
  };

  // Measured 23 and 27 (35 and 41 while the agent copied each visited
  // row into a growing array of its own).
  const auto at_1k = count_exploration(1024);
  const auto at_4k = count_exploration(4096);
  EXPECT_LE(at_1k, 23u) << "n = 1024 exploration allocated " << at_1k
                        << " times";
  EXPECT_LE(at_4k, at_1k + 4) << "n = 4096 exploration allocated " << at_4k
                              << " times (n = 1024: " << at_1k << ")";
}

TEST(AllocGuard, ExploreRallyKeepsNoCopyOfTheGraph) {
  // The agent keeps the neighbor-ID span each View hands it, so the bytes
  // one exploration requests depend on n, not on m. On a dense graph at
  // n = 1024 (2m * 8 = 516,288 bytes of neighbor IDs) one warm exploration
  // requested 225,016 bytes; a private copy of every visited row made it
  // 1,475,296.
  constexpr std::size_t n = 1024;
  Rng rng(7, 3);
  const auto g = graph::make_near_regular(n, 32, rng);
  sim::Scheduler scheduler(g, sim::Model::full());
  {
    baselines::GatherAtMinAgent warm;
    (void)scheduler.run_single(warm, 0, 8 * n);
  }
  const auto before = allocated_bytes();
  {
    baselines::GatherAtMinAgent agent;
    (void)scheduler.run_single(agent, n / 2, 8 * n);
    EXPECT_TRUE(agent.arrived());
    EXPECT_EQ(agent.visited_count(), n);
  }
  const auto bytes = allocated_bytes() - before;
  const std::size_t one_copy = 2 * g.num_edges() * sizeof(graph::VertexId);
  EXPECT_LT(2 * bytes, one_copy)
      << "one exploration requested " << bytes << " bytes; the graph's "
      << "neighbor IDs take " << one_copy;
}

TEST(AllocGuard, PlanningPaperRoutesAllocatesNothing) {
  // A paper agent's trip is a Route value planned into the ScriptedAgent's
  // op queue: once the queue has held one round trip, planning every
  // route there and back (zero, one or two hops each way) allocates
  // nothing.
  class Planner final : public sim::ScriptedAgent {
   public:
    void plan_trip(const core::Knowledge& k, graph::VertexId w) {
      plan_route(k.route_from_home(w));
      plan_route(k.route_to_home(w, 0));
      plan_clear();
    }

   protected:
    void on_idle(const sim::View&) override {}
  };
  Rng rng(7, 3);
  const auto g = graph::make_near_regular(512, 16, rng);
  core::Knowledge k;
  k.init_home(g.id_of(0), g.neighbor_ids(0));
  for (const auto x : g.neighbor_ids(0))
    (void)k.absorb_neighborhood(x, g.neighbor_ids(g.index_of(x)));
  Planner planner;
  const auto& ns = k.ns_list();
  planner.plan_trip(k, ns.back());  // warm: ns_list ends at distance two
  const auto before = allocation_count();
  for (const auto w : ns) planner.plan_trip(k, w);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "planning " << ns.size() << " round trips allocated";
}

void expect_same_run(const sim::RunResult& x, const sim::RunResult& y) {
  EXPECT_EQ(x.met, y.met);
  EXPECT_EQ(x.meeting_round, y.meeting_round);
  EXPECT_EQ(x.meeting_vertex, y.meeting_vertex);
  EXPECT_EQ(x.metrics.rounds, y.metrics.rounds);
  EXPECT_EQ(x.metrics.moves, y.metrics.moves);
  EXPECT_EQ(x.metrics.whiteboard_reads, y.metrics.whiteboard_reads);
  EXPECT_EQ(x.metrics.whiteboard_writes, y.metrics.whiteboard_writes);
  EXPECT_EQ(x.metrics.whiteboards_used, y.metrics.whiteboards_used);
}

TEST(SchedulerArena, PairRunAfterAFaultyScenarioIsBitExact) {
  // Scheduler::run is the paper's reliable model: on an arena that just
  // ran a faulty scenario (every write dropped, every board wiped) it must
  // take exactly the run of a scheduler that never saw a fault.
  const auto g = guard_graph();
  const auto run_probe = [&](sim::Scheduler& scheduler) {
    ProbeAgent a, b;
    return scheduler.run(a, b, {3, 40}, 777);
  };

  auto plan = fault::FaultPlan::parse("wb-drop?rate=1+wb-wipe?rate=1");
  fault::FaultSession session(plan, Rng(9, 21));
  sim::Scheduler faulted(g, sim::Model::full());
  {
    CampingScribe agents[3];
    sim::ScenarioPlacement trio;
    trio.starts = {0, 7, 21};
    const auto faulty =
        faulted.run_scenario({&agents[0], &agents[1], &agents[2]}, trio,
                             sim::Gathering::AnyPair, 32, &session);
    ASSERT_GT(faulty.faults.writes_dropped, 0u);
  }
  sim::Scheduler reliable(g, sim::Model::full());

  const auto got = run_probe(faulted);
  const auto expected = run_probe(reliable);
  expect_same_run(got, expected);
  EXPECT_EQ(got.metrics.peak_memory_words, expected.metrics.peak_memory_words);
  EXPECT_GT(got.metrics.whiteboard_writes, 0u);
}

TEST(SchedulerArena, ReusedArenaIsBitExact) {
  const auto g = guard_graph();
  const auto run_probe = [&](sim::Scheduler& scheduler) {
    ProbeAgent a, b;
    return scheduler.run(a, b, {3, 40}, 777);
  };

  sim::Scheduler fresh(g, sim::Model::full());
  sim::Scheduler reused(g, sim::Model::full());
  const auto expected = run_probe(fresh);
  (void)run_probe(reused);  // dirty the arena and the whiteboards
  expect_same_run(run_probe(reused), expected);
}

TEST(SchedulerArena, DownsizedAgentCountIsBitExact) {
  // A k=3 scenario followed by a k=2 run on the same scheduler must not
  // leak the third agent's stale state into the gathering predicate.
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  sim::ScenarioPlacement trio;
  trio.starts = {0, 7, 21};
  CampingScribe campers[3];
  (void)scheduler.run_scenario({&campers[0], &campers[1], &campers[2]}, trio,
                               sim::Gathering::AnyPair, 32);

  sim::Scheduler fresh(g, sim::Model::full());
  const auto run_pair = [](sim::Scheduler& scheduler_ref) {
    ProbeAgent a, b;
    return scheduler_ref.run(a, b, {3, 40}, 777);
  };
  expect_same_run(run_pair(scheduler), run_pair(fresh));
}

TEST(SchedulerArena, ScratchRebuildsOnlyOnGraphOrModelChange) {
  const auto g = guard_graph();
  const auto h = guard_graph();
  sim::SchedulerScratch scratch;
  sim::Scheduler& first = scratch.scheduler_for(g, sim::Model::full());
  EXPECT_EQ(&first, &scratch.scheduler_for(g, sim::Model::full()));
  sim::Scheduler& no_wb =
      scratch.scheduler_for(g, sim::Model::no_whiteboards());
  EXPECT_FALSE(no_wb.model().whiteboards);
  sim::Scheduler& other = scratch.scheduler_for(h, sim::Model::full());
  EXPECT_EQ(&other.graph(), &h);
}

}  // namespace
}  // namespace fnr
