// Scheduler-level determinism and the paper's §2.1 meeting convention.
//
// Two Scheduler::run calls with identical seeds must produce identical
// RunResult traces (the simulator has no hidden entropy), and agents that
// cross on an edge do NOT rendezvous — only co-location at a round boundary
// counts.
#include <gtest/gtest.h>

#include <optional>

#include "graph/builder.hpp"
#include "test_support.hpp"

namespace fnr::sim {
namespace {

bool same_result(const RunResult& x, const RunResult& y) {
  return x.met == y.met && x.meeting_round == y.meeting_round &&
         x.meeting_vertex == y.meeting_vertex &&
         x.metrics.rounds == y.metrics.rounds &&
         x.metrics.moves == y.metrics.moves &&
         x.metrics.whiteboard_reads == y.metrics.whiteboard_reads &&
         x.metrics.whiteboard_writes == y.metrics.whiteboard_writes &&
         x.metrics.whiteboards_used == y.metrics.whiteboards_used;
}

TEST(SchedulerDeterminism, IdenticalSeedsIdenticalTraces) {
  const auto g = test::dense_graph(192, 11);
  for (const auto strategy :
       {core::Strategy::Whiteboard, core::Strategy::WhiteboardDoubling,
        core::Strategy::NoWhiteboard}) {
    const auto first = test::quick_run(g, strategy, 2024);
    const auto second = test::quick_run(g, strategy, 2024);
    EXPECT_TRUE(same_result(first.run, second.run))
        << "trace diverged for " << core::to_string(strategy);
    EXPECT_EQ(first.agent_a.t_set_ids, second.agent_a.t_set_ids);
    EXPECT_EQ(first.agent_b_marks, second.agent_b_marks);
  }
}

TEST(SchedulerDeterminism, DifferentSeedsUsuallyDiffer) {
  const auto g = test::dense_graph(192, 11);
  // Not a tautology (two seeds could tie), but across five pairs at least
  // one meeting round must differ if seeds actually feed the run.
  bool any_difference = false;
  const auto reference = test::quick_run(g, core::Strategy::Whiteboard, 1);
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    const auto other = test::quick_run(g, core::Strategy::Whiteboard, seed);
    any_difference =
        any_difference || !same_result(reference.run, other.run);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SchedulerScratch, ServesADifferentGraphBuiltAtTheSameAddress) {
  // Two different graphs with equal n and m — the second is the first with
  // permuted indices (so different ports) and slack naming (so a different
  // ID bound) — emplaced in turn into one std::optional, so both live at
  // the same address. A scratch reused across them must reproduce what
  // fresh Schedulers report on each.
  Rng rng(5);
  const auto first = test::dense_graph(192, 11);
  const auto second = graph::with_ids(
      graph::permute_indices(first, rng).graph,
      graph::tight_ids(first.num_vertices(), 3.0, rng));
  ASSERT_EQ(second.num_vertices(), first.num_vertices());
  ASSERT_EQ(second.num_edges(), first.num_edges());
  ASSERT_NE(second.id_bound(), first.id_bound());

  std::optional<graph::Graph> slot;
  SchedulerScratch scratch;
  const Scheduler* arena = nullptr;
  for (const graph::Graph* source : {&first, &second}) {
    slot.emplace(*source);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng placement_rng(seed, 3);
      const auto placement = random_adjacent_placement(*slot, placement_rng);
      core::RendezvousOptions options;
      options.strategy = core::Strategy::Whiteboard;
      options.seed = seed;
      const auto warm =
          core::run_rendezvous(*slot, placement, options, scratch);
      const auto fresh = core::run_rendezvous(*source, placement, options);
      EXPECT_TRUE(same_result(warm.run, fresh.run)) << "seed " << seed;
      EXPECT_EQ(warm.agent_a.t_set_ids, fresh.agent_a.t_set_ids);
    }
    // The arena really was reused across the two graphs.
    const Scheduler* now = &scratch.scheduler_for(*slot, Model::full());
    if (arena != nullptr) EXPECT_EQ(now, arena);
    arena = now;
  }
}

/// Walks back and forth between two fixed vertices forever.
class PacingAgent final : public Agent {
 public:
  Action step(const View& view) override {
    const auto& nbrs = view.neighbor_ids();
    // On the 2-path both endpoints have exactly one neighbor; keep moving.
    return Action::move(view.port_of(nbrs.front()));
  }
};

TEST(SchedulerConvention, CrossingOnAnEdgeIsNotRendezvous) {
  // One edge u—v; a starts at u, b at v, and both move every round. They
  // swap endpoints forever: under the paper's convention they never meet.
  graph::GraphBuilder builder(2);
  builder.add_edge(0, 1);
  const auto g = std::move(builder).build_identity_ids();

  Scheduler scheduler(g, Model::full());
  PacingAgent a, b;
  const auto result = scheduler.run(a, b, Placement{0, 1}, 50);
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.metrics.rounds, 50u);
  // Both really did traverse the edge every round (no silent staying).
  EXPECT_EQ(result.metrics.moves_of(AgentName::A), 50u);
  EXPECT_EQ(result.metrics.moves_of(AgentName::B), 50u);
}

TEST(SchedulerConvention, CoLocationAtRoundBoundaryMeets) {
  // Same edge, but b waits: a moves onto b's vertex, and the meeting is
  // detected at the start of the NEXT round.
  graph::GraphBuilder builder(2);
  builder.add_edge(0, 1);
  const auto g = std::move(builder).build_identity_ids();

  class Waiting final : public Agent {
   public:
    Action step(const View&) override { return Action::stay(); }
  };

  Scheduler scheduler(g, Model::full());
  PacingAgent a;
  Waiting b;
  const auto result = scheduler.run(a, b, Placement{0, 1}, 50);
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.meeting_round, 1u);
  EXPECT_EQ(result.meeting_vertex, 1u);
}

TEST(SchedulerConvention, RejectsColocatedStart) {
  // The instance class places the agents on distinct vertices; the
  // scheduler enforces that precondition instead of reporting a round-0
  // meeting.
  graph::GraphBuilder builder(2);
  builder.add_edge(0, 1);
  const auto g = std::move(builder).build_identity_ids();

  Scheduler scheduler(g, Model::full());
  PacingAgent a, b;
  EXPECT_THROW((void)scheduler.run(a, b, Placement{1, 1}, 50), CheckError);
}

}  // namespace
}  // namespace fnr::sim
