// Unit tests for ScriptedAgent: plan execution, write+move rounds,
// wait-until semantics, on_idle re-entry, the plan queue itself
// (pending-op accounting, appends mid-plan, clears, re-armed waits across
// refills), and hops by port under churn.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/main_rendezvous.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "sim/scheduler.hpp"
#include "sim/scripted_agent.hpp"

namespace fnr::sim {
namespace {

class StillAgent final : public Agent {
 public:
  Action step(const View&) override { return Action::stay(); }
};

/// Walks a triangle once using a planned route, then idles.
class TriangleWalker final : public ScriptedAgent {
 public:
  std::vector<graph::VertexId> idle_positions;

 protected:
  void on_idle(const View& view) override {
    idle_positions.push_back(view.here());
    if (!planned_) {
      planned_ = true;
      plan_move(1);
      plan_move(2);
      plan_move(0);
    }
  }

 private:
  bool planned_ = false;
};

TEST(ScriptedAgent, ExecutesRouteHopByHop) {
  const auto g = graph::make_complete(4);
  Scheduler scheduler(g, Model::full());
  TriangleWalker a;
  StillAgent b;
  (void)scheduler.run(a, b, Placement{0, 3}, 6);
  // on_idle at start (vertex 0), then after the 3-hop route back at 0.
  ASSERT_GE(a.idle_positions.size(), 2u);
  EXPECT_EQ(a.idle_positions[0], 0u);
  EXPECT_EQ(a.idle_positions[1], 0u);
}

/// Writes while moving in a single round.
class WriteAndGo final : public ScriptedAgent {
 protected:
  void on_idle(const View& view) override {
    if (view.round() == 0) plan_write_and_move(99, 1);
  }
};

TEST(ScriptedAgent, WritePlusMoveInOneRound) {
  const auto g = graph::make_path(3);
  Scheduler scheduler(g, Model::full());
  WriteAndGo a;
  StillAgent b;
  const auto result = scheduler.run(a, b, Placement{0, 2}, 2);
  EXPECT_EQ(result.metrics.whiteboard_writes, 1u);
  EXPECT_EQ(result.metrics.moves[0], 1u);
}

/// Waits until an absolute round then moves.
class WaitUntilAgent final : public ScriptedAgent {
 public:
  std::uint64_t moved_at = 0;

 protected:
  void on_idle(const View& view) override {
    if (view.round() == 0) {
      plan_wait_until(5);
      plan_move(1);
    } else if (moved_at == 0) {
      moved_at = view.round();  // first idle after the move
    }
  }
};

TEST(ScriptedAgent, WaitUntilHoldsExactly) {
  const auto g = graph::make_path(3);
  Scheduler scheduler(g, Model::full());
  WaitUntilAgent a;
  StillAgent b;
  (void)scheduler.run(a, b, Placement{0, 2}, 10);
  // Stays rounds 0..4, moves at round 5, idles (at vertex 1) at round 6.
  EXPECT_EQ(a.moved_at, 6u);
}

TEST(ScriptedAgent, WaitUntilInThePastIsOneRound) {
  const auto g = graph::make_path(3);

  class PastWait final : public ScriptedAgent {
   public:
    std::uint64_t idles = 0;

   protected:
    void on_idle(const View& view) override {
      ++idles;
      if (view.round() == 0) plan_wait_until(0);  // already reached
    }
  };
  Scheduler scheduler(g, Model::full());
  PastWait a;
  StillAgent b;
  (void)scheduler.run(a, b, Placement{0, 2}, 3);
  // Round 0 consumes the no-op wait; rounds 1, 2 idle again.
  EXPECT_EQ(a.idles, 3u);
}

/// plan_wait produces exactly k stationary rounds.
class CountedWaiter final : public ScriptedAgent {
 public:
  std::vector<std::uint64_t> idle_rounds;

 protected:
  void on_idle(const View& view) override {
    idle_rounds.push_back(view.round());
    if (view.round() == 0) plan_wait(3);
  }
};

TEST(ScriptedAgent, PlanWaitCounts) {
  const auto g = graph::make_path(3);
  Scheduler scheduler(g, Model::full());
  CountedWaiter a;
  StillAgent b;
  (void)scheduler.run(a, b, Placement{0, 2}, 6);
  // idle at round 0 (plans 3 waits covering rounds 0,1,2), idle again at 3+.
  ASSERT_GE(a.idle_rounds.size(), 2u);
  EXPECT_EQ(a.idle_rounds[0], 0u);
  EXPECT_EQ(a.idle_rounds[1], 3u);
}

// --- the plan queue --------------------------------------------------------

/// A ScriptedAgent whose plan a test can extend or clear between rounds,
/// recording every on_idle call.
class OpenPlanAgent final : public ScriptedAgent {
 public:
  struct Idle {
    std::uint64_t round;
    graph::VertexId here;
  };
  std::vector<Idle> idles;
  /// Route planned by the first on_idle.
  std::vector<graph::VertexId> first_plan;

  void append_move(graph::VertexId v) { plan_move(v); }
  void clear() { plan_clear(); }
  [[nodiscard]] bool empty() const { return plan_empty(); }

 protected:
  void on_idle(const View& view) override {
    idles.push_back({view.round(), view.here()});
    if (idles.size() == 1)
      for (const graph::VertexId v : first_plan) plan_move(v);
  }
};

/// Steps an inner agent, calling `before` ahead of each round and recording
/// the inner agent's memory_words() after it.
template <class Inner, class Before>
class Probe final : public Agent {
 public:
  Probe(Inner& inner, Before before) : inner_(inner), before_(before) {}
  Action step(const View& view) override {
    before_(view.round());
    const Action action = inner_.step(view);
    words.push_back(inner_.memory_words());
    return action;
  }
  std::vector<std::size_t> words;

 private:
  Inner& inner_;
  Before before_;
};

TEST(ScriptedAgentQueue, MemoryWordsCountOnlyPendingOps) {
  const auto g = graph::make_path(8);
  Scheduler scheduler(g, Model::full());
  OpenPlanAgent agent;
  agent.first_plan = {1, 2, 3, 4, 5};
  Probe probe(agent, [](std::uint64_t) {});
  (void)scheduler.run_single(probe, 0, 7);
  // Two words per op still queued: 5 planned, one spent per round; the
  // spent ops stop counting as soon as they run.
  const std::vector<std::size_t> expected = {8, 6, 4, 2, 0, 0, 0};
  EXPECT_EQ(probe.words, expected);
  ASSERT_EQ(agent.idles.size(), 3u);  // rounds 0, 5, 6
  EXPECT_EQ(agent.idles[1].round, 5u);
  EXPECT_EQ(agent.idles[1].here, 5u);
}

TEST(ScriptedAgentQueue, AppendWhileQueuedRunsInOrder) {
  const auto g = graph::make_path(8);
  Scheduler scheduler(g, Model::full());
  OpenPlanAgent agent;
  agent.first_plan = {1, 2};
  // Before round 1 the route 1 -> 2 is half spent; the appended hops must
  // run after it, not before.
  Probe probe(agent, [&agent](std::uint64_t round) {
    if (round == 1) {
      agent.append_move(3);
      agent.append_move(4);
    }
  });
  (void)scheduler.run_single(probe, 0, 6);
  const std::vector<std::size_t> expected = {2, 4, 2, 0, 0, 0};
  EXPECT_EQ(probe.words, expected);
  ASSERT_GE(agent.idles.size(), 2u);
  EXPECT_EQ(agent.idles[1].round, 4u);
  EXPECT_EQ(agent.idles[1].here, 4u);
}

TEST(ScriptedAgentQueue, PlanClearEmptiesTheQueue) {
  const auto g = graph::make_path(8);
  Scheduler scheduler(g, Model::full());
  OpenPlanAgent agent;
  agent.first_plan = {1, 2, 3, 4, 5};
  bool cleared_empty = false;
  Probe probe(agent, [&](std::uint64_t round) {
    if (round == 2) {
      agent.clear();
      cleared_empty = agent.empty();
    }
  });
  (void)scheduler.run_single(probe, 0, 4);
  EXPECT_TRUE(cleared_empty);
  // Two hops ran; the clear dropped the other three, so round 2 idles at
  // vertex 2 with nothing queued.
  const std::vector<std::size_t> expected = {8, 6, 0, 0};
  EXPECT_EQ(probe.words, expected);
  ASSERT_EQ(agent.idles.size(), 3u);
  EXPECT_EQ(agent.idles[1].round, 2u);
  EXPECT_EQ(agent.idles[1].here, 2u);
}

/// Each on_idle plans "wait until three rounds from now, then step on":
/// the re-armed wait must hold exactly across every refill.
class WaitThenStep final : public ScriptedAgent {
 public:
  std::vector<std::uint64_t> idle_rounds;

 protected:
  void on_idle(const View& view) override {
    idle_rounds.push_back(view.round());
    plan_wait_until(view.round() + 3);
    plan_move(view.neighbor_ids()[0] == last_ ? view.neighbor_ids().back()
                                              : view.neighbor_ids()[0]);
    last_ = view.here();
  }

 private:
  graph::VertexId last_ = static_cast<graph::VertexId>(-1);
};

TEST(ScriptedAgentQueue, WaitUntilReArmHoldsAcrossRefills) {
  const auto g = graph::make_ring(16);
  Scheduler scheduler(g, Model::full());
  WaitThenStep agent;
  Probe probe(agent, [](std::uint64_t) {});
  const auto result = scheduler.run_single(probe, 0, 20);
  // Waits hold rounds r, r+1, r+2; the move runs at r+3; the next refill
  // is at r+4.
  const std::vector<std::uint64_t> expected = {0, 4, 8, 12, 16};
  EXPECT_EQ(agent.idle_rounds, expected);
  EXPECT_EQ(result.metrics.moves[0], 5u);
  // Both ops stay pending while the wait is re-armed, then one, then none.
  for (std::size_t r = 0; r < 20; ++r) {
    const std::size_t phase = r % 4;
    EXPECT_EQ(probe.words[r], phase < 2 ? 4u : phase == 2 ? 2u : 0u)
        << "round " << r;
  }
}

// --- hops by port under churn ----------------------------------------------

/// Goes out to its home's first neighbor through port 0 and back through
/// the arrival port, once.
class OutAndBack final : public ScriptedAgent {
 protected:
  void on_idle(const View& view) override {
    if (planned_) return;
    planned_ = true;
    plan_move(Hop{view.neighbor_ids()[0], 0});
    plan_move(Hop{view.here(), Hop::kBack});
  }

 private:
  bool planned_ = false;
};

/// Records the vertex and the move port of every round of an inner agent.
template <class Inner>
class Recorder final : public Agent {
 public:
  explicit Recorder(Inner& inner) : inner_(inner) {}
  Action step(const View& view) override {
    const Action action = inner_.step(view);
    here.push_back(view.here());
    ports.push_back(action.move_port);
    return action;
  }
  std::vector<graph::VertexId> here;
  std::vector<std::size_t> ports;

 private:
  Inner& inner_;
};

TEST(ScriptedAgentChurn, BlockedHopIsRetriedOnItsPort) {
  // Every edge is down in rounds [1, 4): the hop back, issued at round 1
  // through the arrival port, is blocked three times. The arrival port is
  // gone after the first block (the agent stayed), so each retry must
  // re-issue the stored port.
  const auto g = graph::make_ring(12);
  Scheduler scheduler(g, Model::full());
  const auto plan = fault::FaultPlan::parse("churn?rate=1&skip=1&count=3");
  fault::FaultSession session(plan, Rng(1, 2));
  OutAndBack walker;
  Recorder recorder(walker);
  StillAgent still;
  ScenarioPlacement placement;
  placement.starts = {0, 6};
  const auto result = scheduler.run_scenario({&recorder, &still}, placement,
                                              Gathering::AnyPair, 8, &session);
  EXPECT_EQ(result.faults.moves_blocked, 3u);
  const graph::VertexId out = g.neighbor_ids(0)[0];
  const std::size_t back = g.reverse_ports(0)[0];
  const std::vector<graph::VertexId> here = {0, out, out, out, out, 0, 0, 0};
  const std::vector<std::size_t> ports = {0,    back,         back,
                                          back, back,         Action::kStay,
                                          Action::kStay, Action::kStay};
  EXPECT_EQ(recorder.here, here);
  EXPECT_EQ(recorder.ports, ports);
}

TEST(ScriptedAgentChurn, HopThroughTheWrongPortFailsLoudly) {
  // A hop names its target: landing anywhere but the target or (after a
  // blocked move) the vertex it left is a CheckError, not a silent walk.
  class WrongPort final : public ScriptedAgent {
   protected:
    void on_idle(const View& view) override {
      plan_move(Hop{view.neighbor_ids()[0], 1});
    }
  };
  const auto g = graph::make_ring(12);
  Scheduler scheduler(g, Model::full());
  WrongPort walker;
  StillAgent still;
  EXPECT_THROW((void)scheduler.run(walker, still, Placement{0, 6}, 4),
               CheckError);
}

TEST(ScriptedAgentChurn, WhiteboardAgentBStaysInItsClosedNeighborhood) {
  // Agent b returns home through its arrival port and looks home's port
  // up only after churn blocked that hop; either way every round finds it
  // in N+(home).
  Rng rng(3, 9);
  const auto g = graph::make_near_regular(64, 6, rng);
  Scheduler scheduler(g, Model::full());
  const auto plan = fault::FaultPlan::parse("churn?rate=0.5");
  fault::FaultSession session(plan, Rng(5, 2));
  core::WhiteboardAgentB agent_b(Rng(7, 1));
  Recorder recorder(agent_b);
  StillAgent still;
  ScenarioPlacement placement;
  placement.starts = {0, 0};
  placement.starts[1] = g.num_vertices() - 1;
  const auto result = scheduler.run_scenario(
      {&recorder, &still}, placement, Gathering::AnyPair, 400, &session);
  EXPECT_GT(result.faults.moves_blocked, 0u);
  const auto home = g.neighbor_ids(0);
  std::size_t away = 0, blocked_returns = 0;
  for (std::size_t r = 0; r < recorder.here.size(); ++r) {
    const auto v = recorder.here[r];
    if (v == g.id_of(0)) continue;
    ++away;
    if (r > 0 && recorder.here[r - 1] == v) ++blocked_returns;
    EXPECT_NE(std::find(home.begin(), home.end(), v), home.end())
        << "agent b stood on " << v << " in round " << r;
  }
  EXPECT_GT(away, 0u);
  EXPECT_GT(blocked_returns, 0u);  // the port_of fallback ran
}

}  // namespace
}  // namespace fnr::sim
