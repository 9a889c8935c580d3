// Work gate: the exact work of 15 pinned cells — rounds, agent moves,
// whiteboard writes and trials met — plus their heap allocations per trial.
//
// The paper states its cost in rounds (Theorems 1-2 bound round counts,
// not seconds), so tier-1 gates the simulator's cost with exact counters;
// wall-clock claims go through perfbench/run.py. The cells, all at seed 7:
//   - the three paper strategies × four 1024-vertex topologies, 256 trials
//     each through core::run_trials (Scheduler::run, the k = 2 projection
//     of the scenario engine's round loop);
//   - a k = 256, quorum-16 explore-rally swarm on the 32×32 torus, 32
//     trials through the scenario engine, forced onto occupancy-count
//     meeting detection;
//   - a pinned 12-cell campaign grid through the cell executor.
// Every cell runs on one thread; the campaign grid runs again at four
// threads and must reproduce the same totals.
//
// Work pins are exact: any drift means the simulated computation changed.
// After an intended algorithm change, re-pin by copying the "got" values
// from this binary's failure messages, and say why in CHANGES.md.
// Allocation pins are upper bounds at the measured count (one thread):
// lower one freely, raise one only with a reason in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "alloc_counter.hpp"
#include "campaign/campaign.hpp"
#include "core/rendezvous.hpp"
#include "graph/generators.hpp"
#include "runner/trial_runner.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "sweep/spec.hpp"
#include "util/table.hpp"

namespace fnr {
namespace {

using test::allocation_count;

constexpr std::uint64_t kSeed = 7;

struct Work {
  std::uint64_t rounds = 0;
  std::uint64_t moves = 0;
  std::uint64_t writes = 0;
  std::uint64_t met = 0;
};

struct Pin {
  const char* cell;
  Work work;
  double max_allocs_per_trial;
};

const Pin kPins[] = {
    // {cell, {rounds, moves, writes, met}, max allocs per trial}
    {"whiteboard/near-regular-1024", {121233, 241979, 60787, 256}, 628.48},
    {"whiteboard/torus-32x32", {4006, 7560, 2172, 256}, 51.94},
    {"whiteboard/hypercube-10", {9748, 19036, 5046, 256}, 88.04},
    {"whiteboard/watts-strogatz-1024", {7228, 14180, 3669, 256}, 80.14},
    {"whiteboard+doubling/near-regular-1024",
     {108645, 216861, 54467, 256},
     605.88},
    {"whiteboard+doubling/torus-32x32", {4006, 7560, 2172, 256}, 51.94},
    {"whiteboard+doubling/hypercube-10", {9748, 19036, 5046, 256}, 88.04},
    {"whiteboard+doubling/watts-strogatz-1024",
     {7228, 14180, 3669, 256},
     80.14},
    {"no-whiteboard/near-regular-1024", {107494, 107494, 0, 256}, 664.93},
    {"no-whiteboard/torus-32x32", {1894, 1894, 0, 256}, 52.14},
    {"no-whiteboard/hypercube-10", {4998, 4998, 0, 256}, 85.38},
    {"no-whiteboard/watts-strogatz-1024", {6176, 6176, 0, 256}, 95.62},
    {"explore-rally/swarm-quorum-k256", {4654, 1191424, 0, 32}, 3926.72},
    {"campaign/perf-campaign", {2391478, 2459069, 35874, 768}, 150.60},
};

const Pin& pin_for(const std::string& cell) {
  for (const Pin& pin : kPins)
    if (cell == pin.cell) return pin;
  throw std::logic_error("no pin for cell " + cell);
}

void expect_work(const std::string& cell, const Work& got) {
  const Work& pinned = pin_for(cell).work;
  const auto check = [&](const char* counter, std::uint64_t want,
                         std::uint64_t have) {
    EXPECT_EQ(have, want) << "cell " << cell << ", counter " << counter
                          << ": pinned " << want << ", got " << have;
  };
  check("rounds", pinned.rounds, got.rounds);
  check("moves", pinned.moves, got.moves);
  check("writes", pinned.writes, got.writes);
  check("met", pinned.met, got.met);
}

void expect_allocs(const std::string& cell, std::uint64_t allocs,
                   std::uint64_t trials) {
  const double pinned = pin_for(cell).max_allocs_per_trial;
  const double got = static_cast<double>(allocs) / static_cast<double>(trials);
  EXPECT_LE(got, pinned) << "cell " << cell
                         << ", counter allocs/trial: pinned <= "
                         << format_double(pinned, 2) << ", got "
                         << format_double(got, 4) << " (" << allocs
                         << " over " << trials << " trials)";
}

Work work_of(const runner::TrialAccumulator& acc) {
  Work work;
  for (const auto& out : acc.sorted_outcomes()) {
    work.rounds += out.rounds;
    work.moves += out.moves_a + out.moves_b;
    work.writes += out.whiteboard_marks;
    work.met += out.met ? 1 : 0;
  }
  return work;
}

struct Topology {
  const char* label;
  graph::Graph (*build)();
};

// Graph seeds are constants, never the trial seed, so a cell's workload is
// fixed by its label.
const Topology kTopologies[] = {
    {"near-regular-1024",
     [] {
       Rng rng(4242, 911);
       return graph::make_near_regular(1024, 64, rng);
     }},
    {"torus-32x32", [] { return graph::make_torus(32, 32); }},
    {"hypercube-10", [] { return graph::make_hypercube(10); }},
    {"watts-strogatz-1024",
     [] {
       Rng rng(4242, 913);
       return graph::make_watts_strogatz(1024, 6, 0.1, rng);
     }},
};

const runner::TrialRunner& one_thread() {
  static const runner::TrialRunner trial_runner(runner::RunnerOptions{1});
  return trial_runner;
}

TEST(WorkGate, PaperStrategiesOnFourTopologies) {
  constexpr std::uint64_t kTrials = 256;
  for (const Topology& topology : kTopologies) {
    const graph::Graph g = topology.build();
    for (const auto strategy :
         {core::Strategy::Whiteboard, core::Strategy::WhiteboardDoubling,
          core::Strategy::NoWhiteboard}) {
      const std::string cell =
          std::string(core::to_string(strategy)) + "/" + topology.label;
      core::RendezvousOptions options;
      options.seed = kSeed;
      const auto before = allocation_count();
      const auto acc =
          core::run_trials(strategy, g, options, kTrials, one_thread());
      expect_allocs(cell, allocation_count() - before, kTrials);
      EXPECT_EQ(acc.count(), kTrials) << "cell " << cell;
      expect_work(cell, work_of(acc));
    }
  }
}

TEST(WorkGate, ExploreRallySwarmAtQuorum) {
  constexpr std::uint64_t kTrials = 32;
  const std::string cell = "explore-rally/swarm-quorum-k256";
  const graph::Graph g = graph::make_torus(32, 32);
  scenario::Scenario scen;
  scen.name = "swarm-quorum-k256";
  scen.summary = "work-gate swarm cell";
  scen.num_agents = 256;
  scen.placement = scenario::PlacementModel::RandomDistinct;
  scen.delay = scenario::DelayModel::None;
  scen.gathering = sim::Gathering::quorum_of(16);
  scen.validate();
  scenario::ScenarioOptions options;
  options.seed = kSeed;
  // The cell exists to cover the occupancy-count meeting engine: pin the
  // detection mode rather than trusting the Auto cutover.
  options.detection = sim::MeetingDetection::Occupancy;
  const auto program = scenario::find_program("explore-rally");

  const auto before = allocation_count();
  const auto acc = scenario::run_scenario_trials(scen, program, g, options,
                                                 kTrials, one_thread());
  expect_allocs(cell, allocation_count() - before, kTrials);
  EXPECT_EQ(acc.count(), kTrials) << "cell " << cell;
  expect_work(cell, work_of(acc));
}

// A 16× size spread with a neighborhood-scan-heavy family against a cheap
// torus: 12 cells, 768 trials.
constexpr const char* kCampaignSpec = R"(name = perf-campaign
trials     = 64
programs   = whiteboard, whiteboard+doubling, random-walk
scenarios  = sync-pair
topologies = near-regular:deg=32, torus
sizes      = 1024, 16384
seeds      = 7
)";

TEST(WorkGate, CampaignGridAtOneAndFourThreads) {
  const std::string cell = "campaign/perf-campaign";
  const sweep::SweepSpec spec = sweep::parse_spec(kCampaignSpec);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    campaign::CampaignOptions options;
    options.threads = threads;
    const auto before = allocation_count();
    campaign::Campaign camp(spec, options);
    const auto run = camp.run();
    const auto allocs = allocation_count() - before;
    ASSERT_TRUE(run.complete) << "cell " << cell;

    Work work;
    std::uint64_t trials = 0;
    for (const auto& result : run.cells) {
      EXPECT_TRUE(result.ok) << result.cell.key() << ": " << result.error;
      work.rounds += result.total_rounds;
      work.moves += result.total_moves;
      work.writes += result.total_writes;
      work.met += result.trials_met;
      trials += result.cell.trials;
    }
    EXPECT_EQ(run.cells.size(), 12u) << "cell " << cell;
    expect_work(cell, work);
    // Worker threads and the shared graph cache allocate in a
    // schedule-dependent order; the bound holds at the one-thread path.
    if (threads == 1) expect_allocs(cell, allocs, trials);
  }
}

}  // namespace
}  // namespace fnr
