// Heavy swarm stress battery: massive-k runs on the 2^20-vertex torus.
//
// Skipped unless FNR_HEAVY=1 is set (these tests are minutes-of-CPU scale
// by design and carry the CTest label "heavy"; the nightly CI job runs
// them via `ctest -L heavy`). Three claims:
//
//   1. A k = 100 000 agent trial on torus-1024 completes — the occupancy
//      engine's headline scale. FNR_HEAVY_K overrides k (e.g. 1000000 for
//      the ROADMAP's 10^6 acceptance run).
//   2. The swarm round loop is allocation-free after warm-up at k = 10^4:
//      a 16x-longer run heap-allocates exactly as often as a short one.
//   3. At k = 10^4, a run with the self-check off (occupancy counts only)
//      beats the same run with it on (which adds the O(k^2) pairwise
//      oracle every round) by >= 50x wall-clock, on a workload where
//      detection dominates (agents that never move, so the round loop is
//      nothing but the meeting check).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <new>

#include "graph/generators.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fnr {
namespace {

bool heavy_enabled() {
  const char* flag = std::getenv("FNR_HEAVY");
  return flag != nullptr && flag[0] == '1';
}

#define REQUIRE_HEAVY()                                            \
  do {                                                             \
    if (!heavy_enabled())                                          \
      GTEST_SKIP() << "set FNR_HEAVY=1 to run the heavy battery"; \
  } while (false)

/// Memoryless walker: one uniform step per round. The cheapest possible
/// program, so massive-k runs measure the engine, not the agent.
class DrunkardAgent final : public sim::Agent {
 public:
  explicit DrunkardAgent(std::uint64_t seed) noexcept : rng_(seed, 77) {}
  sim::Action step(const sim::View& view) override {
    return sim::Action::move(
        static_cast<std::size_t>(rng_.below(view.degree())));
  }

 private:
  Rng rng_;
};

/// Never moves. With pairwise-distinct starts a team of these never meets,
/// which pins every round to the meeting check alone — the detection
/// engines' worst case (nothing to early-out on).
class StoneAgent final : public sim::Agent {
 public:
  sim::Action step(const sim::View&) override { return sim::Action::stay(); }
};

sim::ScenarioPlacement distinct_starts(const graph::Graph& g, std::size_t k,
                                       std::uint64_t seed) {
  sim::ScenarioPlacement placement;
  Rng rng(seed, 13);
  const auto picks = sample_without_replacement(g.num_vertices(), k, rng);
  placement.starts.reserve(k);
  for (const auto v : picks)
    placement.starts.push_back(static_cast<graph::VertexIndex>(v));
  return placement;
}

TEST(SwarmStress, HundredThousandAgentTrialCompletesOnTorus1024) {
  REQUIRE_HEAVY();
  std::size_t k = 100000;
  if (const char* override_k = std::getenv("FNR_HEAVY_K"))
    k = static_cast<std::size_t>(std::strtoull(override_k, nullptr, 10));
  ASSERT_GE(k, 2u);

  const auto g = graph::make_torus(1024, 1024);  // 2^20 vertices
  ASSERT_LE(k, g.num_vertices());
  sim::Scheduler scheduler(g, sim::Model::no_whiteboards());

  std::deque<DrunkardAgent> agents;  // Agent is pinned (non-movable)
  std::vector<sim::Agent*> team;
  team.reserve(k);
  Rng seed_rng(4096, 5);
  for (std::size_t i = 0; i < k; ++i) {
    agents.emplace_back(seed_rng());
    team.push_back(&agents[i]);
  }
  const auto placement = distinct_starts(g, k, 321);

  const auto start = std::chrono::steady_clock::now();
  const auto result = scheduler.run_scenario(
      team, placement, sim::Gathering::quorum_of(5), /*max_rounds=*/512);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // At 10^5 walkers on 10^6 vertices a 5-quorum forms within a few dozen
  // rounds with overwhelming probability (and at the 10^6 override it
  // usually holds in the starting position already).
  EXPECT_TRUE(result.met) << "no 5-quorum within 512 rounds at k=" << k;
  if (result.met) EXPECT_GE(result.gathered_count, 5u);
  RecordProperty("seconds", std::to_string(seconds));
  std::printf("[ HEAVY    ] k=%zu trial: %llu rounds, met=%d, %.2fs\n", k,
              static_cast<unsigned long long>(result.rounds),
              int(result.met), seconds);
}

TEST(SwarmStress, SwarmRoundLoopIsAllocationFreeAtTenThousandAgents) {
  REQUIRE_HEAVY();
  constexpr std::size_t kAgents = 10000;
  const auto g = graph::make_torus(128, 128);  // 16384 vertices >= k
  sim::Scheduler scheduler(g, sim::Model::no_whiteboards());
  const auto placement = distinct_starts(g, kAgents, 97);

  const auto count_run = [&](std::uint64_t cap) {
    std::vector<StoneAgent> agents(kAgents);
    std::vector<sim::Agent*> team;
    team.reserve(kAgents);
    for (auto& agent : agents) team.push_back(&agent);
    const auto before = allocation_count();
    const auto result = scheduler.run_scenario(
        team, placement, sim::Gathering::quorum_of(2), cap);
    const auto after = allocation_count();
    EXPECT_FALSE(result.met);  // stones on distinct vertices never meet
    EXPECT_EQ(result.rounds, cap);
    return after - before;
  };

  (void)count_run(4);  // warm-up grows the arena and the occupancy array
  const auto short_run = count_run(16);
  const auto long_run = count_run(256);
  // Per-run cost (the result's per-agent metrics vector) is allowed;
  // per-round cost is not: 16x the rounds, identical allocation count.
  EXPECT_EQ(short_run, long_run)
      << "swarm round loop heap-allocates per round at k=" << kAgents;
}

TEST(SwarmStress, OccupancyBeatsTheSelfCheckFiftyFoldAtTenThousandAgents) {
  REQUIRE_HEAVY();
  constexpr std::size_t kAgents = 10000;
  // Long enough that per-round detection dominates the fixed per-run setup
  // (arena reset + per-agent metrics) both runs share.
  constexpr std::uint64_t kRounds = 128;
  const auto g = graph::make_torus(128, 128);
  sim::Scheduler scheduler(g, sim::Model::no_whiteboards());
  auto placement = distinct_starts(g, kAgents, 97);
  // Every agent sleeps past the cap: sleeping agents still stand on their
  // vertices (they count toward the predicate) but never observe or act,
  // so each round is the meeting check and nothing else: the self-check's
  // recount and pairwise scan against the occupancy counts alone.
  placement.wake_delays.assign(kAgents, kRounds + 1);

  const auto timed_run = [&](bool self_check) {
    std::vector<StoneAgent> agents(kAgents);
    std::vector<sim::Agent*> team;
    team.reserve(kAgents);
    for (auto& agent : agents) team.push_back(&agent);
    scheduler.set_occupancy_self_check(self_check);
    // Warm-up run outside the timed region (arena growth, cache faults).
    (void)scheduler.run_scenario(team, placement,
                                 sim::Gathering::quorum_of(2), 1);
    const auto start = std::chrono::steady_clock::now();
    const auto result = scheduler.run_scenario(
        team, placement, sim::Gathering::quorum_of(2), kRounds);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_FALSE(result.met);
    EXPECT_EQ(result.rounds, kRounds);
    return seconds;
  };

  const double checked = timed_run(true);
  const double unchecked = timed_run(false);
  std::printf("[ HEAVY    ] k=%zu, %llu rounds: self-check on %.4fs, "
              "off %.6fs (%.1fx)\n",
              kAgents, static_cast<unsigned long long>(kRounds), checked,
              unchecked, checked / unchecked);
  // The oracle scans O(k^2) pairs per round (the self-check's O(n + k)
  // recount is small beside it); occupancy pays O(1) per round plus O(1)
  // per move (and stones never move). 50x is a deliberately conservative
  // floor — the measured gap is orders of magnitude.
  EXPECT_GE(checked, unchecked * 50.0);
}

}  // namespace
}  // namespace fnr
