// Scenario descriptors and registry.
//
// The paper analyzes exactly one scenario: two agents, adjacent starts,
// synchronous wake-up, rendezvous = any co-location. The broader rendezvous
// literature (Fast Rendezvous with Advice; deterministic rendezvous with
// delayed starts) varies each of those axes. A Scenario pins one point in
// that space — agent count, placement model, wake-delay model, gathering
// predicate — and the registry makes the whole matrix enumerable by the
// TrialRunner, the benches, and the examples.
//
// A Scenario is a static descriptor; draw_instance materializes one concrete
// trial (starts + delays) from it deterministically given an Rng, so trial
// aggregates stay bit-identical across thread counts.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace fnr::scenario {

/// How agents' start vertices are drawn.
enum class PlacementModel {
  /// Uniform adjacent pair — the paper's instance class I_1 (k = 2 only).
  AdjacentPair,
  /// A uniform vertex v with deg(v) + 1 >= k, then k distinct members of
  /// N+(v): the k-agent generalization of "neighborhood" rendezvous.
  NeighborhoodCluster,
  /// k distinct uniform vertices anywhere (general gathering).
  RandomDistinct,
};

/// How wake-up delays are drawn (delays are in rounds; time starts when the
/// first agent wakes).
enum class DelayModel {
  None,           ///< synchronous start (the paper's model)
  RandomUniform,  ///< each delay uniform in [0, max_delay], then shifted so
                  ///< the earliest riser wakes at 0
  Adversarial,    ///< agent 0 wakes at 0, everyone else sleeps max_delay
                  ///< rounds (the worst staggering under the bound)
};

/// Stable label for tables and scenario descriptions.
[[nodiscard]] const char* to_string(PlacementModel placement) noexcept;
/// Stable label for tables and scenario descriptions.
[[nodiscard]] const char* to_string(DelayModel delay) noexcept;

/// One point in scenario space. Immutable once registered.
struct Scenario {
  std::string name;     ///< registry key, unique
  std::string summary;  ///< one line for tables / --list output
  std::size_t num_agents = 2;   ///< k, at least 2
  PlacementModel placement = PlacementModel::AdjacentPair;  ///< start draw
  DelayModel delay = DelayModel::None;  ///< wake-delay draw
  std::uint64_t max_delay = 0;  ///< bound D on wake delays (rounds)
  sim::Gathering gathering = sim::Gathering::AnyPair;  ///< success predicate

  /// Throws CheckError on inconsistent descriptors (k < 2, AdjacentPair
  /// with k != 2, a delay model with max_delay = 0, ...).
  void validate() const;

  /// "k=3 cluster, delay<=128 (random), any-pair" — for table headers.
  [[nodiscard]] std::string describe() const;
};

// --- registry ---------------------------------------------------------------

/// The built-in scenarios plus everything added via register_scenario, in
/// registration order. The first entry is "sync-pair", the paper's model.
/// (A deque so register_scenario never invalidates references handed out
/// by this function or find_scenario.)
[[nodiscard]] const std::deque<Scenario>& all_scenarios();

/// Adds a scenario to the registry. Validates it; throws CheckError on a
/// duplicate name.
void register_scenario(Scenario scenario);

[[nodiscard]] bool has_scenario(const std::string& name);

/// Throws CheckError when the name is unknown (lists known names).
[[nodiscard]] const Scenario& find_scenario(const std::string& name);

/// Markdown-ish table of every registered scenario (name, shape, summary)
/// for the --list-scenarios CLIs.
void print_scenario_listing(std::ostream& os);

// --- instance materialization -----------------------------------------------

/// Draws one concrete trial (starts + wake delays) for `scenario` on `g`.
/// Deterministic given the Rng state: placement is drawn first, delays
/// second. Throws CheckError when the graph cannot host the scenario (e.g.
/// no vertex has a closed neighborhood of size num_agents).
[[nodiscard]] sim::ScenarioPlacement draw_instance(const Scenario& scenario,
                                                   const graph::Graph& g,
                                                   Rng& rng);

}  // namespace fnr::scenario
