#include "scenario/scenario.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/table.hpp"

namespace fnr::scenario {

const char* to_string(PlacementModel placement) noexcept {
  switch (placement) {
    case PlacementModel::AdjacentPair: return "adjacent-pair";
    case PlacementModel::NeighborhoodCluster: return "neighborhood-cluster";
    case PlacementModel::RandomDistinct: return "random-distinct";
  }
  return "?";
}

const char* to_string(DelayModel delay) noexcept {
  switch (delay) {
    case DelayModel::None: return "none";
    case DelayModel::RandomUniform: return "random";
    case DelayModel::Adversarial: return "adversarial";
  }
  return "?";
}

void Scenario::validate() const {
  FNR_CHECK_MSG(!name.empty(), "scenario needs a name");
  FNR_CHECK_MSG(num_agents >= 2,
                "scenario '" << name << "' needs at least two agents");
  FNR_CHECK_MSG(
      placement != PlacementModel::AdjacentPair || num_agents == 2,
      "scenario '" << name << "': adjacent-pair placement is two-agent only");
  FNR_CHECK_MSG((delay == DelayModel::None) == (max_delay == 0),
                "scenario '" << name
                             << "': max_delay must be positive exactly when "
                                "a delay model is set");
  if (gathering.kind == sim::Gathering::Quorum) {
    FNR_CHECK_MSG(gathering.quorum >= 2,
                  "scenario '" << name << "': a quorum needs at least 2 "
                               "agents, got " << gathering.quorum);
    FNR_CHECK_MSG(gathering.quorum <= num_agents,
                  "scenario '" << name << "': quorum " << gathering.quorum
                               << " exceeds the " << num_agents
                               << "-agent population");
  }
  if (gathering.kind == sim::Gathering::Fraction) {
    FNR_CHECK_MSG(gathering.fraction > 0.0 && gathering.fraction <= 1.0,
                  "scenario '" << name << "': gathering fraction must be in "
                               "(0, 1], got " << gathering.fraction);
  }
}

std::string Scenario::describe() const {
  std::ostringstream os;
  os << "k=" << num_agents << " " << to_string(placement);
  if (delay == DelayModel::None) {
    os << ", sync";
  } else {
    os << ", delay<=" << max_delay << " (" << to_string(delay) << ")";
  }
  os << ", " << to_string(gathering);
  return os.str();
}

namespace {

std::deque<Scenario>& registry() {
  static std::deque<Scenario> scenarios = [] {
    std::deque<Scenario> builtin;
    // The paper's model. A zero-delay two-agent scenario must reproduce the
    // classic synchronous scheduler bit-for-bit (guarded by tests).
    builtin.push_back({"sync-pair", "the paper's model: 2 agents, adjacent, "
                       "synchronous wake-up",
                       2, PlacementModel::AdjacentPair, DelayModel::None, 0,
                       sim::Gathering::AnyPair});
    builtin.push_back({"delayed-pair", "adjacent pair, wake-up staggered "
                       "uniformly at random",
                       2, PlacementModel::AdjacentPair,
                       DelayModel::RandomUniform, 128,
                       sim::Gathering::AnyPair});
    builtin.push_back({"ambush-pair", "adjacent pair, partner sleeps the "
                       "full delay bound",
                       2, PlacementModel::AdjacentPair,
                       DelayModel::Adversarial, 128, sim::Gathering::AnyPair});
    builtin.push_back({"trio-neighborhood", "3 agents in one closed "
                       "neighborhood, synchronous",
                       3, PlacementModel::NeighborhoodCluster,
                       DelayModel::None, 0, sim::Gathering::AnyPair});
    builtin.push_back({"trio-delayed", "3 agents in one closed neighborhood, "
                       "random staggered wake-up",
                       3, PlacementModel::NeighborhoodCluster,
                       DelayModel::RandomUniform, 128,
                       sim::Gathering::AnyPair});
    builtin.push_back({"pair-anywhere", "2 agents dropped anywhere "
                       "(general rendezvous, not neighborhood)",
                       2, PlacementModel::RandomDistinct, DelayModel::None, 0,
                       sim::Gathering::AnyPair});
    builtin.push_back({"swarm-gather", "5 agents dropped anywhere; all must "
                       "stand on one vertex",
                       5, PlacementModel::RandomDistinct, DelayModel::None, 0,
                       sim::Gathering::All});
    builtin.push_back({"swarm-quorum", "12 agents dropped anywhere; any 4 on "
                       "one vertex succeed",
                       12, PlacementModel::RandomDistinct, DelayModel::None, 0,
                       sim::Gathering::quorum_of(4)});
    builtin.push_back({"swarm-fraction", "12 agents dropped anywhere; half "
                       "the swarm on one vertex succeeds",
                       12, PlacementModel::RandomDistinct, DelayModel::None, 0,
                       sim::Gathering::fraction_of(0.5)});
    for (const auto& scenario : builtin) scenario.validate();
    return builtin;
  }();
  return scenarios;
}

}  // namespace

const std::deque<Scenario>& all_scenarios() { return registry(); }

void register_scenario(Scenario scenario) {
  scenario.validate();
  FNR_CHECK_MSG(!has_scenario(scenario.name),
                "scenario '" << scenario.name << "' is already registered");
  registry().push_back(std::move(scenario));
}

bool has_scenario(const std::string& name) {
  const auto& scenarios = registry();
  return std::any_of(scenarios.begin(), scenarios.end(),
                     [&](const Scenario& s) { return s.name == name; });
}

const Scenario& find_scenario(const std::string& name) {
  for (const auto& scenario : registry())
    if (scenario.name == name) return scenario;
  std::ostringstream known;
  for (const auto& scenario : registry()) known << " " << scenario.name;
  throw CheckError("unknown scenario '" + name + "'; known:" + known.str());
}

void print_scenario_listing(std::ostream& os) {
  Table table({"scenario", "shape", "summary"});
  for (const auto& scenario : all_scenarios())
    table.add_row({scenario.name, scenario.describe(), scenario.summary});
  table.print(os);
}

namespace {

std::vector<graph::VertexIndex> draw_starts(const Scenario& scenario,
                                            const graph::Graph& g, Rng& rng) {
  const std::size_t k = scenario.num_agents;
  FNR_CHECK_MSG(g.num_vertices() >= k,
                "graph has " << g.num_vertices() << " vertices for " << k
                             << " agents");
  switch (scenario.placement) {
    case PlacementModel::AdjacentPair: {
      const auto pair = sim::random_adjacent_placement(g, rng);
      return {pair.a_start, pair.b_start};
    }
    case PlacementModel::NeighborhoodCluster: {
      FNR_CHECK_MSG(g.max_degree() + 1 >= k,
                    "no closed neighborhood fits " << k << " agents (Delta = "
                                                   << g.max_degree() << ")");
      // Uniform over the centers that can host the cluster.
      std::vector<graph::VertexIndex> centers;
      for (graph::VertexIndex v = 0; v < g.num_vertices(); ++v)
        if (g.degree(v) + 1 >= k) centers.push_back(v);
      const graph::VertexIndex center = choose(centers, rng);
      // k distinct members of N+(center); slot deg(center) encodes the
      // center itself.
      const auto slots =
          sample_without_replacement(g.degree(center) + 1, k, rng);
      std::vector<graph::VertexIndex> starts;
      starts.reserve(k);
      for (const auto slot : slots)
        starts.push_back(slot == g.degree(center)
                             ? center
                             : g.neighbor_at_port(center, slot));
      return starts;
    }
    case PlacementModel::RandomDistinct: {
      const auto picks = sample_without_replacement(g.num_vertices(), k, rng);
      std::vector<graph::VertexIndex> starts;
      starts.reserve(k);
      for (const auto pick : picks)
        starts.push_back(static_cast<graph::VertexIndex>(pick));
      return starts;
    }
  }
  FNR_CHECK_MSG(false, "unhandled placement model");
  return {};
}

std::vector<std::uint64_t> draw_delays(const Scenario& scenario, Rng& rng) {
  const std::size_t k = scenario.num_agents;
  switch (scenario.delay) {
    case DelayModel::None:
      return {};
    case DelayModel::RandomUniform: {
      std::vector<std::uint64_t> delays(k);
      for (auto& d : delays) d = rng.below(scenario.max_delay + 1);
      // Time starts when the first agent wakes.
      const auto earliest = *std::min_element(delays.begin(), delays.end());
      for (auto& d : delays) d -= earliest;
      return delays;
    }
    case DelayModel::Adversarial: {
      std::vector<std::uint64_t> delays(k, scenario.max_delay);
      delays[0] = 0;
      return delays;
    }
  }
  FNR_CHECK_MSG(false, "unhandled delay model");
  return {};
}

}  // namespace

sim::ScenarioPlacement draw_instance(const Scenario& scenario,
                                     const graph::Graph& g, Rng& rng) {
  scenario.validate();
  sim::ScenarioPlacement placement;
  placement.starts = draw_starts(scenario, g, rng);
  placement.wake_delays = draw_delays(scenario, rng);
  return placement;
}

}  // namespace fnr::scenario
