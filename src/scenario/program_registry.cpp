#include "scenario/program_registry.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "baselines/anderson_weber.hpp"
#include "baselines/gather.hpp"
#include "baselines/random_walk.hpp"
#include "baselines/wait_and_explore.hpp"
#include "baselines/wait_and_sweep.hpp"
#include "core/main_rendezvous.hpp"
#include "core/no_whiteboard.hpp"
#include "core/rendezvous.hpp"
#include "util/spec_token.hpp"
#include "util/table.hpp"

namespace fnr::scenario {

std::string ProgramCaps::describe() const {
  std::vector<const char*> needs;
  if (needs_whiteboards) needs.push_back("whiteboards");
  if (needs_tight_ids) needs.push_back("tight-ids");
  if (needs_complete_graph) needs.push_back("complete-graph");
  if (needs_shared_neighborhood) needs.push_back("shared-neighborhood");
  std::vector<const char*> supports;
  if (supports_multi_agent) supports.push_back("k>2");
  if (supports_gather_all) supports.push_back("all-meet");
  std::ostringstream os;
  os << "needs:";
  if (needs.empty()) os << " -";
  for (const auto* item : needs) os << " " << item;
  os << "; supports:";
  if (supports.empty()) os << " -";
  for (const auto* item : supports) os << " " << item;
  return os.str();
}

void ProgramDef::validate() const {
  FNR_CHECK_MSG(!label.empty(), "program needs a label");
  FNR_CHECK_MSG(label.find_first_of("?&,| \t\r\n") == std::string::npos,
                "program label '" << label
                                  << "' may not contain '?', '&', ',', '|', "
                                     "or whitespace (labels name cells in "
                                     "sweep keys and spec lists)");
  FNR_CHECK_MSG(!description.empty(),
                "program '" << label << "' needs a description");
  const bool asymmetric = seeker != nullptr && marker != nullptr;
  const bool is_symmetric = symmetric != nullptr;
  FNR_CHECK_MSG(asymmetric != is_symmetric,
                "program '" << label
                            << "' must set either seeker+marker or "
                               "symmetric, not both");
  FNR_CHECK_MSG(round_cap != nullptr,
                "program '" << label << "' needs a round-cap policy");
  FNR_CHECK_MSG(!caps.needs_whiteboards || model.whiteboards,
                "program '" << label
                            << "' needs whiteboards but registers a "
                               "whiteboard-free model");
  for (const auto& [name, fallback] : parameters)
    FNR_CHECK_MSG(std::isfinite(fallback),
                  "program '" << label << "': parameter '" << name
                              << "' declares a non-finite default");
}

// --- handles -----------------------------------------------------------------

const ProgramDef& Program::def() const {
  FNR_CHECK_MSG(def_ != nullptr, "invalid (default-constructed) program "
                                 "handle; obtain one via find_program");
  return *def_;
}

double Program::param(const std::string& name) const {
  const ProgramDef& d = def();
  // NaN poisons every comparison downstream (a factory's range check like
  // `v >= 0 && v < 1` is silently false-false), so reject non-finite
  // values here by name instead of letting them surface as a confusing
  // range error — or worse, no error at all.
  const auto checked = [&](double value) {
    FNR_CHECK_MSG(std::isfinite(value),
                  "program '" << d.label << "': parameter '" << name
                              << "' must be finite, got " << value);
    return value;
  };
  if (const auto it = overrides_.find(name); it != overrides_.end())
    return checked(it->second);
  if (const auto it = d.parameters.find(name); it != d.parameters.end())
    return checked(it->second);
  FNR_CHECK_MSG(false, "program '" << d.label << "' has no parameter '"
                                   << name << "'");
  throw std::logic_error("unreachable");
}

Program make_program(const ProgramDef& def,
                     std::map<std::string, double> overrides) {
  Program program;
  program.def_ = &def;
  program.overrides_ = std::move(overrides);
  program.label_ = def.label + param_suffix(program.overrides_);
  return program;
}

const std::string& to_string(const Program& program) noexcept {
  return program.label();
}

// --- registry ----------------------------------------------------------------

namespace {

/// Shared by the paper-strategy registrations: agents 1..k-1 run the
/// oblivious marker role; only the model and the seeker differ.
std::deque<ProgramDef> builtin_programs() {
  std::deque<ProgramDef> defs;

  {
    ProgramDef def;
    def.label = "whiteboard";
    def.description =
        "Theorem 1 Main-Rendezvous: seeker probes its dense set T^a, "
        "markers stamp random closed neighbors (agents know delta)";
    def.paper_ref = "Theorem 1";
    def.caps.needs_whiteboards = true;
    def.caps.needs_shared_neighborhood = true;
    def.model = sim::Model::full();
    def.seeker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      const auto delta = static_cast<double>(build.graph.min_degree());
      return std::make_unique<core::WhiteboardAgentA>(build.params, delta,
                                                      build.rng);
    };
    def.marker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<core::WhiteboardAgentB>(build.rng);
    };
    def.round_cap = [](const graph::Graph& g, const core::Params& params) {
      return core::auto_round_cap(g, core::Strategy::Whiteboard, params);
    };
    defs.push_back(std::move(def));
  }

  {
    ProgramDef def;
    def.label = "whiteboard+doubling";
    def.description =
        "Theorem 1 + §4.1: Main-Rendezvous with delta estimated by "
        "doubling (restart Construct whenever a smaller degree is seen)";
    def.paper_ref = "Theorem 1 + §4.1";
    def.caps.needs_whiteboards = true;
    def.caps.needs_shared_neighborhood = true;
    def.model = sim::Model::full();
    def.seeker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<core::WhiteboardAgentA>(build.params,
                                                      /*known_delta=*/-1.0,
                                                      build.rng);
    };
    def.marker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<core::WhiteboardAgentB>(build.rng);
    };
    def.round_cap = [](const graph::Graph& g, const core::Params& params) {
      return core::auto_round_cap(g, core::Strategy::WhiteboardDoubling,
                                  params);
    };
    defs.push_back(std::move(def));
  }

  {
    ProgramDef def;
    def.label = "no-whiteboard";
    def.description =
        "Theorem 2 whiteboard-free rendezvous under tight naming: "
        "phase-scheduled probing with ID-derived waiting";
    def.paper_ref = "Theorem 2";
    def.caps.needs_tight_ids = true;
    def.caps.needs_shared_neighborhood = true;
    def.model = sim::Model::no_whiteboards();
    def.seeker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      const auto delta = static_cast<double>(build.graph.min_degree());
      return std::make_unique<core::NoWhiteboardAgentA>(build.params, delta,
                                                        build.rng);
    };
    def.marker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      const auto delta = static_cast<double>(build.graph.min_degree());
      return std::make_unique<core::NoWhiteboardAgentB>(build.params, delta,
                                                        build.rng);
    };
    def.round_cap = [](const graph::Graph& g, const core::Params& params) {
      return core::auto_round_cap(g, core::Strategy::NoWhiteboard, params);
    };
    defs.push_back(std::move(def));
  }

  {
    ProgramDef def;
    def.label = "random-walk";
    def.description =
        "every agent an independent lazy random walk (classic meeting-time "
        "baseline; laziness breaks the bipartite parity lock)";
    def.paper_ref = "§1.3 meeting times";
    def.model = sim::Model::full();
    def.parameters = {{"laziness", 0.5}};
    def.symmetric = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      const double laziness = build.program.param("laziness");
      FNR_CHECK_MSG(laziness >= 0.0 && laziness < 1.0,
                    "random-walk: laziness must be in [0, 1), got "
                        << laziness);
      return std::make_unique<baselines::RandomWalkAgent>(build.rng,
                                                          laziness);
    };
    def.round_cap = [](const graph::Graph& g, const core::Params&) {
      // Two independent lazy walks meet in O~(n) on the dense families and
      // O(n log n)-ish on tori/small worlds; a wide log-linear budget keeps
      // failures meaningful without unbounded trials.
      const auto n = static_cast<double>(g.num_vertices());
      return static_cast<std::uint64_t>(32.0 * n * (std::log2(n) + 1.0)) +
             1024;
    };
    defs.push_back(std::move(def));
  }

  {
    ProgramDef def;
    def.label = "explore-rally";
    def.description =
        "DFS the graph under KT1, then rally at the minimum vertex ID — "
        "the coordination that makes Gathering::All reachable (O(n), "
        "deterministic)";
    def.paper_ref = "gathering folklore";
    def.caps.supports_gather_all = true;
    def.model = sim::Model::full();
    def.symmetric = [](AgentBuild&) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<baselines::GatherAtMinAgent>();
    };
    def.round_cap = [](const graph::Graph& g, const core::Params&) {
      // DFS walk <= 2(n-1) moves plus a rally route <= diameter < n.
      return 4 * static_cast<std::uint64_t>(g.num_vertices()) + 1024;
    };
    defs.push_back(std::move(def));
  }

  {
    ProgramDef def;
    def.label = "anderson-weber";
    def.description =
        "Anderson–Weber-style complete-graph rendezvous: markers stamp "
        "uniform vertices, the seeker reads uniform vertices, a birthday "
        "collision after Θ(sqrt(n)) probes";
    def.paper_ref = "§1.3 [6]";
    def.caps.needs_whiteboards = true;
    def.caps.needs_complete_graph = true;
    def.model = sim::Model::full();
    def.seeker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<baselines::AndersonWeberAgentA>(build.rng);
    };
    def.marker = [](AgentBuild& build) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<baselines::AndersonWeberAgentB>(build.rng);
    };
    def.round_cap = [](const graph::Graph& g, const core::Params&) {
      // ~4 sqrt(n) expected probes at 2 rounds each; 128 sqrt(n) leaves
      // the failure probability negligible.
      const auto n = static_cast<double>(g.num_vertices());
      return static_cast<std::uint64_t>(128.0 * std::sqrt(n)) + 1024;
    };
    defs.push_back(std::move(def));
  }

  {
    ProgramDef def;
    def.label = "wait-and-explore";
    def.description =
        "the exhaustive-search yardstick (§1.1): markers halt, the seeker "
        "DFS-explores every vertex within 2(n-1) rounds";
    def.paper_ref = "§1.1 exhaustive search";
    def.model = sim::Model::full();
    def.seeker = [](AgentBuild&) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<baselines::ExploreAgent>();
    };
    def.marker = [](AgentBuild&) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<baselines::WaitingAgent>();
    };
    def.round_cap = [](const graph::Graph& g, const core::Params&) {
      return 4 * static_cast<std::uint64_t>(g.num_vertices()) + 1024;
    };
    defs.push_back(std::move(def));
  }

  {
    ProgramDef def;
    def.label = "wait-and-sweep";
    def.description =
        "the trivial O(Delta) bound: markers halt, the seeker visits every "
        "port of its start out-and-back (needs only port numbers)";
    def.paper_ref = "§1 trivial bound";
    def.caps.needs_shared_neighborhood = true;
    def.model = sim::Model::port_only();
    def.seeker = [](AgentBuild&) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<baselines::SweepAgent>();
    };
    def.marker = [](AgentBuild&) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<baselines::WaitingAgent>();
    };
    def.round_cap = [](const graph::Graph& g, const core::Params&) {
      // Out-and-back over <= Delta ports; distance-1 instances meet within
      // 2 deg(v0a) rounds, the rest of the budget absorbs delayed wake-ups.
      return 4 * static_cast<std::uint64_t>(g.max_degree()) + 1024;
    };
    defs.push_back(std::move(def));
  }

  for (const auto& def : defs) def.validate();
  return defs;
}

std::deque<ProgramDef>& registry() {
  static std::deque<ProgramDef> defs = builtin_programs();
  return defs;
}

std::string known_labels() {
  std::ostringstream os;
  for (const auto& def : registry()) os << " " << def.label;
  return os.str();
}

const ProgramDef* find_def(const std::string& label) {
  for (const auto& def : registry())
    if (def.label == label) return &def;
  return nullptr;
}

}  // namespace

const std::deque<ProgramDef>& all_program_defs() { return registry(); }

std::vector<Program> all_programs() {
  std::vector<Program> programs;
  programs.reserve(registry().size());
  for (const auto& def : registry()) programs.push_back(make_program(def, {}));
  return programs;
}

void register_program(ProgramDef def) {
  def.validate();
  FNR_CHECK_MSG(find_def(def.label) == nullptr,
                "program '" << def.label << "' is already registered");
  registry().push_back(std::move(def));
}

bool has_program(const std::string& label) {
  return find_def(label) != nullptr;
}

Program find_program(const std::string& spec) {
  const ProgramDef* def = nullptr;
  SpecToken token = parse_spec_token(
      "program", spec, '?', '&',
      [&](const std::string& label) -> const DeclaredParams& {
        def = find_def(label);
        FNR_REQUIRE(def != nullptr, "unknown program '"
                                        << label
                                        << "'; known:" << known_labels());
        return def->parameters;
      });
  return make_program(*def, std::move(token.params));
}

// --- compatibility -----------------------------------------------------------

bool compatible(const Program& program, const Scenario& scenario) {
  const ProgramCaps& caps = program.def().caps;
  if (scenario.num_agents > 2 && !caps.supports_multi_agent) return false;
  // Any predicate demanding more than a pairwise meeting (all-meet, but
  // also Quorum/Fraction thresholds above 2) needs the rally coordination
  // that supports_gather_all advertises — chance co-location of 3+ free
  // walkers is not a strategy.
  if (scenario.gathering.threshold(scenario.num_agents) > 2 &&
      !caps.supports_gather_all)
    return false;
  if (scenario.placement == PlacementModel::RandomDistinct &&
      caps.needs_shared_neighborhood)
    return false;
  return true;
}

namespace {

bool tight_naming_ok(const ProgramDef& def, const graph::Graph& g) {
  return !def.caps.needs_tight_ids || g.tight_ids();
}

bool completeness_ok(const ProgramDef& def, const graph::Graph& g) {
  return !def.caps.needs_complete_graph ||
         g.min_degree() + 1 == g.num_vertices();
}

}  // namespace

bool runnable_on(const ProgramDef& def, const graph::Graph& g) {
  return tight_naming_ok(def, g) && completeness_ok(def, g);
}

void check_runnable(const ProgramDef& def, const graph::Graph& g) {
  FNR_CHECK_MSG(tight_naming_ok(def, g),
                "Theorem 2 requires tight naming (n' = O(n))");
  FNR_CHECK_MSG(completeness_ok(def, g),
                "program '" << def.label << "' requires a complete graph");
}

void print_program_listing(std::ostream& os) {
  Table table({"program", "capabilities", "paper", "description"});
  for (const auto& def : all_program_defs())
    table.add_row({def.label, def.caps.describe(), def.paper_ref,
                   def.description});
  table.print(os);
}

}  // namespace fnr::scenario
