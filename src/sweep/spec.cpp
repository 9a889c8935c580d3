#include "sweep/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "graph/generators.hpp"
#include "scenario/scenario.hpp"
#include "util/parse.hpp"
#include "util/spec_token.hpp"
#include "util/table.hpp"

namespace fnr::sweep {

namespace {

// --- small text helpers ------------------------------------------------------

/// The trimmed, non-empty items of a `sep`-separated list.
std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (;;) {
    const auto end = s.find(sep);
    const std::string_view item = trim(s.substr(0, end));
    if (!item.empty()) out.emplace_back(item);
    if (end == std::string_view::npos) return out;
    s.remove_prefix(end + 1);
  }
}

// --- topology families -------------------------------------------------------

struct FamilyInfo {
  const char* name;
  DeclaredParams params;  ///< parameter → default
  const char* integral = "";  ///< the parameter that must be an integer
};

const std::vector<FamilyInfo>& families() {
  static const std::vector<FamilyInfo> all = {
      {"ring", {}},
      {"path", {}},
      {"complete", {}},
      {"grid", {}},
      {"torus", {}},
      {"hypercube", {}},
      {"near-regular", {{"deg", 8.0}}, "deg"},
      {"erdos-renyi", {{"avg-deg", 8.0}}},
      {"barabasi-albert", {{"m", 4.0}}, "m"},
      {"watts-strogatz", {{"k", 4.0}, {"beta", 0.1}}, "k"},
      {"random-geometric", {{"radius-factor", 1.2}}},
  };
  return all;
}

const FamilyInfo& family_info(const std::string& name) {
  for (const auto& info : families())
    if (name == info.name) return info;
  std::string known;
  for (const auto& info : families()) known += std::string(" ") + info.name;
  throw CheckError("unknown topology family '" + name + "'; known:" + known);
}

/// The (possibly defaulted) value of a declared family parameter.
double param_of(const TopologySpec& spec, const std::string& name) {
  const auto it = spec.params.find(name);
  return it != spec.params.end() ? it->second
                                 : family_info(spec.family).params.at(name);
}

std::uint64_t square_side(std::uint64_t n) {
  auto side = static_cast<std::uint64_t>(
      std::floor(std::sqrt(static_cast<double>(n))));
  while ((side + 1) * (side + 1) <= n) ++side;  // guard fp rounding
  while (side * side > n) --side;
  return side;
}

std::uint64_t floor_log2(std::uint64_t n) {
  std::uint64_t d = 0;
  while ((std::uint64_t{1} << (d + 1)) <= n) ++d;
  return d;
}

double geometric_radius(const TopologySpec& spec, std::uint64_t n) {
  // factor × the connectivity-threshold radius sqrt(ln n / (π n)).
  const double factor = param_of(spec, "radius-factor");
  FNR_CHECK_MSG(factor > 0.0, "topology '" << spec.key()
                                           << "': radius-factor must be > 0");
  const auto dn = static_cast<double>(n);
  return factor * std::sqrt(std::log(dn) / (3.141592653589793 * dn));
}

}  // namespace

void TopologySpec::validate() const {
  const FamilyInfo& info = family_info(family);
  for (const auto& [name, value] : params) {
    FNR_REQUIRE(info.params.contains(name),
                "topology family '" << family << "' has no parameter '"
                                    << name << "'");
    // The message is built only on failure: expand() and every graph
    // build validate, and the work gate pins their allocations.
    FNR_REQUIRE(name != info.integral || is_integral(value),
                "topology '" << key() << "': parameter '" << name
                             << "' must be a non-negative integer, got "
                             << value);
  }
}

std::string TopologySpec::key() const {
  std::ostringstream os;
  os << family;
  for (const auto& [name, value] : params)
    os << ":" << name << "=" << format_double(value, 6);
  return os.str();
}

std::uint64_t TopologySpec::achieved_n(std::uint64_t n) const {
  FNR_REQUIRE(n >= 4 && n <= kMaxSize,
              "topology '" << key() << "': size " << n << " out of [4, 2^20]");
  if (family == "grid" || family == "torus") {
    const std::uint64_t side = square_side(n);
    FNR_REQUIRE(side >= 3, "'" << family << "' needs n >= 9, got n = " << n);
    return side * side;
  }
  if (family == "hypercube") return std::uint64_t{1} << floor_log2(n);
  if (family == "complete") {
    FNR_REQUIRE(n <= 4096,
                "'complete' is capped at n = 4096 (quadratic edge count)");
  }
  return n;
}

graph::Graph TopologySpec::build(std::uint64_t n, std::uint64_t seed) const {
  validate();
  const std::uint64_t target = achieved_n(n);
  Rng rng(seed, kGraphStream);
  if (family == "ring") return graph::make_ring(target);
  if (family == "path") return graph::make_path(target);
  if (family == "complete") return graph::make_complete(target);
  if (family == "grid") {
    const std::uint64_t side = square_side(n);
    return graph::make_grid(side, side);
  }
  if (family == "torus") {
    const std::uint64_t side = square_side(n);
    return graph::make_torus(side, side);
  }
  if (family == "hypercube") return graph::make_hypercube(floor_log2(n));
  if (family == "near-regular") {
    const auto deg = static_cast<std::uint64_t>(param_of(*this, "deg"));
    FNR_CHECK_MSG(deg >= 1 && deg < target,
                  "topology '" << key() << "': deg must be in [1, n)");
    return graph::make_near_regular(target, deg, rng);
  }
  if (family == "erdos-renyi") {
    const double avg = param_of(*this, "avg-deg");
    FNR_CHECK_MSG(avg > 0.0, "topology '" << key() << "': avg-deg must be > 0");
    const double p =
        std::min(1.0, avg / static_cast<double>(target - 1));
    return graph::make_erdos_renyi(target, p, rng);
  }
  if (family == "barabasi-albert") {
    const auto m = static_cast<std::uint64_t>(param_of(*this, "m"));
    FNR_CHECK_MSG(m >= 1 && target >= m + 2,
                  "topology '" << key() << "': needs n >= m + 2");
    return graph::make_barabasi_albert(target, m, rng);
  }
  if (family == "watts-strogatz") {
    const auto k = static_cast<std::uint64_t>(param_of(*this, "k"));
    const double beta = param_of(*this, "beta");
    FNR_CHECK_MSG(k >= 1 && 2 * k + 1 <= target,
                  "topology '" << key() << "': needs 2k + 1 <= n");
    return graph::make_watts_strogatz(target, k, beta, rng);
  }
  if (family == "random-geometric") {
    return graph::make_random_geometric_connected(
               target, geometric_radius(*this, target), rng)
        .graph;
  }
  FNR_CHECK_MSG(false, "unhandled topology family '" << family << "'");
  throw std::logic_error("unreachable");
}

const std::vector<std::string>& topology_families() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& info : families()) out.emplace_back(info.name);
    return out;
  }();
  return names;
}

TopologySpec parse_topology(const std::string& token) {
  SpecToken parsed = parse_spec_token(
      "topology", token, ':', ':',
      [](const std::string& family) -> const DeclaredParams& {
        return family_info(family).params;
      });
  TopologySpec spec;
  spec.family = std::move(parsed.name);
  spec.params = std::move(parsed.params);
  spec.validate();
  return spec;
}

// --- spec --------------------------------------------------------------------

void SweepSpec::validate() const {
  FNR_REQUIRE(!name.empty(), "sweep spec needs a name");
  FNR_REQUIRE(trials >= 1, "sweep spec '" << name << "' needs trials >= 1");
  FNR_REQUIRE(!programs.empty(),
              "sweep spec '" << name << "' lists no programs");
  for (const auto& program : programs)
    FNR_CHECK_MSG(program.valid(),
                  "sweep spec '" << name
                                 << "' carries an invalid program handle");
  FNR_REQUIRE(!scenarios.empty(),
              "sweep spec '" << name << "' lists no scenarios");
  FNR_REQUIRE(!topologies.empty(),
              "sweep spec '" << name << "' lists no topologies");
  FNR_REQUIRE(!sizes.empty(), "sweep spec '" << name << "' lists no sizes");
  FNR_REQUIRE(!seeds.empty(), "sweep spec '" << name << "' lists no seeds");
  for (const auto& scenario_name : scenarios)
    (void)scenario::find_scenario(scenario_name);  // throws when unknown
  for (const auto& topology : topologies) topology.validate();
  for (const auto n : sizes)
    FNR_REQUIRE(n >= 4 && n <= kMaxSize,
                "sweep spec '" << name << "': size " << n
                               << " out of [4, 2^20]");
  for (const auto k : agents)
    FNR_REQUIRE(k >= 2 && k <= kMaxSize,
                "sweep spec '" << name << "': agents value " << k
                               << " out of [2, 2^20]");
}

std::string SweepCell::key() const {
  std::ostringstream os;
  os << scenario::to_string(program) << "|" << scenario << "|"
     << topology.key() << "|n=" << n << "|seed=" << seed
     << "|trials=" << trials;
  if (gather.has_value()) os << "|gather=" << sim::to_string(*gather);
  if (k.has_value()) os << "|k=" << *k;
  if (fault.active()) os << "|fault=" << fault.key();
  return os.str();
}

std::string SweepCell::graph_key() const {
  std::ostringstream os;
  os << topology.key() << "|n=" << n << "|seed=" << seed;
  return os.str();
}

std::vector<SweepCell> expand(const SweepSpec& spec) {
  spec.validate();
  // No `faults` axis ⇒ one inactive plan, no `gathers` axis ⇒ one
  // no-override slot: the grid (keys and indices) matches specs written
  // before either axis existed.
  static const std::vector<fault::FaultPlan> kFaultFree(1);
  static const std::vector<std::optional<sim::Gathering>> kNoGatherOverride(1);
  static const std::vector<std::optional<std::uint64_t>> kNoKOverride(1);
  const auto& fault_axis = spec.faults.empty() ? kFaultFree : spec.faults;
  std::vector<std::optional<sim::Gathering>> gather_axis;
  if (spec.gathers.empty()) {
    gather_axis = kNoGatherOverride;
  } else {
    gather_axis.reserve(spec.gathers.size());
    for (const auto& gather : spec.gathers) gather_axis.emplace_back(gather);
  }
  std::vector<std::optional<std::uint64_t>> k_axis;
  if (spec.agents.empty()) {
    k_axis = kNoKOverride;
  } else {
    k_axis.reserve(spec.agents.size());
    for (const auto k : spec.agents) k_axis.emplace_back(k);
  }
  // A size its family cannot host fails the whole spec, naming it.
  const auto achieved_n = [&](const TopologySpec& topology, std::uint64_t n) {
    try {
      return topology.achieved_n(n);
    } catch (const CheckError& error) {
      throw CheckError("sweep spec '" + spec.name + "': " + error.what());
    }
  };
  std::vector<SweepCell> cells;
  cells.reserve(spec.programs.size() * spec.scenarios.size() *
                gather_axis.size() * k_axis.size() * spec.topologies.size() *
                spec.sizes.size() * spec.seeds.size() * fault_axis.size());
  for (const auto& program : spec.programs)
    for (const auto& scenario_name : spec.scenarios)
      for (const auto& gather : gather_axis)
        for (const auto& k : k_axis) {
          // Capability pruning: a mismatched (program, scenario) pair — or
          // a complete-graph-only program on another family — expands to no
          // cells, replacing the benches' old hand-maintained exclusion
          // lists. Overrides are judged on the *overridden* scenario: the k
          // override lands first, then an unreachable quorum (q > k), a
          // threshold above 2 on a rally-free program, or k > 2 on a
          // pairwise program prunes the same way. Adjacent-pair placements
          // host exactly two agents, so any other k override prunes too.
          scenario::Scenario scen = scenario::find_scenario(scenario_name);
          if (k.has_value()) {
            if (scen.placement == scenario::PlacementModel::AdjacentPair &&
                *k != 2)
              continue;
            scen.num_agents = static_cast<std::size_t>(*k);
          }
          if (gather.has_value()) scen.gathering = *gather;
          // An unreachable quorum — whether the quorum came from the
          // gather override or the registration and k shrank under it —
          // prunes rather than deterministically failing.
          if (scen.gathering.kind == sim::Gathering::Quorum &&
              scen.gathering.quorum > scen.num_agents)
            continue;
          if (!scenario::compatible(program, scen)) continue;
          for (const auto& topology : spec.topologies) {
            if (program.def().caps.needs_complete_graph &&
                topology.family != "complete")
              continue;
            for (const auto n : spec.sizes) {
              // A graph cannot host more agents than vertices; the cell
              // would deterministically fail placement, so prune it.
              if (k.has_value() && *k > achieved_n(topology, n)) continue;
              for (const auto seed : spec.seeds)
                for (const auto& plan : fault_axis) {
                  // A plan that only perturbs whiteboards cannot touch a
                  // whiteboard-free model; skip the vacuous cell.
                  if (plan.active() && plan.whiteboard_only() &&
                      !program.def().model.whiteboards)
                    continue;
                  SweepCell cell;
                  cell.index = cells.size();
                  cell.program = program;
                  cell.scenario = scenario_name;
                  cell.topology = topology;
                  cell.n = n;
                  cell.achieved_n = achieved_n(topology, n);
                  cell.seed = seed;
                  cell.trials = spec.trials;
                  cell.gather = gather;
                  cell.k = k;
                  cell.fault = plan;
                  cells.push_back(std::move(cell));
                }
            }
          }
        }
  FNR_REQUIRE(!cells.empty(),
              "sweep spec '" << spec.name
                             << "': capability masks leave no compatible "
                                "(program, scenario, topology) cells");
  return cells;
}

sim::Gathering parse_gather(const std::string& token) {
  // quorum and fraction require their one parameter; its declared default
  // only lists the key.
  static const std::map<std::string, DeclaredParams> kForms = {
      {"all-meet", {}},
      {"any-pair", {}},
      {"fraction", {{"f", 1.0}}},
      {"quorum", {{"q", 2.0}}}};
  const SpecToken parsed = parse_spec_token(
      "gather", token, '?', '&',
      [](const std::string& name) -> const DeclaredParams& {
        const auto it = kForms.find(name);
        FNR_REQUIRE(it != kForms.end(),
                    "unknown gather '" << name
                                       << "'; expected any-pair, all-meet, "
                                          "quorum?q=<count>, or "
                                          "fraction?f=<share>");
        return it->second;
      });
  if (parsed.name == "any-pair") return sim::Gathering::AnyPair;
  if (parsed.name == "all-meet") return sim::Gathering::All;
  const std::string what = "gather '" + token + "'";
  const bool quorum = parsed.name == "quorum";
  FNR_REQUIRE(!parsed.params.empty(),
              what << " needs " << (quorum ? "q=<count>" : "f=<share>"));
  const double value = parsed.params.begin()->second;
  if (quorum) {
    const std::uint64_t q = integral_value(value, what + ": parameter 'q'");
    FNR_REQUIRE(q >= 2, what << ": a quorum needs q >= 2");
    return sim::Gathering::quorum_of(q);
  }
  FNR_REQUIRE(value > 0.0 && value <= 1.0,
              what << ": fraction must be in (0, 1]");
  return sim::Gathering::fraction_of(value);
}

namespace {

/// One `key = value` spec line (comment and whitespace already stripped).
void parse_line(std::string_view line, SweepSpec& spec) {
  const auto eq = line.find('=');
  FNR_REQUIRE(eq != std::string_view::npos,
              "expected key = value, got '" << line << "'");
  const std::string_view key = trim(line.substr(0, eq));
  const std::string_view value = trim(line.substr(eq + 1));
  const auto tokens = split(value, ',');
  const auto bounded = [](const std::string& token, const char* what,
                          std::uint64_t min) {
    const std::uint64_t v = parse_uint64(token, what);
    FNR_REQUIRE(v >= min && v <= kMaxSize,
                what << " " << v << " out of [" << min << ", 2^20]");
    return v;
  };
  if (key == "name") {
    FNR_REQUIRE(!value.empty(), "empty name");
    spec.name = value;
  } else if (key == "trials") {
    spec.trials = parse_uint64(std::string(value), "trials");
    FNR_REQUIRE(spec.trials >= 1, "trials must be >= 1");
  } else if (key == "programs") {
    for (const auto& token : tokens) {
      if (token != "*") {
        spec.programs.push_back(scenario::find_program(token));
        continue;
      }
      for (auto& program : scenario::all_programs())
        spec.programs.push_back(std::move(program));
    }
  } else if (key == "scenarios") {
    for (const auto& token : tokens) {
      if (token != "*") {
        spec.scenarios.push_back(scenario::find_scenario(token).name);
        continue;
      }
      for (const auto& scenario : scenario::all_scenarios())
        spec.scenarios.push_back(scenario.name);
    }
  } else if (key == "topologies") {
    for (const auto& token : tokens)
      spec.topologies.push_back(parse_topology(token));
  } else if (key == "sizes") {
    for (const auto& token : tokens)
      spec.sizes.push_back(bounded(token, "size", 4));
  } else if (key == "seeds") {
    for (const auto& token : tokens)
      spec.seeds.push_back(parse_uint64(token, "seed"));
  } else if (key == "agents") {
    for (const auto& token : tokens)
      spec.agents.push_back(bounded(token, "agents value", 2));
  } else if (key == "gathers") {
    for (const auto& token : tokens)
      spec.gathers.push_back(parse_gather(token));
  } else if (key == "faults") {
    for (const auto& token : tokens)
      spec.faults.push_back(fault::FaultPlan::parse(token));
  } else {
    FNR_REQUIRE(false, "unknown key '" << key << "'");
  }
}

}  // namespace

SweepSpec parse_spec(const std::string& text) {
  SweepSpec spec;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view body =
        trim(std::string_view(line).substr(0, line.find('#')));
    if (body.empty()) continue;
    try {
      parse_line(body, spec);
    } catch (const CheckError& error) {
      throw CheckError("sweep spec line " + std::to_string(line_no) + ": " +
                       error.what());
    }
  }
  spec.validate();
  return spec;
}

SweepSpec load_spec_file(const std::string& path) {
  std::ifstream in(path);
  FNR_REQUIRE(in.good(), "cannot open sweep spec '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_spec(buffer.str());
}

const std::vector<std::pair<std::string, std::string>>& predefined_specs() {
  static const std::vector<std::pair<std::string, std::string>> specs = {
      {"smoke", R"(# Tiny grid for CI interrupt/resume smokes.
name       = smoke
trials     = 3
programs   = whiteboard, random-walk
scenarios  = sync-pair, delayed-pair
topologies = ring, near-regular:deg=4
sizes      = 32, 64
seeds      = 1
)"},
      {"perf-quick", R"(# The three paper strategies on two 64-vertex graphs.
name       = perf-quick
trials     = 8
programs   = whiteboard, whiteboard+doubling, no-whiteboard
scenarios  = sync-pair
topologies = near-regular:deg=12, torus
sizes      = 64
seeds      = 7
)"},
      {"perf-full", R"(# The three paper strategies on four 1024-vertex graphs.
name       = perf-full
trials     = 256
programs   = whiteboard, whiteboard+doubling, no-whiteboard
scenarios  = sync-pair
topologies = near-regular:deg=64, torus, hypercube, watts-strogatz:k=6:beta=0.1
sizes      = 1024
seeds      = 7
)"},
      {"large-n", R"(# Orders-of-magnitude size sweep: 3 programs x 4 families
# x n in {2^10, 2^14, 2^17}.
name       = large-n
trials     = 4
programs   = whiteboard, whiteboard+doubling, no-whiteboard
scenarios  = sync-pair
topologies = near-regular:deg=16, torus, hypercube, random-geometric
sizes      = 1024, 16384, 131072
seeds      = 1
)"},
      {"registry-smoke", R"(# Every registered program on every compatible
# scenario, one tiny trial each. The wildcard axes resolve against the
# registries at parse time, so a new registration is covered without
# editing this spec; capability masks prune incompatible pairs and keep
# complete-graph programs on the complete family. A cell that fails here
# means a registration that cannot run — CI greps the report for it.
name       = registry-smoke
trials     = 1
programs   = *
scenarios  = *
topologies = near-regular:deg=6, complete
sizes      = 16
seeds      = 1
)"},
      {"fault-smoke", R"(# Every fault family (plus the fault-free control)
# on one whiteboard program, one scenario, one small graph. A cell that
# fails here means a fault family the scheduler cannot absorb — CI greps
# the report for "ok":false and also interrupts/resumes the campaign to
# exercise checkpoint recovery under an active fault axis.
name       = fault-smoke
trials     = 2
programs   = whiteboard
scenarios  = sync-pair
topologies = near-regular:deg=6
sizes      = 32
seeds      = 1
faults     = none, crash?rate=0.05&downtime=4, wb-drop?rate=0.2, wb-wipe?rate=0.05, wb-stale?rate=0.2, churn?rate=0.1
)"},
  };
  return specs;
}

SweepSpec find_spec(const std::string& name_or_path) {
  for (const auto& [name, text] : predefined_specs())
    if (name == name_or_path) return parse_spec(text);
  return load_spec_file(name_or_path);
}

}  // namespace fnr::sweep
