// The program registry: the open, string-keyed catalogue of rendezvous
// strategies a scenario can run.
//
// The paper's experiments compare Main-Rendezvous against a family of
// baselines (random walks, Anderson–Weber-style symmetric strategies,
// wait-for-mommy variants), and related work (Fast Rendezvous with Advice;
// LSH-based rendezvous search) frames rendezvous as a space of
// interchangeable strategies evaluated on one harness. The registry is that
// space made concrete: each entry bundles a stable label, a description,
// per-role agent factories (seeker / marker / symmetric), a capability mask,
// a round-cap policy, and the parameters it accepts as `?key=value`
// suffixes. Everything downstream — scenario trials, the sweep grid, the
// fnrd daemon, the bench CLIs — resolves programs through here, so adding a
// strategy is one registration in this file (or one register_program call
// anywhere), not a five-layer edit.
//
// Labels are stable identifiers: they name cells in sweep checkpoints,
// merged JSON, and the work gate's pins, so renaming one is a breaking
// change to recorded artifacts. The built-in labels and their registration
// order are pinned by tests/test_program_registry.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "graph/graph.hpp"
#include "scenario/scenario.hpp"
#include "sim/model.hpp"
#include "sim/view.hpp"
#include "util/rng.hpp"

namespace fnr::scenario {

/// What a program needs from the world and which scenario shapes it is
/// meaningful on. Grid expanders consult this to skip incompatible
/// (program, scenario) cells deterministically — capability masks replace
/// hand-maintained exclusion lists.
struct ProgramCaps {
  /// Runs only under a model with whiteboards (the Model is part of the
  /// registration; this flag documents the requirement for listings and
  /// lets validate() cross-check the two).
  bool needs_whiteboards = false;
  /// Requires tight naming n' = O(n) of the graph's ID space (Theorem 2).
  bool needs_tight_ids = false;
  /// Only valid on complete graphs (Anderson–Weber).
  bool needs_complete_graph = false;
  /// Meaningful only when some placement guarantee puts the agents in a
  /// shared neighborhood (the paper's strategies probe N+; dropped-anywhere
  /// agents would burn the full round cap on every trial).
  bool needs_shared_neighborhood = false;
  /// Tolerates k > 2 agents (extra agents run the marker role, or the
  /// symmetric program).
  bool supports_multi_agent = true;
  /// Meaningful under Gathering::All (k-way co-location of uncoordinated
  /// agents is a lottery, not a measurement).
  bool supports_gather_all = false;

  /// Compact "needs: …; supports: …" summary for --list output.
  [[nodiscard]] std::string describe() const;
};

class Program;

/// Everything an agent factory may consult when staffing one agent slot of
/// a scenario run. `rng` is this agent's split stream (streams are split
/// per agent in index order — the split happens whether or not the factory
/// uses it, which keeps randomized and deterministic programs on the same
/// seed schedule).
struct AgentBuild {
  const graph::Graph& graph;
  const core::Params& params;
  const Program& program;  ///< for parameter lookups (program.param(name))
  std::size_t index = 0;   ///< agent slot; 0 is the seeker role
  std::size_t num_agents = 2;
  Rng rng;
};

using AgentFactory =
    std::function<std::unique_ptr<sim::Agent>(AgentBuild&)>;

/// Generous failure round cap for one instance on `g` (before the scenario
/// layer scales it for Gathering::All and adds the wake-delay bound).
using RoundCapFn =
    std::function<std::uint64_t(const graph::Graph&, const core::Params&)>;

/// One registry entry. Asymmetric programs set `seeker` (agent 0) and
/// `marker` (agents 1..k-1); symmetric programs set only `symmetric`.
struct ProgramDef {
  std::string label;        ///< stable registry key (no '?', ',', '|', ws)
  std::string description;  ///< one line for --list output
  std::string paper_ref;    ///< provenance, e.g. "Theorem 1" or "§1.3 [6]"
  ProgramCaps caps;
  sim::Model model = sim::Model::full();  ///< execution model for the run
  AgentFactory seeker;
  AgentFactory marker;
  AgentFactory symmetric;
  RoundCapFn round_cap;
  /// Parameters accepted via "label?key=value" suffixes (name → default).
  /// Unknown override names are rejected by find_program.
  std::map<std::string, double> parameters;

  /// Throws CheckError on a malformed definition (empty/ill-formed label,
  /// missing factories or round_cap, caps inconsistent with the model).
  void validate() const;
};

/// A runnable program reference: a registry entry plus parsed parameter
/// overrides. Cheap to copy; valid as long as the process lives (entries
/// are never removed from the registry). This is the open replacement for
/// the old closed `enum class Program`.
class Program {
 public:
  /// Invalid until assigned from find_program / all_programs (keeps grid
  /// cells default-constructible). def() throws on an invalid handle.
  Program() = default;

  [[nodiscard]] bool valid() const noexcept { return def_ != nullptr; }
  [[nodiscard]] const ProgramDef& def() const;

  /// Canonical spec string: the base label, plus any overrides as a sorted
  /// "?key=value&key=value" suffix. This is the identity used in sweep cell
  /// keys and bench tables; a bare label stays byte-identical to the old
  /// enum's to_string form.
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// The effective value of a declared parameter (override, else default).
  /// Throws CheckError when the program declares no such parameter.
  [[nodiscard]] double param(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, double>& overrides() const noexcept {
    return overrides_;
  }

  friend bool operator==(const Program& a, const Program& b) noexcept {
    return a.def_ == b.def_ && a.overrides_ == b.overrides_;
  }

 private:
  friend Program make_program(const ProgramDef& def,
                              std::map<std::string, double> overrides);

  const ProgramDef* def_ = nullptr;
  std::map<std::string, double> overrides_;
  std::string label_;
};

/// The program's canonical label (mirrors the old enum's to_string).
[[nodiscard]] const std::string& to_string(const Program& program) noexcept;

// --- registry ----------------------------------------------------------------

/// All registered definitions, registration order. The first eight are the
/// built-ins (paper strategies, then baselines); their labels and order are
/// stable. (A deque so register_program never invalidates references or
/// Program handles.)
[[nodiscard]] const std::deque<ProgramDef>& all_program_defs();

/// One override-free handle per registered definition, registration order.
[[nodiscard]] std::vector<Program> all_programs();

/// Adds a program to the registry. Validates it; throws CheckError on a
/// duplicate label.
void register_program(ProgramDef def);

/// Whether `label` (a bare label, no '?' suffix) is registered.
[[nodiscard]] bool has_program(const std::string& label);

/// Resolves a program spec "label" or "label?key=value&key=value" to a
/// handle (grammar: util/spec_token.hpp). Throws a plain CheckError for an
/// unknown label (enumerating the valid label set) or an override the
/// program does not declare.
[[nodiscard]] Program find_program(const std::string& spec);

// --- compatibility -----------------------------------------------------------

/// Whether running `program` on `scenario` is a meaningful measurement
/// (capability mask vs. agent count, gathering predicate, and placement
/// model). Grid expanders skip incompatible cells; run_scenario itself does
/// NOT enforce this — deliberately mis-matched runs (e.g. measuring how a
/// neighborhood strategy degrades when dropped anywhere) stay runnable.
[[nodiscard]] bool compatible(const Program& program, const Scenario& scenario);

/// Graph-level requirements (tight naming, completeness). run_scenario
/// throws on violation; benches use this to skip families up front.
[[nodiscard]] bool runnable_on(const ProgramDef& def, const graph::Graph& g);

/// Throwing form of runnable_on, naming the violated requirement (the two
/// share one predicate set, so execution and grid pruning cannot diverge).
void check_runnable(const ProgramDef& def, const graph::Graph& g);

/// Markdown-ish table of every registered program (label, capabilities,
/// description, paper reference) for the --list-programs CLIs.
void print_program_listing(std::ostream& os);

}  // namespace fnr::scenario
