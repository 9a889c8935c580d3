// Declarative multi-axis sweep specifications.
//
// The paper's claims are asymptotic in n and δ, but a single bench run pins
// one size, one seed, one topology. A SweepSpec names whole *axes* —
// program × scenario (which bundles k, delay model, and gathering
// predicate) × topology family × n × seed block — and expands them into a
// deterministic cell grid the campaign core can shard across workers and
// resume mid-campaign (see campaign/campaign.hpp). Everything about a cell
// is derived from the spec text, so two machines given the same spec
// enumerate the same grid in the same order with the same keys.
//
// Spec text format (parse_spec): one `key = value` per line, `#` comments.
//
//   name       = large-n
//   trials     = 4                       # per-cell trial count
//   programs   = whiteboard, random-walk # program registry labels
//   scenarios  = sync-pair, delayed-pair # scenario registry names
//   topologies = near-regular:deg=16, torus, hypercube
//   sizes      = 1024, 16384, 131072     # requested n per topology
//   seeds      = 1, 2                    # seed block (one grid axis each)
//   agents     = 2, 8, 64                # optional agent-count (k) axis
//   gathers    = any-pair, quorum?q=3    # optional gathering-predicate axis
//   faults     = none, crash?rate=0.01   # optional fault-plan axis
//
// Every program, fault, gather and topology token follows one grammar
// (util/spec_token.hpp): `name?key=value&key=value`, or
// `family:key=value:key=value` for topologies. Whitespace around names and
// values is trimmed; an undeclared or repeated key, an empty pair, a
// missing '=' and a non-finite value are rejected; an integer parameter
// takes any integral number. The canonical form of each token is part of
// the cell key. Any error on a line names it: `sweep spec line N: …`.
//
// A program token is a registry label with its declared parameters (e.g.
// `random-walk?laziness=0.25`). A fault token is a FaultPlan: `none`, or
// clauses joined by `+` (fault/fault.hpp). A gather token is `any-pair`,
// `all-meet`, `quorum?q=<count>` or `fraction?f=<share>`. `programs = *`
// and `scenarios = *` expand to every registry entry (registration order
// at parse time) — the registry-smoke spec uses this so new registrations
// are covered without editing a list. Unknown names enumerate the known
// ones. Lists are comma-separated. Sizes are capped at 2^20.
//
// The `agents`, `gathers` and `faults` axes are optional. When one is
// absent, scenarios keep their registered k and predicate and every cell
// is fault-free, with the exact key it had before the axis existed; an
// override appends `|gather=…`, `|k=…` or `|fault=…` to the key. The fault
// axis nests innermost, preserving fault-free indices. Capability pruning
// judges the *overridden* scenario: adjacent-pair placements host exactly
// k = 2, pairwise programs prune at k > 2 (supports_multi_agent), a quorum
// larger than k or a threshold above 2 on a program without rally
// coordination prunes, and so does a whiteboard-only fault plan on a
// whiteboard-free model.
//
// Capability masks prune the expanded grid: a (program, scenario) pair the
// registry marks incompatible (compatible() — e.g. a neighborhood strategy
// on dropped-anywhere placements, a pairwise program on all-meet
// gathering), and a complete-graph-only program on any topology family
// other than `complete`, produce no cells at all instead of cells that
// deterministically fail.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <optional>

#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "scenario/program_registry.hpp"
#include "sim/model.hpp"

namespace fnr::sweep {

/// Largest supported requested size (2^20 vertices).
inline constexpr std::uint64_t kMaxSize = std::uint64_t{1} << 20;

/// One topology-family axis entry: a generator family plus its parameters,
/// resolved at each size n of the spec.
struct TopologySpec {
  std::string family;
  /// Family parameters (sorted by name, so key() is canonical). Unknown
  /// parameter names are rejected by validate().
  std::map<std::string, double> params;

  /// Throws CheckError on an unknown family, an unknown param, or an
  /// integer param (`deg`, `m`, `k`) that is not a non-negative integer.
  void validate() const;

  /// Canonical label, e.g. "near-regular:deg=16" — used in cell keys and
  /// graph-cache keys.
  [[nodiscard]] std::string key() const;

  /// The vertex count the family actually achieves at requested size n
  /// (torus/grid round down to a square, hypercube to a power of two; the
  /// rest achieve n exactly). Throws when the family cannot host n. Does
  /// not validate(): expand() validates every topology once, up front.
  [[nodiscard]] std::uint64_t achieved_n(std::uint64_t n) const;

  /// Builds the graph after validate(). Deterministic given (family,
  /// params, n, seed): all generator randomness flows from
  /// Rng(seed, kGraphStream).
  [[nodiscard]] graph::Graph build(std::uint64_t n, std::uint64_t seed) const;
};

/// The RNG stream topology builders draw from (decorrelated from trial
/// placement stream 11 and the agents' split streams).
inline constexpr std::uint64_t kGraphStream = 911;

/// Supported family names, in a stable listing order.
[[nodiscard]] const std::vector<std::string>& topology_families();

/// Parses `family[:param=value]...` (see the file header) and validates it.
[[nodiscard]] TopologySpec parse_topology(const std::string& token);

/// A full sweep specification (see file header for the text format).
struct SweepSpec {
  std::string name = "sweep";
  std::uint64_t trials = 8;
  std::vector<scenario::Program> programs;  ///< registry handles
  std::vector<std::string> scenarios;  ///< scenario registry names
  std::vector<TopologySpec> topologies;
  std::vector<std::uint64_t> sizes;  ///< requested n values, each <= 2^20
  std::vector<std::uint64_t> seeds;  ///< seed block; one grid axis entry each
  /// Agent-count (k) axis. Empty ⇒ no override (each scenario keeps its
  /// registered num_agents and cell keys carry no `|k=` segment).
  std::vector<std::uint64_t> agents;
  /// Gathering-predicate axis. Empty ⇒ no override (each scenario keeps
  /// its registered predicate and the grid is byte-identical to specs
  /// written before the axis existed).
  std::vector<sim::Gathering> gathers;
  /// Fault-plan axis. Empty ⇒ the single inactive plan (fault-free grid,
  /// byte-identical to specs written before the axis existed).
  std::vector<fault::FaultPlan> faults;

  /// Throws CheckError when any axis is empty, a scenario name is unknown,
  /// a size is out of [4, 2^20], or trials is 0.
  void validate() const;
};

/// One cell of the expanded grid.
struct SweepCell {
  std::uint64_t index = 0;  ///< position in the canonical grid
  scenario::Program program;  ///< invalid until expand() fills it
  std::string scenario;
  TopologySpec topology;
  std::uint64_t n = 0;           ///< requested size
  std::uint64_t achieved_n = 0;  ///< family-resolved vertex count
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;
  /// Gathering override from the `gathers` axis (absent on axis-free
  /// specs: the scenario's registered predicate applies).
  std::optional<sim::Gathering> gather;
  /// Agent-count override from the `agents` axis (absent on axis-free
  /// specs: the scenario's registered k applies).
  std::optional<std::uint64_t> k;
  fault::FaultPlan fault;  ///< inactive on fault-free cells

  /// Canonical cell identity: completed cells are skipped by this key on
  /// resume, so it must never depend on runtime options (threads, shard).
  /// Override cells append `|gather=<predicate>` and/or `|k=<count>`,
  /// active-fault cells `|fault=<plan key>`; plain cells keep the exact
  /// key they had before any of these axes existed, so old checkpoints
  /// still resume.
  [[nodiscard]] std::string key() const;

  /// Graph-cache key: (family, params, n, seed). Cells that share a key
  /// reuse one generated topology (programs/scenarios don't enter the key —
  /// the graph draw is independent of who runs on it).
  [[nodiscard]] std::string graph_key() const;
};

/// Parses a gather token: `any-pair`, `all-meet`, `quorum?q=<count>`, or
/// `fraction?f=<share>` (the canonical to_string(Gathering) forms).
/// Throws a plain CheckError on anything else (q < 2, f outside (0, 1]).
[[nodiscard]] sim::Gathering parse_gather(const std::string& token);

/// Expands the spec into its canonical cell grid. Axis nesting, outermost
/// first: program, scenario, gather, k, topology, size, seed, fault. Incompatible
/// (program, scenario) pairs, complete-graph-only programs off the
/// `complete` family, and whiteboard-only fault plans on whiteboard-free
/// models are skipped (see the file header); indices stay dense over the
/// cells that remain. Deterministic: equal specs expand to identical grids
/// (same keys, same indices). Throws CheckError when capability pruning
/// leaves no cells at all.
[[nodiscard]] std::vector<SweepCell> expand(const SweepSpec& spec);

/// Parses spec text. Throws a plain CheckError on an unknown key or a
/// malformed value (naming the line), or a spec that fails validate().
[[nodiscard]] SweepSpec parse_spec(const std::string& text);

/// Reads and parses a spec file.
[[nodiscard]] SweepSpec load_spec_file(const std::string& path);

/// Predefined specs, addressable by name from `bench/sweep --spec=<name>`:
///   smoke          — tiny grid for CI interrupt/resume smokes
///   perf-quick     — the three paper strategies on two 64-vertex graphs
///   perf-full      — the three paper strategies on four 1024-vertex graphs
///   large-n        — 3 programs × 4 families × n ∈ {2^10, 2^14, 2^17}
///   registry-smoke — every registered program × every compatible scenario,
///                    one tiny trial each (the CI registration smoke)
///   fault-smoke    — every fault family × one program × one scenario on a
///                    small graph (the CI robustness smoke)
/// Each value is spec text (parse it with parse_spec — one format, one
/// parser, whether the spec is built in or user-supplied).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
predefined_specs();

/// Resolves --spec: a predefined name first, otherwise a file path.
[[nodiscard]] SweepSpec find_spec(const std::string& name_or_path);

}  // namespace fnr::sweep
