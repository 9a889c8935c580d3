// Continuous performance harness: rounds/sec and trials/sec across
// strategy × topology cells, plus swarm cells that time the k-agent
// scenario engine (occupancy-count meeting detection at quorum gathering).
//
// The ROADMAP's scaling goals are only measurable against a recorded
// baseline, so the suite emits a schema-versioned JSON report
// (BENCH_perf.json at the repo root, regenerated by scripts/bench.sh) whose
// *identities* — cell set, ordering, trial counts, aggregate round counts —
// are deterministic for a given config, while the timing fields carry the
// machine-dependent measurements. Diffing two reports therefore separates
// "the workload changed" (identity fields moved) from "the code got
// faster/slower" (only timings moved).
//
// The library half (this header) is CLI-free so tests can drive the suite,
// round-trip the JSON, and validate the schema; bench/perf_suite.cpp wraps
// it in flags.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace fnr::perf {

/// Bumped whenever the JSON layout changes incompatibly; emitted as
/// "fnr-perf/<version>" in the report's schema field.
inline constexpr int kSchemaVersion = 1;

/// The schema tag reports of the current version carry.
[[nodiscard]] std::string schema_tag();

/// Suite configuration (the identity half of a report).
struct PerfConfig {
  bool quick = false;       ///< smoke mode: two small cells per strategy
  unsigned threads = 0;     ///< trial-runner pool size; 0 = hardware threads
  std::uint64_t seed = 7;   ///< base seed for every cell's trials
  std::uint64_t trials = 0; ///< per-cell trials; 0 = mode default (8 / 256)
};

/// Identity of one measurement cell: which strategy ran on which graph.
struct PerfCellSpec {
  /// Program-registry label of the measured strategy (the registry entries
  /// that wrap a core::Strategy; identical strings to core::to_string, so
  /// BENCH_perf.json naming is stable across the registry refactor).
  /// Swarm cells carry the program label instead (e.g. "explore-rally").
  std::string strategy;
  /// Swarm workload label (e.g. "swarm-quorum-k256"), empty for the classic
  /// two-agent strategy cells. Non-empty cells measure the k-agent scenario
  /// engine (occupancy-count meeting detection) instead of the core hot
  /// path; the label resolves to a Scenario pinned inside the suite, so
  /// registry edits cannot silently change what a committed cell measured.
  /// Campaign cells (strategy "campaign", e.g. "campaign-mixed-jobs4")
  /// carry the executor workload label instead: they time a whole pinned
  /// sweep grid through the cell executor, so trials is the grid's cell
  /// count and trials_per_sec is campaign cells per second.
  std::string scenario;
  std::string topology;  ///< graph family label
  std::uint64_t n = 0;   ///< vertices
  std::uint64_t trials = 0;

  friend bool operator==(const PerfCellSpec&, const PerfCellSpec&) = default;
};

/// One measured cell: the spec plus deterministic workload aggregates
/// (total_rounds, success_rate) and machine-dependent timings.
struct PerfCell {
  std::string strategy;
  std::string scenario;  ///< swarm workload label; empty on strategy cells
  std::string topology;
  std::uint64_t n = 0;
  std::uint64_t trials = 0;
  std::uint64_t total_rounds = 0;  ///< rounds executed across all trials
  double success_rate = 0.0;
  double seconds = 0.0;            ///< wall-clock for all the cell's trials
  double rounds_per_sec = 0.0;
  double trials_per_sec = 0.0;
};

/// A full suite run, serializable to/from the BENCH_perf.json schema.
struct PerfReport {
  std::string schema;      ///< "fnr-perf/<version>"
  bool quick = false;
  unsigned threads = 0;    ///< actual pool size the trials ran on
  std::uint64_t seed = 0;
  std::vector<PerfCell> cells;

  /// Stable-key-order JSON, one cell per line (diff-friendly).
  [[nodiscard]] std::string to_json() const;
};

/// The cells `config` will measure, in the canonical emission order
/// (strategy-major, then topology; swarm cells follow the strategy sweep,
/// campaign-executor cells trail).
/// Deterministic: two calls with equal configs return identical specs,
/// which is what keeps BENCH_perf.json diffable across commits.
[[nodiscard]] std::vector<PerfCellSpec> perf_cell_specs(
    const PerfConfig& config);

/// Runs every cell of `config` through core::run_trials and times each
/// one. Cell order matches perf_cell_specs(config); the workload
/// aggregates are bit-identical across thread counts (runner contract),
/// only the timing fields vary between machines and runs.
[[nodiscard]] PerfReport run_perf_suite(const PerfConfig& config);

/// Parses a report produced by PerfReport::to_json. Throws CheckError on
/// malformed JSON, unknown fields, or a schema tag of a different version.
[[nodiscard]] PerfReport parse_report(const std::string& json);

/// Structural schema validation: current schema tag, at least one cell,
/// labels non-empty, counts positive, success_rate in [0, 1], timings and
/// rates finite and non-negative. (Purely structural — it does not
/// cross-check rates against seconds/trials.) Throws CheckError naming
/// the offending field on failure.
void validate_report(const PerfReport& report);

/// Writes report.to_json() to `path` (+ trailing newline). Throws
/// CheckError when the file cannot be written.
void write_report_file(const PerfReport& report, const std::string& path);

/// Reads and parses (but does not validate) a report file.
[[nodiscard]] PerfReport read_report_file(const std::string& path);

// --- regression gate --------------------------------------------------------

/// Outcome of gating `current` against `baseline`: `failures` carries one
/// human-readable line per violation (empty means the gate is green).
struct GateResult {
  std::vector<std::string> failures;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Merges repeated runs of one config into a single report carrying each
/// cell's best observed throughput (max rounds/sec and trials/sec, min
/// seconds). Timing noise on shared machines is one-sided — interference
/// only ever slows a run down — so the per-cell best over a few reps
/// estimates the machine's true rate far more stably than any single
/// run; gate mode measures this way. Identity fields must agree across
/// all inputs (they are deterministic for a config); throws CheckError
/// on drift or an empty input.
[[nodiscard]] PerfReport best_of(const std::vector<PerfReport>& reports);

/// Compares a fresh report against a committed baseline. Identity fields
/// must match exactly — same cell set in the same order, and per cell the
/// same trials, total_rounds, and success_rate (any drift there means the
/// *workload* changed, e.g. a strategy now takes a different number of
/// rounds, which no tolerance should forgive). rounds_per_sec may regress by at
/// most `tolerance` (fractional, e.g. 0.30): a cell fails when
///   current.rounds_per_sec < baseline.rounds_per_sec * (1 - tolerance).
/// Machine-dependent fields that carry no signal — threads, seconds,
/// trials_per_sec — are ignored. Baseline cells with a zero rate
/// (degenerate timer) are skipped. Speedups never fail; refresh the
/// baseline deliberately (see docs/PERFORMANCE.md) to bank them.
[[nodiscard]] GateResult gate_against_baseline(const PerfReport& baseline,
                                               const PerfReport& current,
                                               double tolerance);

}  // namespace fnr::perf
