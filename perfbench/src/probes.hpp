// Per-layer probes a traced pass runs after its timed section. Each probe
// re-issues one layer's public calls on the pass's own inputs, one thread,
// and times them from here — src/ carries no tracing of its own.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "graph/graph.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

/// Set-up is short, so it runs this many times and reports the median.
inline constexpr std::size_t kSetupRepeats = 15;
/// Report requests, likewise, are repeated and their median reported.
inline constexpr std::size_t kReportRepeats = 21;

/// A parsed and expanded spec, with the median parse and expand times of
/// kSetupRepeats rounds.
struct SpecSetup {
  fnr::sweep::SweepSpec spec;
  std::vector<fnr::sweep::SweepCell> grid;
  double parse_s = 0;
  double expand_s = 0;
};
[[nodiscard]] SpecSetup parse_and_expand(const std::string& text);

/// Median of `values` (0 when empty).
[[nodiscard]] double median_of(std::vector<double> values);

/// graph.*: nothing is timed here — adds one generated graph's counts.
void count_graph(const fnr::graph::Graph& g, PassResult& result);

/// sim.table_build_s and sim.table_bytes: builds sim::NeighborTable(g) once
/// and adds its time and its computed size (vector lengths × element sizes).
void probe_table(const fnr::graph::Graph& g, PassResult& result);

/// Probes for a finished campaign `run` of `spec` that took `run_s`:
///  - sweep.cells, and graph.cache_hit_ratio from the run's cache counters;
///  - graph.build_s/builds/edges: TopologySpec::build per distinct graph;
///  - sim.table_*: probe_table per distinct graph;
///  - scenario.*: run_scenario_trial_span per cell at 1 thread on the
///    cached graph, checked byte-for-byte against the cell's aggregate;
///  - runner.aggregate_s: aggregate().to_json() of those accumulators;
///  - campaign.to_json_s / report_bytes: campaign::to_json of the run;
///  - campaign.checkpoint_write_s: checkpoint_line + append + flush per cell
///    into a probe file under `workdir`;
///  - campaign.load_checkpoint_s / checkpoint_bytes / busy_ratio (Σ cell
///    seconds / run_s) from the run's checkpoint at `checkpoint_path`;
///  - fault.*: the faults blocks of the cells' aggregates.
void probe_campaign(const fnr::sweep::SweepSpec& spec,
                    const fnr::campaign::CampaignRun& run, double run_s,
                    const std::string& checkpoint_path,
                    const std::string& workdir, PassResult& result);

}  // namespace perfbench
