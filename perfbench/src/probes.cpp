#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "runner/trial_runner.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "sim/neighbor_table.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace fc = fnr::campaign;

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

SpecSetup parse_and_expand(const std::string& text) {
  SpecSetup setup;
  std::vector<double> parse, expand;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    auto start = Clock::now();
    setup.spec = fnr::sweep::parse_spec(text);
    parse.push_back(seconds_since(start));
    start = Clock::now();
    setup.grid = fnr::sweep::expand(setup.spec);
    expand.push_back(seconds_since(start));
  }
  setup.parse_s = median_of(parse);
  setup.expand_s = median_of(expand);
  return setup;
}

void count_graph(const fnr::graph::Graph& g, PassResult& result) {
  result.layers["graph.builds"] += 1;
  result.layers["graph.edges"] += static_cast<double>(g.num_edges());
}

void probe_table(const fnr::graph::Graph& g, PassResult& result) {
  const auto start = Clock::now();
  const fnr::sim::NeighborTable table(g);
  result.layers["sim.table_build_s"] += seconds_since(start);
  // Computed, not measured: element counts times element sizes, plus the
  // per-vertex vector headers of the two nested tables.
  double bytes = 0;
  for (const auto& ids : table.ids)
    bytes += static_cast<double>(sizeof(ids) + ids.size() * sizeof(ids[0]));
  for (const auto& rev : table.rev)
    bytes += static_cast<double>(sizeof(rev) + rev.size() * sizeof(rev[0]));
  bytes += static_cast<double>(table.index_by_id.size() *
                               sizeof(fnr::graph::VertexIndex));
  bytes += static_cast<double>(table.port_by_pair.size() *
                               sizeof(std::uint16_t));
  result.layers["sim.table_bytes"] += bytes;
}

namespace {

/// Bytes in the file at `path` (0 when missing).
double file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<double>(in.tellg()) : 0.0;
}

/// Sum of one counter over every cell aggregate's "faults" block.
std::uint64_t fault_total(const std::vector<fc::CellResult>& cells,
                          const std::string& counter) {
  std::uint64_t total = 0;
  const std::string needle = "\"" + counter + "\":";
  for (const auto& cell : cells) {
    const auto block = cell.agg_json.find("\"faults\":{");
    if (block == std::string::npos) continue;
    const auto at = cell.agg_json.find(needle, block);
    const auto close = cell.agg_json.find('}', block);
    if (at == std::string::npos || at > close) continue;
    const std::string tail = cell.agg_json.substr(at + needle.size());
    fnr::JsonCursor cursor(tail, "faults block");
    total += cursor.parse_uint64();
  }
  return total;
}

}  // namespace

void probe_campaign(const fnr::sweep::SweepSpec& spec,
                    const fc::CampaignRun& run, double run_s,
                    const std::string& checkpoint_path,
                    const std::string& workdir, PassResult& result) {
  const auto& cells = run.cells;
  result.layers["sweep.cells"] = static_cast<double>(cells.size());
  const double lookups =
      static_cast<double>(run.graph_cache_hits + run.graph_cache_misses);
  result.layers["graph.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(run.graph_cache_hits) / lookups : 0.0;

  // graph + sim: every distinct topology once, in first-use order.
  std::map<std::string, fnr::graph::Graph> graphs;
  for (const auto& r : cells) {
    const std::string key = r.cell.graph_key();
    if (graphs.contains(key)) continue;
    const auto start = Clock::now();
    fnr::graph::Graph g = r.cell.topology.build(r.cell.n, r.cell.seed);
    result.layers["graph.build_s"] += seconds_since(start);
    count_graph(g, result);
    probe_table(g, result);
    graphs.emplace(key, std::move(g));
  }

  // scenario + runner: each cell's trials again at one thread.
  fnr::runner::RunnerOptions one;
  one.threads = 1;
  const fnr::runner::TrialRunner runner(one);
  double span_s = 0, rounds = 0, steps = 0, aggregate_s = 0;
  for (const auto& r : cells) {
    if (!r.ok) continue;
    fnr::scenario::Scenario scen = fnr::scenario::find_scenario(r.cell.scenario);
    if (r.cell.k.has_value()) scen.num_agents = *r.cell.k;
    if (r.cell.gather.has_value()) scen.gathering = *r.cell.gather;
    fnr::scenario::ScenarioOptions options;
    options.seed = r.cell.seed;
    options.fault = r.cell.fault;
    const auto start = Clock::now();
    const auto acc = fnr::scenario::run_scenario_trial_span(
        scen, r.cell.program, graphs.at(r.cell.graph_key()), options, 0,
        r.cell.trials, runner, 0);
    span_s += seconds_since(start);
    for (const auto& out : acc.sorted_outcomes()) {
      rounds += static_cast<double>(out.rounds);
      steps += static_cast<double>(out.rounds * scen.num_agents);
    }
    const auto agg_start = Clock::now();
    const std::string agg = acc.aggregate().to_json();
    aggregate_s += seconds_since(agg_start);
    result.check(agg == r.agg_json,
                 "scenario probe: 1-thread aggregate differs for " +
                     r.cell.key());
  }
  result.layers["scenario.span_s"] = span_s;
  result.layers["scenario.rounds"] = rounds;
  result.layers["scenario.agent_steps"] = steps;
  result.layers["scenario.agent_steps_per_s"] =
      span_s > 0 ? steps / span_s : 0.0;
  result.layers["runner.aggregate_s"] = aggregate_s;

  // campaign: the report, what Campaign does per finished cell, and a
  // resume read of the run's own checkpoint.
  const auto json_start = Clock::now();
  const std::string report = fc::to_json(spec, cells);
  result.layers["campaign.to_json_s"] = seconds_since(json_start);
  result.layers["campaign.report_bytes"] = static_cast<double>(report.size());
  {
    const std::string probe_path = workdir + "/checkpoint-probe.jsonl";
    std::ofstream out(probe_path, std::ios::trunc);
    const auto start = Clock::now();
    for (const auto& r : cells) {
      out << fc::checkpoint_line(r) << "\n";
      out.flush();
    }
    result.layers["campaign.checkpoint_write_s"] = seconds_since(start);
    std::remove(probe_path.c_str());
  }
  const auto load_start = Clock::now();
  const auto restored = fc::load_checkpoint(checkpoint_path);
  result.layers["campaign.load_checkpoint_s"] = seconds_since(load_start);
  result.layers["campaign.checkpoint_bytes"] = file_bytes(checkpoint_path);
  double busy = 0;
  for (const auto& [key, entry] : restored) busy += entry.seconds;
  result.layers["campaign.busy_ratio"] = busy / run_s;
  result.check(restored.size() == cells.size(),
               "checkpoint holds " + std::to_string(restored.size()) +
                   " cells, expected " + std::to_string(cells.size()));

  for (const char* counter :
       {"crashes", "restarts", "writes_dropped", "moves_blocked"}) {
    result.layers[std::string("fault.") + counter] =
        static_cast<double>(fault_total(cells, counter));
  }
}

}  // namespace perfbench
