#include "perf/perf_suite.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/campaign.hpp"
#include "core/rendezvous.hpp"
#include "graph/generators.hpp"
#include "scenario/program_registry.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "sim/model.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace fnr::perf {

std::string schema_tag() {
  return "fnr-perf/" + std::to_string(kSchemaVersion);
}

namespace {

/// The measured sweep, in emission order: the registry programs that wrap
/// a core::Strategy (the paper's strategies, measured through the
/// two-agent hot path). Cell names are the registry labels, so perf cells
/// and sweep cells agree on naming. (Registry entries are never removed,
/// so the pointers stay valid for the process lifetime.)
const std::vector<const scenario::ProgramDef*>& measured_programs() {
  static const std::vector<const scenario::ProgramDef*> all = [] {
    std::vector<const scenario::ProgramDef*> out;
    for (const auto& def : scenario::all_program_defs())
      if (def.core_strategy.has_value()) out.push_back(&def);
    FNR_CHECK_MSG(!out.empty(),
                  "program registry exposes no core strategies to measure");
    return out;
  }();
  return all;
}

struct Topology {
  std::string label;
  std::uint64_t n;
};

/// Topology identities per mode. Graph construction is seeded by constants
/// (never by config.seed), so the workload a cell names is the same for
/// every report ever emitted at this schema version.
std::vector<Topology> topologies(bool quick) {
  if (quick) return {{"near-regular-64", 64}, {"torus-8x8", 64}};
  return {{"near-regular-1024", 1024},
          {"torus-32x32", 1024},
          {"hypercube-10", 1024},
          {"watts-strogatz-1024", 1024}};
}

graph::Graph build_topology(const std::string& label) {
  if (label == "near-regular-64") {
    Rng rng(4242, 911);
    return graph::make_near_regular(64, 12, rng);
  }
  if (label == "torus-8x8") return graph::make_torus(8, 8);
  if (label == "near-regular-1024") {
    Rng rng(4242, 911);
    return graph::make_near_regular(1024, 64, rng);
  }
  if (label == "torus-32x32") return graph::make_torus(32, 32);
  if (label == "hypercube-10") return graph::make_hypercube(10);
  if (label == "watts-strogatz-1024") {
    Rng rng(4242, 913);
    return graph::make_watts_strogatz(1024, 6, 0.1, rng);
  }
  FNR_CHECK_MSG(false, "unknown perf topology '" << label << "'");
  throw std::logic_error("unreachable");
}

std::uint64_t trials_for(const PerfConfig& config) {
  if (config.trials > 0) return config.trials;
  return config.quick ? 8 : 256;
}

/// One swarm measurement: a k-agent quorum workload driven through the
/// scenario engine's occupancy-count meeting path. The Scenario each label
/// resolves to is pinned here (not looked up by name at run time), so
/// registry edits cannot silently change what a committed cell measured.
struct SwarmWorkload {
  std::string label;     ///< the cell's scenario field
  std::string topology;  ///< must name a topology of the same mode
  std::uint64_t n;
  std::size_t agents;
  std::uint64_t quorum;
};

const std::vector<SwarmWorkload>& swarm_workloads(bool quick) {
  static const std::vector<SwarmWorkload> quick_cells = {
      {"swarm-quorum-k16", "torus-8x8", 64, 16, 4}};
  static const std::vector<SwarmWorkload> full_cells = {
      {"swarm-quorum-k256", "torus-32x32", 1024, 256, 16}};
  return quick ? quick_cells : full_cells;
}

/// Swarm trials are far heavier than two-agent trials (k agents per round,
/// larger round caps), so the full-mode default is smaller than trials_for.
std::uint64_t swarm_trials_for(const PerfConfig& config) {
  if (config.trials > 0) return config.trials;
  return config.quick ? 8 : 32;
}

/// One campaign-throughput measurement: the whole campaign machinery —
/// executor worker pool, work-stealing LPT queue, shared graph cache,
/// reorder buffer — timed end to end over a pinned heterogeneous grid.
/// The two cells run the *same* grid and differ only in the executor pool
/// size, so their trials (grid cells) and total_rounds identity fields
/// must be equal in every report — the byte-identity contract, visible in
/// the committed baseline itself. trials_per_sec is the headline
/// cells-per-second number; rounds_per_sec is what the gate tracks.
struct CampaignWorkload {
  std::string label;  ///< the cell's scenario field
  unsigned threads;   ///< executor pool size (the run's threads)
};

const std::vector<CampaignWorkload>& campaign_workloads() {
  static const std::vector<CampaignWorkload> cells = {
      {"campaign-mixed-jobs1", 1}, {"campaign-mixed-jobs4", 4}};
  return cells;
}

/// The measured grid is pinned here (not resolved through predefined
/// specs by name) so sweep-spec edits cannot silently change what a
/// committed cell measured. Quick mode mirrors the CI smoke grid; the
/// full grid crosses a 16× size spread with a neighborhood-scan-heavy
/// family against a cheap torus, so the work-stealing schedule has real
/// imbalance to absorb — the speedup the jobs4 cell exists to track.
const char* campaign_spec_text(bool quick) {
  if (quick)
    return R"(name = perf-campaign-quick
trials     = 3
programs   = whiteboard, random-walk
scenarios  = sync-pair, delayed-pair
topologies = ring, near-regular:deg=4
sizes      = 32, 64
seeds      = 1
)";
  return R"(name = perf-campaign
trials     = 64
programs   = whiteboard, whiteboard+doubling, random-walk
scenarios  = sync-pair
topologies = near-regular:deg=32, torus
sizes      = 1024, 16384
seeds      = 7
)";
}

const sweep::SweepSpec& campaign_spec(bool quick) {
  static const sweep::SweepSpec quick_spec =
      sweep::parse_spec(campaign_spec_text(true));
  static const sweep::SweepSpec full_spec =
      sweep::parse_spec(campaign_spec_text(false));
  return quick ? quick_spec : full_spec;
}

scenario::Scenario swarm_scenario(const SwarmWorkload& workload) {
  scenario::Scenario scen;
  scen.name = workload.label;
  scen.summary = "perf swarm cell";
  scen.num_agents = workload.agents;
  scen.placement = scenario::PlacementModel::RandomDistinct;
  scen.delay = scenario::DelayModel::None;
  scen.gathering = sim::Gathering::quorum_of(workload.quorum);
  scen.validate();
  return scen;
}

}  // namespace

std::vector<PerfCellSpec> perf_cell_specs(const PerfConfig& config) {
  const std::uint64_t trials = trials_for(config);
  std::vector<PerfCellSpec> specs;
  for (const auto* def : measured_programs()) {
    for (const auto& topology : topologies(config.quick)) {
      specs.push_back(PerfCellSpec{def->label, "", topology.label,
                                   topology.n, trials});
    }
  }
  const std::uint64_t swarm_trials = swarm_trials_for(config);
  for (const auto& workload : swarm_workloads(config.quick)) {
    specs.push_back(PerfCellSpec{"explore-rally", workload.label,
                                 workload.topology, workload.n,
                                 swarm_trials});
  }
  // Campaign cells trail the sweep. Their identity is fully pinned by the
  // grid (config.trials/seed do not apply): trials = grid cell
  // count, n = the grid's largest requested size.
  const auto& grid_spec = campaign_spec(config.quick);
  const std::uint64_t grid_cells = sweep::expand(grid_spec).size();
  const std::uint64_t max_n =
      *std::max_element(grid_spec.sizes.begin(), grid_spec.sizes.end());
  for (const auto& workload : campaign_workloads()) {
    specs.push_back(
        PerfCellSpec{"campaign", workload.label, "mixed", max_n, grid_cells});
  }
  return specs;
}

namespace {

/// Registry label → the core::Strategy the cell measures.
[[nodiscard]] core::Strategy strategy_named(const std::string& label) {
  for (const auto* def : measured_programs())
    if (label == def->label) return *def->core_strategy;
  FNR_CHECK_MSG(false, "unknown perf strategy '" << label << "'");
  throw std::logic_error("unreachable");
}

}  // namespace

PerfReport run_perf_suite(const PerfConfig& config) {
  const runner::TrialRunner trial_runner(
      runner::RunnerOptions{config.threads});

  PerfReport report;
  report.schema = schema_tag();
  report.quick = config.quick;
  report.threads = trial_runner.threads();
  report.seed = config.seed;

  // Build each topology once up front; the spec list then drives the loop,
  // so the emitted cell order IS perf_cell_specs order by construction
  // (one source of truth for the sweep).
  std::vector<std::pair<std::string, graph::Graph>> graphs;
  for (const auto& topology : topologies(config.quick))
    graphs.emplace_back(topology.label, build_topology(topology.label));

  for (const auto& spec : perf_cell_specs(config)) {
    if (spec.strategy == "campaign") {
      const auto& workloads = campaign_workloads();
      const auto workload_it =
          std::find_if(workloads.begin(), workloads.end(),
                       [&](const CampaignWorkload& w) {
                         return w.label == spec.scenario;
                       });
      FNR_CHECK_MSG(workload_it != workloads.end(),
                    "unknown campaign workload '" << spec.scenario << "'");
      campaign::CampaignOptions options;
      // These cells measure cell-parallel scheduling at a pinned pool
      // size — config.threads stays out so the jobs1 / jobs4 pair differ
      // in exactly one variable. (The labels predate the executor's
      // `threads` knob and stay so committed reports keep their identity.)
      options.threads = workload_it->threads;
      campaign::Campaign camp(campaign_spec(config.quick), options);
      const auto start = std::chrono::steady_clock::now();
      const auto run = camp.run();
      const auto stop = std::chrono::steady_clock::now();
      FNR_CHECK_MSG(run.complete, "perf campaign '" << spec.scenario
                                                    << "' did not complete");
      const double seconds =
          std::chrono::duration<double>(stop - start).count();
      PerfCell cell;
      cell.strategy = spec.strategy;
      cell.scenario = spec.scenario;
      cell.topology = spec.topology;
      cell.n = spec.n;
      cell.trials = run.executed;
      cell.total_rounds = run.total_rounds;
      std::uint64_t ok_cells = 0;
      for (const auto& result : run.cells) ok_cells += result.ok ? 1 : 0;
      cell.success_rate = run.cells.empty()
                              ? 0.0
                              : static_cast<double>(ok_cells) /
                                    static_cast<double>(run.cells.size());
      cell.seconds = seconds;
      cell.rounds_per_sec =
          seconds > 0.0 ? static_cast<double>(cell.total_rounds) / seconds
                        : 0.0;
      cell.trials_per_sec =
          seconds > 0.0 ? static_cast<double>(cell.trials) / seconds : 0.0;
      report.cells.push_back(std::move(cell));
      continue;
    }
    const auto graph_it =
        std::find_if(graphs.begin(), graphs.end(),
                     [&](const auto& entry) {
                       return entry.first == spec.topology;
                     });
    FNR_CHECK(graph_it != graphs.end());
    const graph::Graph& g = graph_it->second;

    const auto start = std::chrono::steady_clock::now();
    const auto acc = [&] {
      if (!spec.scenario.empty()) {
        const auto& workloads = swarm_workloads(config.quick);
        const auto workload_it =
            std::find_if(workloads.begin(), workloads.end(),
                         [&](const SwarmWorkload& w) {
                           return w.label == spec.scenario;
                         });
        FNR_CHECK_MSG(workload_it != workloads.end(),
                      "unknown swarm workload '" << spec.scenario << "'");
        const scenario::Scenario scen = swarm_scenario(*workload_it);
        const scenario::Program program =
            scenario::find_program(spec.strategy);
        scenario::ScenarioOptions scenario_options;
        scenario_options.seed = config.seed;
        // The cell exists to measure the occupancy-count meeting engine:
        // pin the detection mode rather than trusting the Auto cutover.
        scenario_options.detection = sim::MeetingDetection::Occupancy;
        return scenario::run_scenario_trials(scen, program, g,
                                             scenario_options, spec.trials,
                                             trial_runner);
      }
      core::RendezvousOptions options;
      options.seed = config.seed;
      return core::run_trials(strategy_named(spec.strategy), g, options,
                              spec.trials, trial_runner);
    }();
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();

    PerfCell cell;
    cell.strategy = spec.strategy;
    cell.scenario = spec.scenario;
    cell.topology = spec.topology;
    cell.n = spec.n;
    cell.trials = acc.count();
    for (const auto& outcome : acc.sorted_outcomes())
      cell.total_rounds += outcome.rounds;
    cell.success_rate = acc.aggregate().success_rate;
    cell.seconds = seconds;
    // Degenerate timers (clock resolution) report 0 rather than inf.
    cell.rounds_per_sec =
        seconds > 0.0 ? static_cast<double>(cell.total_rounds) / seconds
                      : 0.0;
    cell.trials_per_sec =
        seconds > 0.0 ? static_cast<double>(cell.trials) / seconds : 0.0;
    report.cells.push_back(std::move(cell));
  }
  return report;
}

// --- JSON emission ----------------------------------------------------------

std::string PerfReport::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"" << schema << "\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"seed\": " << seed << ",\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    os << "    {\"strategy\":\"" << c.strategy << "\",";
    // Emitted only for swarm cells, so strategy-only reports keep the exact
    // bytes they had before the field existed.
    if (!c.scenario.empty()) os << "\"scenario\":\"" << c.scenario << "\",";
    os << "\"topology\":\""
       << c.topology << "\",\"n\":" << c.n << ",\"trials\":" << c.trials
       << ",\"total_rounds\":" << c.total_rounds
       << ",\"success_rate\":" << format_double(c.success_rate, 4)
       << ",\"seconds\":" << format_double(c.seconds, 6)
       << ",\"rounds_per_sec\":" << format_double(c.rounds_per_sec, 2)
       << ",\"trials_per_sec\":" << format_double(c.trials_per_sec, 2)
       << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}";
  return os.str();
}

// --- JSON parsing -----------------------------------------------------------

namespace {

PerfCell parse_cell(JsonCursor& cursor) {
  PerfCell cell;
  cursor.expect('{');
  bool first = true;
  while (!cursor.peek_is('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string key = cursor.parse_string();
    cursor.expect(':');
    if (key == "strategy") {
      cell.strategy = cursor.parse_string();
    } else if (key == "scenario") {
      cell.scenario = cursor.parse_string();
    } else if (key == "topology") {
      cell.topology = cursor.parse_string();
    } else if (key == "n") {
      cell.n = cursor.parse_uint64();
    } else if (key == "trials") {
      cell.trials = cursor.parse_uint64();
    } else if (key == "total_rounds") {
      cell.total_rounds = cursor.parse_uint64();
    } else if (key == "success_rate") {
      cell.success_rate = cursor.parse_number();
    } else if (key == "seconds") {
      cell.seconds = cursor.parse_number();
    } else if (key == "rounds_per_sec") {
      cell.rounds_per_sec = cursor.parse_number();
    } else if (key == "trials_per_sec") {
      cell.trials_per_sec = cursor.parse_number();
    } else {
      FNR_CHECK_MSG(false, "perf JSON: unknown cell field '" << key << "'");
    }
  }
  cursor.expect('}');
  return cell;
}

}  // namespace

PerfReport parse_report(const std::string& json) {
  JsonCursor cursor(json, "perf JSON");
  PerfReport report;
  cursor.expect('{');
  bool first = true;
  while (!cursor.peek_is('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string key = cursor.parse_string();
    cursor.expect(':');
    if (key == "schema") {
      report.schema = cursor.parse_string();
      FNR_CHECK_MSG(report.schema == schema_tag(),
                    "perf JSON: schema '" << report.schema
                                          << "' is not " << schema_tag());
    } else if (key == "quick") {
      report.quick = cursor.parse_bool();
    } else if (key == "threads") {
      report.threads = static_cast<unsigned>(cursor.parse_uint64());
    } else if (key == "seed") {
      report.seed = cursor.parse_uint64();
    } else if (key == "batch") {
      // Legacy field (the removed lock-step batch size); older reports,
      // the committed baseline included, still carry it. Ignored.
      (void)cursor.parse_uint64();
    } else if (key == "cells") {
      cursor.expect('[');
      while (!cursor.peek_is(']')) {
        if (!report.cells.empty()) cursor.expect(',');
        report.cells.push_back(parse_cell(cursor));
      }
      cursor.expect(']');
    } else {
      FNR_CHECK_MSG(false, "perf JSON: unknown report field '" << key << "'");
    }
  }
  cursor.expect('}');
  cursor.expect_end();
  return report;
}

void validate_report(const PerfReport& report) {
  FNR_CHECK_MSG(report.schema == schema_tag(),
                "schema '" << report.schema << "' is not " << schema_tag());
  FNR_CHECK_MSG(!report.cells.empty(), "report has no cells");
  FNR_CHECK_MSG(report.threads >= 1, "report records no worker threads");
  for (const auto& cell : report.cells) {
    FNR_CHECK_MSG(!cell.strategy.empty(), "cell without a strategy label");
    FNR_CHECK_MSG(!cell.topology.empty(), "cell without a topology label");
    FNR_CHECK_MSG(cell.n > 0, "cell '" << cell.strategy << "/"
                                       << cell.topology << "' has n = 0");
    FNR_CHECK_MSG(cell.trials > 0, "cell '" << cell.strategy << "/"
                                            << cell.topology
                                            << "' ran no trials");
    FNR_CHECK_MSG(std::isfinite(cell.success_rate) &&
                      cell.success_rate >= 0.0 && cell.success_rate <= 1.0,
                  "cell '" << cell.strategy << "/" << cell.topology
                           << "' success_rate out of [0, 1]");
    FNR_CHECK_MSG(std::isfinite(cell.seconds) && cell.seconds >= 0.0,
                  "cell '" << cell.strategy << "/" << cell.topology
                           << "' has a negative duration");
    FNR_CHECK_MSG(
        std::isfinite(cell.rounds_per_sec) && cell.rounds_per_sec >= 0.0,
        "cell '" << cell.strategy << "/" << cell.topology
                 << "' rounds_per_sec invalid");
    FNR_CHECK_MSG(
        std::isfinite(cell.trials_per_sec) && cell.trials_per_sec >= 0.0,
        "cell '" << cell.strategy << "/" << cell.topology
                 << "' trials_per_sec invalid");
  }
}

void write_report_file(const PerfReport& report, const std::string& path) {
  std::ofstream out(path);
  FNR_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << report.to_json() << "\n";
  out.flush();  // surface buffered-write failures (e.g. disk full) here,
                // not silently in the destructor
  FNR_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

PerfReport read_report_file(const std::string& path) {
  std::ifstream in(path);
  FNR_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_report(buffer.str());
}

// --- regression gate --------------------------------------------------------

PerfReport best_of(const std::vector<PerfReport>& reports) {
  FNR_CHECK_MSG(!reports.empty(), "best_of needs at least one report");
  PerfReport merged = reports.front();
  for (std::size_t r = 1; r < reports.size(); ++r) {
    const PerfReport& rep = reports[r];
    FNR_CHECK_MSG(
        rep.quick == merged.quick && rep.cells.size() == merged.cells.size(),
        "best_of: rep " << r << " ran a different sweep ("
                        << rep.cells.size() << " cells vs "
                        << merged.cells.size() << ")");
    for (std::size_t i = 0; i < merged.cells.size(); ++i) {
      PerfCell& best = merged.cells[i];
      const PerfCell& cell = rep.cells[i];
      FNR_CHECK_MSG(cell.strategy == best.strategy &&
                        cell.scenario == best.scenario &&
                        cell.topology == best.topology && cell.n == best.n &&
                        cell.trials == best.trials &&
                        cell.total_rounds == best.total_rounds &&
                        cell.success_rate == best.success_rate,
                    "best_of: rep " << r << " cell '" << cell.strategy << "/"
                                    << cell.topology
                                    << "' drifted in identity fields");
      best.seconds = std::min(best.seconds, cell.seconds);
      best.rounds_per_sec = std::max(best.rounds_per_sec, cell.rounds_per_sec);
      best.trials_per_sec = std::max(best.trials_per_sec, cell.trials_per_sec);
    }
  }
  return merged;
}

GateResult gate_against_baseline(const PerfReport& baseline,
                                 const PerfReport& current,
                                 double tolerance) {
  FNR_CHECK_MSG(std::isfinite(tolerance) && tolerance >= 0.0 &&
                    tolerance < 1.0,
                "gate tolerance must be in [0, 1), got " << tolerance);
  GateResult result;
  auto fail = [&](std::ostringstream& os) {
    result.failures.push_back(os.str());
  };

  if (baseline.quick != current.quick) {
    std::ostringstream os;
    os << "mode mismatch: baseline is " << (baseline.quick ? "quick" : "full")
       << ", current is " << (current.quick ? "quick" : "full");
    fail(os);
    return result;
  }
  if (baseline.cells.size() != current.cells.size()) {
    std::ostringstream os;
    os << "cell count mismatch: baseline has " << baseline.cells.size()
       << ", current has " << current.cells.size()
       << " (the measured sweep changed; refresh the baseline)";
    fail(os);
    return result;
  }

  for (std::size_t i = 0; i < baseline.cells.size(); ++i) {
    const PerfCell& base = baseline.cells[i];
    const PerfCell& cur = current.cells[i];
    const std::string name =
        base.strategy +
        (base.scenario.empty() ? "" : "[" + base.scenario + "]") + "/" +
        base.topology;
    if (base.strategy != cur.strategy || base.scenario != cur.scenario ||
        base.topology != cur.topology || base.n != cur.n) {
      std::ostringstream os;
      os << "cell " << i << ": identity mismatch (baseline " << name << " n="
         << base.n << ", current " << cur.strategy
         << (cur.scenario.empty() ? "" : "[" + cur.scenario + "]") << "/"
         << cur.topology << " n=" << cur.n << ")";
      fail(os);
      continue;
    }
    // Workload identity: any drift means the measured computation changed
    // (e.g. a strategy now takes different round counts), not that the
    // machine got slower — no tolerance applies. success_rate is compared
    // through the JSON formatting so an in-memory report gates identically
    // to its own round-tripped bytes.
    if (base.trials != cur.trials || base.total_rounds != cur.total_rounds ||
        format_double(base.success_rate, 4) !=
            format_double(cur.success_rate, 4)) {
      std::ostringstream os;
      os << name << ": workload drift (trials " << base.trials << " -> "
         << cur.trials << ", total_rounds " << base.total_rounds << " -> "
         << cur.total_rounds << ", success_rate "
         << format_double(base.success_rate, 4) << " -> "
         << format_double(cur.success_rate, 4) << ")";
      fail(os);
      continue;
    }
    if (base.rounds_per_sec <= 0.0) continue;  // degenerate baseline timer
    const double floor = base.rounds_per_sec * (1.0 - tolerance);
    if (cur.rounds_per_sec < floor) {
      std::ostringstream os;
      os << name << ": rounds/sec regressed "
         << format_double(base.rounds_per_sec, 2) << " -> "
         << format_double(cur.rounds_per_sec, 2) << " (floor "
         << format_double(floor, 2) << " at tolerance "
         << format_double(tolerance, 2) << ")";
      fail(os);
    }
  }
  return result;
}

}  // namespace fnr::perf
