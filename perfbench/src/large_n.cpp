// large-n: the predefined `large-n` spec through campaign::Campaign at the
// sweep CLI's default flags (threads = hardware, jobs = 1) with a
// checkpoint on. Graph generation and per-worker neighbor tables dominate.
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "probes.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

namespace fc = fnr::campaign;
namespace fs = fnr::sweep;

namespace {

std::string large_n_spec(const PassOptions& options) {
  std::string text;
  for (const auto& [name, body] : fs::predefined_specs())
    if (name == "large-n") text = body;
  text = with_spec_line(text, "seeds", std::to_string(options.seed));
  if (options.smoke) {
    text = with_spec_line(text, "sizes", "64, 256");
    text = with_spec_line(text, "trials", "2");
  }
  return text;
}

struct CampaignPass {
  fc::CampaignRun run;
  std::string report;
  double run_s = 0;
};

/// One Campaign::run from the call to the merged report in hand.
CampaignPass run_campaign(const fs::SweepSpec& spec,
                          fc::CampaignOptions copts, PassResult* result) {
  fc::Campaign campaign(spec, std::move(copts));
  CampaignPass pass;
  const auto start = Clock::now();
  bool first = true;
  pass.run = campaign.run([&](const fc::CellResult&) {
    if (first && result != nullptr)
      result->e2e["first_frame_s"] = seconds_since(start);
    first = false;
  });
  const auto report_start = Clock::now();
  pass.report = fc::to_json(spec, pass.run.cells);
  std::vector<double> report_s{seconds_since(report_start)};
  pass.run_s = seconds_since(start);
  if (result == nullptr) return pass;
  // The merged report again, for a steadier median: the same call a
  // second reader of the finished campaign would make.
  while (report_s.size() < kReportRepeats) {
    const auto again = Clock::now();
    const std::string report = fc::to_json(spec, pass.run.cells);
    report_s.push_back(seconds_since(again));
    result->check(report == pass.report, "to_json is not deterministic");
  }
  result->e2e["report_rtt_ms"] = median_of(report_s) * 1e3;
  return pass;
}

}  // namespace

PassResult run_large_n(const PassOptions& options) {
  PassResult result;
  const std::string checkpoint = options.workdir + "/large-n.jsonl";

  // --- set-up: spec parse and grid expansion --------------------------------
  const SpecSetup setup = parse_and_expand(large_n_spec(options));
  const fs::SweepSpec& spec = setup.spec;
  const auto& grid = setup.grid;
  result.e2e["setup_s"] = setup.parse_s + setup.expand_s;

  // --- the measured run ------------------------------------------------------
  fc::CampaignOptions copts;
  copts.checkpoint_path = checkpoint;
  const CampaignPass pass = run_campaign(spec, copts, &result);
  result.e2e["run_s"] = pass.run_s;
  result.e2e["peak_rss_mb"] = peak_rss_mb();

  // --- output checks --------------------------------------------------------
  double trials = 0;
  for (const auto& cell : pass.run.cells) {
    result.check(cell.ok, "cell " + cell.cell.key() + " failed: " + cell.error);
    trials += static_cast<double>(cell.cell.trials);
  }
  result.check(pass.run.complete && pass.run.cells.size() == grid.size(),
               "campaign finished " + std::to_string(pass.run.cells.size()) +
                   " of " + std::to_string(grid.size()) + " cells");
  result.digest = digest(pass.report);
  result.counts["trials"] = trials;
  result.counts["agent_steps"] = 2.0 * static_cast<double>(pass.run.total_rounds);

  // The traced pass runs the same code as an untraced one (large-n has no
  // span inside its run, so trace.overhead_s is about 0); its per-layer
  // figures come from the re-executions below.
  if (options.traced) {
    result.layers["sweep.parse_s"] = setup.parse_s;
    result.layers["sweep.expand_s"] = setup.expand_s;
    probe_campaign(spec, pass.run, pass.run_s, checkpoint, options.workdir,
                   result);

    // The same pass at --threads=1 (no observer), for the speed-up.
    fc::CampaignOptions single;
    single.threads = 1;
    single.checkpoint_path = options.workdir + "/large-n-t1.jsonl";
    const CampaignPass t1 = run_campaign(spec, single, nullptr);
    result.layers["runner.speedup_vs_1t"] = t1.run_s / pass.run_s;
    result.check(t1.report == pass.report,
                 "--threads=1 report differs from the default-flags report");
    std::remove(single.checkpoint_path.c_str());
  }
  std::remove(checkpoint.c_str());
  return result;
}

}  // namespace perfbench
