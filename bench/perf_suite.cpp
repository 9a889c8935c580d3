// Perf-tracking bench: times rounds/sec and trials/sec across
// strategy × topology cells and emits the schema-versioned BENCH_perf.json
// report (see src/perf/perf_suite.hpp for the schema contract and
// docs/PERFORMANCE.md for how to read it).
//
// Flags:
//   --quick            smoke cells (CI); default is the full sweep
//   --trials=N         per-cell trials (0 = mode default)
//   --threads=N        trial-runner pool size (0 = hardware threads)
//   --seed=N           base seed for every cell's trials
//   --out=PATH         where to write the JSON report; default "auto" picks
//                      BENCH_perf.json (full) / BENCH_perf_quick.json
//                      (quick) so a quick run can never clobber the
//                      committed full baseline; --out= (empty) skips writing
//   --validate=PATH    parse + schema-validate an existing report and exit
//   --baseline=PATH    gate mode: run the suite, compare against the report
//                      at PATH, and exit non-zero on any identity drift or
//                      rounds/sec regression beyond --tolerance. With
//                      --out=auto, gate mode writes nothing (a gate run
//                      must never clobber the committed baseline).
//   --tolerance=F      allowed fractional rounds/sec regression in gate
//                      mode (default 0.30)
//   --gate-reps=N      gate mode runs the suite N times (default 3) and
//                      gates each cell's best rounds/sec: timing noise is
//                      one-sided (interference only slows a run down), so
//                      best-of-N is a stable estimate of the machine's
//                      true rate where a single shot would be flaky
#include <iostream>
#include <vector>

#include "perf/perf_suite.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace fnr;
  try {
    Cli cli(argc, argv);
    perf::PerfConfig config;
    config.quick = cli.get_flag("quick");
    const auto trials = cli.get_int("trials", 0);
    FNR_CHECK_MSG(trials >= 0 && trials <= 100'000'000,
                  "--trials must be in [0, 1e8], got " << trials);
    config.trials = static_cast<std::uint64_t>(trials);
    const auto threads = cli.get_int("threads", 0);
    FNR_CHECK_MSG(threads >= 0 && threads <= 4096,
                  "--threads must be in [0, 4096], got " << threads);
    config.threads = static_cast<unsigned>(threads);
    const auto seed = cli.get_int("seed", 7);
    FNR_CHECK_MSG(seed >= 0, "--seed must be non-negative, got " << seed);
    config.seed = static_cast<std::uint64_t>(seed);
    std::string out = cli.get_string("out", "auto");
    const std::string validate = cli.get_string("validate", "");
    const std::string baseline = cli.get_string("baseline", "");
    const double tolerance = cli.get_double("tolerance", 0.30);
    FNR_CHECK_MSG(tolerance >= 0.0 && tolerance < 1.0,
                  "--tolerance must be in [0, 1), got " << tolerance);
    const auto gate_reps = cli.get_int("gate-reps", 3);
    FNR_CHECK_MSG(gate_reps >= 1 && gate_reps <= 100,
                  "--gate-reps must be in [1, 100], got " << gate_reps);
    if (out == "auto") {
      // Gate runs write nothing: the committed baseline only changes via a
      // deliberate refresh (an explicit --out), never as a gate side effect.
      out = !baseline.empty()
                ? ""
                : (config.quick ? "BENCH_perf_quick.json" : "BENCH_perf.json");
    }
    cli.reject_unknown();

    if (!validate.empty()) {
      const auto report = perf::read_report_file(validate);
      perf::validate_report(report);
      std::cout << "ok: " << validate << " conforms to "
                << perf::schema_tag() << " (" << report.cells.size()
                << " cells)\n";
      return 0;
    }

    // Gate mode measures best-of-N; plain runs measure once (a committed
    // baseline should be a real single-run snapshot, not a composite).
    const std::size_t reps =
        baseline.empty() ? 1 : static_cast<std::size_t>(gate_reps);
    std::vector<perf::PerfReport> runs;
    runs.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r)
      runs.push_back(perf::run_perf_suite(config));
    const auto report = reps == 1 ? runs.front() : perf::best_of(runs);
    perf::validate_report(report);

    std::cout << "## Perf suite (" << report.schema << ", "
              << (report.quick ? "quick" : "full") << " mode, "
              << report.threads << " threads"
              << (reps > 1 ? ", best of " + std::to_string(reps) : "")
              << ")\n\n";
    Table table({"strategy", "topology", "n", "trials", "total rounds",
                 "success", "seconds", "rounds/s", "trials/s"});
    for (const auto& cell : report.cells) {
      table.add_row({cell.strategy, cell.topology, std::to_string(cell.n),
                     std::to_string(cell.trials),
                     std::to_string(cell.total_rounds),
                     format_double(cell.success_rate, 4),
                     format_double(cell.seconds, 6),
                     format_double(cell.rounds_per_sec, 2),
                     format_double(cell.trials_per_sec, 2)});
    }
    table.print(std::cout);
    std::cout << "\n";

    if (!out.empty()) {
      perf::write_report_file(report, out);
      std::cout << "wrote " << out << "\n";
    }

    if (!baseline.empty()) {
      const auto base = perf::read_report_file(baseline);
      perf::validate_report(base);
      const auto gate = perf::gate_against_baseline(base, report, tolerance);
      if (!gate.ok()) {
        std::cerr << "perf gate FAILED against " << baseline << ":\n";
        for (const auto& line : gate.failures)
          std::cerr << "  " << line << "\n";
        return 1;
      }
      std::cout << "perf gate ok against " << baseline << " ("
                << report.cells.size() << " cells, tolerance "
                << fnr::format_double(tolerance, 2) << ")\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perf_suite: " << error.what() << "\n";
    return 1;
  }
}
