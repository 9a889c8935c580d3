// E11 — resource accounting (§2.1 claims).
//
// Paper claims: the algorithms use O(n log n) bits of agent memory and
// O(log n) bits per whiteboard. The simulator tracks a per-agent
// memory-word proxy (64-bit words across all live containers) and exact
// whiteboard usage; this bench reports both against the claimed budgets.
#include "bench_support.hpp"

using namespace fnr;

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E11 — resource usage (near-regular, delta ~ n^0.78)",
      "Expected shape: peak agent memory grows ~linearly in n words "
      "(= O(n log n) bits); whiteboards hold one vertex ID each "
      "(<= 64 bits vs the O(log n) claim); agent b stays O(1).");
  bench::print_runner_info(runner);

  Table table({"n", "strategy", "peak a (words)", "words/n", "peak b (words)",
               "boards used", "writes", "bits/board"});

  for (const auto n : config.sizes({256, 512, 1024, 2048})) {
    const auto g = bench::dense_family(n, 0.78, 1100 + n);
    for (const auto strategy :
         {core::Strategy::Whiteboard, core::Strategy::NoWhiteboard}) {
      const auto reports = runner.run_map(
          config.reps, 1100 + n, [&](std::uint64_t, std::uint64_t seed) {
            return bench::run_once(g, strategy, seed);
          });
      std::vector<double> peak_a, peak_b, boards, writes;
      for (const auto& report : reports) {
        if (!report.run.met) continue;
        peak_a.push_back(static_cast<double>(
            report.run.metrics.peak_memory_words[0]));
        peak_b.push_back(static_cast<double>(
            report.run.metrics.peak_memory_words[1]));
        boards.push_back(
            static_cast<double>(report.run.metrics.whiteboards_used));
        writes.push_back(
            static_cast<double>(report.run.metrics.whiteboard_writes));
      }
      bench::emit_aggregate(config,
                            std::string("e11_n") + std::to_string(n) + "_" +
                                core::to_string(strategy),
                            bench::collect(reports, 1100 + n).aggregate);
      const double a_med = summarize(peak_a).median;
      table.add_row(RowBuilder()
                        .add(std::uint64_t{n})
                        .add(core::to_string(strategy))
                        .add(a_med, 0)
                        .add(a_med / static_cast<double>(n), 2)
                        .add(summarize(peak_b).median, 0)
                        .add(summarize(boards).median, 0)
                        .add(summarize(writes).median, 0)
                        .add(strategy == core::Strategy::Whiteboard ? "64"
                                                                    : "0")
                        .build());
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
