// E9 — Theorem 6: the Ω(n) lower bound for deterministic algorithms.
//
// Paper claim: an adaptive adversary (Lemma 9) strands any deterministic
// agent away from >= 13n/32 of its start's neighbors within n/32 rounds;
// gluing two such transcripts yields a Θ(n)-degree distance-1 instance on
// which the deterministic pair cannot meet before round n/32.
//
// The bench executes the construction against three concrete deterministic
// strategies and reports the Lemma 9 stranding ratio plus the measured
// meeting round on the glued instance against the n/32 threshold.
#include "bench_support.hpp"

#include "lower_bounds/adversary.hpp"

using namespace fnr;

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E9 — Theorem 6: adaptive adversary vs deterministic algorithms",
      "Expected shape: |W|/n >= 13/32 = 0.40625 for every strategy and n; "
      "on the glued instance the pair's meeting round is >= n/32.");
  bench::print_runner_info(runner);
  bench::note_no_aggregates(config);

  struct Strategy {
    lower_bounds::DetAgentFactory factory;
    const char* name;
  };
  const Strategy strategies[] = {
      {&lower_bounds::make_lex_dfs, "lex-dfs"},
      {&lower_bounds::make_lex_sweep, "lex-sweep"},
      {&lower_bounds::make_rotor_walk, "rotor-walk"},
  };

  Table table({"n", "strategy", "|W_a|/n", "|W_b|/n", "min degree",
               "meeting round", "n/32", "forced"});

  struct Row {
    double w_a_ratio = 0, w_b_ratio = 0;
    std::uint64_t min_degree = 0;
    std::string meeting;
    bool forced = false;
  };

  for (const auto n : config.sizes({128, 256, 512, 1024})) {
    // The runs are deterministic (the seed is unused) — the trial runner
    // only parallelizes the three strategy rows across the pool.
    const auto rows = runner.run_map(
        std::size(strategies), 0, [&](std::uint64_t index, std::uint64_t) {
          const auto& strategy = strategies[index];
          const auto inst = lower_bounds::build_theorem6_instance(
              strategy.factory, strategy.factory, n);
          sim::Scheduler scheduler(inst.graph, sim::Model::full());
          lower_bounds::DetAgentAdapter agent_a(strategy.factory());
          lower_bounds::DetAgentAdapter agent_b(strategy.factory());
          const auto result =
              scheduler.run(agent_a, agent_b, inst.placement,
                            16 * inst.graph.num_vertices());
          Row row;
          row.w_a_ratio =
              static_cast<double>(inst.w_a) / static_cast<double>(n);
          row.w_b_ratio =
              static_cast<double>(inst.w_b) / static_cast<double>(n);
          row.min_degree = inst.graph.min_degree();
          row.meeting =
              result.met ? std::to_string(result.meeting_round) : "never";
          row.forced = !result.met || result.meeting_round >= n / 32;
          return row;
        });
    for (std::size_t i = 0; i < rows.size(); ++i) {
      table.add_row(RowBuilder()
                        .add(std::uint64_t{n})
                        .add(strategies[i].name)
                        .add(rows[i].w_a_ratio, 3)
                        .add(rows[i].w_b_ratio, 3)
                        .add(rows[i].min_degree)
                        .add(rows[i].meeting)
                        .add(std::uint64_t{n / 32})
                        .add(rows[i].forced ? "yes" : "NO")
                        .build());
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
