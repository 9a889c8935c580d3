// E5 — Theorem 2: whiteboard-free rendezvous under tight naming.
//
// Paper claim: with tight naming (n' = O(n)) and known δ, rendezvous without
// whiteboards completes in O(t' + (n/√δ)·log²n) rounds w.h.p. — sublinear in
// Δ once δ = ω(n^{2/3}·log^{4/3} n).
//
// Two measurements per size:
//  * end-to-end — the full algorithm. In practice the agents almost always
//    collide while a is still constructing T^a, long before the phase
//    schedule starts at t' (the paper's bound is an upper bound; this is
//    the honest full-protocol number).
//  * phase schedule (oracle ablation) — Construct is replaced by an oracle
//    two-hop map and the synchronized start is moved to round 0, isolating
//    the block-phase mechanism whose (n/√δ)·log²n cost is Theorem 2's
//    distinctive term. Its fitted exponent is the shape under test.
#include "bench_support.hpp"

#include "core/no_whiteboard.hpp"

using namespace fnr;

int run_bench(int argc, char** argv) {
  const auto config = bench::BenchConfig::from_cli(argc, argv);
  const auto runner = config.trial_runner();
  bench::print_header(
      "E5 — Theorem 2: whiteboard-free rendezvous (tight naming, "
      "delta ~ n^0.8)",
      "Expected shape: the oracle-ablated phase schedule tracks "
      "C*(n/sqrt(delta))*ln^2 n (fitted exponent matching the bound's); "
      "end-to-end runs finish even earlier (collisions during Construct); "
      "zero whiteboard traffic everywhere.");
  bench::print_runner_info(runner);

  const auto params = core::Params::practical();

  // --- Part 1: the full algorithm, end to end -----------------------------
  {
    Table table({"n", "delta", "t'", "end-to-end(med)", "before t'",
                 "wb writes", "fail"});
    for (const auto n : config.sizes({256, 512, 1024, 2048})) {
      const auto g = bench::dense_family(n, 0.8, 700 + n);
      const double delta = static_cast<double>(g.min_degree());
      const auto schedule =
          core::NoWbSchedule::make(n, g.id_bound(), delta, params);
      const std::uint64_t base_seed = 700 + n;
      const auto reports = runner.run_map(
          config.reps, base_seed, [&](std::uint64_t, std::uint64_t seed) {
            return bench::run_once(g, core::Strategy::NoWhiteboard, seed);
          });
      std::uint64_t before_t = 0, wb_writes = 0;
      for (const auto& report : reports) {
        before_t += report.run.met &&
                    report.run.meeting_round < schedule.t_start;
        wb_writes += report.run.metrics.whiteboard_writes;
      }
      const auto end_to_end = bench::collect(reports, base_seed);
      bench::emit_aggregate(config, "e5_end_to_end_n" + std::to_string(n),
                            end_to_end.aggregate);
      table.add_row(RowBuilder()
                        .add(std::uint64_t{n})
                        .add(delta, 0)
                        .add(std::uint64_t{schedule.t_start})
                        .add(end_to_end.rounds.median, 0)
                        .add(std::to_string(before_t) + "/" +
                             std::to_string(config.reps))
                        .add(wb_writes)
                        .add(end_to_end.failures)
                        .build());
    }
    table.print(std::cout);
  }

  // --- Part 2: the phase schedule in isolation (oracle ablation) ----------
  // Fixed δ with growing n puts the meeting many ID-blocks deep, which is
  // the regime Theorem 2's n/√δ·log²n term describes.
  {
    Table table({"n", "delta", "blocks", "phase sched(med)", "bound",
                 "sched/bound", "fail"});
    std::vector<double> ns, sched_rounds, bounds;
    auto run_ablation = [&](std::size_t n, std::size_t out_degree,
                            bool record_fit) {
      Rng grng(700 + n, 911);
      const auto g = graph::make_near_regular(n, out_degree, grng);
      const double delta = static_cast<double>(g.min_degree());
      const auto schedule =
          core::NoWbSchedule::make(n, g.id_bound(), delta, params);
      // The meeting lands in the first ID-block holding a common Φ vertex —
      // a geometric-ish position with large variance; extra reps steady the
      // median.
      const auto phase_sched = bench::repeat(
          runner, 6 * config.reps, 1700 + n,
          [&](std::uint64_t, std::uint64_t seed) {
            Rng prng(seed, 3);
            const auto placement = sim::random_adjacent_placement(g, prng);
            Rng agent_seed(seed);
            core::NoWhiteboardAgentA agent_a(
                params, delta, agent_seed.split(),
                core::NoWbOracle::from_graph(g, placement.a_start));
            core::NoWhiteboardAgentB agent_b(params, delta,
                                             agent_seed.split(),
                                             /*synchronized_start=*/false);
            sim::Scheduler scheduler(g, sim::Model::no_whiteboards());
            return scheduler.run(agent_a, agent_b, placement,
                                 4 * schedule.total_rounds() + 1024);
          });
      bench::emit_aggregate(config,
                            "e5_phase_sched_n" + std::to_string(n) + "_d" +
                                std::to_string(g.min_degree()),
                            phase_sched.aggregate);
      const double bound = core::theorem2_bound(n, delta);
      table.add_row(RowBuilder()
                        .add(std::uint64_t{n})
                        .add(delta, 0)
                        .add(std::uint64_t{schedule.num_blocks})
                        .add(phase_sched.rounds.median, 0)
                        .add(bound, 0)
                        .add(phase_sched.rounds.median / bound, 2)
                        .add(phase_sched.failures)
                        .build());
      if (record_fit && phase_sched.rounds.count > 0) {
        ns.push_back(static_cast<double>(n));
        sched_rounds.push_back(phase_sched.rounds.median);
        bounds.push_back(core::theorem2_bound(n, delta));
      }
    };
    // n sweep at fixed δ ≈ 512 (the shape fit), then a δ sweep at fixed n
    // (the 1/√δ dependence).
    for (const auto n : config.sizes({4096, 8192, 16384, 32768}))
      run_ablation(n, 256, /*record_fit=*/true);
    for (const std::size_t out : {64, 1024})
      run_ablation(8192, out, /*record_fit=*/false);
    table.print(std::cout);
    bench::print_fit("phase schedule (oracle ablation, fixed delta)", ns,
                     sched_rounds);
    bench::print_fit("Theorem 2 bound over the same sweep", ns, bounds);
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
