// Parallel Monte-Carlo trial runner.
//
// Every probabilistic claim in the paper (Theorems 1-2, the δ-doubling
// variant, the lower bounds) is validated by repeated randomized trials;
// this subsystem executes those trials across a std::thread pool.
//
// Determinism contract: trial i always receives the seed
// trial_seed(base_seed, i), workers write their outcome into slot i of a
// pre-sized vector, and aggregation walks the slots in trial order — so the
// aggregate is bit-identical no matter how many threads ran the trials or
// how the OS interleaved them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fnr::runner {

/// Deterministic per-trial RNG stream: splits `base_seed` into independent
/// streams, one per trial index, via splitmix64 (never returns 0 so callers
/// may treat seeds as nonzero tokens).
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base_seed,
                                       std::uint64_t trial) noexcept;

/// One trial's outcome, as fed to the accumulator.
struct TrialOutcome {
  std::uint64_t trial = 0;  ///< trial index within the run
  std::uint64_t seed = 0;   ///< the split seed the trial ran with
  bool met = false;
  std::uint64_t meeting_round = 0;
  /// Agents co-located on the meeting vertex at the meeting round (0 when
  /// the trial did not meet; 2 for a classic pairwise rendezvous).
  std::uint64_t gathered_count = 0;
  std::uint64_t rounds = 0;  ///< rounds executed (== meeting_round when met)
  std::uint64_t moves_a = 0;
  std::uint64_t moves_b = 0;
  std::uint64_t whiteboard_marks = 0;  ///< b's writes (whiteboard strategies)
  /// Fault-injection counters for this trial (all zero on reliable runs).
  fault::FaultStats faults;

  /// Lifts a Scheduler RunResult into an outcome.
  [[nodiscard]] static TrialOutcome from_run(std::uint64_t trial,
                                             std::uint64_t seed,
                                             const sim::RunResult& run,
                                             std::uint64_t marks = 0);
};

/// Aggregate statistics over all trials of a run.
struct TrialAggregate {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  double success_rate = 0.0;
  /// Meeting rounds of successful trials.
  Summary rounds;
  /// Mean gathered_count over successful trials (0.0 when none met): the
  /// average co-location size at the meeting vertex — 2.0 for pairwise
  /// rendezvous, k for all-meet, and in (threshold, k] for quorum cells.
  double mean_gathered = 0.0;
  std::uint64_t total_marks = 0;
  double mean_marks = 0.0;
  double mean_moves_a = 0.0;
  double mean_moves_b = 0.0;
  /// Summed fault counters across the trials. All-zero for reliable runs —
  /// and to_json() then omits the "faults" block entirely, keeping
  /// fault-free JSON byte-identical to builds without the fault layer.
  fault::FaultStats fault_totals;

  /// CSV column names matching to_csv_row (leading `label` column).
  [[nodiscard]] static std::string csv_header();
  /// One CSV row; the label is RFC-4180-quoted when it contains a comma,
  /// quote, or line break (cell keys embed program parameter values).
  [[nodiscard]] std::string to_csv_row(const std::string& label) const;
  /// Single-object JSON (stable key order, machine-diffable).
  [[nodiscard]] std::string to_json() const;
  /// The reverse of to_json, except Summary::count, which the JSON does
  /// not record. Throws CheckError on malformed JSON or an unknown field.
  [[nodiscard]] static TrialAggregate from_json(const std::string& json);
};

/// Mergeable accumulator of trial outcomes.
///
/// merge() is associative and commutative at the multiset level, and
/// aggregate() canonicalizes by trial index before any floating-point
/// reduction — so (A ∪ B) ∪ C and A ∪ (B ∪ C) produce bit-identical
/// aggregates regardless of insertion order.
class TrialAccumulator {
 public:
  void add(TrialOutcome outcome);
  void merge(const TrialAccumulator& other);

  [[nodiscard]] std::size_t count() const noexcept {
    return outcomes_.size();
  }
  /// Outcomes sorted by trial index.
  [[nodiscard]] std::vector<TrialOutcome> sorted_outcomes() const;
  [[nodiscard]] TrialAggregate aggregate() const;

 private:
  std::vector<TrialOutcome> outcomes_;
};

struct RunnerOptions {
  /// 0 → std::thread::hardware_concurrency().
  unsigned threads = 0;
};

/// Executes N independent trials across a thread pool.
class TrialRunner {
 public:
  explicit TrialRunner(RunnerOptions options = {});

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Parallel map: runs fn(trial, trial_seed(base_seed, trial)) for each
  /// trial in [0, n_trials) and returns results in trial order. This is the
  /// primitive everything else is built on; use it when a bench needs a
  /// custom per-trial payload. Exceptions thrown by fn are rethrown (first
  /// one wins) after all workers join.
  template <typename Fn>
  [[nodiscard]] auto run_map(std::uint64_t n_trials, std::uint64_t base_seed,
                             Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn, std::uint64_t, std::uint64_t>> {
    using R = std::invoke_result_t<Fn, std::uint64_t, std::uint64_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs bits — concurrent slot writes "
                  "would race. Return char/int instead.");
    std::vector<R> results(n_trials);
    dispatch(n_trials, [&](unsigned /*worker*/, std::uint64_t trial) {
      results[trial] = fn(trial, trial_seed(base_seed, trial));
    });
    return results;
  }

  /// Runs trials whose fn yields a TrialOutcome (or anything convertible via
  /// TrialOutcome::from_run at the call site) and aggregates them.
  [[nodiscard]] TrialAccumulator run(
      std::uint64_t n_trials, std::uint64_t base_seed,
      const std::function<TrialOutcome(std::uint64_t trial,
                                       std::uint64_t seed)>& fn) const;

  /// Like run(), but each worker thread owns one `Scratch` (default-
  /// constructed lazily on the worker's first trial) passed by reference to
  /// every trial that worker executes: fn(scratch, trial, seed). Per-worker
  /// scratch is how trial loops stay allocation-free after warm-up (e.g. a
  /// sim::SchedulerScratch holding a warm arena) without sharing mutable
  /// state across threads. The determinism contract is unchanged — a trial's
  /// outcome must depend only on (trial, seed), never on scratch contents
  /// left behind by earlier trials, so aggregates stay bit-identical across
  /// thread counts.
  template <typename Scratch, typename Fn>
  [[nodiscard]] TrialAccumulator run_with_scratch(std::uint64_t n_trials,
                                                  std::uint64_t base_seed,
                                                  Fn&& fn) const {
    return run_span_with_scratch<Scratch>(0, n_trials, base_seed,
                                          std::forward<Fn>(fn));
  }

  /// Span variant of run_with_scratch: executes *global* trial indices
  /// [first_trial, first_trial + n_trials), each with the seed
  /// trial_seed(base_seed, global_trial) — exactly the seeds those trials
  /// would receive in a single full-range run. Campaign cells split into
  /// trial shards run each shard through this entry and merge the
  /// accumulators (TrialAccumulator::merge canonicalizes by trial index),
  /// so the merged aggregate is bit-identical to one unsharded run no
  /// matter where the span boundaries fall.
  template <typename Scratch, typename Fn>
  [[nodiscard]] TrialAccumulator run_span_with_scratch(
      std::uint64_t first_trial, std::uint64_t n_trials,
      std::uint64_t base_seed, Fn&& fn) const {
    // Cache-line-aligned slots: workers mutate their scratch every round
    // (e.g. whiteboard access counters), so adjacent slots must not share
    // a line and ping-pong between cores.
    struct alignas(64) Slot {
      std::optional<Scratch> scratch;
    };
    std::vector<TrialOutcome> slots(n_trials);
    std::vector<Slot> scratches(planned_workers(n_trials));
    dispatch(n_trials, [&](unsigned worker, std::uint64_t local) {
      auto& scratch = scratches[worker].scratch;
      if (!scratch.has_value()) scratch.emplace();
      const std::uint64_t trial = first_trial + local;
      const std::uint64_t seed = trial_seed(base_seed, trial);
      TrialOutcome out = fn(*scratch, trial, seed);
      out.trial = trial;
      out.seed = seed;
      slots[local] = out;
    });
    TrialAccumulator acc;
    for (auto& out : slots) acc.add(out);
    return acc;
  }

 private:
  /// Number of worker threads a run of `n_trials` will actually spawn.
  [[nodiscard]] unsigned planned_workers(std::uint64_t n_trials)
      const noexcept;

  /// Work-stealing-by-counter dispatch of body(worker, trial) over
  /// [0, n_trials); worker indices are dense in [0, planned_workers).
  void dispatch(std::uint64_t n_trials,
                const std::function<void(unsigned, std::uint64_t)>& body)
      const;

  unsigned threads_ = 1;
};

}  // namespace fnr::runner
