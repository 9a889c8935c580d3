#include "runner/trial_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace fnr::runner {

std::uint64_t trial_seed(std::uint64_t base_seed,
                         std::uint64_t trial) noexcept {
  // Decorrelate the per-trial streams the same way Rng decorrelates
  // (seed, stream) pairs, then run one splitmix64 step for avalanche.
  std::uint64_t state = base_seed ^ (0x6a09e667f3bcc909ULL * (trial + 1));
  const std::uint64_t mixed = splitmix64(state);
  return mixed != 0 ? mixed : 1;
}

TrialOutcome TrialOutcome::from_run(std::uint64_t trial, std::uint64_t seed,
                                    const sim::RunResult& run,
                                    std::uint64_t marks) {
  TrialOutcome out;
  out.trial = trial;
  out.seed = seed;
  out.met = run.met;
  out.meeting_round = run.meeting_round;
  // The classic two-agent runner meets exactly in pairs; scenario runs
  // carry the scheduler's actual co-location size (see scenario::to_outcome).
  out.gathered_count = run.met ? 2 : 0;
  out.rounds = run.metrics.rounds;
  out.moves_a = run.metrics.moves_of(sim::AgentName::A);
  out.moves_b = run.metrics.moves_of(sim::AgentName::B);
  out.whiteboard_marks = marks;
  return out;
}

void TrialAccumulator::add(TrialOutcome outcome) {
  outcomes_.push_back(outcome);
}

void TrialAccumulator::merge(const TrialAccumulator& other) {
  outcomes_.insert(outcomes_.end(), other.outcomes_.begin(),
                   other.outcomes_.end());
}

std::vector<TrialOutcome> TrialAccumulator::sorted_outcomes() const {
  std::vector<TrialOutcome> sorted = outcomes_;
  std::sort(sorted.begin(), sorted.end(),
            [](const TrialOutcome& a, const TrialOutcome& b) {
              return a.trial != b.trial ? a.trial < b.trial : a.seed < b.seed;
            });
  return sorted;
}

TrialAggregate TrialAccumulator::aggregate() const {
  const auto sorted = sorted_outcomes();
  TrialAggregate agg;
  agg.trials = sorted.size();
  if (sorted.empty()) return agg;

  std::vector<double> rounds;
  rounds.reserve(sorted.size());
  double moves_a = 0.0, moves_b = 0.0, gathered = 0.0;
  for (const auto& out : sorted) {
    if (out.met) {
      ++agg.successes;
      rounds.push_back(static_cast<double>(out.meeting_round));
      gathered += static_cast<double>(out.gathered_count);
    } else {
      ++agg.failures;
    }
    agg.total_marks += out.whiteboard_marks;
    moves_a += static_cast<double>(out.moves_a);
    moves_b += static_cast<double>(out.moves_b);
    agg.fault_totals.crashes += out.faults.crashes;
    agg.fault_totals.restarts += out.faults.restarts;
    agg.fault_totals.writes_dropped += out.faults.writes_dropped;
    agg.fault_totals.wipes += out.faults.wipes;
    agg.fault_totals.stale_reads += out.faults.stale_reads;
    agg.fault_totals.moves_blocked += out.faults.moves_blocked;
  }
  const auto n = static_cast<double>(agg.trials);
  agg.success_rate = static_cast<double>(agg.successes) / n;
  agg.rounds = summarize(std::move(rounds));
  agg.mean_gathered =
      agg.successes > 0 ? gathered / static_cast<double>(agg.successes) : 0.0;
  agg.mean_marks = static_cast<double>(agg.total_marks) / n;
  agg.mean_moves_a = moves_a / n;
  agg.mean_moves_b = moves_b / n;
  return agg;
}

std::string TrialAggregate::csv_header() {
  return "label,trials,successes,failures,success_rate,rounds_mean,"
         "rounds_median,rounds_p90,rounds_p95,rounds_min,rounds_max,"
         "mean_gathered,total_marks,mean_marks,mean_moves_a,mean_moves_b,"
         "fault_crashes,fault_restarts,fault_writes_dropped,fault_wipes,"
         "fault_stale_reads,fault_moves_blocked";
}

namespace {

/// RFC-4180 field quoting. Labels carry `?key=value&...` program suffixes
/// and `|fault=<key>` cell suffixes, so a comma (or quote) in a parameter
/// value would silently shift every later column of the row.
std::string csv_quote(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

}  // namespace

std::string TrialAggregate::to_csv_row(const std::string& label) const {
  std::ostringstream os;
  os << csv_quote(label) << ',' << trials << ',' << successes << ',' << failures << ','
     << format_double(success_rate, 4) << ',' << format_double(rounds.mean, 2)
     << ',' << format_double(rounds.median, 2) << ','
     << format_double(rounds.p90, 2) << ',' << format_double(rounds.p95, 2)
     << ',' << format_double(rounds.min, 2)
     << ',' << format_double(rounds.max, 2) << ','
     << format_double(mean_gathered, 2) << ',' << total_marks << ','
     << format_double(mean_marks, 2) << ',' << format_double(mean_moves_a, 2)
     << ',' << format_double(mean_moves_b, 2) << ',' << fault_totals.crashes
     << ',' << fault_totals.restarts << ',' << fault_totals.writes_dropped
     << ',' << fault_totals.wipes << ',' << fault_totals.stale_reads << ','
     << fault_totals.moves_blocked;
  return os.str();
}

namespace {

// The aggregate JSON's two nested blocks, in emission order: to_json and
// from_json both walk these tables.
constexpr std::pair<const char*, double Summary::*> kRoundStats[] = {
    {"mean", &Summary::mean}, {"median", &Summary::median},
    {"p90", &Summary::p90},   {"p95", &Summary::p95},
    {"min", &Summary::min},   {"max", &Summary::max}};
using fault::FaultStats;
constexpr std::pair<const char*, std::uint64_t FaultStats::*> kFaultCounters[] =
    {{"crashes", &FaultStats::crashes},
     {"restarts", &FaultStats::restarts},
     {"writes_dropped", &FaultStats::writes_dropped},
     {"wipes", &FaultStats::wipes},
     {"stale_reads", &FaultStats::stale_reads},
     {"moves_blocked", &FaultStats::moves_blocked}};

/// The member of `block` that `table` maps `name` to.
template <typename T, typename Block, std::size_t N>
T& member(Block& block, const std::pair<const char*, T Block::*> (&table)[N],
          const std::string& name) {
  for (const auto& [key, field] : table)
    if (name == key) return block.*field;
  FNR_REQUIRE(false, "trial aggregate: unknown field '" << name << "'");
  throw std::logic_error("unreachable");
}

}  // namespace

std::string TrialAggregate::to_json() const {
  JsonWriter json;
  json.begin_object()
      .key("trials").uint64(trials)
      .key("successes").uint64(successes)
      .key("failures").uint64(failures)
      .key("success_rate").number(success_rate, 4)
      .key("rounds").begin_object();
  for (const auto& [name, stat] : kRoundStats)
    json.key(name).number(rounds.*stat, 2);
  json.end_object()
      .key("mean_gathered").number(mean_gathered, 2)
      .key("total_marks").uint64(total_marks)
      .key("mean_marks").number(mean_marks, 2)
      .key("mean_moves_a").number(mean_moves_a, 2)
      .key("mean_moves_b").number(mean_moves_b, 2);
  // Emitted only when any injection actually fired: fault-free aggregates
  // keep the exact bytes they had before the fault layer existed.
  if (fault_totals.any()) {
    json.key("faults").begin_object();
    for (const auto& [name, counter] : kFaultCounters)
      json.key(name).uint64(fault_totals.*counter);
    json.end_object();
  }
  return json.end_object().str();
}

TrialAggregate TrialAggregate::from_json(const std::string& json) {
  JsonCursor cursor(json, "trial aggregate");
  TrialAggregate agg;
  cursor.object([&](const std::string& field) {
    if (field == "trials") agg.trials = cursor.parse_uint64();
    else if (field == "successes") agg.successes = cursor.parse_uint64();
    else if (field == "failures") agg.failures = cursor.parse_uint64();
    else if (field == "success_rate") agg.success_rate = cursor.parse_number();
    else if (field == "mean_gathered")
      agg.mean_gathered = cursor.parse_number();
    else if (field == "total_marks") agg.total_marks = cursor.parse_uint64();
    else if (field == "mean_marks") agg.mean_marks = cursor.parse_number();
    else if (field == "mean_moves_a") agg.mean_moves_a = cursor.parse_number();
    else if (field == "mean_moves_b") agg.mean_moves_b = cursor.parse_number();
    else if (field == "rounds")
      cursor.object([&](const std::string& stat) {
        member(agg.rounds, kRoundStats, stat) = cursor.parse_number();
      });
    else if (field == "faults")
      cursor.object([&](const std::string& counter) {
        member(agg.fault_totals, kFaultCounters, counter) =
            cursor.parse_uint64();
      });
    else
      FNR_REQUIRE(false, "trial aggregate: unknown field '" << field << "'");
  });
  cursor.expect_end();
  return agg;
}

TrialRunner::TrialRunner(RunnerOptions options) {
  threads_ = options.threads != 0 ? options.threads
                                  : std::max(1u,
                                             std::thread::hardware_concurrency());
}

unsigned TrialRunner::planned_workers(std::uint64_t n_trials) const noexcept {
  return static_cast<unsigned>(
      std::min<std::uint64_t>(threads_, std::max<std::uint64_t>(n_trials, 1)));
}

void TrialRunner::dispatch(
    std::uint64_t n_trials,
    const std::function<void(unsigned, std::uint64_t)>& body) const {
  if (n_trials == 0) return;

  const unsigned workers = planned_workers(n_trials);

  std::atomic<std::uint64_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&](unsigned worker_index) {
    for (;;) {
      const std::uint64_t trial = next.fetch_add(1, std::memory_order_relaxed);
      if (trial >= n_trials) return;
      try {
        body(worker_index, trial);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain the remaining trials so all workers exit promptly.
        next.store(n_trials, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker, t);
    for (auto& thread : pool) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

TrialAccumulator TrialRunner::run(
    std::uint64_t n_trials, std::uint64_t base_seed,
    const std::function<TrialOutcome(std::uint64_t, std::uint64_t)>& fn)
    const {
  // The scratch-free run is the scratch run with an empty scratch —
  // one copy of the slot-staging/accumulation contract.
  struct NoScratch {};
  return run_with_scratch<NoScratch>(
      n_trials, base_seed,
      [&fn](NoScratch&, std::uint64_t trial, std::uint64_t seed) {
        return fn(trial, seed);
      });
}

}  // namespace fnr::runner
