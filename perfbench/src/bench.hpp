// Shared plumbing for the benchmark's workload passes.
//
// One process runs one *pass* of one workload: set-up, one measured run,
// output checks, and — on a traced pass — per-layer probes. perfbench/run.py
// starts a fresh process per pass, so every pass starts cold and its peak
// RSS is its own, then reports medians over the passes of one run.
//
// Tracing lives only here, in the benchmark's own files: a traced pass
// times calls into each layer's public functions through Tracer; an
// untraced pass makes the same calls with the tracer off (one branch each).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What run.py asked this pass to do.
struct PassOptions {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;     ///< time layer calls and run the per-layer probes
  bool reference = false;  ///< also re-run the output in-process and compare
  bool smoke = false;      ///< tiny sizes (the benchmark's own tests)
  std::string workdir;     ///< scratch directory for checkpoints and sockets
};

/// Per-layer accumulator. Disabled on untraced passes.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Adds `value` to metric `name` (thread-safe; no-op when disabled).
  void add(const std::string& name, double value);

  /// Runs fn(); on a traced pass adds its wall time to metric `name`.
  template <typename Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    if (!enabled_) return fn();
    struct Stop {
      Tracer* tracer;
      const std::string& name;
      Clock::time_point start = Clock::now();
      ~Stop() { tracer->add(name, seconds_since(start)); }
    } stop{this, name};
    return fn();
  }

  [[nodiscard]] std::map<std::string, double> values() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::map<std::string, double> values_;
};

/// Everything one pass reports back to run.py.
struct PassResult {
  std::map<std::string, double> e2e;     ///< end-to-end metrics
  std::map<std::string, double> layers;  ///< per-layer metrics (traced)
  /// Work done by the measured run ("trials", "agent_steps" = Σ rounds × k);
  /// run.py divides them by run_s.
  std::map<std::string, double> counts;
  /// fnrd-swarm's STATUS round trips; run.py pools them over a run's passes.
  std::vector<double> status_rtts_ms;
  std::uint64_t attempted = 0;           ///< operations tried
  std::uint64_t failed = 0;              ///< operations that failed
  std::string digest;                    ///< digest of the pinned output
  std::vector<std::string> errors;       ///< one line per failed operation

  /// Counts one operation, failed when !ok (with `what` as its error).
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::string to_json() const;
};

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Latency samples of a closed-loop observer: `query` runs, the observer
/// waits `think` (or until stop()), and repeats. One thread.
class Observer {
 public:
  Observer(std::function<void()> query, std::chrono::microseconds think);
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Stops and joins the observer; returns the round-trip times in ms.
  /// Rethrows the first exception a query raised.
  std::vector<double> stop();

 private:
  std::function<void()> query_;
  std::chrono::microseconds think_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<double> samples_ms_;
  std::exception_ptr error_;
  std::thread thread_;
};

/// Replaces every `key = ...` line of spec text with `key = value`.
[[nodiscard]] std::string with_spec_line(const std::string& text,
                                         const std::string& key,
                                         const std::string& value);

PassResult run_large_n(const PassOptions& options);
PassResult run_paper_theorems(const PassOptions& options);
PassResult run_fnrd_swarm(const PassOptions& options);

}  // namespace perfbench
