// fnrd-swarm: a pinned k-agent-plus-faults spec served by an in-process
// service::Daemon at its default options. One client connection SUBMITs,
// STREAMs every cell frame and asks for the REPORT; a second connection
// polls STATUS while the campaign runs, every 100 ms as `fnrc wait` does.
// The only workload that exercises service/net, the fault sites, occupancy
// meeting detection and k >= 3 scenario runs.
#include <cerrno>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "probes.hpp"
#include "scenario/scenario.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace fc = fnr::campaign;
namespace fs = fnr::sweep;
namespace svc = fnr::service;

namespace {

constexpr const char* kCampaign = "fnrd-swarm";
constexpr int kTimeoutMs = 60'000;
/// The STATUS poll interval of the repository's own client (`fnrc wait`).
constexpr std::chrono::milliseconds kStatusThink{100};

/// Crash cells stay at k <= 12: run_scenario keeps every crash-revived
/// agent until the run ends, so large-k crash cells grow without bound
/// (see perfbench/NOTES.md).
std::string swarm_spec(const PassOptions& options) {
  const std::string seeds = std::to_string(options.seed) + ", " +
                            std::to_string(options.seed + 1);
  return std::string("name       = ") + kCampaign + "\n" +
         "trials     = " + (options.smoke ? "1" : "8") + "\n" +
         "programs   = whiteboard, random-walk, explore-rally\n"
         "scenarios  = swarm-quorum, swarm-fraction, trio-delayed\n"
         "topologies = near-regular:deg=16, torus, hypercube\n" +
         "sizes      = " + (options.smoke ? "64" : "1024") + "\n" +
         "seeds      = " + seeds + "\n" +
         "faults     = none, crash?rate=0.002&downtime=4, wb-drop?rate=0.2, "
         "churn?rate=0.05\n";
}

/// Blocking client over the net layer's framing, timed from here: every
/// FrameReader call counts toward net.decode_s, every byte read toward
/// net.bytes.
class WireClient {
 public:
  WireClient(const std::string& socket_path, Tracer& tracer)
      : fd_(fnr::net::connect_unix(socket_path)), tracer_(tracer) {}

  void send(const std::string& payload) {
    const std::string frame = fnr::net::encode_frame(payload);
    std::size_t offset = 0;
    while (offset < frame.size()) {
      const ssize_t n = ::send(fd_.get(), frame.data() + offset,
                               frame.size() - offset, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      FNR_CHECK_MSG(n > 0, "send to fnrd failed: " << std::strerror(errno));
      offset += static_cast<std::size_t>(n);
    }
  }

  std::string recv() {
    std::string payload;
    for (;;) {
      if (tracer_.time("net.decode_s", [&] { return reader_.next(&payload); }))
        return payload;
      pollfd ready{fd_.get(), POLLIN, 0};
      const int polled = ::poll(&ready, 1, kTimeoutMs);
      if (polled < 0 && errno == EINTR) continue;
      FNR_CHECK_MSG(polled > 0, "fnrd reply timed out");
      char buffer[1 << 16];
      const ssize_t got = ::read(fd_.get(), buffer, sizeof(buffer));
      if (got < 0 && errno == EINTR) continue;
      FNR_CHECK_MSG(got > 0, "fnrd closed the connection");
      tracer_.add("net.bytes", static_cast<double>(got));
      tracer_.time("net.decode_s", [&] {
        reader_.feed(buffer, static_cast<std::size_t>(got));
      });
    }
  }

  /// Sends `request` and returns the reply (one frame each way).
  std::string call(const svc::Request& request) {
    send(svc::serialize_request(request));
    return recv();
  }

 private:
  fnr::net::OwnedFd fd_;
  fnr::net::FrameReader reader_;
  Tracer& tracer_;
};

bool has_type(const std::string& payload, const std::string& type) {
  return payload.rfind("{\"type\":\"" + type + "\"", 0) == 0;
}

svc::Request request(svc::Verb verb, const std::string& spec_text = {}) {
  svc::Request r;
  r.verb = verb;
  r.campaign = kCampaign;
  r.spec_text = spec_text;
  return r;
}

/// The daemon on its own thread; stopped and joined on every exit path.
class DaemonHost {
 public:
  explicit DaemonHost(svc::DaemonOptions options)
      : daemon_(std::move(options)), thread_([this] {
          try {
            daemon_.run();
          } catch (const std::exception& e) {
            std::lock_guard lock(mutex_);
            error_ = e.what();
          }
        }) {}
  ~DaemonHost() {
    daemon_.request_stop();
    thread_.join();
  }
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  /// Polls until the socket accepts a connection.
  void wait_listening(const std::string& socket_path) {
    const auto start = Clock::now();
    for (;;) {
      try {
        (void)fnr::net::connect_unix(socket_path);
        return;
      } catch (const fnr::CheckError&) {
        std::lock_guard lock(mutex_);
        FNR_CHECK_MSG(seconds_since(start) < 10.0,
                      "fnrd did not start listening: " << error_);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

 private:
  svc::Daemon daemon_;
  std::mutex mutex_;
  std::string error_;  ///< guarded by mutex_; set when run() throws
  std::thread thread_;
};

/// An in-process Campaign::run of the spec and its merged report.
struct InProcess {
  fc::CampaignRun run;
  std::string report;
  double seconds = 0;
};

InProcess run_in_process(const fs::SweepSpec& spec, unsigned threads) {
  fc::CampaignOptions copts;
  copts.threads = threads;
  fc::Campaign campaign(spec, copts);
  InProcess out;
  const auto start = Clock::now();
  out.run = campaign.run();
  out.report = fc::to_json(spec, out.run.cells);
  out.seconds = seconds_since(start);
  return out;
}

}  // namespace

PassResult run_fnrd_swarm(const PassOptions& options) {
  PassResult result;
  Tracer tracer(options.traced);
  const std::string socket_path = options.workdir + "/fnrd.sock";

  // --- set-up: spec parse, grid expansion, daemon start-to-listening --------
  const std::string text = swarm_spec(options);
  const SpecSetup setup = parse_and_expand(text);
  const fs::SweepSpec& spec = setup.spec;
  const auto& grid = setup.grid;
  svc::DaemonOptions dopts;
  dopts.socket_path = socket_path;
  dopts.workdir = options.workdir;
  // Start-to-listening, several times for a steadier median; the daemon
  // of the last round serves the run.
  std::vector<double> start_s;
  std::optional<DaemonHost> daemon;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    const auto daemon_start = Clock::now();
    daemon.emplace(dopts);
    daemon->wait_listening(socket_path);
    start_s.push_back(seconds_since(daemon_start));
  }
  result.e2e["setup_s"] = setup.parse_s + setup.expand_s + median_of(start_s);

  // --- the measured run: SUBMIT → STREAM → REPORT ---------------------------
  WireClient client(socket_path, tracer);
  WireClient status_client(socket_path, tracer);
  std::uint64_t cells = 0, frames = 0;
  double frame_bytes = 0;
  std::string report;
  const auto start = Clock::now();
  const std::string submitted = client.call(request(svc::Verb::Submit, text));
  const double submit_s = seconds_since(start);
  result.check(has_type(submitted, "submitted"), "SUBMIT: " + submitted);
  {
    Observer observer(
        [&] {
          const std::string status =
              status_client.call(request(svc::Verb::Status));
          FNR_CHECK_MSG(has_type(status, "status"), "STATUS: " << status);
        },
        kStatusThink);
    client.send(svc::serialize_request(request(svc::Verb::Stream)));
    for (;;) {
      const std::string frame = client.recv();
      ++frames;
      frame_bytes += static_cast<double>(frame.size());
      if (has_type(frame, "cell")) {
        if (++cells == 1) result.e2e["first_frame_s"] = seconds_since(start);
        result.check(frame.find(",\"ok\":true,") != std::string::npos,
                     "cell frame not ok: " + frame.substr(0, 200));
        continue;
      }
      result.check(frame == svc::end_response(kCampaign, "done"),
                   "stream ended with: " + frame);
      break;
    }
    const auto report_start = Clock::now();
    report = client.call(request(svc::Verb::Report));
    std::vector<double> report_s{seconds_since(report_start)};
    result.e2e["run_s"] = seconds_since(start);
    result.status_rtts_ms = observer.stop();
    // REPORT again, for a steadier median: the daemon serves every
    // REPORT of a finished campaign from memory.
    while (report_s.size() < kReportRepeats) {
      const auto again = Clock::now();
      result.check(client.call(request(svc::Verb::Report)) == report,
                   "a repeated REPORT differs from the first");
      report_s.push_back(seconds_since(again));
    }
    result.e2e["report_rtt_ms"] = median_of(report_s) * 1e3;
  }
  const double run_s = result.e2e["run_s"];
  result.e2e["peak_rss_mb"] = peak_rss_mb();

  // --- output checks --------------------------------------------------------
  result.check(cells == grid.size(), "streamed " + std::to_string(cells) +
                                         " cells, expected " +
                                         std::to_string(grid.size()));
  result.check(has_type(report, "report"), "REPORT: " + report.substr(0, 200));
  result.digest = digest(report);
  double trials = 0;
  for (const auto& cell : grid) trials += static_cast<double>(cell.trials);
  result.counts["trials"] = trials;

  // Agent-steps need the cells' round totals, which the wire does not
  // carry; the in-process run that checks the REPORT supplies them, and
  // run.py applies them to every pass of the same seed.
  if (options.reference || options.traced) {
    const InProcess ref = run_in_process(spec, 0);
    result.check(svc::report_response(kCampaign, ref.report) == report,
                 "REPORT differs from an in-process Campaign::run");
    result.layers["service.overhead_s"] = run_s - ref.seconds;
    double steps = 0;
    for (const auto& r : ref.run.cells) {
      const auto k = r.cell.k.value_or(
          fnr::scenario::find_scenario(r.cell.scenario).num_agents);
      steps += static_cast<double>(r.total_rounds * k);
    }
    result.counts["agent_steps"] = steps;
    if (options.traced) {
      for (const auto& [name, value] : tracer.values())
        result.layers[name] = value;
      result.layers["sweep.parse_s"] = setup.parse_s;
      result.layers["sweep.expand_s"] = setup.expand_s;
      result.layers["service.submit_rtt_ms"] = submit_s * 1e3;
      result.layers["service.frames"] = static_cast<double>(frames);
      result.layers["service.frame_bytes"] = frame_bytes;
      // The campaign layer's numbers: the daemon's own checkpoint, and the
      // byte-identical in-process run's cells and cache counters.
      probe_campaign(spec, ref.run, run_s,
                     options.workdir + "/" + kCampaign + ".jsonl",
                     options.workdir, result);
      const InProcess t1 = run_in_process(spec, 1);
      result.layers["runner.speedup_vs_1t"] = t1.seconds / ref.seconds;
      result.check(t1.report == ref.report,
                   "--threads=1 report differs from the default-flags report");
    }
  }
  return result;
}

}  // namespace perfbench
