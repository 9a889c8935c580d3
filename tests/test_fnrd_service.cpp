// End-to-end service tests: an in-process fnrd Daemon on a temp Unix
// socket, driven through service::Connection exactly as fnrc drives the
// real binary. Covers concurrent campaigns, the replay-then-follow stream
// contract, mid-stream client disconnects, max_cells pause + RESUME, the
// report-equals-sweep-bytes determinism guarantee, and the hostile-input
// battery (invalid JSON requests, framing violations) that must never take
// the daemon down.
#include "service/daemon.hpp"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace fnr::service {
namespace {

constexpr const char* kServiceSpec = R"(
name       = svc
trials     = 2
programs   = whiteboard, random-walk
scenarios  = sync-pair
topologies = ring
sizes      = 16, 32
seeds      = 1
)";

/// One in-process daemon on a fresh workdir + socket, torn down cleanly.
class DaemonFixture {
 public:
  explicit DaemonFixture(const std::string& tag, unsigned workers = 2,
                         unsigned threads = 2)
      : workdir_(testing::TempDir() + "fnrd_" + tag), threads_(threads) {
    std::filesystem::remove_all(workdir_);
    std::filesystem::create_directories(workdir_);
    DaemonOptions options;
    options.socket_path = workdir_ + "/sock";
    options.workdir = workdir_;
    options.workers = workers;
    options.threads = threads_;
    daemon_ = std::make_unique<Daemon>(options);
    thread_ = std::thread([this] { daemon_->run(); });
  }

  ~DaemonFixture() {
    stop();
    std::filesystem::remove_all(workdir_);
  }

  void stop() {
    if (thread_.joinable()) {
      daemon_->request_stop();
      thread_.join();
    }
  }

  /// Kills the daemon thread abruptly-ish: request_stop without touching
  /// workdir files, then restarts a fresh Daemon over the same state —
  /// what a kill -9 + restart leaves behind, minus the in-memory registry.
  void restart() {
    stop();
    DaemonOptions options;
    options.socket_path = workdir_ + "/sock";
    options.workdir = workdir_;
    options.workers = 2;
    options.threads = threads_;
    daemon_ = std::make_unique<Daemon>(options);
    thread_ = std::thread([this] { daemon_->run(); });
  }

  [[nodiscard]] const std::string& workdir() const { return workdir_; }
  [[nodiscard]] std::string socket_path() const { return workdir_ + "/sock"; }

  /// The listener appears asynchronously after run() starts — retry.
  [[nodiscard]] Connection connect() const {
    for (int attempt = 0; attempt < 500; ++attempt) {
      try {
        return Connection(socket_path());
      } catch (const CheckError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    throw std::runtime_error("daemon never started listening");
  }

 private:
  std::string workdir_;
  unsigned threads_ = 2;
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
};

std::string frame_type(const std::string& payload) {
  JsonCursor cursor(payload, "response");
  cursor.expect('{');
  const std::string field = cursor.parse_string();
  EXPECT_EQ(field, "type") << payload;
  cursor.expect(':');
  return cursor.parse_string();
}

Request submit_request(const std::string& campaign,
                       std::uint64_t max_cells = 0) {
  Request request;
  request.verb = Verb::Submit;
  request.campaign = campaign;
  request.spec_text = kServiceSpec;
  request.max_cells = max_cells;
  return request;
}

Request verb_request(Verb verb, const std::string& campaign) {
  Request request;
  request.verb = verb;
  request.campaign = campaign;
  return request;
}

/// Streams `campaign` to its end frame; returns the cell frames.
std::vector<std::string> stream_to_end(Connection& connection,
                                       const std::string& campaign,
                                       std::string* end_state = nullptr) {
  connection.send(serialize_request(verb_request(Verb::Stream, campaign)));
  std::vector<std::string> cells;
  for (;;) {
    const std::string payload = connection.recv();
    const std::string type = frame_type(payload);
    if (type == "end") {
      if (end_state != nullptr) *end_state = payload;
      return cells;
    }
    EXPECT_EQ(type, "cell") << payload;
    if (type != "cell") return cells;  // error frame: bail with what we have
    cells.push_back(payload);
  }
}

/// The bench/sweep reference bytes for kServiceSpec.
std::string sweep_report() {
  const auto spec = sweep::parse_spec(kServiceSpec);
  campaign::CampaignOptions options;
  options.threads = 2;
  campaign::Campaign run(spec, options);
  return campaign::to_json(spec, run.run().cells);
}

TEST(FnrdService, ServesTwoConcurrentCampaignsWithStreamedResults) {
  DaemonFixture daemon("concurrent");
  const auto spec = sweep::parse_spec(kServiceSpec);
  const std::size_t total = sweep::expand(spec).size();

  Connection submit_a = daemon.connect();
  Connection submit_b = daemon.connect();
  submit_a.send(serialize_request(submit_request("alpha")));
  submit_b.send(serialize_request(submit_request("beta")));
  EXPECT_EQ(frame_type(submit_a.recv()), "submitted");
  EXPECT_EQ(frame_type(submit_b.recv()), "submitted");

  // Two independent streaming clients follow the two campaigns.
  Connection stream_a = daemon.connect();
  Connection stream_b = daemon.connect();
  std::vector<std::string> cells_a, cells_b;
  cells_a = stream_to_end(stream_a, "alpha");
  cells_b = stream_to_end(stream_b, "beta");
  EXPECT_EQ(cells_a.size(), total);
  EXPECT_EQ(cells_b.size(), total);

  // Identical spec ⇒ identical cell frames, modulo the campaign name.
  for (std::size_t i = 0; i < cells_a.size(); ++i) {
    std::string renamed = cells_b[i];
    const auto pos = renamed.find("\"beta\"");
    ASSERT_NE(pos, std::string::npos);
    renamed.replace(pos, 6, "\"alpha\"");
    EXPECT_EQ(cells_a[i], renamed);
  }

  // Both reports match the bench/sweep surface byte-for-byte.
  const std::string expected = sweep_report();
  for (const char* name : {"alpha", "beta"}) {
    Connection reporter = daemon.connect();
    reporter.send(serialize_request(verb_request(Verb::Report, name)));
    const std::string payload = reporter.recv();
    EXPECT_EQ(frame_type(payload), "report");
    EXPECT_NE(payload.find(expected), std::string::npos)
        << "report for " << name << " diverges from the sweep bytes";
  }
}

TEST(FnrdService, ParallelExecutorStreamsIdenticalFrameSequence) {
  // A daemon running its campaigns on the threads=4 cell executor must
  // stream the exact frame sequence of a sequential daemon: cell frames
  // append to the replay log in the executor's canonical flush order, so
  // the pool size is invisible on the wire.
  const auto frames_at = [](const std::string& tag, unsigned threads) {
    DaemonFixture daemon(tag, 2, threads);
    Connection submit = daemon.connect();
    submit.send(serialize_request(submit_request("gamma")));
    EXPECT_EQ(frame_type(submit.recv()), "submitted");
    Connection stream = daemon.connect();
    return stream_to_end(stream, "gamma");
  };
  const auto sequential = frames_at("frames_t1", 1);
  const auto parallel = frames_at("frames_t4", 4);
  const auto grid = sweep::expand(sweep::parse_spec(kServiceSpec));
  EXPECT_EQ(sequential.size(), grid.size());
  EXPECT_EQ(parallel, sequential);
}

TEST(FnrdService, MidStreamDisconnectLosesNothing) {
  DaemonFixture daemon("disconnect");
  Connection submitter = daemon.connect();
  submitter.send(serialize_request(submit_request("drop")));
  EXPECT_EQ(frame_type(submitter.recv()), "submitted");

  // First client reads one frame and vanishes mid-stream.
  {
    Connection dropper = daemon.connect();
    dropper.send(serialize_request(verb_request(Verb::Stream, "drop")));
    (void)dropper.recv();
    dropper.close();
  }

  // A fresh client still gets the complete replayed sequence.
  Connection follower = daemon.connect();
  const auto spec = sweep::parse_spec(kServiceSpec);
  const auto cells = stream_to_end(follower, "drop");
  EXPECT_EQ(cells.size(), sweep::expand(spec).size());
}

TEST(FnrdService, MaxCellsPausesThenResumeCompletesWithSweepBytes) {
  DaemonFixture daemon("resume");
  Connection client = daemon.connect();
  client.send(serialize_request(submit_request("pauser", /*max_cells=*/2)));
  EXPECT_EQ(frame_type(client.recv()), "submitted");

  // The stream ends with state=paused after two cells.
  std::string end_payload;
  Connection stream_one = daemon.connect();
  const auto first = stream_to_end(stream_one, "pauser", &end_payload);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_NE(end_payload.find("\"state\":\"paused\""), std::string::npos);

  // RESUME clears max_cells and re-runs; restored cells replay first.
  Connection resumer = daemon.connect();
  resumer.send(serialize_request(verb_request(Verb::Resume, "pauser")));
  EXPECT_EQ(frame_type(resumer.recv()), "resumed");

  Connection stream_two = daemon.connect();
  const auto all = stream_to_end(stream_two, "pauser", &end_payload);
  const auto spec = sweep::parse_spec(kServiceSpec);
  EXPECT_EQ(all.size(), sweep::expand(spec).size());
  EXPECT_NE(end_payload.find("\"state\":\"done\""), std::string::npos);

  Connection reporter = daemon.connect();
  reporter.send(serialize_request(verb_request(Verb::Report, "pauser")));
  const std::string report = reporter.recv();
  EXPECT_NE(report.find(sweep_report()), std::string::npos);
}

TEST(FnrdService, ResumeAfterRestartRecoversFromPersistedState) {
  DaemonFixture daemon("restart");
  {
    Connection client = daemon.connect();
    client.send(serialize_request(submit_request("phoenix", /*max_cells=*/2)));
    EXPECT_EQ(frame_type(client.recv()), "submitted");
    Connection stream = daemon.connect();
    std::string end_payload;
    (void)stream_to_end(stream, "phoenix", &end_payload);
    EXPECT_NE(end_payload.find("\"state\":\"paused\""), std::string::npos);
  }

  // A fresh daemon process knows nothing in memory; RESUME must rebuild
  // the campaign from <workdir>/phoenix.submit.json + the checkpoint.
  daemon.restart();
  Connection resumer = daemon.connect();
  resumer.send(serialize_request(verb_request(Verb::Resume, "phoenix")));
  EXPECT_EQ(frame_type(resumer.recv()), "resumed");

  std::string end_payload;
  Connection stream = daemon.connect();
  const auto cells = stream_to_end(stream, "phoenix", &end_payload);
  const auto spec = sweep::parse_spec(kServiceSpec);
  EXPECT_EQ(cells.size(), sweep::expand(spec).size());
  EXPECT_NE(end_payload.find("\"state\":\"done\""), std::string::npos);

  Connection reporter = daemon.connect();
  reporter.send(serialize_request(verb_request(Verb::Report, "phoenix")));
  EXPECT_NE(reporter.recv().find(sweep_report()), std::string::npos);
}

TEST(FnrdService, RejectsDuplicateSubmitsAndUnknownCampaigns) {
  DaemonFixture daemon("rejects");
  Connection client = daemon.connect();
  client.send(serialize_request(submit_request("dup")));
  EXPECT_EQ(frame_type(client.recv()), "submitted");
  client.send(serialize_request(submit_request("dup")));
  const std::string dup_error = client.recv();
  EXPECT_EQ(frame_type(dup_error), "error");
  EXPECT_NE(dup_error.find("resume"), std::string::npos);

  client.send(serialize_request(verb_request(Verb::Report, "no-such")));
  EXPECT_EQ(frame_type(client.recv()), "error");
  client.send(serialize_request(verb_request(Verb::Cancel, "no-such")));
  EXPECT_EQ(frame_type(client.recv()), "error");
}

TEST(FnrdService, InvalidJsonRequestGetsErrorFrameAndConnectionSurvives) {
  DaemonFixture daemon("badjson");
  Connection client = daemon.connect();
  for (const char* garbage :
       {"not json at all", "{\"verb\":\"launch\"}", "{\"verb\":\"submit\"}",
        "{\"verb\":\"cancel\",\"campaign\":\"../oops\"}", "{{{{"}) {
    client.send(garbage);
    EXPECT_EQ(frame_type(client.recv()), "error") << garbage;
  }
  // The connection keeps serving after every rejected request.
  client.send(serialize_request(verb_request(Verb::Status, "")));
  EXPECT_EQ(frame_type(client.recv()), "status");
}

TEST(FnrdService, FramingViolationDropsTheConnectionNotTheDaemon) {
  DaemonFixture daemon("framing");
  { (void)daemon.connect(); }  // wait until the daemon is listening
  {
    // A hostile length prefix (256 MiB) straight onto the socket.
    net::OwnedFd raw = net::connect_unix(daemon.socket_path());
    const char huge[8] = {'\x10', 0, 0, 0, 'x', 'x', 'x', 'x'};
    ASSERT_EQ(::write(raw.get(), huge, sizeof(huge)),
              static_cast<long>(sizeof(huge)));
    // The daemon must close this connection: read() returns EOF.
    char byte = 0;
    long got = -1;
    for (int attempt = 0; attempt < 500; ++attempt) {
      got = ::read(raw.get(), &byte, 1);
      if (got >= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(got, 0) << "expected EOF from the daemon";
  }
  // And keep serving everyone else.
  Connection client = daemon.connect();
  client.send(serialize_request(verb_request(Verb::Status, "")));
  EXPECT_EQ(frame_type(client.recv()), "status");
}

TEST(FnrdService, GracefulStopCancelsRunningCampaigns) {
  DaemonFixture daemon("drain");
  Connection client = daemon.connect();
  client.send(serialize_request(submit_request("draining")));
  EXPECT_EQ(frame_type(client.recv()), "submitted");
  // Stop while the campaign may still be running: the drain cancels it at
  // a cell boundary and joins the workers — this must not hang or crash.
  daemon.stop();
  SUCCEED();
}

TEST(FnrdService, UnbindableSocketThrowsAPlainErrorAndLeavesNoThread) {
  // The workers start only after the bind: a failed bind throws out of
  // run() with no joinable thread left for ~Daemon to trip over.
  DaemonOptions options;
  options.socket_path = "/nonexistent/dir/sock";
  options.workdir = testing::TempDir();
  options.workers = 2;
  Daemon daemon(options);
  try {
    daemon.run();
    FAIL() << "binding under a missing directory must throw";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("/nonexistent/dir/sock"), std::string::npos) << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fnr::service
