#include "service/daemon.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "service/protocol.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"

namespace fnr::service {

namespace {

enum class CampaignState { Queued, Running, Paused, Done, Failed, Cancelled };

const char* to_string(CampaignState state) noexcept {
  switch (state) {
    case CampaignState::Queued: return "queued";
    case CampaignState::Running: return "running";
    case CampaignState::Paused: return "paused";
    case CampaignState::Done: return "done";
    case CampaignState::Failed: return "failed";
    case CampaignState::Cancelled: return "cancelled";
  }
  return "?";
}

bool terminal(CampaignState state) noexcept {
  return state != CampaignState::Queued && state != CampaignState::Running;
}

/// Everything the daemon knows about one campaign. Guarded by Impl::mutex
/// (workers append frames and flip states; the net thread reads both).
struct CampaignInfo {
  std::string name;
  sweep::SweepSpec spec;
  Request request;  ///< the persisted submit request
  CampaignState state = CampaignState::Queued;
  bool resume = false;  ///< next run restores from the checkpoint
  /// Set by the worker for the duration of one run; CANCEL and the
  /// shutdown drain call cancel() through it (a relaxed atomic store).
  campaign::Campaign* active = nullptr;
  /// Replay log: one wire frame per finished cell, in execution order.
  /// STREAM replays a prefix and follows the tail; RESUME resets it (the
  /// resumed run re-emits restored cells through the same callback).
  std::vector<std::string> frames;
  std::uint64_t total = 0;   ///< grid size
  std::string report;        ///< merged report JSON once Done
  std::string error;         ///< CheckError text once Failed
};

/// One connected client in the net loop (single-threaded access).
struct Client {
  explicit Client(net::OwnedFd socket, std::uint32_t max_frame)
      : fd(std::move(socket)), reader(max_frame), writer(max_frame) {}
  net::OwnedFd fd;
  net::FrameReader reader;
  net::FrameWriter writer;
  std::string stream_campaign;  ///< empty = not subscribed
  std::size_t stream_next = 0;  ///< next replay-log index to deliver
  bool stream_ended = false;    ///< end frame already sent
  bool dead = false;
};

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  FNR_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  FNR_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << content;
  out.flush();
  FNR_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

}  // namespace

struct Daemon::Impl {
  explicit Impl(DaemonOptions opts) : options(std::move(opts)) {}

  DaemonOptions options;
  net::Pipe wake;
  std::atomic<bool> stop_requested{false};

  std::mutex mutex;
  std::condition_variable work_cv;
  std::map<std::string, std::unique_ptr<CampaignInfo>> registry;
  std::deque<CampaignInfo*> queue;
  bool stopping = false;
  std::vector<std::thread> workers;

  // --- small helpers ---------------------------------------------------------

  [[nodiscard]] std::string submit_path(const std::string& name) const {
    return options.workdir + "/" + name + ".submit.json";
  }
  [[nodiscard]] std::string checkpoint_path(const std::string& name) const {
    return options.workdir + "/" + name + ".jsonl";
  }
  [[nodiscard]] std::string report_path(const std::string& name) const {
    return options.workdir + "/" + name + ".json";
  }

  void log(const std::string& line) {
    if (options.log != nullptr) *options.log << "fnrd: " << line << std::endl;
  }

  // --- worker side -----------------------------------------------------------

  void worker_loop() {
    for (;;) {
      CampaignInfo* info = nullptr;
      {
        std::unique_lock lock(mutex);
        work_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping) return;  // drain: finish nothing new
        info = queue.front();
        queue.pop_front();
        info->state = CampaignState::Running;
      }
      run_campaign(info);
      net::wake_pipe(wake.wake.get());
    }
  }

  void run_campaign(CampaignInfo* info) {
    campaign::CampaignOptions copts;
    copts.threads = options.threads;
    copts.checkpoint_path = checkpoint_path(info->name);
    copts.resume = info->resume;
    copts.max_cells = info->request.max_cells;
    try {
      campaign::Campaign campaign(info->spec, std::move(copts));
      {
        std::lock_guard lock(mutex);
        info->active = &campaign;
        // A drain that started between dequeue and here must still stop
        // this run at its first cell boundary.
        if (stopping) campaign.cancel();
      }
      auto run = campaign.run([&](const campaign::CellResult& r) {
        std::lock_guard lock(mutex);
        info->frames.push_back(cell_response(info->name, r.cell.key(), r.ok,
                                             r.agg_json, r.error));
        net::wake_pipe(wake.wake.get());
      });
      std::string report;
      if (run.complete) report = campaign::to_json(info->spec, run.cells);
      std::lock_guard lock(mutex);
      info->active = nullptr;
      if (run.complete) {
        // The report file gets the exact bytes bench/sweep --out writes
        // for this spec — the byte-identity contract CI diffs.
        write_file(report_path(info->name), report + "\n");
        info->report = std::move(report);
        info->state = CampaignState::Done;
      } else if (run.cancelled) {
        info->state = CampaignState::Cancelled;
      } else {
        info->state = CampaignState::Paused;  // max_cells stop
      }
      log("campaign '" + info->name + "' -> " + to_string(info->state) +
          " (" + std::to_string(run.executed) + " executed, " +
          std::to_string(run.restored) + " restored)");
    } catch (const CheckError& error) {
      std::lock_guard lock(mutex);
      info->active = nullptr;
      info->state = CampaignState::Failed;
      info->error = error.what();
      log("campaign '" + info->name + "' failed: " + info->error);
    }
  }

  // --- request handling (net thread) -----------------------------------------

  /// Builds a ready-to-queue CampaignInfo from a submit request. Caller
  /// holds the mutex. Throws CheckError on a bad spec.
  std::unique_ptr<CampaignInfo> make_info(const Request& request,
                                          bool resume) {
    auto info = std::make_unique<CampaignInfo>();
    info->name = request.campaign;
    info->request = request;
    info->resume = resume;
    info->spec = sweep::parse_spec(request.spec_text);
    if (request.trials != 0) info->spec.trials = request.trials;
    info->total = sweep::expand(info->spec).size();
    return info;
  }

  void enqueue_locked(CampaignInfo* info) {
    FNR_CHECK_MSG(queue.size() < options.queue_capacity,
                  "queue full (" << options.queue_capacity
                                 << " campaigns waiting); retry later");
    info->state = CampaignState::Queued;
    queue.push_back(info);
    work_cv.notify_one();
  }

  void handle_submit(const Request& request, Client* client) {
    std::lock_guard lock(mutex);
    FNR_CHECK_MSG(!registry.contains(request.campaign),
                  "campaign '" << request.campaign
                               << "' already exists; use resume");
    FNR_CHECK_MSG(!file_exists(submit_path(request.campaign)),
                  "campaign '" << request.campaign
                               << "' is persisted from an earlier daemon "
                                  "run; use resume");
    auto info = make_info(request, /*resume=*/false);
    // Persist the exact submit frame first: once the client sees
    // "submitted", a daemon kill -9 must leave enough on disk for RESUME.
    write_file(submit_path(request.campaign),
               serialize_request(request) + "\n");
    CampaignInfo* raw = info.get();
    registry.emplace(request.campaign, std::move(info));
    enqueue_locked(raw);
    client->writer.enqueue(submitted_response(request.campaign, raw->total));
    log("submitted '" + request.campaign + "' (" +
        std::to_string(raw->total) + " cells)");
  }

  void handle_resume(const Request& request, Client* client,
                     std::vector<std::unique_ptr<Client>>& clients) {
    std::lock_guard lock(mutex);
    const auto it = registry.find(request.campaign);
    CampaignInfo* info = nullptr;
    if (it != registry.end()) {
      info = it->second.get();
      FNR_CHECK_MSG(terminal(info->state),
                    "campaign '" << request.campaign << "' is "
                                 << to_string(info->state)
                                 << "; cancel or wait before resuming");
      FNR_CHECK_MSG(info->state != CampaignState::Done,
                    "campaign '" << request.campaign
                                 << "' is already complete");
    } else {
      // Fresh daemon process: rebuild the campaign from the persisted
      // submit frame; the checkpoint makes every finished cell restore.
      FNR_CHECK_MSG(file_exists(submit_path(request.campaign)),
                    "unknown campaign '" << request.campaign << "'");
      Request original = parse_request([&] {
        std::string text = read_file(submit_path(request.campaign));
        while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
          text.pop_back();
        return text;
      }());
      auto rebuilt = make_info(original, /*resume=*/true);
      info = rebuilt.get();
      registry.emplace(request.campaign, std::move(rebuilt));
    }
    info->resume = true;
    // A submit-time max_cells was a deliberate pause point (CI's
    // deterministic "kill mid-campaign"); resuming means running to the
    // end, so it must not re-pause the campaign.
    info->request.max_cells = 0;
    // The resumed run re-emits restored cells through the cell callback,
    // so the replay log restarts from scratch — as must every subscriber's
    // position in it.
    info->frames.clear();
    for (auto& other : clients) {
      if (other->stream_campaign == request.campaign) {
        other->stream_next = 0;
        other->stream_ended = false;
      }
    }
    enqueue_locked(info);
    client->writer.enqueue(resumed_response(request.campaign));
    log("resumed '" + request.campaign + "'");
  }

  void handle_status(const Request& request, Client* client) {
    std::lock_guard lock(mutex);
    if (request.campaign.empty()) {
      // Daemon summary: how many campaigns are registered, how many are in
      // a terminal state.
      std::uint64_t settled = 0;
      for (const auto& [name, info] : registry)
        if (terminal(info->state)) ++settled;
      client->writer.enqueue(status_response(
          "*", "daemon", settled, registry.size()));
      return;
    }
    const auto it = registry.find(request.campaign);
    FNR_CHECK_MSG(it != registry.end(),
                  "unknown campaign '"
                      << request.campaign
                      << "' (not in this daemon's registry; resume a "
                         "persisted campaign first)");
    const CampaignInfo& info = *it->second;
    client->writer.enqueue(status_response(info.name, to_string(info.state),
                                           info.frames.size(), info.total));
  }

  void handle_stream(const Request& request, Client* client) {
    {
      std::lock_guard lock(mutex);
      FNR_CHECK_MSG(registry.contains(request.campaign),
                    "unknown campaign '" << request.campaign << "'");
    }
    client->stream_campaign = request.campaign;
    client->stream_next = 0;
    client->stream_ended = false;
    // Delivery happens in fan_out at the top of the next loop iteration —
    // the replay prefix and any frames that land meanwhile flow through
    // the same path, so nothing is duplicated or skipped.
  }

  void handle_cancel(const Request& request, Client* client) {
    std::lock_guard lock(mutex);
    const auto it = registry.find(request.campaign);
    FNR_CHECK_MSG(it != registry.end(),
                  "unknown campaign '" << request.campaign << "'");
    CampaignInfo& info = *it->second;
    if (info.state == CampaignState::Running) {
      info.active->cancel();  // state flips when the worker returns
    } else if (info.state == CampaignState::Queued) {
      std::erase(queue, &info);
      info.state = CampaignState::Cancelled;
    } else {
      FNR_CHECK_MSG(false, "campaign '" << request.campaign << "' is "
                                        << to_string(info.state)
                                        << ", nothing to cancel");
    }
    client->writer.enqueue(cancelled_response(request.campaign));
    log("cancel requested for '" + request.campaign + "'");
  }

  void handle_report(const Request& request, Client* client) {
    std::lock_guard lock(mutex);
    const auto it = registry.find(request.campaign);
    if (it != registry.end() && it->second->state == CampaignState::Done) {
      client->writer.enqueue(
          report_response(request.campaign, it->second->report));
      return;
    }
    // A completed campaign from an earlier daemon run still has its
    // report file even though the registry forgot it.
    FNR_CHECK_MSG(
        it == registry.end() && file_exists(report_path(request.campaign)),
        "campaign '" << request.campaign << "' has no completed report"
                     << (it != registry.end()
                             ? std::string(" (state ") +
                                   to_string(it->second->state) + ")"
                             : ""));
    std::string report = read_file(report_path(request.campaign));
    while (!report.empty() && report.back() == '\n') report.pop_back();
    client->writer.enqueue(report_response(request.campaign, report));
  }

  void handle_request(const std::string& payload, Client* client,
                      std::vector<std::unique_ptr<Client>>& clients) {
    try {
      const Request request = parse_request(payload);
      switch (request.verb) {
        case Verb::Submit: handle_submit(request, client); break;
        case Verb::Status: handle_status(request, client); break;
        case Verb::Stream: handle_stream(request, client); break;
        case Verb::Cancel: handle_cancel(request, client); break;
        case Verb::Resume: handle_resume(request, client, clients); break;
        case Verb::Report: handle_report(request, client); break;
      }
    } catch (const CheckError& error) {
      // A malformed or unserviceable *request* is the client's problem,
      // not the daemon's: answer with an error frame and keep serving.
      client->writer.enqueue(error_response(error.what()));
    }
  }

  // --- net loop --------------------------------------------------------------

  /// Delivers new replay-log frames (and the end frame once the campaign
  /// settles) to every subscribed client.
  void fan_out(std::vector<std::unique_ptr<Client>>& clients) {
    std::lock_guard lock(mutex);
    for (auto& client : clients) {
      if (client->stream_campaign.empty() || client->dead) continue;
      const auto it = registry.find(client->stream_campaign);
      if (it == registry.end()) continue;
      const CampaignInfo& info = *it->second;
      while (client->stream_next < info.frames.size())
        client->writer.enqueue(info.frames[client->stream_next++]);
      if (!client->stream_ended && terminal(info.state)) {
        client->writer.enqueue(end_response(info.name, to_string(info.state)));
        client->stream_ended = true;
      }
    }
  }

  void flush_client(Client* client) {
    if (client->dead) return;
    if (!client->writer.flush_to_fd(client->fd.get())) {
      client->dead = true;
      return;
    }
    // Backpressure: a consumer that cannot keep up with the stream loses
    // its connection, not its results — the replay log and the checkpoint
    // survive, so reconnect + STREAM recovers everything.
    if (client->writer.pending_bytes() > options.max_client_buffer) {
      log("disconnecting slow client (" +
          std::to_string(client->writer.pending_bytes()) +
          " bytes pending)");
      client->dead = true;
    }
  }

  void serve(net::OwnedFd listener) {
    std::vector<std::unique_ptr<Client>> clients;
    while (!stop_requested.load(std::memory_order_relaxed)) {
      fan_out(clients);
      for (auto& client : clients) flush_client(client.get());
      std::erase_if(clients,
                    [](const std::unique_ptr<Client>& c) { return c->dead; });

      std::vector<pollfd> fds;
      fds.push_back(pollfd{listener.get(), POLLIN, 0});
      fds.push_back(pollfd{wake.wait.get(), POLLIN, 0});
      for (const auto& client : clients) {
        short events = POLLIN;
        if (!client->writer.idle()) events |= POLLOUT;
        fds.push_back(pollfd{client->fd.get(), events, 0});
      }
      const int ready = ::poll(fds.data(), fds.size(), -1);
      if (ready < 0) continue;  // EINTR: re-check stop_requested

      if ((fds[1].revents & POLLIN) != 0) net::drain_pipe(wake.wait.get());

      if ((fds[0].revents & POLLIN) != 0) {
        for (;;) {
          const int accepted = ::accept(listener.get(), nullptr, nullptr);
          if (accepted < 0) break;
          net::set_nonblocking(accepted);
          clients.push_back(std::make_unique<Client>(
              net::OwnedFd(accepted), options.max_frame));
        }
      }

      // Only the clients that existed when poll() ran have revents; the
      // ones accepted just above wait for the next round.
      const std::size_t polled = fds.size() - 2;
      for (std::size_t i = 0; i < polled; ++i) {
        Client* client = clients[i].get();
        const short revents = fds[2 + i].revents;
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (revents & POLLIN) == 0) {
          client->dead = true;
          continue;
        }
        if ((revents & POLLIN) == 0) continue;
        char buffer[4096];
        for (;;) {
          const ssize_t got = ::read(client->fd.get(), buffer, sizeof(buffer));
          if (got > 0) {
            try {
              client->reader.feed(buffer, static_cast<std::size_t>(got));
              std::string payload;
              while (client->reader.next(&payload))
                handle_request(payload, client, clients);
            } catch (const CheckError& error) {
              // A framing violation (bad length prefix) poisons the byte
              // stream — there is no resynchronization point, so drop the
              // connection rather than guess.
              log(std::string("dropping client after framing error: ") +
                  error.what());
              client->dead = true;
            }
            if (client->dead) break;
            continue;
          }
          if (got == 0) {  // orderly EOF
            client->dead = true;
            break;
          }
          break;  // EAGAIN (or error — the next poll round reports it)
        }
      }
    }

    // Graceful drain: stop admitting, stop the workers' campaigns at their
    // next cell boundary (checkpoints flushed), join, then vanish.
    log("draining");
    {
      std::lock_guard lock(mutex);
      stopping = true;
      for (auto& [name, info] : registry)
        if (info->active != nullptr) info->active->cancel();
      work_cv.notify_all();
    }
    for (auto& worker : workers) worker.join();
    workers.clear();
    clients.clear();
    listener.reset();
    ::unlink(options.socket_path.c_str());
    log("stopped");
  }
};

Daemon::Daemon(DaemonOptions options) : impl_(new Impl(std::move(options))) {
  FNR_CHECK_MSG(!impl_->options.socket_path.empty(),
                "fnrd needs a socket path");
  FNR_CHECK_MSG(impl_->options.workers >= 1, "fnrd needs >= 1 worker");
  FNR_CHECK_MSG(impl_->options.queue_capacity >= 1,
                "fnrd needs queue capacity >= 1");
  impl_->wake = net::make_pipe();
}

Daemon::~Daemon() { delete impl_; }

void Daemon::run() {
  // Bind before any worker exists: a socket that cannot be set up then
  // throws with no joinable thread left behind.
  net::OwnedFd listener = net::listen_unix(impl_->options.socket_path);
  net::set_nonblocking(listener.get());
  impl_->log("listening on " + impl_->options.socket_path);
  for (unsigned i = 0; i < impl_->options.workers; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  impl_->serve(std::move(listener));
}

void Daemon::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  net::wake_pipe(impl_->wake.wake.get());
}

}  // namespace fnr::service
