// fnrd — the campaign service daemon (src/service/daemon.hpp).
//
// Serves sweep campaigns over a Unix-domain socket until SIGTERM/SIGINT,
// which trigger the graceful drain: running campaigns stop at their next
// cell boundary with checkpoints flushed, so a later `fnrc --verb=resume`
// continues exactly where the drain stopped.
//
// Flags:
//   --socket=PATH     Unix-domain socket to listen on (required)
//   --workdir=DIR     per-campaign files (submit frame, checkpoint, report);
//                     must exist (default ".")
//   --workers=N       concurrent campaign workers (default 2)
//   --queue=N         bounded work-queue capacity (default 8)
//   --threads=N       threads per campaign: its cell executor's pool
//                     (default 0 = hardware threads, 1 = sequential) —
//                     replay logs and reports are byte-identical for every
//                     value
//   --client-buffer=N per-client pending-output cap in bytes before the
//                     slow client is disconnected (default 4 MiB)
//   --quiet           suppress log lines
#include <atomic>
#include <csignal>
#include <iostream>

#include "service/daemon.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<fnr::service::Daemon*> g_daemon{nullptr};

extern "C" void handle_stop_signal(int) {
  if (auto* daemon = g_daemon.load(std::memory_order_relaxed))
    daemon->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fnr;
  try {
    Cli cli(argc, argv);
    service::DaemonOptions options;
    options.socket_path = cli.get_string("socket", "");
    options.workdir = cli.get_string("workdir", ".");
    options.workers =
        static_cast<unsigned>(cli.get_int("workers", 2, 1, 256));
    options.queue_capacity =
        static_cast<std::size_t>(cli.get_int("queue", 8, 1, 4096));
    options.threads =
        static_cast<unsigned>(cli.get_int("threads", 0, 0, 4096));
    options.max_client_buffer =
        static_cast<std::size_t>(cli.get_int("client-buffer", 4 << 20, 4096));
    const bool quiet = cli.get_flag("quiet");
    if (!quiet) options.log = &std::cerr;
    cli.reject_unknown();
    FNR_REQUIRE(!options.socket_path.empty(), "--socket=PATH is required");

    service::Daemon daemon(options);
    g_daemon.store(&daemon, std::memory_order_relaxed);
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGPIPE, SIG_IGN);  // client disconnects are routine
    daemon.run();
    g_daemon.store(nullptr, std::memory_order_relaxed);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fnrd: " << error.what() << "\n";
    return 1;
  }
}
