// fnrc — command-line client for the fnrd campaign daemon.
//
// One invocation, one verb. Responses print to stdout as JSONL (one frame
// per line); an error frame prints to stderr and exits 1.
//
// Flags:
//   --socket=PATH     daemon socket (required)
//   --verb=VERB       submit | status | stream | cancel | resume | report |
//                     wait (client-side: poll status until settled)
//   --campaign=NAME   campaign id ([A-Za-z0-9._-]+); required except for a
//                     daemon-wide status
//   --spec=NAME|PATH  submit only: predefined spec name or spec-file path
//   --trials=N        submit only: per-cell trial override
//   --max-cells=N     submit only: pause after N cells (the CI uses this as
//                     a deterministic interrupt; resume clears it)
//   --max-frames=N    stream only: disconnect after N frames (0 = stream to
//                     the end frame) — a deliberate mid-stream disconnect
//   --timeout-ms=N    per-frame receive timeout (default 120000)
//   --raw             report only: print the merged report JSON verbatim
//                     (byte-identical to bench/sweep --out) instead of the
//                     wrapping frame
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using namespace fnr;

/// Resolves --spec for submit: predefined name first, then file contents.
std::string resolve_spec_text(const std::string& name_or_path) {
  for (const auto& [name, text] : sweep::predefined_specs())
    if (name == name_or_path) return text;
  std::ifstream in(name_or_path);
  FNR_REQUIRE(in.good(), "--spec '" << name_or_path
                                    << "' is neither a predefined spec "
                                       "nor a readable file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// True, after printing it to stderr, when `payload` is an error frame.
bool error_frame(const std::string& payload) {
  if (service::response_type(payload) != "error") return false;
  std::cerr << "fnrc: " << payload << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::string socket_path = cli.get_string("socket", "");
    const std::string verb_arg = cli.get_string("verb", "");
    const std::string campaign = cli.get_string("campaign", "");
    const std::string spec_arg = cli.get_string("spec", "");
    const auto trials = cli.get_int("trials", 0, 0);
    const auto max_cells = cli.get_int("max-cells", 0, 0);
    const auto max_frames = cli.get_int("max-frames", 0, 0);
    const int timeout = static_cast<int>(cli.get_int(
        "timeout-ms", 120'000, 1, std::numeric_limits<int>::max()));
    const bool raw = cli.get_flag("raw");
    cli.reject_unknown();
    FNR_REQUIRE(!socket_path.empty(), "--socket=PATH is required");
    FNR_REQUIRE(!verb_arg.empty(), "--verb=VERB is required");

    // Every flag is checked before the daemon is contacted. `wait` is
    // client-side: it polls STATUS until the campaign settles.
    const bool wait = verb_arg == "wait";
    service::Request request;
    request.verb = wait ? service::Verb::Status : service::parse_verb(verb_arg);
    request.campaign = campaign;
    FNR_REQUIRE(!wait || !campaign.empty(), "wait needs --campaign");
    if (request.verb == service::Verb::Submit) {
      FNR_REQUIRE(!spec_arg.empty(), "submit needs --spec=NAME|PATH");
      request.spec_text = resolve_spec_text(spec_arg);
      request.trials = static_cast<std::uint64_t>(trials);
      request.max_cells = static_cast<std::uint64_t>(max_cells);
    }
    service::Connection connection(socket_path);

    while (wait) {
      connection.send(service::serialize_request(request));
      const std::string payload = connection.recv(timeout);
      if (error_frame(payload)) return 1;
      const std::string state = service::response_field(payload, "state");
      if (state == "\"done\"" || state == "\"failed\"" ||
          state == "\"cancelled\"" || state == "\"paused\"") {
        std::cout << payload << "\n";
        return state == "\"done\"" || state == "\"paused\"" ? 0 : 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    connection.send(service::serialize_request(request));

    if (request.verb == service::Verb::Stream) {
      std::int64_t received = 0;
      for (;;) {
        const std::string payload = connection.recv(timeout);
        if (error_frame(payload)) return 1;
        std::cout << payload << "\n";
        if (service::response_type(payload) == "end") return 0;
        ++received;
        if (max_frames > 0 && received >= max_frames) {
          // Deliberate mid-stream disconnect (CI exercises that a dropped
          // client costs the daemon and the result set nothing).
          connection.close();
          return 0;
        }
      }
    }

    const std::string payload = connection.recv(timeout);
    if (error_frame(payload)) return 1;
    // --raw: the merged report exactly as bench/sweep --out writes it.
    const bool report = request.verb == service::Verb::Report && raw;
    std::cout << (report ? service::response_field(payload, "report") : payload)
              << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fnrc: " << error.what() << "\n";
    return 1;
  }
}
