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
#include <sstream>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace fnr;

/// Frame payloads all lead with "type" (protocol.cpp emits it first).
std::string frame_type(const std::string& payload) {
  JsonCursor cursor(payload, "fnrd response");
  cursor.expect('{');
  const std::string field = cursor.parse_string();
  FNR_CHECK_MSG(field == "type", "fnrd response: expected leading 'type'");
  cursor.expect(':');
  return cursor.parse_string();
}

/// Extracts a field's verbatim value bytes from a response payload.
std::string frame_field(const std::string& payload, const std::string& name) {
  JsonCursor cursor(payload, "fnrd response");
  cursor.expect('{');
  bool first = true;
  while (!cursor.peek_is('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string field = cursor.parse_string();
    cursor.expect(':');
    if (field == name) return cursor.capture_value();
    cursor.skip_value();
  }
  FNR_CHECK_MSG(false, "fnrd response has no '" << name << "' field");
  throw std::logic_error("unreachable");
}

/// Resolves --spec for submit: predefined name first, then file contents.
std::string resolve_spec_text(const std::string& name_or_path) {
  for (const auto& [name, text] : sweep::predefined_specs())
    if (name == name_or_path) return text;
  std::ifstream in(name_or_path);
  FNR_CHECK_MSG(in.good(), "--spec '" << name_or_path
                                      << "' is neither a predefined spec "
                                         "nor a readable file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Prints one response; error frames go to stderr and flip the exit code.
bool print_frame(const std::string& payload) {
  if (frame_type(payload) == "error") {
    std::cerr << "fnrc: " << payload << "\n";
    return false;
  }
  std::cout << payload << "\n";
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
    const auto trials = cli.get_int("trials", 0);
    const auto max_cells = cli.get_int("max-cells", 0);
    const auto max_frames = cli.get_int("max-frames", 0);
    const auto timeout_ms = cli.get_int("timeout-ms", 120'000);
    const bool raw = cli.get_flag("raw");
    cli.reject_unknown();
    FNR_CHECK_MSG(!socket_path.empty(), "--socket=PATH is required");
    FNR_CHECK_MSG(!verb_arg.empty(), "--verb=VERB is required");
    FNR_CHECK_MSG(trials >= 0 && max_cells >= 0 && max_frames >= 0 &&
                      timeout_ms > 0,
                  "numeric flags must be non-negative (timeout positive)");

    const int timeout = static_cast<int>(timeout_ms);
    service::Connection connection(socket_path);

    if (verb_arg == "wait") {
      // Client-side convenience: poll STATUS until the campaign settles.
      FNR_CHECK_MSG(!campaign.empty(), "wait needs --campaign");
      service::Request status;
      status.verb = service::Verb::Status;
      status.campaign = campaign;
      for (;;) {
        connection.send(service::serialize_request(status));
        const std::string payload = connection.recv(timeout);
        if (frame_type(payload) == "error") {
          std::cerr << "fnrc: " << payload << "\n";
          return 1;
        }
        std::string state = frame_field(payload, "state");
        if (state == "\"done\"" || state == "\"failed\"" ||
            state == "\"cancelled\"" || state == "\"paused\"") {
          std::cout << payload << "\n";
          return state == "\"done\"" || state == "\"paused\"" ? 0 : 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }

    service::Request request;
    request.verb = service::parse_verb(verb_arg);
    request.campaign = campaign;
    if (request.verb == service::Verb::Submit) {
      FNR_CHECK_MSG(!spec_arg.empty(), "submit needs --spec=NAME|PATH");
      request.spec_text = resolve_spec_text(spec_arg);
      request.trials = static_cast<std::uint64_t>(trials);
      request.max_cells = static_cast<std::uint64_t>(max_cells);
    }
    connection.send(service::serialize_request(request));

    if (request.verb == service::Verb::Stream) {
      std::int64_t received = 0;
      for (;;) {
        const std::string payload = connection.recv(timeout);
        if (!print_frame(payload)) return 1;
        if (frame_type(payload) == "end") return 0;
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
    if (frame_type(payload) == "error") {
      std::cerr << "fnrc: " << payload << "\n";
      return 1;
    }
    if (request.verb == service::Verb::Report && raw) {
      // The merged report exactly as bench/sweep --out writes it.
      std::cout << frame_field(payload, "report") << "\n";
      return 0;
    }
    std::cout << payload << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fnrc: " << error.what() << "\n";
    return 1;
  }
}
