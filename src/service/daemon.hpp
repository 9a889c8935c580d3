// The fnrd campaign service: a long-lived daemon that serves sweep
// campaigns over a Unix-domain socket.
//
// Architecture. One net thread runs a poll(2) loop over the listener, a
// self-pipe, and every connected client (length-prefixed JSON frames,
// net/framing.hpp; verbs, service/protocol.hpp). SUBMIT parses the spec,
// persists the exact submit frame to `<workdir>/<name>.submit.json`, and
// pushes the campaign onto a bounded work queue; worker threads pop
// campaigns and run campaign::Campaign with a per-cell callback. The
// callback appends the cell's wire frame to the campaign's replay log and
// wakes the net loop through the self-pipe; the net loop fans new frames
// out to every subscribed client. STREAM therefore always replays the
// finished prefix first and then follows live — a client that connects
// late, disconnects, or reconnects after a daemon restart sees the same
// deterministic sequence.
//
// Durability. All daemon state that matters is the campaign checkpoint
// (`<workdir>/<name>.jsonl`, written by the campaign core itself) plus the
// persisted submit frame. kill -9 loses only in-memory registry state:
// RESUME re-reads the submit frame, re-runs the campaign with resume
// semantics (finished cells restore from the checkpoint byte-for-byte),
// and the merged report `<workdir>/<name>.json` comes out identical to a
// bench/sweep run of the same spec — that equivalence is asserted in
// CI.
//
// Backpressure, two layers: SUBMIT fails with "queue full" when the work
// queue is at capacity (bounded admission), and a streaming client whose
// pending output buffer exceeds max_client_buffer is disconnected (results
// live in the replay log and the checkpoint, so a slow client loses
// nothing it cannot recover by reconnecting and re-STREAMing).
//
// Shutdown. request_stop() is async-signal-safe (atomic flag + self-pipe
// write). The net loop stops accepting, cancels running campaigns (they
// stop at the next cell boundary with their checkpoint line flushed),
// joins the workers, closes every client, and unlinks the socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace fnr::service {

struct DaemonOptions {
  /// Unix-domain socket path clients connect to.
  std::string socket_path;
  /// Directory for per-campaign files: `<name>.submit.json` (the persisted
  /// submit frame), `<name>.jsonl` (checkpoint), `<name>.json` (merged
  /// report, written on completion). Must already exist.
  std::string workdir = ".";
  /// Campaign worker threads (concurrent campaigns in flight).
  unsigned workers = 2;
  /// Bounded work-queue capacity; SUBMIT is rejected when full.
  std::size_t queue_capacity = 8;
  /// Threads per campaign: its cell executor's worker pool (1 = sequential,
  /// 0 = hardware threads). Replay logs, checkpoints, and reports are
  /// byte-identical for every value, so this is purely a latency lever; it
  /// multiplies with `workers` campaigns in flight.
  unsigned threads = 0;
  /// Per-client pending-output cap in bytes; a slower consumer is
  /// disconnected (and can recover by re-STREAMing).
  std::size_t max_client_buffer = 4u << 20;
  /// Cap on one wire frame's payload.
  std::uint32_t max_frame = 16u << 20;
  /// Daemon log lines (nullptr = silent).
  std::ostream* log = nullptr;
};

/// Runs the daemon until request_stop(). Blocks the calling thread; throws
/// CheckError when the socket cannot be set up. Construct, install signal
/// handlers pointing at request_stop, then run().
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until request_stop(); returns after the graceful drain.
  void run();

  /// Requests shutdown. Async-signal-safe: one atomic store and one
  /// self-pipe write.
  void request_stop() noexcept;

 private:
  struct Impl;
  Impl* impl_;  // raw pimpl: ~Daemon must stay out-of-line and noexcept
};

}  // namespace fnr::service
