// The fnrd wire protocol: request/response JSON payloads carried in
// length-prefixed frames (net/framing.hpp).
//
// Requests are single JSON objects with a "verb" field:
//
//   {"verb":"submit","campaign":"smoke","spec":"<spec text>",
//    "trials":0,"max_cells":0}             // 0 fields may be omitted
//   {"verb":"status"[,"campaign":"smoke"]} // no campaign ⇒ all campaigns
//   {"verb":"stream","campaign":"smoke"}
//   {"verb":"cancel","campaign":"smoke"}
//   {"verb":"resume","campaign":"smoke"}
//   {"verb":"report","campaign":"smoke"}
//
// Responses are typed by a "type" field: "error", "submitted", "status",
// "cell" (one streamed result, aggregate bytes verbatim), "end" (stream
// complete, with the terminal state), "report" (the merged JSON verbatim),
// "cancelled", "resumed". STREAM first replays every already-finished cell,
// then delivers new cells as the workers finish them, then "end" — so a
// client that reconnects after a disconnect or a daemon restart always
// sees the full, deterministic result set.
//
// Every payload is written by util/json's JsonWriter, so every string in
// it (spec text, campaign name, cell key, error message) is escaped and
// parses back byte for byte; only JSON values (a cell's aggregate, the
// merged report) are embedded verbatim, because their bytes are the
// determinism contract. Requests and responses are read by JsonCursor.
#pragma once

#include <cstdint>
#include <string>

namespace fnr::service {

enum class Verb { Submit, Status, Stream, Cancel, Resume, Report };

[[nodiscard]] const char* to_string(Verb verb) noexcept;

/// Parses a request verb. Throws CheckError on an unknown name.
[[nodiscard]] Verb parse_verb(const std::string& name);

/// One parsed client request.
struct Request {
  Verb verb = Verb::Status;
  std::string campaign;   ///< campaign name; may be empty for STATUS only
  std::string spec_text;  ///< SUBMIT only: the spec to parse and run
  std::uint64_t trials = 0;     ///< SUBMIT only: per-cell trial override
  std::uint64_t max_cells = 0;  ///< SUBMIT only: stop after N cells (CI)
};

/// Campaign names become checkpoint/report file names in the daemon's
/// workdir, so they are restricted to [A-Za-z0-9._-] (no separators, no
/// traversal) and must not start with a dot.
[[nodiscard]] bool valid_campaign_name(const std::string& name);

/// Serializes a request to its wire JSON (the exact bytes SUBMIT persists
/// for RESUME after a daemon restart).
[[nodiscard]] std::string serialize_request(const Request& request);

/// Parses wire JSON into a Request. Throws CheckError on malformed JSON,
/// an unknown verb or field, a missing campaign on verbs that need one, or
/// an invalid campaign name. The legacy SUBMIT field "batch" (the removed
/// lock-step batch size) still parses and is ignored, so persisted submit
/// frames and old clients keep working.
[[nodiscard]] Request parse_request(const std::string& payload);

// --- responses ---------------------------------------------------------------

/// The "type" of a response payload, which every builder below emits
/// first. Throws CheckError on a malformed payload.
[[nodiscard]] std::string response_type(const std::string& payload);

/// The verbatim value bytes of field `name` of a response payload (a
/// string field keeps its quotes). Throws CheckError on a malformed
/// payload or a missing field.
[[nodiscard]] std::string response_field(const std::string& payload,
                                         const std::string& name);

[[nodiscard]] std::string error_response(const std::string& message);
[[nodiscard]] std::string submitted_response(const std::string& campaign,
                                             std::uint64_t cells);
/// `state` is a CampaignState name (daemon.hpp); done/total count cells.
[[nodiscard]] std::string status_response(const std::string& campaign,
                                          const std::string& state,
                                          std::uint64_t done,
                                          std::uint64_t total);
/// One streamed cell: key, ok flag, then either the aggregate bytes
/// verbatim or the error text.
[[nodiscard]] std::string cell_response(const std::string& campaign,
                                        const std::string& key, bool ok,
                                        const std::string& agg_json,
                                        const std::string& error);
[[nodiscard]] std::string end_response(const std::string& campaign,
                                       const std::string& state);
/// The merged report JSON, embedded verbatim under "report".
[[nodiscard]] std::string report_response(const std::string& campaign,
                                          const std::string& report_json);
[[nodiscard]] std::string cancelled_response(const std::string& campaign);
[[nodiscard]] std::string resumed_response(const std::string& campaign);

}  // namespace fnr::service
