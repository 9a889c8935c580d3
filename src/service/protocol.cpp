#include "service/protocol.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace fnr::service {

const char* to_string(Verb verb) noexcept {
  switch (verb) {
    case Verb::Submit: return "submit";
    case Verb::Status: return "status";
    case Verb::Stream: return "stream";
    case Verb::Cancel: return "cancel";
    case Verb::Resume: return "resume";
    case Verb::Report: return "report";
  }
  return "?";
}

Verb parse_verb(const std::string& name) {
  if (name == "submit") return Verb::Submit;
  if (name == "status") return Verb::Status;
  if (name == "stream") return Verb::Stream;
  if (name == "cancel") return Verb::Cancel;
  if (name == "resume") return Verb::Resume;
  if (name == "report") return Verb::Report;
  FNR_CHECK_MSG(false, "fnrd request: unknown verb '"
                           << name
                           << "'; expected submit, status, stream, cancel, "
                              "resume, or report");
  throw std::logic_error("unreachable");
}

bool valid_campaign_name(const std::string& name) {
  if (name.empty() || name.size() > 128 || name.front() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string serialize_request(const Request& request) {
  std::ostringstream os;
  os << "{\"verb\":\"" << to_string(request.verb) << "\"";
  if (!request.campaign.empty())
    os << ",\"campaign\":\"" << json_escape(request.campaign) << "\"";
  if (!request.spec_text.empty())
    os << ",\"spec\":\"" << json_escape(request.spec_text) << "\"";
  if (request.trials != 0) os << ",\"trials\":" << request.trials;
  if (request.max_cells != 0) os << ",\"max_cells\":" << request.max_cells;
  os << "}";
  return os.str();
}

Request parse_request(const std::string& payload) {
  JsonCursor cursor(payload, "fnrd request");
  Request request;
  bool have_verb = false;
  cursor.expect('{');
  bool first = true;
  while (!cursor.peek_is('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string field = cursor.parse_string();
    cursor.expect(':');
    if (field == "verb") {
      request.verb = parse_verb(cursor.parse_string());
      have_verb = true;
    } else if (field == "campaign") {
      request.campaign = cursor.parse_string();
    } else if (field == "spec") {
      request.spec_text = cursor.parse_string();
    } else if (field == "trials") {
      request.trials = cursor.parse_uint64();
    } else if (field == "batch") {
      // Legacy SUBMIT field (the removed lock-step batch size): persisted
      // submit frames and old clients may still carry it. Ignored.
      (void)cursor.parse_uint64();
    } else if (field == "max_cells") {
      request.max_cells = cursor.parse_uint64();
    } else {
      FNR_CHECK_MSG(false,
                    "fnrd request: unknown field '" << field << "'");
    }
  }
  cursor.expect('}');
  cursor.expect_end();
  FNR_CHECK_MSG(have_verb, "fnrd request: missing 'verb'");
  if (request.verb == Verb::Status) {
    // STATUS may address all campaigns (empty name); everything else
    // names exactly one.
    FNR_CHECK_MSG(request.campaign.empty() ||
                      valid_campaign_name(request.campaign),
                  "fnrd request: invalid campaign name");
  } else {
    FNR_CHECK_MSG(valid_campaign_name(request.campaign),
                  "fnrd request: '" << to_string(request.verb)
                                    << "' needs a campaign name matching "
                                       "[A-Za-z0-9._-]+ (no leading dot)");
  }
  FNR_CHECK_MSG(request.verb == Verb::Submit || request.spec_text.empty(),
                "fnrd request: only 'submit' carries a spec");
  FNR_CHECK_MSG(request.verb != Verb::Submit || !request.spec_text.empty(),
                "fnrd request: 'submit' needs a spec");
  return request;
}

std::string error_response(const std::string& message) {
  return "{\"type\":\"error\",\"message\":\"" + json_escape(message) + "\"}";
}

std::string submitted_response(const std::string& campaign,
                               std::uint64_t cells) {
  std::ostringstream os;
  os << "{\"type\":\"submitted\",\"campaign\":\"" << json_escape(campaign)
     << "\",\"cells\":" << cells << "}";
  return os.str();
}

std::string status_response(const std::string& campaign,
                            const std::string& state, std::uint64_t done,
                            std::uint64_t total) {
  std::ostringstream os;
  os << "{\"type\":\"status\",\"campaign\":\"" << json_escape(campaign)
     << "\",\"state\":\"" << state << "\",\"done\":" << done
     << ",\"total\":" << total << "}";
  return os.str();
}

std::string cell_response(const std::string& campaign, const std::string& key,
                          bool ok, const std::string& agg_json,
                          const std::string& error) {
  std::ostringstream os;
  os << "{\"type\":\"cell\",\"campaign\":\"" << json_escape(campaign)
     << "\",\"key\":\"" << json_escape(key)
     << "\",\"ok\":" << (ok ? "true" : "false");
  if (ok) {
    os << ",\"agg\":" << agg_json;
  } else {
    os << ",\"error\":\"" << json_escape(error) << "\"";
  }
  os << "}";
  return os.str();
}

std::string end_response(const std::string& campaign,
                         const std::string& state) {
  return "{\"type\":\"end\",\"campaign\":\"" + json_escape(campaign) +
         "\",\"state\":\"" + state + "\"}";
}

std::string report_response(const std::string& campaign,
                            const std::string& report_json) {
  return "{\"type\":\"report\",\"campaign\":\"" + json_escape(campaign) +
         "\",\"report\":" + report_json + "}";
}

std::string cancelled_response(const std::string& campaign) {
  return "{\"type\":\"cancelled\",\"campaign\":\"" + json_escape(campaign) +
         "\"}";
}

std::string resumed_response(const std::string& campaign) {
  return "{\"type\":\"resumed\",\"campaign\":\"" + json_escape(campaign) +
         "\"}";
}

}  // namespace fnr::service
