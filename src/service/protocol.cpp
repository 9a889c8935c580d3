#include "service/protocol.hpp"

#include <optional>

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
  FNR_REQUIRE(false, "fnrd request: unknown verb '"
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
  JsonWriter json;
  json.begin_object().key("verb").string(to_string(request.verb));
  if (!request.campaign.empty()) json.key("campaign").string(request.campaign);
  if (!request.spec_text.empty()) json.key("spec").string(request.spec_text);
  if (request.trials != 0) json.key("trials").uint64(request.trials);
  if (request.max_cells != 0) json.key("max_cells").uint64(request.max_cells);
  return json.end_object().str();
}

Request parse_request(const std::string& payload) {
  JsonCursor cursor(payload, "fnrd request");
  Request request;
  bool have_verb = false;
  cursor.object([&](const std::string& field) {
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
      FNR_REQUIRE(false, "fnrd request: unknown field '" << field << "'");
    }
  });
  cursor.expect_end();
  FNR_REQUIRE(have_verb, "fnrd request: missing 'verb'");
  if (request.verb == Verb::Status) {
    // STATUS may address all campaigns (empty name); everything else
    // names exactly one.
    FNR_REQUIRE(request.campaign.empty() ||
                    valid_campaign_name(request.campaign),
                "fnrd request: invalid campaign name");
  } else {
    FNR_REQUIRE(valid_campaign_name(request.campaign),
                "fnrd request: '" << to_string(request.verb)
                                  << "' needs a campaign name matching "
                                     "[A-Za-z0-9._-]+ (no leading dot)");
  }
  FNR_REQUIRE(request.verb == Verb::Submit || request.spec_text.empty(),
              "fnrd request: only 'submit' carries a spec");
  FNR_REQUIRE(request.verb != Verb::Submit || !request.spec_text.empty(),
              "fnrd request: 'submit' needs a spec");
  return request;
}

std::string response_type(const std::string& payload) {
  JsonCursor cursor(payload, "fnrd response");
  cursor.expect('{');
  FNR_REQUIRE(cursor.parse_string() == "type",
              "fnrd response: expected leading 'type'");
  cursor.expect(':');
  return cursor.parse_string();
}

std::string response_field(const std::string& payload,
                           const std::string& name) {
  JsonCursor cursor(payload, "fnrd response");
  std::optional<std::string> value;
  cursor.object([&](const std::string& field) {
    if (field == name)
      value = cursor.capture_value();
    else
      cursor.skip_value();
  });
  FNR_REQUIRE(value.has_value(), "fnrd response has no '" << name << "' field");
  return *value;
}

namespace {

/// A response object opened with its "type" and "campaign" fields, which
/// every response but "error" leads with.
JsonWriter response(const char* type, const std::string& campaign) {
  JsonWriter json;
  json.begin_object().key("type").string(type).key("campaign").string(campaign);
  return json;
}

}  // namespace

std::string error_response(const std::string& message) {
  JsonWriter json;
  json.begin_object().key("type").string("error");
  return json.key("message").string(message).end_object().str();
}

std::string submitted_response(const std::string& campaign,
                               std::uint64_t cells) {
  return response("submitted", campaign).key("cells").uint64(cells)
      .end_object().str();
}

std::string status_response(const std::string& campaign,
                            const std::string& state, std::uint64_t done,
                            std::uint64_t total) {
  return response("status", campaign)
      .key("state").string(state)
      .key("done").uint64(done)
      .key("total").uint64(total)
      .end_object().str();
}

std::string cell_response(const std::string& campaign, const std::string& key,
                          bool ok, const std::string& agg_json,
                          const std::string& error) {
  JsonWriter json = response("cell", campaign);
  json.key("key").string(key).key("ok").boolean(ok);
  if (ok)
    json.key("agg").raw(agg_json);
  else
    json.key("error").string(error);
  return json.end_object().str();
}

std::string end_response(const std::string& campaign,
                         const std::string& state) {
  return response("end", campaign).key("state").string(state)
      .end_object().str();
}

std::string report_response(const std::string& campaign,
                            const std::string& report_json) {
  return response("report", campaign).key("report").raw(report_json)
      .end_object().str();
}

std::string cancelled_response(const std::string& campaign) {
  return response("cancelled", campaign).end_object().str();
}

std::string resumed_response(const std::string& campaign) {
  return response("resumed", campaign).end_object().str();
}

}  // namespace fnr::service
