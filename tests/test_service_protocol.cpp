// Wire-protocol contract tests for the fnrd service layer: request
// round-trips through serialize/parse, the malformed-request battery
// (unknown verbs and fields, missing/invalid campaign names, spec rules),
// and the response builders' leading-"type" invariant that fnrc relies on.
#include "service/protocol.hpp"

#include <string>

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/json.hpp"

namespace fnr::service {
namespace {

Request round_trip(const Request& request) {
  return parse_request(serialize_request(request));
}

TEST(ServiceProtocol, VerbNamesRoundTrip) {
  for (const Verb verb : {Verb::Submit, Verb::Status, Verb::Stream,
                          Verb::Cancel, Verb::Resume, Verb::Report}) {
    EXPECT_EQ(parse_verb(to_string(verb)), verb);
  }
  EXPECT_THROW((void)parse_verb("gather"), CheckError);
  EXPECT_THROW((void)parse_verb(""), CheckError);
  EXPECT_THROW((void)parse_verb("SUBMIT"), CheckError);  // case-sensitive
}

TEST(ServiceProtocol, SubmitRoundTripsAllFields) {
  Request request;
  request.verb = Verb::Submit;
  request.campaign = "smoke-1";
  request.spec_text = "name = tiny\ntrials = 2\n";
  request.trials = 8;
  request.max_cells = 3;
  const Request parsed = round_trip(request);
  EXPECT_EQ(parsed.verb, Verb::Submit);
  EXPECT_EQ(parsed.campaign, "smoke-1");
  EXPECT_EQ(parsed.spec_text, request.spec_text);
  EXPECT_EQ(parsed.trials, 8u);
  EXPECT_EQ(parsed.max_cells, 3u);
}

TEST(ServiceProtocol, LegacyBatchFieldParsesAndIsIgnored) {
  // Submit frames persisted (or sent by clients) while the lock-step batch
  // kernel existed carry "batch"; they must parse to the same request.
  const std::string plain =
      R"({"verb":"submit","campaign":"old","spec":"name = t\n","trials":4})";
  const std::string legacy =
      R"({"verb":"submit","campaign":"old","spec":"name = t\n","trials":4,)"
      R"("batch":16})";
  const Request expected = parse_request(plain);
  const Request parsed = parse_request(legacy);
  EXPECT_EQ(serialize_request(parsed), serialize_request(expected));
  EXPECT_EQ(serialize_request(parsed), plain);
}

TEST(ServiceProtocol, SpecTextSurvivesEscaping) {
  // Spec text crosses the wire through json_escape: newlines, quotes,
  // backslashes, and control bytes must all survive a round trip.
  Request request;
  request.verb = Verb::Submit;
  request.campaign = "escapes";
  request.spec_text = "line1\nline2\t\"quoted\" back\\slash\x01end";
  const Request parsed = round_trip(request);
  EXPECT_EQ(parsed.spec_text, request.spec_text);
}

TEST(ServiceProtocol, StatusCampaignIsOptional) {
  Request request;
  request.verb = Verb::Status;
  const Request parsed = round_trip(request);
  EXPECT_EQ(parsed.verb, Verb::Status);
  EXPECT_TRUE(parsed.campaign.empty());
}

TEST(ServiceProtocol, NonStatusVerbsRequireACampaign) {
  for (const char* verb : {"stream", "cancel", "resume", "report"}) {
    const std::string payload =
        std::string("{\"verb\":\"") + verb + "\"}";
    EXPECT_THROW((void)parse_request(payload), CheckError) << verb;
  }
}

TEST(ServiceProtocol, CampaignNamesAreFilesystemSafe) {
  EXPECT_TRUE(valid_campaign_name("smoke"));
  EXPECT_TRUE(valid_campaign_name("A-b_c.9"));
  EXPECT_FALSE(valid_campaign_name(""));
  EXPECT_FALSE(valid_campaign_name(".hidden"));
  EXPECT_FALSE(valid_campaign_name("../escape"));
  EXPECT_FALSE(valid_campaign_name("a/b"));
  EXPECT_FALSE(valid_campaign_name("sp ace"));
  EXPECT_FALSE(valid_campaign_name(std::string(129, 'x')));
  EXPECT_TRUE(valid_campaign_name(std::string(128, 'x')));
}

TEST(ServiceProtocol, RejectsInvalidCampaignNamesOnTheWire) {
  EXPECT_THROW(
      (void)parse_request("{\"verb\":\"cancel\",\"campaign\":\"a/b\"}"),
      CheckError);
  EXPECT_THROW(
      (void)parse_request("{\"verb\":\"status\",\"campaign\":\".dot\"}"),
      CheckError);
}

TEST(ServiceProtocol, SubmitNeedsASpecAndOnlySubmitMayCarryOne) {
  EXPECT_THROW(
      (void)parse_request("{\"verb\":\"submit\",\"campaign\":\"x\"}"),
      CheckError);
  EXPECT_THROW((void)parse_request("{\"verb\":\"cancel\",\"campaign\":\"x\","
                                   "\"spec\":\"name = tiny\"}"),
               CheckError);
}

TEST(ServiceProtocol, RejectsMalformedPayloads) {
  EXPECT_THROW((void)parse_request(""), CheckError);
  EXPECT_THROW((void)parse_request("not json"), CheckError);
  EXPECT_THROW((void)parse_request("{\"campaign\":\"x\"}"), CheckError);
  EXPECT_THROW((void)parse_request("{\"verb\":\"status\""), CheckError);
  EXPECT_THROW(
      (void)parse_request("{\"verb\":\"status\",\"bogus\":1}"),
      CheckError);
  EXPECT_THROW((void)parse_request("{\"verb\":42}"), CheckError);
}

/// Every response payload must lead with its "type" field — fnrc and the
/// CI scripts dispatch on it without a full parse.
std::string leading_type(const std::string& payload) {
  JsonCursor cursor(payload, "response");
  cursor.expect('{');
  const std::string field = cursor.parse_string();
  EXPECT_EQ(field, "type") << payload;
  cursor.expect(':');
  return cursor.parse_string();
}

TEST(ServiceProtocol, ResponsesLeadWithTheirType) {
  EXPECT_EQ(leading_type(error_response("boom")), "error");
  EXPECT_EQ(leading_type(submitted_response("c", 7)), "submitted");
  EXPECT_EQ(leading_type(status_response("c", "running", 2, 7)), "status");
  EXPECT_EQ(leading_type(cell_response("c", "k", true, "{\"n\":1}", "")),
            "cell");
  EXPECT_EQ(leading_type(end_response("c", "done")), "end");
  EXPECT_EQ(leading_type(report_response("c", "{\"cells\":[]}")), "report");
  EXPECT_EQ(leading_type(cancelled_response("c")), "cancelled");
  EXPECT_EQ(leading_type(resumed_response("c")), "resumed");
}

TEST(ServiceProtocol, CellResponseEmbedsAggregateBytesVerbatim) {
  const std::string agg = "{\"trials\":4,\"success_rate\":0.5}";
  const std::string payload = cell_response("c", "whiteboard|ring", true,
                                            agg, "");
  EXPECT_NE(payload.find(agg), std::string::npos);
  // A failed cell carries the escaped error instead of aggregate bytes.
  const std::string failed =
      cell_response("c", "whiteboard|ring", false, "", "bad\nthing");
  EXPECT_NE(failed.find("bad\\nthing"), std::string::npos);
}

TEST(ServiceProtocol, CellKeysAreEscapedOnTheWire) {
  // Cell keys come from spec text; a quote or backslash in one must not
  // break the frame, and the key must parse back unchanged.
  const std::string key = "prog|\"quoted\"|back\\slash";
  const std::string payload = cell_response("c", key, true, "{\"n\":1}", "");
  JsonCursor cursor(payload, "cell response");
  std::string parsed_key;
  cursor.expect('{');
  do {
    const std::string field = cursor.parse_string();
    cursor.expect(':');
    if (field == "key")
      parsed_key = cursor.parse_string();
    else
      cursor.skip_value();
  } while (cursor.consume(','));
  cursor.expect('}');
  cursor.expect_end();
  EXPECT_EQ(parsed_key, key);
  // Keys without special characters keep their exact bytes.
  EXPECT_NE(cell_response("c", "whiteboard|ring", true, "{}", "")
                .find("\"key\":\"whiteboard|ring\""),
            std::string::npos);
}

TEST(ServiceProtocol, ReportResponseEmbedsReportVerbatim) {
  const std::string report = "{\"schema\":\"fnr-sweep/1\",\"cells\":[]}";
  const std::string payload = report_response("c", report);
  EXPECT_NE(payload.find(report), std::string::npos);
}

TEST(ServiceProtocol, ErrorMessagesAreEscapedOnTheWire) {
  const std::string payload = error_response("quote \" newline \n");
  EXPECT_EQ(leading_type(payload), "error");
  EXPECT_NE(payload.find("quote \\\" newline \\n"), std::string::npos);
  // The payload must itself parse as JSON.
  JsonCursor cursor(payload, "error response");
  cursor.expect('{');
  (void)cursor.parse_string();
  cursor.expect(':');
  (void)cursor.parse_string();
}

}  // namespace
}  // namespace fnr::service
