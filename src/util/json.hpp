// The one JSON codec of every artifact: merged sweep reports, checkpoint
// lines, fnrd frames and the benches' --json lines. JsonWriter is the one
// emitter: it puts the commas in itself and escapes every string through
// json_escape, so any text round-trips byte for byte. JsonCursor is the
// one reader: a recursive-descent cursor over what the writer emits
// (objects, arrays, escaped strings, plain numbers, booleans), whose
// object() is the one field loop. Each reader parses a fixed schema and
// rejects anything else with a CheckError that names its context.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace fnr {

/// Escapes `text` for embedding inside a JSON string literal: quote,
/// backslash, and the common control characters get two-character escapes,
/// any other byte below 0x20 becomes \u00XX. The inverse of what
/// JsonCursor::parse_string decodes.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Streaming, compact JSON writer whose members chain:
/// `json.begin_object().key("ok").boolean(true).end_object().str()` is
/// `{"ok":true}`.
class JsonWriter {
 public:
  /// Room for a whole aggregate or frame: one allocation per artifact.
  JsonWriter() { out_.reserve(512); }

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// An object key (escaped); the next call writes its value.
  JsonWriter& key(std::string_view name);
  /// A string value, escaped by json_escape.
  JsonWriter& string(std::string_view text);
  /// Bytes that already are one JSON value (an aggregate, a report).
  JsonWriter& raw(std::string_view json);
  JsonWriter& uint64(std::uint64_t value);
  /// A number formatted by format_double(value, digits).
  JsonWriter& number(double value, int digits);
  JsonWriter& boolean(bool value);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// A comma before a value or key, unless it opens its container or
  /// follows its key.
  void separate();

  std::string out_;
  bool comma_ = false;
};

class JsonCursor {
 public:
  /// `context` prefixes every error message (e.g. "perf JSON").
  explicit JsonCursor(const std::string& text,
                      std::string context = "JSON")
      : context_(std::move(context)),
        p_(text.data()),
        end_(text.data() + text.size()) {}

  void skip_ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r'))
      ++p_;
  }

  void expect(char c) {
    skip_ws();
    FNR_REQUIRE(p_ < end_ && *p_ == c,
                context_ << ": expected '" << c << "' with " << (end_ - p_)
                         << " bytes left");
    ++p_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string parse_string();

  /// Walks one object: for each field calls on_field(name), which must
  /// consume the field's value (and may throw on an unknown name). Accepts
  /// `{}` and `{"a":v,"b":v}`, nothing else.
  template <typename Fn>
  void object(Fn&& on_field) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string name = parse_string();
      expect(':');
      on_field(name);
    } while (consume(','));
    expect('}');
  }

  [[nodiscard]] double parse_number();

  /// Integer fields must round-trip exactly (strtod would lose precision
  /// above 2^53 and casting an out-of-range double is UB).
  [[nodiscard]] std::uint64_t parse_uint64();

  [[nodiscard]] bool parse_bool();

  /// Skips one value of any supported kind (used to preserve a field
  /// verbatim without interpreting it). Containers nested deeper than
  /// kMaxDepth throw rather than recurse until the stack overflows.
  void skip_value();

  /// Skips one value and returns its exact source bytes (no leading or
  /// trailing whitespace). Lets callers re-emit a field byte-identically
  /// without a parse → re-format round trip.
  [[nodiscard]] std::string capture_value() {
    skip_ws();
    const char* start = p_;
    skip_value();
    return std::string(start, static_cast<std::size_t>(p_ - start));
  }

  void expect_end() {
    skip_ws();
    FNR_REQUIRE(p_ == end_, context_ << ": trailing content after value");
  }

 private:
  /// Deeper than any artifact's schema (a report inside a frame is 5).
  static constexpr int kMaxDepth = 64;

  std::string context_;
  const char* p_;
  const char* end_;
  int depth_ = 0;  ///< containers skip_value is inside
};

}  // namespace fnr
