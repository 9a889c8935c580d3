// Minimal recursive-descent cursor over the JSON subset our artifacts use
// (objects, arrays, strings with the simple escapes, plain numbers,
// booleans).
//
// This is deliberately not a general JSON library: the sweep engine and the
// fnrd wire protocol emit fixed schemas and parse only each other's output,
// so the cursor rejects anything outside that subset instead of silently
// accepting it. Report/checkpoint emitters stay inside the historical
// no-escape subset (their bytes are pinned by the resume contract); the
// wire protocol carries arbitrary text (spec files, error messages)
// through json_escape, whose escapes parse_string decodes.
// Shared by src/sweep/, src/campaign/, and src/service/.
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

  [[nodiscard]] bool peek_is(char c) {
    skip_ws();
    return p_ < end_ && *p_ == c;
  }

  void expect(char c) {
    skip_ws();
    FNR_CHECK_MSG(p_ < end_ && *p_ == c,
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

  [[nodiscard]] double parse_number();

  /// Integer fields must round-trip exactly (strtod would lose precision
  /// above 2^53 and casting an out-of-range double is UB).
  [[nodiscard]] std::uint64_t parse_uint64();

  [[nodiscard]] bool parse_bool();

  /// Skips one value of any supported kind (used to preserve a field
  /// verbatim without interpreting it).
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
    FNR_CHECK_MSG(p_ == end_, context_ << ": trailing content after value");
  }

 private:
  std::string context_;
  const char* p_;
  const char* end_;
};

}  // namespace fnr
