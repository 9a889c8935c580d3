#include "util/json.hpp"

#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "util/table.hpp"

namespace fnr {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (const char raw : text) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[c >> 4]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(raw);
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

void JsonWriter::separate() {
  if (comma_) out_.push_back(',');
  comma_ = true;
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_.push_back(bracket);
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  out_.push_back(bracket);
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  string(name);
  out_.push_back(':');
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view text) {
  separate();
  out_.push_back('"');
  append_escaped(out_, text);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_.append(json);
  return *this;
}

JsonWriter& JsonWriter::uint64(std::uint64_t value) {
  return raw(std::to_string(value));
}

JsonWriter& JsonWriter::number(double value, int digits) {
  return raw(format_double(value, digits));
}

JsonWriter& JsonWriter::boolean(bool value) {
  return raw(value ? "true" : "false");
}

std::string JsonCursor::parse_string() {
  expect('"');
  std::string out;
  while (p_ < end_ && *p_ != '"') {
    if (*p_ != '\\') {
      out.push_back(*p_++);
      continue;
    }
    ++p_;  // consume the backslash
    FNR_REQUIRE(p_ < end_, context_ << ": dangling escape at end of input");
    const char code = *p_++;
    switch (code) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        // json_escape only emits \u00XX; anything above U+00FF would need
        // UTF-16 surrogate handling, which is outside the schema.
        FNR_REQUIRE(end_ - p_ >= 4, context_ << ": truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = *p_++;
          unsigned digit = 0;
          if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            digit = static_cast<unsigned>(h - 'a') + 10;
          else if (h >= 'A' && h <= 'F')
            digit = static_cast<unsigned>(h - 'A') + 10;
          else
            FNR_REQUIRE(false, context_ << ": bad \\u escape digit '" << h
                                        << "'");
          value = value * 16 + digit;
        }
        FNR_REQUIRE(value <= 0xFF,
                    context_ << ": \\u escapes above U+00FF are not in "
                                "the schema");
        out.push_back(static_cast<char>(value));
        break;
      }
      default:
        FNR_REQUIRE(false, context_ << ": unsupported escape '\\" << code
                                    << "'");
    }
  }
  expect('"');
  return out;
}

double JsonCursor::parse_number() {
  skip_ws();
  char* after = nullptr;
  const double value = std::strtod(p_, &after);
  FNR_REQUIRE(after != p_, context_ << ": expected a number");
  p_ = after;
  return value;
}

std::uint64_t JsonCursor::parse_uint64() {
  skip_ws();
  FNR_REQUIRE(p_ < end_ && *p_ != '-',
              context_ << ": expected a non-negative integer");
  char* after = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(p_, &after, 10);
  FNR_REQUIRE(after != p_, context_ << ": expected an integer");
  FNR_REQUIRE(errno != ERANGE,
              context_ << ": integer field out of 64-bit range");
  p_ = after;
  return value;
}

bool JsonCursor::parse_bool() {
  skip_ws();
  if (end_ - p_ >= 4 && std::string_view(p_, 4) == "true") {
    p_ += 4;
    return true;
  }
  if (end_ - p_ >= 5 && std::string_view(p_, 5) == "false") {
    p_ += 5;
    return false;
  }
  FNR_REQUIRE(false, context_ << ": expected true/false");
  throw std::logic_error("unreachable");
}

void JsonCursor::skip_value() {
  skip_ws();
  FNR_REQUIRE(p_ < end_, context_ << ": expected a value");
  if (*p_ == '"') {
    (void)parse_string();
    return;
  }
  if (*p_ == '{' || *p_ == '[') {
    FNR_REQUIRE(++depth_ <= kMaxDepth,
                context_ << ": values nested deeper than " << kMaxDepth);
    if (*p_ == '{') {
      object([this](const std::string&) { skip_value(); });
    } else {
      expect('[');
      if (!consume(']')) {
        do skip_value();
        while (consume(','));
        expect(']');
      }
    }
    --depth_;
    return;
  }
  if (*p_ == 't' || *p_ == 'f') {
    (void)parse_bool();
    return;
  }
  (void)parse_number();
}

}  // namespace fnr
