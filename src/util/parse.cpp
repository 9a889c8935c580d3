#include "util/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"

namespace fnr {

// These parsers validate outside input only (flags, spec values, wire
// fields), so a rejection throws CheckError with the plain message: the
// check expression and source location would only be noise to the user
// who typed the value.

std::int64_t parse_int64(const std::string& text, const std::string& what) {
  // An empty value leaves strtoll's `end` at the start of the string,
  // which a bare *end == '\0' test would accept as a parse of "0".
  if (text.empty())
    throw CheckError(what + " expects an integer, got an empty value");
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    throw CheckError(what + " expects an integer, got '" + text + "'");
  if (errno == ERANGE)
    throw CheckError(what + " value '" + text +
                     "' overflows a 64-bit integer");
  return v;
}

std::uint64_t parse_uint64(const std::string& text, const std::string& what) {
  if (text.empty() || text[0] == '-')
    throw CheckError(what + " expects a non-negative integer, got '" + text +
                     "'");
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    throw CheckError(what + " expects an integer, got '" + text + "'");
  if (errno == ERANGE)
    throw CheckError(what + " value '" + text +
                     "' overflows a 64-bit integer");
  return v;
}

double parse_double(const std::string& text, const std::string& what) {
  if (text.empty())
    throw CheckError(what + " expects a number, got an empty value");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw CheckError(what + " expects a number, got '" + text + "'");
  // Only overflow is an error: glibc also sets ERANGE on underflow to a
  // subnormal (e.g. "1e-310"), which parses to a perfectly usable value.
  if (errno == ERANGE && std::abs(v) == HUGE_VAL)
    throw CheckError(what + " value '" + text + "' is out of double range");
  return v;
}

double parse_finite_double(const std::string& text, const std::string& what) {
  const double v = parse_double(text, what);
  if (!std::isfinite(v))
    throw CheckError(what + " must be a finite number, got '" + text + "'");
  return v;
}

}  // namespace fnr
