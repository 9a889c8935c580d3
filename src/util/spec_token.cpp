#include "util/spec_token.hpp"

#include <charconv>
#include <cmath>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace fnr {

std::string_view trim(std::string_view text) {
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(" \t\r\n");
  return text.substr(first, last - first + 1);
}

SpecToken parse_spec_token(std::string_view kind, std::string_view text,
                           char sep, char pair_sep,
                           const DeclaredFn& declared) {
  const auto cut = text.find(sep);
  SpecToken token;
  token.name = trim(text.substr(0, cut));
  const DeclaredParams& keys = declared(token.name);
  if (cut == std::string_view::npos) return token;

  const auto where = [&] {
    return std::string(kind) + " '" + std::string(text) + "'";
  };
  std::string_view rest = text.substr(cut + 1);
  for (;;) {
    const auto end = rest.find(pair_sep);
    const std::string_view pair = trim(rest.substr(0, end));
    const auto eq = pair.find('=');
    const std::string key(trim(pair.substr(0, eq)));
    FNR_REQUIRE(!pair.empty(), where() << ": empty key=value pair");
    FNR_REQUIRE(eq != std::string_view::npos && !key.empty(),
                where() << ": '" << pair << "' is not key=value");
    if (!keys.contains(key)) {
      std::string listing = keys.empty() ? " (none)" : "";
      for (const auto& [name, fallback] : keys) listing += " " + name;
      throw CheckError(where() + ": unknown parameter '" + key +
                       "'; declared:" + listing);
    }
    FNR_REQUIRE(!token.params.contains(key),
                where() << " repeats parameter '" << key << "'");
    token.params[key] = parse_finite_double(
        std::string(trim(pair.substr(eq + 1))),
        where() + ": parameter '" + key + "'");
    if (end == std::string_view::npos) break;
    rest = rest.substr(end + 1);
  }
  return token;
}

std::string param_suffix(const std::map<std::string, double>& params) {
  std::string out;
  for (const auto& [key, value] : params) {
    char buffer[64];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    FNR_CHECK(ec == std::errc());
    out += out.empty() ? '?' : '&';
    out += key;
    out += '=';
    out.append(buffer, end);
  }
  return out;
}

bool is_integral(double value) {
  return value >= 0.0 && value == std::floor(value) && value <= 1e18;
}

std::uint64_t integral_value(double value, const std::string& what) {
  FNR_REQUIRE(is_integral(value),
              what << " must be a non-negative integer, got " << value);
  return static_cast<std::uint64_t>(value);
}

}  // namespace fnr
