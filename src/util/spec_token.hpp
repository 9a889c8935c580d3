// The one grammar of spec tokens: program labels, fault clauses, gathering
// predicates and topology families.
//
//   token := name [ sep pair { pair_sep pair } ]     pair := key '=' value
//
// Program, fault and gather tokens write `name?key=value&key=value`;
// topology tokens write `family:key=value:key=value`. Whitespace around the
// name, each key and each value is trimmed. Every key must be declared for
// the name and set at most once, every pair must be non-empty and hold an
// '=', and every value must be a finite number. A rejection throws a plain
// CheckError that names the token. The parameters come back sorted by
// name, so a canonical key does not depend on the order the user wrote.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace fnr {

/// The parameters a token name declares: key → default value.
using DeclaredParams = std::map<std::string, double>;

/// A parsed token: its name and the parameters it sets, sorted by key.
struct SpecToken {
  std::string name;
  std::map<std::string, double> params;
};

/// Resolves a token name to its declared parameters, or throws the kind's
/// own "unknown …; known: …" CheckError.
using DeclaredFn =
    std::function<const DeclaredParams&(const std::string& name)>;

/// Parses `text` by the grammar above. `kind` names the token in messages
/// ("program", "fault clause", "gather", "topology").
[[nodiscard]] SpecToken parse_spec_token(std::string_view kind,
                                         std::string_view text, char sep,
                                         char pair_sep,
                                         const DeclaredFn& declared);

/// The canonical `?key=value&key=value` suffix of `params` ("" when empty),
/// each value in its shortest round-trip decimal form: a canonical key is a
/// cell identity, so parsing it back yields the exact same values.
[[nodiscard]] std::string param_suffix(
    const std::map<std::string, double>& params);

/// Whether `value` is a non-negative integer (an integral double such as
/// 3.0 is one) small enough for std::uint64_t.
[[nodiscard]] bool is_integral(double value);

/// `value` as a non-negative integer (see is_integral); otherwise throws a
/// plain CheckError naming `what`.
[[nodiscard]] std::uint64_t integral_value(double value,
                                           const std::string& what);

/// `text` without leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

}  // namespace fnr
