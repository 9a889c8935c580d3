// Minimal command-line parsing for bench and example binaries.
//
// Accepts `--name=value` and `--flag` forms. Unknown options are an error so
// that typos in experiment sweeps fail loudly instead of silently running
// the default configuration. Malformed values are also errors: empty values
// (`--trials=`), trailing garbage, and out-of-range numbers all throw
// instead of silently parsing to 0 or clamping.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>

namespace fnr {

class Cli {
 public:
  /// Parses argv. Throws CheckError on malformed input. User-input errors
  /// (an argument without `--`, a bad boolean, an unknown option) carry
  /// the plain message, without a check expression or source location.
  Cli(int argc, const char* const* argv);

  /// Declares an option and returns its value (or `fallback` if absent).
  /// Throws CheckError on an empty value, trailing garbage, or a value that
  /// overflows a 64-bit integer (no silent clamping to LLONG_MAX/MIN), and
  /// with a plain message naming the flag and its range on a value outside
  /// [min, max] ("--threads must be in [0, 4096], got -1"; "--reps must be
  /// >= 1, got 0" when there is no upper bound).
  [[nodiscard]] std::int64_t get_int(
      const std::string& name, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max());
  /// Same contract for doubles (empty, malformed, and ERANGE values throw).
  [[nodiscard]] double get_double(const std::string& name, double fallback);
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback);
  /// Boolean option. Accepted spellings (case-sensitive):
  ///   on:  `--flag`, `--flag=1`, `--flag=true`, `--flag=yes`, `--flag=on`
  ///   off: absent, `--flag=0`, `--flag=false`, `--flag=no`, `--flag=off`
  /// Any other value throws CheckError (historically `--flag=no` silently
  /// meant *on*; unrecognized spellings are now rejected).
  [[nodiscard]] bool get_flag(const std::string& name);

  /// Call after all get_* declarations and before any required-flag check.
  /// `--help` (unless declared) prints `usage:` and the declared options to
  /// stdout and exits 0. Otherwise throws if the user passed an option that
  /// was never declared; the message names the option and lists the
  /// declared ones.
  void reject_unknown() const;

 private:
  std::string program_;  ///< argv[0] without its directory
  std::map<std::string, std::string> values_;
  std::set<std::string> declared_;
};

/// A binary's main(): runs `body`, turning a CheckError (bad flags, a
/// degenerate configuration) into its message on stderr and exit code 2
/// instead of an abort through std::terminate.
[[nodiscard]] int guarded_main(int argc, char** argv,
                               int (*body)(int, char**));

}  // namespace fnr
