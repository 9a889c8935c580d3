#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace fnr {

// User-input errors throw CheckError with the plain message: the user
// mistyped a flag, so the FNR_CHECK expression and source location would
// only be noise.

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  program_.erase(0, program_.find_last_of('/') + 1);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw CheckError("expected --name[=value], got '" + arg + "'");
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    values_[body.substr(0, eq)] =
        eq == std::string::npos ? std::string("1") : body.substr(eq + 1);
  }
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback,
                          std::int64_t min, std::int64_t max) {
  declared_.insert(name);
  const auto it = values_.find(name);
  const std::int64_t value =
      it == values_.end() ? fallback
                          : parse_int64(it->second, "option --" + name);
  FNR_REQUIRE(value >= min && value <= max,
              "--" << name << " must be "
                   << (max == std::numeric_limits<std::int64_t>::max()
                           ? ">= " + std::to_string(min)
                           : "in [" + std::to_string(min) + ", " +
                                 std::to_string(max) + "]")
                   << ", got " << value);
  return value;
}

double Cli::get_double(const std::string& name, double fallback) {
  declared_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_double(it->second, "option --" + name);
}

std::string Cli::get_string(const std::string& name, std::string fallback) {
  declared_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

bool Cli::get_flag(const std::string& name) {
  declared_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  const std::string& v = it->second;
  // "1" is also what the bare `--flag` form parses to.
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw CheckError("option --" + name +
                   " expects a boolean (1/true/yes/on or 0/false/no/off), "
                   "got '" + v + "'");
}

void Cli::reject_unknown() const {
  std::string accepted;
  for (const std::string& known : declared_) accepted += " --" + known;
  if (values_.contains("help") && !declared_.contains("help")) {
    std::cout << "usage: " << program_ << " [--name[=value] ...]\naccepted:"
              << accepted << std::endl;
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (declared_.contains(name)) continue;
    throw CheckError("unknown option --" + name + "; accepted:" + accepted);
  }
}

int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const CheckError& error) {
    std::cerr << error.what() << "\n";
    return 2;
  }
}

}  // namespace fnr
