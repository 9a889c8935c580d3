// Precondition / invariant checking helpers.
//
// FNR_CHECK is used for conditions that must hold regardless of build type
// (configuration errors, violated preconditions of public API calls). It
// throws std::logic_error so callers and tests can observe the failure.
// FNR_REQUIRE is the same for user input, with the plain message only.
// FNR_ASSERT is a debug-only internal sanity check.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace fnr {

/// Error thrown when a checked precondition or invariant fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace detail

}  // namespace fnr

#define FNR_CHECK(expr)                                               \
  do {                                                                \
    if (!(expr))                                                      \
      ::fnr::detail::check_failed(#expr, __FILE__, __LINE__, "");     \
  } while (false)

#define FNR_CHECK_MSG(expr, msg)                                      \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream fnr_check_os;                                \
      fnr_check_os << msg;                                            \
      ::fnr::detail::check_failed(#expr, __FILE__, __LINE__,          \
                                  fnr_check_os.str());                \
    }                                                                 \
  } while (false)

/// FNR_CHECK_MSG for user-input errors (a bad or missing flag): the
/// CheckError carries the plain message, without the check expression or
/// source location, which would only be noise to the user.
#define FNR_REQUIRE(expr, msg)                                        \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream fnr_check_os;                                \
      fnr_check_os << msg;                                            \
      throw ::fnr::CheckError(fnr_check_os.str());                    \
    }                                                                 \
  } while (false)

#ifdef NDEBUG
#define FNR_ASSERT(expr) ((void)0)
#else
#define FNR_ASSERT(expr) FNR_CHECK(expr)
#endif
