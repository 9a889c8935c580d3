// Lightweight leveled logging.
//
// Off (Warn) by default so benches stay quiet; tests and examples can raise
// the level to trace protocol behaviour round by round. Safe to call from
// any thread: executor workers and fnrd threads log concurrently.
#pragma once

#include <sstream>
#include <string>

namespace fnr {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Off = 4 };

/// Process-wide log threshold: an atomic read with relaxed ordering, so a
/// level change reaches other threads promptly but orders nothing else.
[[nodiscard]] LogLevel log_level() noexcept;
void set_log_level(LogLevel level) noexcept;

namespace detail {
/// Writes "[LEVEL] msg\n" to stderr in one write, so concurrent lines never
/// interleave.
void emit_log(LogLevel level, const std::string& msg);
}

}  // namespace fnr

#define FNR_LOG(level, expr)                                  \
  do {                                                        \
    if (static_cast<int>(level) >=                            \
        static_cast<int>(::fnr::log_level())) {               \
      std::ostringstream fnr_log_os;                          \
      fnr_log_os << expr;                                     \
      ::fnr::detail::emit_log(level, fnr_log_os.str());       \
    }                                                         \
  } while (false)

#define FNR_TRACE(expr) FNR_LOG(::fnr::LogLevel::Trace, expr)
#define FNR_DEBUG(expr) FNR_LOG(::fnr::LogLevel::Debug, expr)
#define FNR_INFO(expr) FNR_LOG(::fnr::LogLevel::Info, expr)
#define FNR_WARN(expr) FNR_LOG(::fnr::LogLevel::Warn, expr)
