#include "util/log.hpp"

#include <atomic>
#include <cstdio>

namespace fnr {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() noexcept {
  return g_level.load(std::memory_order_relaxed);
}
void set_log_level(LogLevel level) noexcept {
  g_level.store(level, std::memory_order_relaxed);
}

namespace detail {
void emit_log(LogLevel level, const std::string& msg) {
  std::string line = std::string("[") + level_name(level) + "] ";
  line += msg;
  line += '\n';
  // One fwrite holds stderr's lock for the whole line.
  std::fwrite(line.data(), 1, line.size(), stderr);
}
}  // namespace detail

}  // namespace fnr
