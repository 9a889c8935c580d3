#include "bench.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include <sys/resource.h>

#include "util/json.hpp"

namespace perfbench {

void Tracer::add(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  values_[name] += value;
}

std::map<std::string, double> Tracer::values() const {
  std::lock_guard lock(mutex_);
  return values_;
}

void PassResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  errors.push_back(what);
}

namespace {

void write_metrics(std::ostream& os, const std::map<std::string, double>& m) {
  os << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    os << (first ? "" : ",") << "\"" << fnr::json_escape(name)
       << "\":" << buffer;
    first = false;
  }
  os << "}";
}

}  // namespace

std::string PassResult::to_json() const {
  std::ostringstream os;
  os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"digest\":\"" << digest << "\",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i)
    os << (i ? "," : "") << "\"" << fnr::json_escape(errors[i]) << "\"";
  os << "],\"e2e\":";
  write_metrics(os, e2e);
  os << ",\"layers\":";
  write_metrics(os, layers);
  os << ",\"counts\":";
  write_metrics(os, counts);
  os << ",\"status_rtts_ms\":[";
  for (std::size_t i = 0; i < status_rtts_ms.size(); ++i) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", status_rtts_ms[i]);
    os << (i ? "," : "") << buffer;
  }
  os << "]";
  os << "}";
  return os.str();
}

std::string digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

Observer::Observer(std::function<void()> query,
                   std::chrono::microseconds think)
    : query_(std::move(query)), think_(think), thread_([this] {
        for (;;) {
          {
            std::lock_guard lock(mutex_);
            if (stopping_) return;
          }
          const auto start = Clock::now();
          try {
            query_();
          } catch (...) {
            std::lock_guard lock(mutex_);
            if (!error_) error_ = std::current_exception();
            return;
          }
          const double ms = seconds_since(start) * 1e3;
          std::unique_lock lock(mutex_);
          samples_ms_.push_back(ms);
          wake_.wait_for(lock, think_, [this] { return stopping_; });
        }
      }) {}

Observer::~Observer() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<double> Observer::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(error_);
  return samples_ms_;
}

std::string with_spec_line(const std::string& text, const std::string& key,
                           const std::string& value) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  bool replaced = false;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    std::string head = line.substr(0, eq);
    head.erase(head.find_last_not_of(" \t") + 1);
    if (eq != std::string::npos && head == key) {
      line = key + " = " + value;
      replaced = true;
    }
    out << line << "\n";
  }
  if (!replaced) out << key << " = " << value << "\n";
  return out.str();
}

}  // namespace perfbench
