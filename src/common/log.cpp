#include "common/log.h"

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <ctime>

namespace repro {
namespace {

LogLevel g_level = LogLevel::kWarn;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

std::uint64_t monotonic_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

/// Microseconds since the first log line of the process — short, stable
/// offsets instead of raw monotonic readings.
std::uint64_t us_since_start() {
  static const std::uint64_t start = monotonic_us();
  return monotonic_us() - start;
}

/// Small sequential thread ids (t0, t1, ...) in first-log order; raw
/// pthread ids are unreadably long and vary run to run anyway.
unsigned thread_seq() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
LogLevel log_level() { return g_level; }
bool log_enabled(LogLevel level) { return static_cast<int>(level) >= static_cast<int>(g_level); }

void log_write(LogLevel level, const char* fmt, ...) {
  // Format the whole line into one buffer and emit it with a single
  // fwrite: stdio locks the stream per call, so concurrent writers (the
  // node threads of an in-process cluster, the admin thread) never
  // interleave within a line.
  char line[1024];
  const std::uint64_t t = us_since_start();
  int off = std::snprintf(line, sizeof line, "[%5llu.%06llu] [t%u] [%s] ",
                          static_cast<unsigned long long>(t / 1'000'000),
                          static_cast<unsigned long long>(t % 1'000'000),
                          thread_seq(), level_tag(level));
  if (off < 0) return;
  if (off > static_cast<int>(sizeof line) - 2) off = sizeof line - 2;

  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(line + off, sizeof line - static_cast<std::size_t>(off) - 1,
                         fmt, args);
  va_end(args);
  if (n < 0) n = 0;
  std::size_t len = static_cast<std::size_t>(off) + static_cast<std::size_t>(n);
  if (len > sizeof line - 2) len = sizeof line - 2;  // truncated long line
  line[len] = '\n';
  std::fwrite(line, 1, len + 1, stderr);
}

}  // namespace repro
