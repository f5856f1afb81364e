#include "common/log.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace sedspec {

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

std::atomic<LogLevel>& level_ref() {
  static std::atomic<LogLevel> g_level{[] {
    const char* env = std::getenv("SEDSPEC_LOG_LEVEL");
    return env != nullptr ? parse_log_level(env, LogLevel::kWarn)
                          : LogLevel::kWarn;
  }()};
  return g_level;
}

}  // namespace

uint64_t monotonic_ns() {
  // The epoch is captured on first use; all obs timestamps and log prefixes
  // share it, so they correlate within one process.
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

LogLevel parse_log_level(std::string_view text, LogLevel fallback) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "debug" || lower == "0") {
    return LogLevel::kDebug;
  }
  if (lower == "info" || lower == "1") {
    return LogLevel::kInfo;
  }
  if (lower == "warn" || lower == "warning" || lower == "2") {
    return LogLevel::kWarn;
  }
  if (lower == "error" || lower == "3") {
    return LogLevel::kError;
  }
  if (lower == "off" || lower == "none" || lower == "silent" ||
      lower == "4") {
    return LogLevel::kOff;
  }
  return fallback;
}

LogLevel log_level() { return level_ref().load(std::memory_order_relaxed); }

void set_log_level(LogLevel level) {
  level_ref().store(level, std::memory_order_relaxed);
}

void log_line(LogLevel level, std::string_view component,
              const std::string& message) {
  if (level < log_level()) {
    return;
  }
  const uint64_t ns = monotonic_ns();
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%llu.%06llu",
                static_cast<unsigned long long>(ns / 1000000000ull),
                static_cast<unsigned long long>((ns / 1000ull) % 1000000ull));
  std::cerr << "[" << stamp << "] [" << level_name(level) << "] " << component
            << ": " << message << "\n";
}

}  // namespace sedspec
