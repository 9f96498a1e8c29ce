#include "util/log.h"

#include <iostream>

namespace unicore::util {

namespace {

LogLevel g_level = LogLevel::kWarn;
Log::Sink g_sink;  // empty => default stderr sink

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel Log::level() { return g_level; }

void Log::set_level(LogLevel level) { g_level = level; }

void Log::set_sink(Sink sink) { g_sink = std::move(sink); }

void Log::write(LogLevel level, std::string_view source,
                std::string_view message) {
  if (level < Log::level()) return;
  if (g_sink) {
    g_sink(level, source, message);
    return;
  }
  std::cerr << "[" << level_name(level) << "] " << source << ": " << message
            << "\n";
}

}  // namespace unicore::util
