#include "util/logging.h"

#include <atomic>
#include <cstring>
#include <mutex>

namespace dquag {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};
std::mutex& LogMutex() {
  static std::mutex& m = *new std::mutex();
  return m;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) <
      g_log_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(LogMutex());
  std::cerr << stream_.str() << std::endl;
}

}  // namespace internal_logging
}  // namespace dquag
