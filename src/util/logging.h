// Minimal leveled logging to stderr.
//
// Usage: DQUAG_LOG(INFO) << "trained " << epochs << " epochs";
// Level can be raised globally via SetLogLevel to silence benchmark runs.

#ifndef DQUAG_UTIL_LOGGING_H_
#define DQUAG_UTIL_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace dquag {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the minimum level that is emitted. Defaults to kInfo.
void SetLogLevel(LogLevel level);

namespace internal_logging {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace dquag

#define DQUAG_LOG_DEBUG ::dquag::LogLevel::kDebug
#define DQUAG_LOG_INFO ::dquag::LogLevel::kInfo
#define DQUAG_LOG_WARNING ::dquag::LogLevel::kWarning
#define DQUAG_LOG_ERROR ::dquag::LogLevel::kError

#define DQUAG_LOG(severity)                                        \
  ::dquag::internal_logging::LogMessage(DQUAG_LOG_##severity,      \
                                        __FILE__, __LINE__)        \
      .stream()

#endif  // DQUAG_UTIL_LOGGING_H_
