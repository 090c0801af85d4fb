#ifndef CRE_CORE_LOGGING_H_
#define CRE_CORE_LOGGING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace cre {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Process-wide minimum level; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Destination for formatted log lines (without trailing newline). The
/// default sink writes to stderr. Passing an empty function restores the
/// default. The sink may be called concurrently from any thread.
using LogSink = std::function<void(LogLevel, const std::string&)>;
void SetLogSink(LogSink sink);

/// One key=value field of a structured log event. Values that contain
/// spaces, quotes, or '=' are rendered double-quoted with escapes.
struct LogField {
  LogField(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}
  LogField(std::string k, const char* v) : key(std::move(k)), value(v) {}
  LogField(std::string k, double v);
  LogField(std::string k, std::int64_t v);
  LogField(std::string k, std::uint64_t v);
  LogField(std::string k, int v);
  LogField(std::string k, bool v);

  std::string key;
  std::string value;
};

/// Emits one structured line: `event=<event> key=value key2="two words"`.
/// Query-scoped events carry a query_id field first, so log lines from
/// concurrent queries can be correlated:
///   LogStructured(LogLevel::kWarning, "slow_query",
///                 {{"query_id", id}, {"seconds", secs}});
void LogStructured(LogLevel level, const std::string& event,
                   const std::vector<LogField>& fields);

/// Test helper: installs a capturing sink on construction and restores
/// the previous behavior on destruction. Captured lines are the full
/// formatted messages (prefix included for CRE_LOG, `event=...` form for
/// LogStructured).
class ScopedLogCapture {
 public:
  ScopedLogCapture();
  ~ScopedLogCapture();

  ScopedLogCapture(const ScopedLogCapture&) = delete;
  ScopedLogCapture& operator=(const ScopedLogCapture&) = delete;

  std::vector<std::string> lines() const;
  /// True if any captured line contains `needle`.
  bool Contains(const std::string& needle) const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

namespace internal {

/// Stream-style log emitter: destructor hands one line to the sink.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

/// Logs "CHECK failed: <cond>" for `file`:`line` and aborts. Out of
/// line, so a CRE_CHECK costs its caller one branch and stays small
/// enough to inline (the typed Column accessors sit in hot loops).
[[noreturn]] void CheckFailed(const char* cond, const char* file, int line);

}  // namespace internal

#define CRE_LOG(level)                                             \
  ::cre::internal::LogMessage(::cre::LogLevel::k##level, __FILE__, \
                              __LINE__)

/// Internal invariant check that aborts on failure (active in all builds).
#define CRE_CHECK(cond)                                            \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::cre::internal::CheckFailed(#cond, __FILE__, __LINE__);     \
    }                                                              \
  } while (false)

#define CRE_DCHECK(cond) CRE_CHECK(cond)

}  // namespace cre

#endif  // CRE_CORE_LOGGING_H_
