#include "core/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace cre {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

// Sink state: guarded by g_sink_mu; g_has_custom_sink lets the hot path
// skip the lock entirely while the default stderr sink is installed.
std::mutex g_sink_mu;
std::atomic<bool> g_has_custom_sink{false};
LogSink& CustomSink() {
  static LogSink* sink = new LogSink();  // leaked: safe at exit
  return *sink;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

void Emit(LogLevel level, const std::string& line) {
  if (g_has_custom_sink.load(std::memory_order_acquire)) {
    LogSink sink;
    {
      std::lock_guard<std::mutex> lock(g_sink_mu);
      sink = CustomSink();
    }
    if (sink) {
      sink(level, line);
      return;
    }
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

bool NeedsQuoting(const std::string& v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t') return true;
  }
  return false;
}

void AppendFieldValue(const std::string& v, std::string* out) {
  if (!NeedsQuoting(v)) {
    *out += v;
    return;
  }
  *out += '"';
  for (char c : v) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        *out += c;
    }
  }
  *out += '"';
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  CustomSink() = std::move(sink);
  g_has_custom_sink.store(static_cast<bool>(CustomSink()),
                          std::memory_order_release);
}

LogField::LogField(std::string k, double v)
    : key(std::move(k)), value(FormatNumber(v)) {}
LogField::LogField(std::string k, std::int64_t v)
    : key(std::move(k)), value(std::to_string(v)) {}
LogField::LogField(std::string k, std::uint64_t v)
    : key(std::move(k)), value(std::to_string(v)) {}
LogField::LogField(std::string k, int v)
    : key(std::move(k)), value(std::to_string(v)) {}
LogField::LogField(std::string k, bool v)
    : key(std::move(k)), value(v ? "true" : "false") {}

void LogStructured(LogLevel level, const std::string& event,
                   const std::vector<LogField>& fields) {
  if (static_cast<int>(level) < g_log_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::string line = "event=";
  AppendFieldValue(event, &line);
  for (const auto& f : fields) {
    line += ' ';
    line += f.key;
    line += '=';
    AppendFieldValue(f.value, &line);
  }
  Emit(level, line);
}

struct ScopedLogCapture::State {
  mutable std::mutex mu;
  std::vector<std::string> lines;
};

ScopedLogCapture::ScopedLogCapture() : state_(std::make_shared<State>()) {
  auto state = state_;
  SetLogSink([state](LogLevel, const std::string& line) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->lines.push_back(line);
  });
}

ScopedLogCapture::~ScopedLogCapture() { SetLogSink(LogSink()); }

std::vector<std::string> ScopedLogCapture::lines() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->lines;
}

bool ScopedLogCapture::Contains(const std::string& needle) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  for (const auto& line : state_->lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >=
               g_log_level.load(std::memory_order_relaxed)),
      level_(level) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level_) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    Emit(level_, stream_.str());
  }
}

void CheckFailed(const char* cond, const char* file, int line) {
  LogMessage(LogLevel::kError, file, line) << "CHECK failed: " << cond;
  std::abort();
}

}  // namespace internal

}  // namespace cre
