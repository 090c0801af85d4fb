#ifndef CRE_CORE_STATUS_H_
#define CRE_CORE_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace cre {

/// Error categories used across the engine. Mirrors the Arrow/RocksDB
/// convention: APIs return Status (or Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kTypeError,
  kNotImplemented,
  kInternal,
  kResourceExhausted,
  kAborted,
  kCancelled,
  kDeadlineExceeded,
  kIoError,
};

/// Returns a human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

/// A success-or-error outcome. Cheap to copy in the OK case (no allocation);
/// error states carry a code and a message. [[nodiscard]] on the class makes
/// silently dropping a returned Status a compile warning (an error in CI):
/// handle it, propagate it with CRE_RETURN_NOT_OK, or write `(void)` with a
/// comment saying why dropping is safe.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_shared<Rep>(Rep{code, std::move(msg)});
    }
  }

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->msg : kEmpty;
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsTypeError() const { return code() == StatusCode::kTypeError; }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsIoError() const { return code() == StatusCode::kIoError; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Aborts the process if this status is not OK. Use only in tests,
  /// examples, and benches where errors are programming mistakes.
  void Check() const;

 private:
  struct Rep {
    StatusCode code;
    std::string msg;
  };
  std::shared_ptr<Rep> rep_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK Status from the current function.
#define CRE_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::cre::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                  \
  } while (false)

/// Evaluates an expression returning Result<T>; on success binds the value,
/// on failure propagates the status.
#define CRE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                              \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).ValueUnsafe();

#define CRE_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define CRE_ASSIGN_OR_RETURN_NAME(x, y) CRE_ASSIGN_OR_RETURN_CONCAT(x, y)
#define CRE_ASSIGN_OR_RETURN(lhs, rexpr)                                      \
  CRE_ASSIGN_OR_RETURN_IMPL(CRE_ASSIGN_OR_RETURN_NAME(_res_, __COUNTER__), \
                            lhs, rexpr)

}  // namespace cre

#endif  // CRE_CORE_STATUS_H_
