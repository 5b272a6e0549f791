#ifndef CROWDFUSION_COMMON_STATUS_H_
#define CROWDFUSION_COMMON_STATUS_H_

#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace crowdfusion::common {

/// Error categories used across the library. Mirrors the usual database
/// Status idiom (RocksDB / Arrow): functions that can fail return a Status
/// or a Result<T>; exceptions are not used on library paths.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kResourceExhausted,
  kInternal,
  kDeadlineExceeded,
  kUnavailable,
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy on the success path (no
/// allocation); carries a message only when not OK.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value-or-error container, analogous to absl::StatusOr<T>.
///
/// Usage:
///   Result<Foo> r = MakeFoo(...);
///   if (!r.ok()) return r.status();
///   Foo& foo = r.value();
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : rep_(std::move(value)) {}
  /// Implicit construction from a non-OK status (failure). Constructing a
  /// Result from an OK status is a programming error and aborts.
  Result(Status status) : rep_(std::move(status)) {
    if (std::get<Status>(rep_).ok()) {
      std::abort();  // OK status carries no value; this is a logic bug.
    }
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    // get_if (not get) so GCC's inliner never sees a read of the Status
    // alternative on the ok() path; std::get here trips a spurious
    // -Wmaybe-uninitialized in GCC 12's variant handling.
    const Status* error = std::get_if<Status>(&rep_);
    if (error != nullptr) return *error;
    // A valueless-by-exception rep_ holds neither alternative; reporting
    // OK for it would turn a failure into silent success.
    if (rep_.valueless_by_exception()) std::abort();
    return kOk;
  }

  /// Precondition: ok(). Aborts otherwise.
  const T& value() const& {
    CheckOk();
    return std::get<T>(rep_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(rep_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) std::abort();
  }

  std::variant<T, Status> rep_;
};

}  // namespace crowdfusion::common

/// Propagates a non-OK Status from an expression, RocksDB-style.
#define CF_RETURN_IF_ERROR(expr)                          \
  do {                                                    \
    ::crowdfusion::common::Status _cf_status = (expr);    \
    if (!_cf_status.ok()) return _cf_status;              \
  } while (false)

/// Evaluates a Result<T> expression; on error returns its status, otherwise
/// assigns the value to `lhs`.
#define CF_ASSIGN_OR_RETURN(lhs, expr)        \
  auto CF_CONCAT_(_cf_result, __LINE__) = (expr);             \
  if (!CF_CONCAT_(_cf_result, __LINE__).ok()) \
    return CF_CONCAT_(_cf_result, __LINE__).status();        \
  lhs = std::move(CF_CONCAT_(_cf_result, __LINE__)).value()

#define CF_CONCAT_IMPL_(a, b) a##b
#define CF_CONCAT_(a, b) CF_CONCAT_IMPL_(a, b)

#endif  // CROWDFUSION_COMMON_STATUS_H_
