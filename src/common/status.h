// Status / Result<T>: exception-free error propagation for all subsystems.
//
// Guillotine's software hypervisor is specified (paper section 3.3) to treat
// any internal invariant violation as grounds for forced transition to
// Offline isolation; ordinary recoverable errors therefore flow through
// Status values rather than exceptions, keeping the set of "fatal" paths
// small and auditable.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace guillotine {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,   // capability / port rights violations
  kResourceExhausted,  // ring full, queue full, quota hit
  kFailedPrecondition, // wrong isolation level, core not halted, ...
  kOutOfRange,         // address or index beyond bounds
  kInternal,           // invariant violation inside the hypervisor TCB
  kUnavailable,        // device powered down / cable severed
  kDeadlineExceeded,
  kUnauthenticated,    // attestation or signature failure
  kAborted,            // vetoed by quorum, detector, or throttle
};

// Human-readable name for a status code ("OK", "PERMISSION_DENIED", ...).
std::string_view StatusCodeName(StatusCode code);

// A lightweight (code, message) pair. Copyable; empty message for kOk.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "PERMISSION_DENIED: model core attempted direct device access".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

Status OkStatus();
Status InvalidArgument(std::string_view msg);
Status NotFound(std::string_view msg);
Status AlreadyExists(std::string_view msg);
Status PermissionDenied(std::string_view msg);
Status ResourceExhausted(std::string_view msg);
Status FailedPrecondition(std::string_view msg);
Status OutOfRange(std::string_view msg);
Status Internal(std::string_view msg);
Status Unavailable(std::string_view msg);
Status DeadlineExceeded(std::string_view msg);
Status Unauthenticated(std::string_view msg);
Status Aborted(std::string_view msg);

// Result<T>: either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit from value and from Status so call sites read naturally.
  Result(T value) : data_(std::move(value)) {}
  Result(Status status) : data_(std::move(status)) {
    assert(!std::get<Status>(data_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(data_);
  }

  // Value accessors; callers must check ok() first (asserted in debug).
  T& value() {
    assert(ok());
    return std::get<T>(data_);
  }
  const T& value() const {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& take() {
    assert(ok());
    return std::move(std::get<T>(data_));
  }

  T value_or(T fallback) const { return ok() ? std::get<T>(data_) : std::move(fallback); }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }

 private:
  std::variant<T, Status> data_;
};

// Propagate a non-OK status out of the current function.
#define GLL_RETURN_IF_ERROR(expr)          \
  do {                                     \
    ::guillotine::Status _gll_st = (expr); \
    if (!_gll_st.ok()) {                   \
      return _gll_st;                      \
    }                                      \
  } while (0)

// Assign the value of a Result expression or propagate its status.
#define GLL_CONCAT_INNER_(a, b) a##b
#define GLL_CONCAT_(a, b) GLL_CONCAT_INNER_(a, b)
#define GLL_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) {                                 \
    return tmp.status();                           \
  }                                                \
  lhs = tmp.take()
#define GLL_ASSIGN_OR_RETURN(lhs, expr) \
  GLL_ASSIGN_OR_RETURN_IMPL_(GLL_CONCAT_(_gll_res_, __LINE__), lhs, expr)

}  // namespace guillotine

#endif  // SRC_COMMON_STATUS_H_
