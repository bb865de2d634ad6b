#include "src/common/status.h"

namespace guillotine {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kPermissionDenied:
      return "PERMISSION_DENIED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kUnauthenticated:
      return "UNAUTHENTICATED";
    case StatusCode::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status OkStatus() { return Status(); }
Status InvalidArgument(std::string_view msg) {
  return Status(StatusCode::kInvalidArgument, std::string(msg));
}
Status NotFound(std::string_view msg) { return Status(StatusCode::kNotFound, std::string(msg)); }
Status AlreadyExists(std::string_view msg) {
  return Status(StatusCode::kAlreadyExists, std::string(msg));
}
Status PermissionDenied(std::string_view msg) {
  return Status(StatusCode::kPermissionDenied, std::string(msg));
}
Status ResourceExhausted(std::string_view msg) {
  return Status(StatusCode::kResourceExhausted, std::string(msg));
}
Status FailedPrecondition(std::string_view msg) {
  return Status(StatusCode::kFailedPrecondition, std::string(msg));
}
Status OutOfRange(std::string_view msg) { return Status(StatusCode::kOutOfRange, std::string(msg)); }
Status Internal(std::string_view msg) { return Status(StatusCode::kInternal, std::string(msg)); }
Status Unavailable(std::string_view msg) {
  return Status(StatusCode::kUnavailable, std::string(msg));
}
Status DeadlineExceeded(std::string_view msg) {
  return Status(StatusCode::kDeadlineExceeded, std::string(msg));
}
Status Unauthenticated(std::string_view msg) {
  return Status(StatusCode::kUnauthenticated, std::string(msg));
}
Status Aborted(std::string_view msg) { return Status(StatusCode::kAborted, std::string(msg)); }

}  // namespace guillotine
