#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>

namespace bufferdb {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kInternal,
  kNotImplemented,
  kParseError,
  kTypeError,
};

/// Error-or-success result of a fallible operation. Modeled on absl::Status:
/// cheap to copy in the OK case, carries a code and a message otherwise.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  [[nodiscard]] static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  [[nodiscard]] static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// A value or an error. Minimal absl::StatusOr analogue.
template <typename T>
class Result {
 public:
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {}                 // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  T& value() { return value_; }
  const T& value() const { return value_; }
  T& operator*() { return value_; }
  const T& operator*() const { return value_; }
  T* operator->() { return &value_; }
  const T* operator->() const { return &value_; }

 private:
  Status status_;
  T value_{};
};

#define BUFFERDB_RETURN_IF_ERROR(expr)            \
  do {                                            \
    ::bufferdb::Status _st = (expr);              \
    if (!_st.ok()) return _st;                    \
  } while (0)

#define BUFFERDB_ASSIGN_OR_RETURN(lhs, expr)      \
  auto lhs##_result = (expr);                     \
  if (!lhs##_result.ok()) return lhs##_result.status(); \
  auto& lhs = *lhs##_result

}  // namespace bufferdb

