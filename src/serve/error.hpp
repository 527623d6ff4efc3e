// Typed-error API for the inference / MD serving layer.
//
// The training path (src/train, src/parallel) uses exceptions for invariant
// violations -- a crashed trainer is restarted from a checkpoint.  A serving
// process cannot afford that: one malformed request or one poisoned model
// output must never take down the process or, worse, silently corrupt a
// trajectory.  Every serving entry point therefore returns Result<T>: either
// a value or a ServeError carrying a machine-dispatchable code plus a
// human-readable diagnostic.
//
// This header is intentionally header-only and dependency-light so the MD
// and data layers can return typed errors without linking the serve engine.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace fastchg::serve {

/// Error taxonomy (docs/serving.md).  Codes are stable API: dispatch on the
/// code, log the message.
enum class ErrorCode {
  kInvalidInput,   ///< request rejected by validation (never reached the model)
  kNumericFault,   ///< non-finite / missing model output; watchdog abort
  kTimeout,        ///< per-request deadline exceeded
  kOverloaded,     ///< admission queue full or device unavailable after retries
};

inline const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kInvalidInput: return "invalid_input";
    case ErrorCode::kNumericFault: return "numeric_fault";
    case ErrorCode::kTimeout:      return "timeout";
    case ErrorCode::kOverloaded:   return "overloaded";
  }
  return "unknown";
}

struct ServeError {
  ErrorCode code = ErrorCode::kInvalidInput;
  std::string message;
};

/// Minimal expected<T, ServeError>.  Construction from T is success,
/// construction from ServeError is failure; value() on a failure (or error()
/// on a success) throws fastchg::Error -- callers are expected to branch on
/// ok() first, the throw only turns a misuse into a loud bug.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}                // NOLINT
  Result(ServeError error) : error_(std::move(error)) {}       // NOLINT
  static Result failure(ErrorCode code, std::string message) {
    return Result(ServeError{code, std::move(message)});
  }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    FASTCHG_CHECK(ok(), "Result::value() on error: " << error_->message);
    return *value_;
  }
  T& value() & {
    FASTCHG_CHECK(ok(), "Result::value() on error: " << error_->message);
    return *value_;
  }
  T&& value() && {
    FASTCHG_CHECK(ok(), "Result::value() on error: " << error_->message);
    return std::move(*value_);
  }

  const ServeError& error() const {
    FASTCHG_CHECK(!ok(), "Result::error() on success");
    return *error_;
  }
  ErrorCode code() const { return error().code; }

 private:
  std::optional<T> value_;
  std::optional<ServeError> error_;
};

/// Result<void>: default construction is success.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(ServeError error) : error_(std::move(error)) {}       // NOLINT
  static Result failure(ErrorCode code, std::string message) {
    return Result(ServeError{code, std::move(message)});
  }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const ServeError& error() const {
    FASTCHG_CHECK(!ok(), "Result::error() on success");
    return *error_;
  }
  ErrorCode code() const { return error().code; }

 private:
  std::optional<ServeError> error_;
};

}  // namespace fastchg::serve

/// Propagate the error of a Result-returning expression to the enclosing
/// Result-returning function (the ServeError converts to any Result<U>).
#define FASTCHG_SERVE_TRY(expr)                       \
  do {                                                \
    if (auto fastchg_r_ = (expr); !fastchg_r_.ok()) { \
      return fastchg_r_.error();                      \
    }                                                 \
  } while (0)
