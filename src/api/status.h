// Status — the error-reporting currency of the public API surface.
//
// Paths that used to assert or silently fall back (config validation,
// control requests) return a Status instead, so library callers can
// distinguish "applied" from "rejected, and why" without a crash or a
// side-channel string.
#pragma once

#include <string>
#include <utility>

namespace tamp::api {

class Status {
 public:
  Status() = default;  // OK

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    Status s;
    s.ok_ = false;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return ok_; }
  const std::string& message() const { return message_; }

  explicit operator bool() const { return ok_; }

 private:
  bool ok_ = true;
  std::string message_;  // empty when ok
};

}  // namespace tamp::api
