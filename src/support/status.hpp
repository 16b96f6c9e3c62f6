// Error handling primitives for FuseDP.
//
// The library throws `fusedp::Error` for construction/usage errors (invalid
// pipeline specs, schedule mismatches); hot paths use FUSEDP_DCHECK which
// compiles away in release builds.  Every Error carries an ErrorCode so
// callers (the CLI, the autoschedule fallback ladder, scripted users) can
// dispatch on the failure *kind* without parsing the message.  Result<T>
// offers the same taxonomy for non-throwing APIs.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace fusedp {

// The failure taxonomy.  Codes group failures by what the caller can do
// about them, not by where they were raised:
//  * kInvalidPipeline / kInvalidSchedule / kInvalidArgument — caller bug or
//    bad input; retrying cannot help.
//  * kSearchBudgetExhausted / kDeadlineExceeded — a search or execution hit
//    a resource valve; for a search, a cheaper tier (bounded DP, greedy,
//    unfused) can still produce a valid result.
//    kDeadlineExceeded is also the terminal state of a run whose per-request
//    deadline expired mid-execution (Options::run_deadline_seconds).
//  * kAllocationFailed — out of memory; shrinking the problem may help.
//  * kResourceExhausted — the process-wide ResourceGovernor rejected an
//    allocation that would exceed the configured memory budget; retrying
//    later (after other requests release memory) or shrinking may help.
//  * kIoError — filesystem trouble loading/saving schedules.
//  * kFaultInjected — raised only by an armed test FaultInjector.
//  * kInternal — invariant violation inside FuseDP itself.
enum class ErrorCode : std::uint8_t {
  kInternal = 0,
  kInvalidPipeline,
  kInvalidSchedule,
  kInvalidArgument,
  kSearchBudgetExhausted,
  kDeadlineExceeded,
  kAllocationFailed,
  kIoError,
  kFaultInjected,
  kResourceExhausted,
};

// Stable lowercase name, e.g. "deadline-exceeded" (for logs and the CLI).
const char* error_code_name(ErrorCode code);

// The command-line tools' process exit code for `code`, one per family so
// scripted callers can dispatch on it (docs/cli.md): invalid input 3,
// budget/deadline 4, internal (and anything unexpected) 5, resource
// budget 6.
int exit_code(ErrorCode code);

class Error : public std::runtime_error {
 public:
  explicit Error(std::string msg, ErrorCode code = ErrorCode::kInternal)
      : std::runtime_error(std::move(msg)), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

[[noreturn]] void fail(const std::string& msg, const char* file, int line);
[[noreturn]] void fail(ErrorCode code, const std::string& msg,
                       const char* file, int line);

// Formats "<cond>" failure context and throws fusedp::Error (kInternal).
#define FUSEDP_CHECK(cond, msg)                              \
  do {                                                       \
    if (!(cond)) ::fusedp::fail((msg), __FILE__, __LINE__);  \
  } while (0)

// Same, but the thrown Error carries `code`.
#define FUSEDP_CHECK_CODE(cond, code, msg)                           \
  do {                                                               \
    if (!(cond)) ::fusedp::fail((code), (msg), __FILE__, __LINE__);  \
  } while (0)

#ifdef NDEBUG
#define FUSEDP_DCHECK(cond, msg) \
  do {                           \
  } while (0)
#else
#define FUSEDP_DCHECK(cond, msg) FUSEDP_CHECK(cond, msg)
#endif

// A value-or-coded-error holder for APIs that must not throw (tier drivers,
// batch parsers).  Deliberately tiny: construct from a T or an Error, test
// ok(), then take value() or error().  Accessing the wrong side is itself an
// internal error (throws), so misuse cannot silently read garbage.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}                    // NOLINT
  Result(Error error) : v_(std::move(error)) {}                // NOLINT

  static Result failure(ErrorCode code, std::string msg) {
    return Result(Error(std::move(msg), code));
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    FUSEDP_CHECK(ok(), "Result::value() on an error Result");
    return std::get<T>(v_);
  }
  T&& value() && {
    FUSEDP_CHECK(ok(), "Result::value() on an error Result");
    return std::get<T>(std::move(v_));
  }
  T value_or(T def) const {
    return ok() ? std::get<T>(v_) : std::move(def);
  }

  const Error& error() const {
    FUSEDP_CHECK(!ok(), "Result::error() on an ok Result");
    return std::get<Error>(v_);
  }
  ErrorCode code() const { return error().code(); }

 private:
  std::variant<T, Error> v_;
};

}  // namespace fusedp
