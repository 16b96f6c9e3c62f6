#include "support/status.hpp"

namespace fusedp {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kInvalidPipeline: return "invalid-pipeline";
    case ErrorCode::kInvalidSchedule: return "invalid-schedule";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kSearchBudgetExhausted: return "search-budget-exhausted";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kAllocationFailed: return "allocation-failed";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kFaultInjected: return "fault-injected";
    case ErrorCode::kResourceExhausted: return "resource-exhausted";
  }
  return "unknown";
}

int exit_code(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidPipeline:
    case ErrorCode::kInvalidSchedule:
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kIoError:
      return 3;
    case ErrorCode::kSearchBudgetExhausted:
    case ErrorCode::kDeadlineExceeded:
      return 4;
    case ErrorCode::kResourceExhausted:
      return 6;
    default:
      return 5;
  }
}

void fail(const std::string& msg, const char* file, int line) {
  fail(ErrorCode::kInternal, msg, file, line);
}

void fail(ErrorCode code, const std::string& msg, const char* file, int line) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": " + msg,
              code);
}

}  // namespace fusedp
