// Deadline-bounded auto-scheduling with graceful degradation.
//
// Production schedulers treat schedule search as best-effort: a result must
// come back within budget even when the optimal search cannot finish
// (Halide's GPU auto-scheduler always keeps a naive schedule in reserve; the
// paper's Algorithm 3 exists to bound DP time).  auto_schedule() runs the
// search ladder
//
//     bounded DP (group_limit 2, 4, 8)  ->  full DP  ->  PolyMage-greedy
//                                                    ->  unfused
//
// under a wall-clock deadline and a DP state budget, narrowest DP tier
// first.  A group limit only removes DP transitions, so each DP tier's
// state space contains the one before it; the first DP tier that fails
// (Error codes kSearchBudgetExhausted / kDeadlineExceeded /
// kAllocationFailed) ends the DP tiers, the wider ones are recorded as
// skipped, and the last DP tier that succeeded answers.  Only when the
// first DP tier fails does the ladder drop to greedy; the final unfused
// tier cannot fail, so a valid schedule always comes back.  Which tier won
// and why the others lost is recorded in Diagnostics.
#pragma once

#include "fusion/dp.hpp"

namespace fusedp::observe {
class Observer;
}

namespace fusedp {

enum class ScheduleTier : std::uint8_t {
  kFullDp = 0,   // unbounded DP (Algorithm 1) finished in budget
  kBoundedDp,    // a group-size-bounded DP pass (Algorithm 3 building block)
  kGreedy,       // PolyMage-greedy heuristic
  kUnfused,      // singleton groups; the always-valid floor
};

const char* schedule_tier_name(ScheduleTier tier);

// Widest bounded-DP group limit: the bounded tiers run at 2, 4, ... up to
// it, doubling, before the full DP.  The schedule cache key hashes it
// (Options::schedule_fingerprint).
inline constexpr int kBoundedMaxLimit = 8;

struct AutoScheduleOptions {
  // Wall-clock budget across all search tiers; <= 0 means no deadline.
  double deadline_seconds = 0.0;
  // DP state budget per DP attempt (full and bounded tiers).
  std::uint64_t max_states = 50'000'000;
  // Configuration for the greedy tier.
  std::int64_t greedy_t1 = 64;
  std::int64_t greedy_t2 = 128;
  double greedy_tolerance = 0.4;
};

// One search attempt (successful or not) for post-mortems and logging.
struct TierAttempt {
  ScheduleTier tier = ScheduleTier::kUnfused;
  int group_limit = 0;  // bounded-DP attempts only
  bool succeeded = false;
  ErrorCode code = ErrorCode::kInternal;  // failure code when !succeeded
  std::string detail;                     // error message / stats summary
  std::uint64_t states = 0;               // DP states enumerated
  double seconds = 0.0;
};

struct Diagnostics {
  ScheduleTier tier = ScheduleTier::kUnfused;  // tier that produced the result
  // In ladder order.  DP tiers that a narrower tier's failure ruled out
  // appear with 0 states and a "skipped: ..." detail.
  std::vector<TierAttempt> attempts;
  std::uint64_t total_states = 0;
  double total_seconds = 0.0;

  // Human-readable multi-line report (printed by the CLI).
  std::string summary() const;
};

struct ScheduleResult {
  Grouping grouping;
  Diagnostics diagnostics;
};

// Never throws for budget/deadline/allocation exhaustion — those end the DP
// tiers.  Errors that no tier can fix (invalid pipeline) still
// propagate.  The returned grouping always passes validate_grouping().
// A non-null `observer` receives every ladder attempt (successful or not)
// as an observe::ScheduleAttempt the moment it resolves, in addition to its
// record in Diagnostics.
ScheduleResult auto_schedule(const Pipeline& pl, const CostModel& model,
                             const AutoScheduleOptions& opts = {},
                             observe::Observer* observer = nullptr);
ScheduleResult auto_schedule(const Pipeline& pl, const MachineModel& machine,
                             const AutoScheduleOptions& opts = {},
                             observe::Observer* observer = nullptr);

}  // namespace fusedp
