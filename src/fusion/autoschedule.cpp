#include "fusion/autoschedule.hpp"

#include <algorithm>
#include <sstream>

#include "fusion/polymage_greedy.hpp"
#include "observe/observe.hpp"
#include "support/timing.hpp"

namespace fusedp {

namespace {

// Mirrors a TierAttempt into the plain-data observability record.
void emit_attempt(observe::Observer* obs, const TierAttempt& a) {
  if (obs == nullptr) return;
  observe::ScheduleAttempt sa;
  sa.tier = schedule_tier_name(a.tier);
  sa.group_limit = a.group_limit;
  sa.succeeded = a.succeeded;
  if (!a.succeeded) sa.code = error_code_name(a.code);
  sa.detail = a.detail;
  sa.states = a.states;
  sa.seconds = a.seconds;
  obs->on_schedule_attempt(sa);
}

// Codes a cheaper tier can still fix.  Anything else (invalid pipeline,
// internal invariant failures) propagates: retrying a different search
// strategy cannot repair bad input or a bug.
bool recoverable(ErrorCode code) {
  return code == ErrorCode::kSearchBudgetExhausted ||
         code == ErrorCode::kDeadlineExceeded ||
         code == ErrorCode::kAllocationFailed;
}

// Why a failed DP tier rules out every wider one.
const char* stop_reason(ErrorCode code) {
  switch (code) {
    case ErrorCode::kSearchBudgetExhausted: return "exceeded the state budget";
    case ErrorCode::kDeadlineExceeded: return "ran out of time";
    default: return "ran out of memory";
  }
}

std::string attempt_label(const TierAttempt& a) {
  std::string s = schedule_tier_name(a.tier);
  if (a.tier == ScheduleTier::kBoundedDp)
    s += "(limit=" + std::to_string(a.group_limit) + ")";
  return s;
}

}  // namespace

const char* schedule_tier_name(ScheduleTier tier) {
  switch (tier) {
    case ScheduleTier::kFullDp: return "full-dp";
    case ScheduleTier::kBoundedDp: return "bounded-dp";
    case ScheduleTier::kGreedy: return "greedy";
    case ScheduleTier::kUnfused: return "unfused";
  }
  return "unknown";
}

std::string Diagnostics::summary() const {
  std::ostringstream out;
  out << "auto-schedule: tier=" << schedule_tier_name(tier) << ", "
      << attempts.size() << (attempts.size() == 1 ? " attempt" : " attempts")
      << ", " << total_states << " DP states, " << total_seconds << "s\n";
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const TierAttempt& a = attempts[i];
    out << "  [" << i + 1 << "] " << attempt_label(a) << ": ";
    if (a.succeeded)
      out << "ok (" << a.states << " states, " << a.seconds << "s)"
          << (a.detail.empty() ? "" : " ") << a.detail;
    else
      out << "failed after " << a.states << " states, " << a.seconds
          << "s [" << error_code_name(a.code) << "] " << a.detail;
    out << "\n";
  }
  return out.str();
}

ScheduleResult auto_schedule(const Pipeline& pl, const CostModel& model,
                             const AutoScheduleOptions& opts,
                             observe::Observer* observer) {
  WallTimer ladder_timer;
  ScheduleResult result;
  Diagnostics& diag = result.diagnostics;

  const auto remaining = [&]() -> double {
    if (opts.deadline_seconds <= 0) return 0.0;  // no deadline
    return opts.deadline_seconds - ladder_timer.seconds();
  };
  const auto out_of_time = [&]() {
    return opts.deadline_seconds > 0 && remaining() <= 0;
  };

  // Records a tier that was not run.
  const auto skip = [&](ScheduleTier tier, int group_limit, ErrorCode code,
                        std::string detail) {
    TierAttempt a;
    a.tier = tier;
    a.group_limit = group_limit;
    a.code = code;
    a.detail = std::move(detail);
    emit_attempt(observer, a);
    diag.attempts.push_back(std::move(a));
  };

  // Runs one search attempt; returns true (and fills result.grouping) on
  // success, records the failure and returns false on a recoverable error.
  // Only DP tiers are gated by the ladder deadline — greedy and unfused are
  // model-driven (no search explosion) and must stay reachable even when
  // the deadline is already gone.
  const auto attempt = [&](ScheduleTier tier, int group_limit,
                           const auto& search) {
    const bool deadline_gated =
        tier == ScheduleTier::kFullDp || tier == ScheduleTier::kBoundedDp;
    if (deadline_gated && out_of_time()) {
      skip(tier, group_limit, ErrorCode::kDeadlineExceeded,
           "skipped: ladder deadline already exhausted");
      return false;
    }
    TierAttempt a;
    a.tier = tier;
    a.group_limit = group_limit;
    WallTimer t;
    try {
      result.grouping = search(a);
      a.succeeded = true;
    } catch (const Error& e) {
      if (!recoverable(e.code())) throw;
      a.code = e.code();
      a.detail = e.what();
    } catch (const std::bad_alloc&) {
      a.code = ErrorCode::kAllocationFailed;
      a.detail = "allocation failed during search";
    }
    a.seconds = t.seconds();
    diag.total_states += a.states;
    const bool ok = a.succeeded;
    if (ok) diag.tier = tier;
    emit_attempt(observer, a);
    diag.attempts.push_back(std::move(a));
    return ok;
  };

  // One DpFusion serves every DP attempt, so the group costs and
  // feasibility verdicts one attempt computed are not recomputed by the
  // next.
  DpFusion dp(pl, model);
  const auto run_dp = [&](TierAttempt& a, int group_limit) {
    DpOptions dopts;
    dopts.group_limit = group_limit;
    dopts.max_states = opts.max_states;
    // Clamp away from <= 0: remaining() can dip negative between the gate
    // check and here, and a non-positive value would mean "no deadline".
    if (opts.deadline_seconds > 0)
      dopts.deadline_seconds = std::max(remaining(), 1e-9);
    dp.set_options(dopts);
    try {
      Grouping g = dp.run();
      a.states = dp.stats().groupings_enumerated;
      return g;
    } catch (...) {
      a.states = dp.stats().groupings_enumerated;
      throw;
    }
  };

  // DP tiers, narrowest first: bounded DP at group limits 2, 4, ...,
  // kBoundedMaxLimit (each below the stage count, or it would repeat the
  // full DP), then the full DP.  Each tier's state space contains the one
  // before it, so once a tier fails every wider one would fail too, and
  // the last tier that succeeded is the widest that fits.
  std::vector<int> limits;
  for (int limit = 2; limit <= kBoundedMaxLimit; limit *= 2)
    if (limit < pl.num_stages()) limits.push_back(limit);
  limits.push_back(0);
  bool done = false;
  std::string skipped;  // set once a DP tier fails: why the rest are skipped
  ErrorCode skip_code = ErrorCode::kInternal;
  for (const int limit : limits) {
    const ScheduleTier tier =
        limit > 0 ? ScheduleTier::kBoundedDp : ScheduleTier::kFullDp;
    if (!skipped.empty()) {
      skip(tier, limit, skip_code, skipped);
    } else if (attempt(tier, limit,
                       [&](TierAttempt& a) { return run_dp(a, limit); })) {
      done = true;
    } else {
      const TierAttempt& failed = diag.attempts.back();
      skip_code = failed.code;
      skipped = "skipped: " + attempt_label(failed) + " " +
                stop_reason(failed.code) +
                "; every wider tier's state space contains it";
    }
  }

  // No DP tier fitted: PolyMage-greedy — model-driven, no search explosion.
  if (!done)
    done = attempt(ScheduleTier::kGreedy, 0, [&](TierAttempt&) {
      const PolyMageGreedy greedy(pl, model);
      return greedy.run(opts.greedy_t1, opts.greedy_t2, opts.greedy_tolerance);
    });

  // Unfused floor.  Cannot fail short of OOM on tiny allocations,
  // so no catch: at that point there is nothing left to degrade to.
  if (!done) {
    TierAttempt a;
    a.tier = ScheduleTier::kUnfused;
    WallTimer t;
    result.grouping = singleton_grouping(pl, model);
    a.succeeded = true;
    a.seconds = t.seconds();
    diag.tier = ScheduleTier::kUnfused;
    emit_attempt(observer, a);
    diag.attempts.push_back(std::move(a));
  }

  diag.total_seconds = ladder_timer.seconds();
  std::string why;
  FUSEDP_CHECK(validate_grouping(pl, result.grouping, &why),
               "auto_schedule produced an invalid grouping: " + why);
  return result;
}

ScheduleResult auto_schedule(const Pipeline& pl, const MachineModel& machine,
                             const AutoScheduleOptions& opts,
                             observe::Observer* observer) {
  const CostModel model(pl, machine);
  return auto_schedule(pl, model, opts, observer);
}

}  // namespace fusedp
