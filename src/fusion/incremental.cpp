#include "fusion/incremental.hpp"

#include "support/timing.hpp"

namespace fusedp {

IncFusion::IncFusion(const Pipeline& pl, const CostModel& model,
                     IncOptions opts)
    : pl_(&pl), model_(&model), opts_(opts) {}

Grouping IncFusion::run() {
  WallTimer timer;
  FUSEDP_CHECK_CODE(opts_.initial_limit >= 1 && opts_.step >= 2,
                    ErrorCode::kInvalidArgument, "bad incremental options");
  int limit = opts_.initial_limit;
  QuotientGraph q = QuotientGraph::identity(*pl_);
  Grouping current;
  // One DpFusion for all passes: group costs and feasibility verdicts of
  // original-stage sets carry over from pass to pass.
  DpFusion dp(*pl_, *model_);

  for (;;) {
    ++stats_.iterations;
    DpOptions dopts;
    dopts.group_limit = limit >= pl_->num_stages() ? 0 : limit;
    dopts.max_states = opts_.max_states;
    if (opts_.deadline_seconds > 0) {
      const double remaining = opts_.deadline_seconds - timer.seconds();
      FUSEDP_CHECK_CODE(remaining > 0, ErrorCode::kDeadlineExceeded,
                        "incremental grouping deadline exceeded after " +
                            std::to_string(stats_.iterations - 1) +
                            " iterations");
      dopts.deadline_seconds = remaining;
    }
    dp.set_options(dopts);
    current = dp.run_on(q);
    stats_.groupings_enumerated += dp.stats().groupings_enumerated;
    stats_.max_succ = std::max(stats_.max_succ, dp.stats().max_succ);
    if (dopts.group_limit == 0) break;  // final unbounded pass done
    // Coalesce the grouping into super-nodes and raise the limit.
    q = QuotientGraph::condense(*pl_, current);
    limit *= opts_.step;
  }
  stats_.seconds = timer.seconds();
  return current;
}

}  // namespace fusedp
