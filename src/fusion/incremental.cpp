#include "fusion/incremental.hpp"

#include "support/timing.hpp"

namespace fusedp {

namespace {

// First-pass group limit.  2 keeps the first pass (on the full stage graph,
// where parallel chains multiply the state space) small; later passes run
// on ever-smaller condensed graphs.
constexpr int kInitialLimit = 2;
constexpr int kLimitGrowth = 2;  // multiplicative growth of the limit

}  // namespace

IncFusion::IncFusion(const Pipeline& pl, const CostModel& model,
                     IncOptions opts)
    : pl_(&pl), model_(&model), opts_(opts) {}

Grouping IncFusion::run() {
  WallTimer timer;
  int limit = kInitialLimit;
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
    limit *= kLimitGrowth;
  }
  stats_.seconds = timer.seconds();
  return current;
}

}  // namespace fusedp
