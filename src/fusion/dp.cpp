#include "fusion/dp.hpp"

#include <algorithm>
#include <set>

#include "graph/partitions.hpp"
#include "support/timing.hpp"

namespace fusedp {

NodeSet QuotientGraph::expand(NodeSet quotient_nodes) const {
  NodeSet out;
  quotient_nodes.for_each([&](int n) {
    out = out | underlying[static_cast<std::size_t>(n)];
  });
  return out;
}

QuotientGraph QuotientGraph::identity(const Pipeline& pl) {
  QuotientGraph q;
  const int n = pl.num_stages();
  const NodeSet srcs = pl.graph().sources();
  const bool need_dummy = srcs.size() > 1;
  const int total = n + (need_dummy ? 1 : 0);
  FUSEDP_CHECK_CODE(total <= kMaxNodes, ErrorCode::kInvalidPipeline,
                    "pipeline too large for quotient graph");
  q.graph = Digraph(total);
  q.underlying.assign(static_cast<std::size_t>(total), NodeSet());
  for (int i = 0; i < n; ++i) {
    q.underlying[static_cast<std::size_t>(i)] = NodeSet::single(i);
    pl.graph().successors(i).for_each([&](int s) { q.graph.add_edge(i, s); });
  }
  if (need_dummy) {
    q.dummy = n;
    srcs.for_each([&](int s) { q.graph.add_edge(n, s); });
  }
  q.graph.finalize();
  return q;
}

QuotientGraph QuotientGraph::condense(const Pipeline& pl, const Grouping& g) {
  QuotientGraph q;
  const int n = static_cast<int>(g.groups.size());
  // Count quotient-level sources first to know whether a dummy is needed.
  auto group_index_of = [&](int stage) {
    for (int i = 0; i < n; ++i)
      if (g.groups[static_cast<std::size_t>(i)].stages.contains(stage))
        return i;
    FUSEDP_CHECK_CODE(false, ErrorCode::kInvalidSchedule,
                      "stage not covered by grouping");
    return -1;
  };
  std::vector<std::pair<int, int>> edges;
  std::vector<bool> has_pred(static_cast<std::size_t>(n), false);
  for (int s = 0; s < pl.num_stages(); ++s) {
    const int gs = group_index_of(s);
    pl.graph().successors(s).for_each([&](int t) {
      const int gt = group_index_of(t);
      if (gs != gt) {
        edges.emplace_back(gs, gt);
        has_pred[static_cast<std::size_t>(gt)] = true;
      }
    });
  }
  int nsources = 0;
  for (int i = 0; i < n; ++i)
    if (!has_pred[static_cast<std::size_t>(i)]) ++nsources;
  const bool need_dummy = nsources > 1;
  const int total = n + (need_dummy ? 1 : 0);
  FUSEDP_CHECK(total <= kMaxNodes, "grouping too large for quotient graph");
  q.graph = Digraph(total);
  q.underlying.assign(static_cast<std::size_t>(total), NodeSet());
  for (int i = 0; i < n; ++i)
    q.underlying[static_cast<std::size_t>(i)] =
        g.groups[static_cast<std::size_t>(i)].stages;
  for (auto [a, b] : edges)
    if (!q.graph.has_edge(a, b)) q.graph.add_edge(a, b);
  if (need_dummy) {
    q.dummy = n;
    for (int i = 0; i < n; ++i)
      if (!has_pred[static_cast<std::size_t>(i)]) q.graph.add_edge(n, i);
  }
  q.graph.finalize();
  return q;
}

DpFusion::DpFusion(const Pipeline& pl, const CostModel& model, DpOptions opts)
    : pl_(&pl), model_(&model), opts_(opts) {
  if (opts_.top_k < 1) opts_.top_k = 1;
}

void DpFusion::merge_candidate(Entry& e, double extra,
                               const std::vector<std::uint64_t>* prefix,
                               const Candidate& c) const {
  if (!(c.cost < kInfiniteCost)) return;
  const double cost = extra + c.cost;
  if (!(cost < kInfiniteCost)) return;
  const std::size_t k = static_cast<std::size_t>(opts_.top_k);
  // Strict < against the current worst keeps the first-found winner among
  // equal-cost candidates — the classic recurrence's tie-break for k = 1.
  if (e.cands.size() == k && !(cost < e.cands.back().cost)) return;

  Candidate nc;
  nc.cost = cost;
  if (prefix != nullptr) {
    nc.final_groups = *prefix;
    nc.final_groups.insert(nc.final_groups.end(), c.final_groups.begin(),
                           c.final_groups.end());
  } else {
    nc.final_groups = c.final_groups;
  }

  // Dedupe by the partition itself (group order is presentation only): the
  // same final grouping can be reached along many interleavings, and a
  // k-best list of k copies of one grouping would be useless.
  std::vector<std::uint64_t> canon = nc.final_groups;
  std::sort(canon.begin(), canon.end());
  std::vector<std::uint64_t> other;
  for (const Candidate& old : e.cands) {
    other = old.final_groups;
    std::sort(other.begin(), other.end());
    if (other == canon) return;  // same partition, same cost: keep the first
  }

  const auto pos = std::upper_bound(
      e.cands.begin(), e.cands.end(), cost,
      [](double v, const Candidate& x) { return v < x.cost; });
  e.cands.insert(pos, std::move(nc));
  if (e.cands.size() > k) e.cands.pop_back();
}

bool DpFusion::sandwich_free(NodeSet h) {
  // A group is valid iff no path between two of its members passes through
  // an outside node ("sandwich").  Per-group sandwich-freeness of every
  // group is equivalent to acyclicity of the final group quotient graph, so
  // this check is complete where Algorithm 1's local successor test
  // (lines 9-13) is only a special case.
  // The dummy source's edges are artificial (it is stripped from the final
  // grouping), so it must not contribute paths to the check.
  if (q_->dummy >= 0) h = h.without(q_->dummy);
  if (h.size() <= 1) return true;
  const auto it = sandwich_memo_.find(h.bits());
  if (it != sandwich_memo_.end()) return it->second;
  NodeSet reach;
  h.for_each([&](int n) { reach = reach | q_->graph.reachable_from(n); });
  bool ok = true;
  (reach - h).for_each([&](int t) {
    if (q_->graph.reachable_from(t).intersects(h)) ok = false;
  });
  sandwich_memo_.emplace(h.bits(), ok);
  return ok;
}

bool DpFusion::merge_feasible(NodeSet quotient_group) {
  const NodeSet stages = q_->expand(quotient_group);
  if (stages.size() <= 1) return true;
  const auto it = feas_memo_.find(stages.bits());
  if (it != feas_memo_.end()) return it->second;
  // Only *monotone* infeasibilities may prune here: a reduction in a
  // multi-stage group, a dynamic in-group access, or a scaling conflict can
  // never be fixed by adding more stages.  (Class-count overflow or
  // disconnectedness CAN resolve later and must not prune.)
  bool ok = true;
  stages.for_each([&](int s) {
    if (pl_->stage(s).kind == StageKind::kReduction) ok = false;
  });
  if (ok) ok = !solve_alignment(*pl_, stages).hard_conflict;
  feas_memo_.emplace(stages.bits(), ok);
  return ok;
}

double DpFusion::group_cost(NodeSet quotient_group) {
  const NodeSet stages = q_->expand(quotient_group);
  if (stages.empty()) return 0.0;  // dummy-only group
  const auto it = cost_memo_.find(stages.bits());
  if (it != cost_memo_.end()) return it->second;
  const double c = model_->cost(stages).candidate_cost();
  cost_memo_.emplace(stages.bits(), c);
  return c;
}

const DpFusion::Entry& DpFusion::solve(const std::vector<NodeSet>& groups) {
  Key key;
  key.reserve(groups.size());
  for (NodeSet g : groups) key.push_back(g.bits());
  std::sort(key.begin(), key.end());
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;

  ++stats_.groupings_enumerated;
  FUSEDP_CHECK_CODE(
      stats_.groupings_enumerated <= opts_.max_states,
      ErrorCode::kSearchBudgetExhausted,
      "DP state budget exhausted; use bounded incremental grouping");
  // Deadline valve, next to the state valve: sampled every 256 states to
  // keep the clock read off the hot path.
  if (opts_.deadline_seconds > 0 &&
      (stats_.groupings_enumerated & 0xFF) == 0 &&
      deadline_timer_.seconds() > opts_.deadline_seconds)
    fail(ErrorCode::kDeadlineExceeded,
         "DP deadline of " + std::to_string(opts_.deadline_seconds) +
             "s exceeded after " +
             std::to_string(stats_.groupings_enumerated) + " states",
         __FILE__, __LINE__);

  // State validity: the open groups must admit an execution order (their
  // quotient must be acyclic).  Per-group sandwich-freeness alone is not
  // enough — two internally-valid groups can be mutually cyclic (each
  // reaching into the other).  Thanks to the readiness discipline below, a
  // cycle always materializes among *concurrently open* groups, so this
  // state-level check is complete.  The dummy source's artificial edges are
  // excluded.
  {
    std::vector<NodeSet> real;
    real.reserve(groups.size());
    for (NodeSet g : groups) {
      if (q_->dummy >= 0) g = g.without(q_->dummy);
      if (!g.empty()) real.push_back(g);
    }
    if (!q_->graph.quotient_is_acyclic(real)) {
      Entry bad;  // infeasible state
      return memo_.emplace(std::move(key), std::move(bad)).first->second;
    }
  }

  NodeSet all_nodes;
  for (NodeSet g : groups) all_nodes = all_nodes | g;
  const NodeSet frontier = q_->graph.successors_of_set(all_nodes);

  // Readiness: a frontier node may only be grouped once every one of its
  // producers is inside the current state or already finalized
  // (equivalently: no producer is still downstream of the state).  This
  // processes the DAG in topological waves; any valid final grouping is
  // still constructible by finalizing its groups in quotient-topological
  // order, but the exponential interleaving of far-apart open chains is
  // eliminated.  The topologically-first frontier node is always ready, so
  // progress is guaranteed.  Deferred nodes reappear as successors of the
  // group that completes their last producer.
  NodeSet reach;
  all_nodes.for_each(
      [&](int n) { reach = reach | q_->graph.reachable_from(n); });
  NodeSet ready;
  frontier.for_each([&](int sj) {
    const NodeSet pending = (q_->graph.predecessors(sj) - all_nodes) & reach;
    if (pending.empty()) ready = ready.with(sj);
  });

  Entry e;
  if (frontier.empty()) {
    // Base case (Figure 5): every group is final.
    Candidate c;
    c.cost = 0.0;
    for (NodeSet g : groups) {
      c.cost += group_cost(g);
      c.final_groups.push_back(g.bits());
    }
    if (c.cost < kInfiniteCost) e.cands.push_back(std::move(c));
    return memo_.emplace(std::move(key), std::move(e)).first->second;
  }
  stats_.max_succ = std::max(stats_.max_succ, frontier.size());

  // Case I: grow some H_i by one of its successors.
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const NodeSet hi = groups[i];
    const NodeSet succ_full = q_->graph.successors_of_set(hi);
    const NodeSet candidates = (succ_full - all_nodes) & ready;
    candidates.for_each([&](int sj) {
      // Group-size bound (Algorithm 3's DP-GROUPING-BOUNDED).
      if (opts_.group_limit > 0) {
        const int sz = q_->expand(hi.with(sj)).size();
        if (sz > opts_.group_limit) return;
      }
      // Feasibility pruning: alignment constraints only get stricter as a
      // group grows, so a merge whose scaling/alignment already fails can
      // never be part of a finite-cost grouping (Algorithm 1 line 15's
      // validity check).  This is exact, not heuristic.
      if (!merge_feasible(hi.with(sj))) return;
      // Cycle-validity check: the complete sandwich-freeness condition
      // (Algorithm 1 lines 9-13 test only the immediate-successor special
      // case, which misses cycles formed by later growth).
      if (!sandwich_free(hi.with(sj))) return;
      std::vector<NodeSet> next = groups;
      next[i] = hi.with(sj);
      const Entry& sub = solve(next);
      for (const Candidate& c : sub.cands) merge_candidate(e, 0.0, nullptr, c);
    });
  }

  // Case II: finalize all of G; restart from every partition of the
  // successor frontier.
  double cost_g = 0.0;
  for (NodeSet g : groups) cost_g += group_cost(g);
  FUSEDP_CHECK(!ready.empty(), "non-empty frontier must have a ready node");
  if (cost_g < kInfiniteCost) {
    std::vector<std::uint64_t> finalized;
    finalized.reserve(groups.size());
    for (NodeSet g : groups) finalized.push_back(g.bits());
    auto try_partition = [&](const std::vector<NodeSet>& parts) {
      for (const NodeSet& p : parts) {
        if (opts_.group_limit > 0 &&
            q_->expand(p).size() > opts_.group_limit)
          return;
        if (!sandwich_free(p)) return;
      }
      const Entry& sub = solve(parts);
      for (const Candidate& c : sub.cands)
        merge_candidate(e, cost_g, &finalized, c);
    };
    if (ready.size() <= opts_.max_partition_width) {
      for_each_partition(ready, try_partition);
    } else {
      // Wide-frontier fallback: full Bell-number enumeration is
      // intractable, so restart every ready node in its own group.
      // Multi-node sibling groups can still arise on narrower frontiers or
      // via Case I growth; this trades a slice of the search space for
      // bounded time (in the spirit of Section 5's bounded variant).
      std::vector<NodeSet> singletons;
      ready.for_each([&](int n) { singletons.push_back(NodeSet::single(n)); });
      try_partition(singletons);
    }
  }

  return memo_.emplace(std::move(key), std::move(e)).first->second;
}

Grouping DpFusion::run() {
  const QuotientGraph q = QuotientGraph::identity(*pl_);
  return run_on(q);
}

Grouping DpFusion::run_on(const QuotientGraph& q) {
  std::vector<Grouping> all = run_top_k_on(q);
  return std::move(all.front());
}

std::vector<Grouping> DpFusion::run_top_k() {
  const QuotientGraph q = QuotientGraph::identity(*pl_);
  return run_top_k_on(q);
}

Grouping DpFusion::grouping_of(const QuotientGraph& q,
                               const Candidate& c) const {
  Grouping out;
  for (std::uint64_t bits : c.final_groups) {
    const NodeSet stages = q.expand(NodeSet(bits));
    if (stages.empty()) continue;  // dummy-only group
    GroupSchedule gs;
    gs.stages = stages;
    out.groups.push_back(gs);
  }
  complete_grouping(*pl_, *model_, out);
  std::string why;
  if (!validate_grouping(*pl_, out, &why)) { std::string dump = out.to_string(*pl_); FUSEDP_CHECK(false, "DP grouping invalid: " + why + "\n" + dump); }
  return out;
}

std::vector<Grouping> DpFusion::run_top_k_on(const QuotientGraph& q) {
  WallTimer timer;
  deadline_timer_.restart();
  q_ = &q;
  memo_.clear();
  cost_memo_.clear();
  feas_memo_.clear();
  sandwich_memo_.clear();

  int start = q.dummy;
  if (start < 0) {
    const NodeSet srcs = q.graph.sources();
    FUSEDP_CHECK(srcs.size() == 1, "expected single source or dummy");
    start = srcs.first();
  }
  const std::vector<NodeSet> initial = {NodeSet::single(start)};
  const Entry& best = solve(initial);
  FUSEDP_CHECK(!best.cands.empty(), "DP found no feasible grouping");

  // The in-DP dedupe works on quotient-node masks, where the dummy source
  // is a real node; two candidates that differ only in which group absorbed
  // the dummy collapse to the same stage-level partition once grouping_of
  // drops it.  Dedupe again at the stage level (keeping the cheaper,
  // earlier candidate) so callers never see duplicate schedules — the list
  // may then hold fewer than k entries.
  std::vector<Grouping> out;
  out.reserve(best.cands.size());
  std::set<std::vector<std::uint64_t>> seen;
  for (const Candidate& c : best.cands) {
    Grouping g = grouping_of(q, c);
    std::vector<std::uint64_t> canon;
    canon.reserve(g.groups.size());
    for (const GroupSchedule& gs : g.groups) canon.push_back(gs.stages.bits());
    std::sort(canon.begin(), canon.end());
    if (!seen.insert(std::move(canon)).second) continue;
    out.push_back(std::move(g));
  }
  stats_.seconds = timer.seconds();
  q_ = nullptr;
  return out;
}

}  // namespace fusedp
