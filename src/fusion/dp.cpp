#include "fusion/dp.hpp"

#include <algorithm>
#include <functional>
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

namespace {

// SplitMix64's finalizer: spreads a group mask over all 64 bits, so a sum
// of mixed masks is an order-independent hash of a set of groups.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_groups(std::span<const NodeSet> groups) {
  std::uint64_t h = 0;
  for (NodeSet g : groups) h += mix(g.bits());
  return h;
}

constexpr std::size_t kInitialSlots = 1024;  // power of two

// Case II enumerates all set partitions of the successor frontier (Bell(k)
// of them) up to this width; wider frontiers fall back to the
// all-singletons partition.  Bell(6) = 203.
constexpr int kMaxPartitionWidth = 6;

}  // namespace

DpFusion::DpFusion(const Pipeline& pl, const CostModel& model, DpOptions opts)
    : pl_(&pl), model_(&model) {
  set_options(opts);
}

void DpFusion::set_options(DpOptions opts) {
  opts_ = opts;
  if (opts_.top_k < 1) opts_.top_k = 1;
}

std::uint32_t DpFusion::find_state(std::span<const NodeSet> groups,
                                   std::uint64_t h, std::size_t* slot) const {
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t tag = h >> 32;
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const std::uint64_t s = slots_[i];
    if (s == 0) {
      *slot = i;
      return kNoState;
    }
    if ((s >> 32) != tag) continue;
    const auto id = static_cast<std::uint32_t>(s) - 1;
    const State& st = states_[id];
    if (st.ngroups != groups.size()) continue;
    // Open groups are disjoint and non-empty, so equal counts plus
    // containment is set equality.
    const std::uint64_t* mine = group_pool_.data() + st.groups;
    const std::uint64_t* end = mine + st.ngroups;
    if (std::all_of(groups.begin(), groups.end(), [&](NodeSet g) {
          return std::find(mine, end, g.bits()) != end;
        }))
      return id;
  }
}

void DpFusion::grow_slots() {
  std::vector<std::uint64_t> old(slots_.size() * 2, 0);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint64_t s : old) {
    if (s == 0) continue;
    std::size_t i = (s >> 32) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void DpFusion::chain_groups(std::uint32_t state, Candidate c,
                            std::uint64_t* out, int* n) const {
  for (;;) {
    if (c.finalizes) {
      const State& st = states_[state];
      for (std::uint32_t j = 0; j < st.ngroups; ++j)
        out[(*n)++] = group_pool_[st.groups + j];
    }
    if (c.sub_state == kNoState) return;
    state = c.sub_state;
    c = cand_pool_[states_[state].cands + c.sub_cand];
  }
}

bool DpFusion::same_partition(std::uint32_t state, const Candidate& a,
                              const Candidate& b) const {
  std::uint64_t ga[kMaxNodes];
  std::uint64_t gb[kMaxNodes];
  int na = 0;
  int nb = 0;
  chain_groups(state, a, ga, &na);
  chain_groups(state, b, gb, &nb);
  if (na != nb) return false;
  std::sort(ga, ga + na);
  std::sort(gb, gb + nb);
  return std::equal(ga, ga + na, gb);
}

void DpFusion::merge_candidate(std::size_t base, std::uint32_t* n,
                               std::uint32_t state, const Candidate& nc) {
  if (!(nc.cost < kInfiniteCost)) return;
  const auto k = static_cast<std::uint32_t>(opts_.top_k);
  Candidate* list = cand_scratch_.data() + base;
  // Strict < against the current worst keeps the first-found winner among
  // equal-cost candidates — the classic recurrence's tie-break for k = 1.
  if (*n == k && !(nc.cost < list[k - 1].cost)) return;

  // Dedupe by the partition itself (group order is presentation only): the
  // same final grouping can be reached along many interleavings, and a
  // k-best list of k copies of one grouping would be useless.  Only a
  // matching hash needs the chains walked.
  for (std::uint32_t j = 0; j < *n; ++j)
    if (list[j].partition == nc.partition &&
        same_partition(state, list[j], nc))
      return;  // same partition, same cost: keep the first

  const Candidate* pos = std::upper_bound(
      list, list + *n, nc.cost,
      [](double v, const Candidate& x) { return v < x.cost; });
  const auto at = static_cast<std::uint32_t>(pos - list);
  const std::uint32_t last = std::min(*n, k - 1);
  for (std::uint32_t j = last; j > at; --j) list[j] = list[j - 1];
  list[at] = nc;
  if (*n < k) ++*n;
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

std::uint32_t DpFusion::solve(std::span<const NodeSet> groups,
                              std::size_t depth) {
  const std::uint64_t h = hash_groups(groups);
  std::size_t slot = 0;
  if (const std::uint32_t id = find_state(groups, h, &slot); id != kNoState)
    return id;

  ++stats_.groupings_enumerated;
  if (stats_.groupings_enumerated > opts_.max_states)
    throw Error("DP state budget of " + std::to_string(opts_.max_states) +
                    " exhausted (" +
                    (opts_.group_limit > 0
                         ? "group limit " + std::to_string(opts_.group_limit)
                         : std::string("no group limit")) +
                    ")",
                ErrorCode::kSearchBudgetExhausted);
  // Deadline valve, next to the state valve: sampled every 256 states to
  // keep the clock read off the hot path.
  if (opts_.deadline_seconds > 0 &&
      (stats_.groupings_enumerated & 0xFF) == 0 &&
      deadline_timer_.seconds() > opts_.deadline_seconds)
    throw Error("DP deadline of " + std::to_string(opts_.deadline_seconds) +
                    "s exceeded after " +
                    std::to_string(stats_.groupings_enumerated) + " states",
                ErrorCode::kDeadlineExceeded);

  // Memoize the state before recursing, so merge_candidate can walk chains
  // that start here.  That is safe because no state recurs inside its own
  // recursion: Case I only adds nodes, and after a Case II step every open
  // node lies strictly downstream of this state's nodes.
  FUSEDP_CHECK_CODE(states_.size() < kNoState - 1 &&
                        group_pool_.size() + groups.size() < kNoState,
                    ErrorCode::kAllocationFailed, "DP state memo is full");
  const auto id = static_cast<std::uint32_t>(states_.size());
  State st;
  st.groups = static_cast<std::uint32_t>(group_pool_.size());
  st.ngroups = static_cast<std::uint32_t>(groups.size());
  for (NodeSet g : groups) group_pool_.push_back(g.bits());
  states_.push_back(st);
  slots_[slot] = (h >> 32) << 32 | (id + 1);
  if (2 * states_.size() > slots_.size()) grow_slots();

  const auto k = static_cast<std::size_t>(opts_.top_k);
  const std::size_t base = depth * k;
  if (cand_scratch_.size() < base + k) cand_scratch_.resize(base + k);
  std::uint32_t ncands = 0;
  // Moves the finished candidate list into the pool.
  const auto finish = [&]() {
    FUSEDP_CHECK_CODE(cand_pool_.size() + ncands < kNoState,
                      ErrorCode::kAllocationFailed, "DP state memo is full");
    states_[id].cands = static_cast<std::uint32_t>(cand_pool_.size());
    states_[id].ncands = ncands;
    cand_pool_.insert(cand_pool_.end(), cand_scratch_.begin() + base,
                      cand_scratch_.begin() + base + ncands);
    return id;
  };

  // State validity: the open groups must admit an execution order (their
  // quotient must be acyclic).  Per-group sandwich-freeness alone is not
  // enough — two internally-valid groups can be mutually cyclic (each
  // reaching into the other).  Thanks to the readiness discipline below, a
  // cycle always materializes among *concurrently open* groups, so this
  // state-level check is complete.  The dummy source's artificial edges are
  // excluded.
  {
    NodeSet real[kMaxNodes];
    std::size_t nreal = 0;
    for (NodeSet g : groups) {
      if (q_->dummy >= 0) g = g.without(q_->dummy);
      if (!g.empty()) real[nreal++] = g;
    }
    if (!q_->graph.quotient_is_acyclic(std::span(real, nreal)))
      return finish();  // infeasible state
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

  if (frontier.empty()) {
    // Base case (Figure 5): every group is final.
    Candidate c;
    c.cost = 0.0;
    for (NodeSet g : groups) c.cost += group_cost(g);
    c.partition = h;
    c.finalizes = 1;
    if (c.cost < kInfiniteCost) cand_scratch_[base + ncands++] = c;
    return finish();
  }
  stats_.max_succ = std::max(stats_.max_succ, frontier.size());

  // Offers every candidate of the solved sub-state `sub` to this state's
  // list, adding `extra` to its cost; `finalizes` says whether this
  // state's groups become final groups on the way (Case II).
  const auto take = [&](std::uint32_t sub, double extra, bool finalizes) {
    const State& ss = states_[sub];
    for (std::uint32_t j = 0; j < ss.ncands; ++j) {
      const Candidate& c = cand_pool_[ss.cands + j];
      Candidate nc;
      nc.cost = extra + c.cost;
      nc.partition = c.partition + (finalizes ? h : 0);
      nc.sub_state = sub;
      nc.sub_cand = j;
      nc.finalizes = finalizes ? 1 : 0;
      merge_candidate(base, &ncands, id, nc);
    }
  };

  // Case I: grow some H_i by one of its successors.
  NodeSet next[kMaxNodes];
  std::copy(groups.begin(), groups.end(), next);
  const std::span<const NodeSet> next_span(next, groups.size());
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
      next[i] = hi.with(sj);
      take(solve(next_span, depth + 1), 0.0, false);
      next[i] = hi;
    });
  }

  // Case II: finalize all of G; restart from every partition of the
  // successor frontier.
  double cost_g = 0.0;
  for (NodeSet g : groups) cost_g += group_cost(g);
  FUSEDP_CHECK(!ready.empty(), "non-empty frontier must have a ready node");
  if (cost_g < kInfiniteCost) {
    const auto try_partition = [&](std::span<const NodeSet> parts) {
      for (const NodeSet& p : parts) {
        if (opts_.group_limit > 0 &&
            q_->expand(p).size() > opts_.group_limit)
          return;
        if (!sandwich_free(p)) return;
      }
      take(solve(parts, depth + 1), cost_g, true);
    };
    if (ready.size() <= kMaxPartitionWidth) {
      for_each_partition(ready, std::ref(try_partition));
    } else {
      // Wide-frontier fallback: full Bell-number enumeration is
      // intractable, so restart every ready node in its own group.
      // Multi-node sibling groups can still arise on narrower frontiers or
      // via Case I growth; this trades a slice of the search space for
      // bounded time (in the spirit of Section 5's bounded variant).
      std::size_t n = 0;
      ready.for_each([&](int r) { next[n++] = NodeSet::single(r); });
      try_partition(std::span<const NodeSet>(next, n));
    }
  }

  return finish();
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

Grouping DpFusion::grouping_of(const QuotientGraph& q, std::uint32_t state,
                               const Candidate& c) const {
  std::uint64_t final_groups[kMaxNodes];
  int n = 0;
  chain_groups(state, c, final_groups, &n);
  Grouping out;
  for (int i = 0; i < n; ++i) {
    const NodeSet stages = q.expand(NodeSet(final_groups[i]));
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
  stats_ = DpStats{};
  q_ = &q;
  states_.clear();
  group_pool_.clear();
  cand_pool_.clear();
  if (slots_.empty())
    slots_.assign(kInitialSlots, 0);
  else
    std::fill(slots_.begin(), slots_.end(), 0);
  sandwich_memo_.clear();

  int start = q.dummy;
  if (start < 0) {
    const NodeSet srcs = q.graph.sources();
    FUSEDP_CHECK(srcs.size() == 1, "expected single source or dummy");
    start = srcs.first();
  }
  const NodeSet initial[] = {NodeSet::single(start)};
  const std::uint32_t root = solve(initial, 0);
  const State& best = states_[root];
  FUSEDP_CHECK(best.ncands > 0, "DP found no feasible grouping");

  // The in-DP dedupe works on quotient-node masks, where the dummy source
  // is a real node; two candidates that differ only in which group absorbed
  // the dummy collapse to the same stage-level partition once grouping_of
  // drops it.  Dedupe again at the stage level (keeping the cheaper,
  // earlier candidate) so callers never see duplicate schedules — the list
  // may then hold fewer than k entries.
  std::vector<Grouping> out;
  out.reserve(best.ncands);
  std::set<std::vector<std::uint64_t>> seen;
  for (std::uint32_t j = 0; j < best.ncands; ++j) {
    Grouping g = grouping_of(q, root, cand_pool_[best.cands + j]);
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
