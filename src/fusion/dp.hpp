// The paper's dynamic-programming grouping (Section 3, Algorithm 1).
//
// State: G = a set of disjoint "open" groups, each a connected set of
// quotient-graph nodes.  The recurrence (Figure 5) either grows one group by
// a successor (Case I, with the cycle-validity check of Algorithm 1 lines
// 9-13), or finalizes all of G and restarts from every set-partition of the
// successor frontier (Case II).  Memoization over canonicalized states makes
// a linear n-stage pipeline cost O(n^2) states while effectively evaluating
// all 2^(n-1) groupings.
//
// The DP runs on a *quotient graph* so that the bounded incremental variant
// (Algorithm 3) can coalesce a previous grouping into super-nodes and rerun.
// A dummy source node (paper Section 3.1) is added when the pipeline has
// multiple sources; it participates in grouping with zero cost.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "fusion/grouping.hpp"
#include "support/timing.hpp"

namespace fusedp {

// Condensed view of the pipeline for the DP: node i of `graph` stands for
// the original stages in underlying[i].  `dummy` (if >= 0) is an artificial
// source with empty underlying set.
struct QuotientGraph {
  Digraph graph;
  std::vector<NodeSet> underlying;  // original stage sets per quotient node
  int dummy = -1;

  int num_nodes() const { return graph.num_nodes(); }
  NodeSet expand(NodeSet quotient_nodes) const;

  // One quotient node per pipeline stage (plus a dummy source if needed).
  static QuotientGraph identity(const Pipeline& pl);
  // One quotient node per group of `g` (plus a dummy source if needed).
  static QuotientGraph condense(const Pipeline& pl, const Grouping& g);
};

struct DpOptions {
  // Maximum number of original stages per group (paper's groupLimit l);
  // <= 0 means unbounded.
  int group_limit = 0;
  // Case II enumerates all set partitions of the successor frontier
  // (Bell(k) of them) up to this width; wider frontiers fall back to the
  // all-singletons partition.  Bell(6) = 203.
  int max_partition_width = 6;
  // Safety valve: abort (throw Error with kSearchBudgetExhausted) past this
  // many DP states.
  std::uint64_t max_states = 50'000'000;
  // Wall-clock deadline for the search, measured from run()/run_on() entry;
  // <= 0 means none.  Checked every few hundred states; exceeding it throws
  // Error with kDeadlineExceeded.  The autoschedule driver catches both
  // codes and falls back to a cheaper tier.
  double deadline_seconds = 0.0;
  // Number of distinct best groupings retained per DP state (k-best DP).
  // 1 reproduces the classic single-winner recurrence exactly; the measured
  // re-ranking rung (Scheduler::kMeasured) asks for a handful, which it
  // then benchmarks against each other.  Candidates are deduplicated by
  // their final group partition, so the list holds k *distinct* groupings.
  int top_k = 1;
};

struct DpStats {
  std::uint64_t groupings_enumerated = 0;  // distinct states evaluated
  int max_succ = 0;                        // max |SUCC(G)| seen (Table 2)
  double seconds = 0.0;
};

class DpFusion {
 public:
  DpFusion(const Pipeline& pl, const CostModel& model, DpOptions opts = {});

  // Replaces the options for the following runs.  One object can serve a
  // whole search ladder: the group-cost and feasibility memos depend only on
  // the pipeline and the model, so they carry over from run to run, while
  // the state memo, the sandwich memo and the stats start over each run.
  void set_options(DpOptions opts);

  // Runs Algorithm 1 from {{source}} and returns the optimal grouping.
  Grouping run();
  // Same, but over an explicit quotient graph (used by Algorithm 3).
  Grouping run_on(const QuotientGraph& q);
  // Runs Algorithm 1 keeping the opts.top_k best distinct groupings,
  // ordered best-first (element 0 is exactly what run() returns).  Always
  // returns at least one grouping; fewer than k when the search space holds
  // fewer distinct feasible partitions.
  std::vector<Grouping> run_top_k();
  std::vector<Grouping> run_top_k_on(const QuotientGraph& q);

  // Stats of the last run (or of the run in progress when it threw).
  const DpStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoState = ~0u;

  // One complete grouping reachable from a state, held as a link of a
  // chain rather than a copied group list: the chain continues at
  // candidate `sub_cand` of state `sub_state` (none for a base case), and
  // `finalizes` says whether this state's open groups become final groups
  // here (Case II and the base case) or grow on (Case I).  `partition` is
  // the order-independent hash of the final groups, so two candidates can
  // only hold the same partition when their hashes agree.
  struct Candidate {
    double cost = kInfiniteCost;
    std::uint64_t partition = 0;
    std::uint32_t sub_state = kNoState;
    std::uint32_t sub_cand : 31 = 0;
    std::uint32_t finalizes : 1 = 0;
  };
  // A memoized state: its open groups in first-visit order
  // (group_pool_[groups, groups + ngroups)) and its <= top_k candidates
  // sorted by cost (cand_pool_[cands, cands + ncands)); no candidates means
  // infeasible.  Ties keep the first-found, which preserves the classic
  // recurrence's strict-< winner for k = 1.
  struct State {
    std::uint32_t groups = 0;
    std::uint32_t cands = 0;
    std::uint32_t ncands = 0;
    std::uint32_t ngroups = 0;
  };

  // Returns the index of the state whose open groups are `groups`, solving
  // it first if it is new.  `depth` is the recursion depth, which picks the
  // state's slice of cand_scratch_.
  std::uint32_t solve(std::span<const NodeSet> groups, std::size_t depth);
  // Looks `groups` (hash h) up in the open-addressing state memo; returns
  // the state, or kNoState with `*slot` set to the empty slot that ends the
  // probe.
  std::uint32_t find_state(std::span<const NodeSet> groups, std::uint64_t h,
                           std::size_t* slot) const;
  void grow_slots();
  // Inserts `nc` into the sorted list cand_scratch_[base, base + *n),
  // deduplicating by partition and trimming to top_k.  `state` is the state
  // the list belongs to.
  void merge_candidate(std::size_t base, std::uint32_t* n,
                       std::uint32_t state, const Candidate& nc);
  // Appends the final groups of the chain that starts at candidate `c` of
  // `state` to out, advancing *n.  At most kMaxNodes groups (disjoint).
  void chain_groups(std::uint32_t state, Candidate c, std::uint64_t* out,
                    int* n) const;
  bool same_partition(std::uint32_t state, const Candidate& a,
                      const Candidate& b) const;
  Grouping grouping_of(const QuotientGraph& q, std::uint32_t state,
                       const Candidate& c) const;
  double group_cost(NodeSet quotient_group);
  // Cheap monotone validity check used to prune Case I merges.
  bool merge_feasible(NodeSet quotient_group);
  // Complete cycle-validity: no path between members leaves the group.
  bool sandwich_free(NodeSet quotient_group);

  const Pipeline* pl_;
  const CostModel* model_;
  DpOptions opts_;
  DpStats stats_;
  WallTimer deadline_timer_;  // restarted at run_on() entry
  const QuotientGraph* q_ = nullptr;
  // State memo: flat pools indexed by state, plus an open-addressing table
  // over them with linear probing from slot (hash >> 32) & mask.  A slot
  // holds (hash >> 32) << 32 | (state + 1), so growing the table never
  // touches the states; 0 is empty.
  std::vector<State> states_;
  std::vector<std::uint64_t> group_pool_;
  std::vector<Candidate> cand_pool_;
  std::vector<std::uint64_t> slots_;
  // Candidate lists under construction, top_k entries per recursion depth.
  std::vector<Candidate> cand_scratch_;
  // Keyed on original-stage sets: pure functions of pipeline and model.
  std::unordered_map<std::uint64_t, double> cost_memo_;
  std::unordered_map<std::uint64_t, bool> feas_memo_;
  // Keyed on quotient-node sets: valid for one quotient graph.
  std::unordered_map<std::uint64_t, bool> sandwich_memo_;
};

}  // namespace fusedp
