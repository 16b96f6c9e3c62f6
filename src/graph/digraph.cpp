#include "graph/digraph.hpp"

#include <algorithm>

namespace fusedp {

Digraph::Digraph(int n) : n_(n) {
  FUSEDP_CHECK(n >= 0 && n <= kMaxNodes, "digraph supports up to 64 nodes");
  succ_.assign(static_cast<std::size_t>(n), NodeSet());
  pred_.assign(static_cast<std::size_t>(n), NodeSet());
}

void Digraph::add_edge(int from, int to) {
  FUSEDP_CHECK(from >= 0 && from < n_ && to >= 0 && to < n_ && from != to,
               "bad edge");
  FUSEDP_CHECK(!finalized_, "graph already finalized");
  succ_[static_cast<std::size_t>(from)] =
      succ_[static_cast<std::size_t>(from)].with(to);
  pred_[static_cast<std::size_t>(to)] =
      pred_[static_cast<std::size_t>(to)].with(from);
}

NodeSet Digraph::successors_of_set(NodeSet s) const {
  NodeSet out;
  s.for_each([&](int n) { out = out | succ_[static_cast<std::size_t>(n)]; });
  return out - s;
}

NodeSet Digraph::predecessors_of_set(NodeSet s) const {
  NodeSet out;
  s.for_each([&](int n) { out = out | pred_[static_cast<std::size_t>(n)]; });
  return out - s;
}

NodeSet Digraph::reachable_from(int n) const {
  FUSEDP_DCHECK(finalized_, "call finalize() before reachability queries");
  return reach_[static_cast<std::size_t>(n)];
}

NodeSet Digraph::sources() const {
  NodeSet s;
  for (int i = 0; i < n_; ++i)
    if (pred_[static_cast<std::size_t>(i)].empty()) s = s.with(i);
  return s;
}

NodeSet Digraph::sinks() const {
  NodeSet s;
  for (int i = 0; i < n_; ++i)
    if (succ_[static_cast<std::size_t>(i)].empty()) s = s.with(i);
  return s;
}

bool Digraph::is_connected_undirected(NodeSet s) const {
  if (s.empty()) return true;
  NodeSet visited = NodeSet::single(s.first());
  // Breadth-first expansion within s until a fixed point.
  for (;;) {
    NodeSet next = visited;
    visited.for_each([&](int n) {
      next = next | (succ_[static_cast<std::size_t>(n)] & s);
      next = next | (pred_[static_cast<std::size_t>(n)] & s);
    });
    if (next == visited) break;
    visited = next;
  }
  return visited == s;
}

std::vector<int> Digraph::topo_order() const {
  NodeSet all;
  for (int i = 0; i < n_; ++i) all = all.with(i);
  return topo_order_of(all);
}

std::vector<int> Digraph::topo_order_of(NodeSet s) const {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(s.size()));
  NodeSet placed;
  NodeSet remaining = s;
  while (!remaining.empty()) {
    NodeSet ready;
    remaining.for_each([&](int n) {
      // Node is ready when every in-set predecessor is already placed.
      if (((pred_[static_cast<std::size_t>(n)] & s) - placed).empty())
        ready = ready.with(n);
    });
    FUSEDP_CHECK(!ready.empty(), "cycle detected in topo_order_of");
    ready.for_each([&](int n) { order.push_back(n); });
    placed = placed | ready;
    remaining = remaining - ready;
  }
  return order;
}

bool Digraph::quotient_is_acyclic(std::span<const NodeSet> groups) const {
  // Disjoint non-empty groups over <= kMaxNodes nodes: fixed arrays suffice.
  FUSEDP_CHECK(groups.size() <= static_cast<std::size_t>(kMaxNodes),
               "more groups than nodes");
  const int g = static_cast<int>(groups.size());
  // Build group-level adjacency, then Kahn's algorithm.
  NodeSet gsucc[kMaxNodes];
  int indeg[kMaxNodes] = {};
  for (int a = 0; a < g; ++a) {
    const NodeSet sa = successors_of_set(groups[static_cast<std::size_t>(a)]);
    for (int b = 0; b < g; ++b) {
      if (a == b) continue;
      if (sa.intersects(groups[static_cast<std::size_t>(b)])) {
        if (!gsucc[a].contains(b)) {
          gsucc[a] = gsucc[a].with(b);
          ++indeg[b];
        }
      }
    }
  }
  int stack[kMaxNodes];
  int top = 0;
  for (int i = 0; i < g; ++i)
    if (indeg[i] == 0) stack[top++] = i;
  int seen = 0;
  while (top > 0) {
    const int a = stack[--top];
    ++seen;
    gsucc[a].for_each([&](int b) {
      if (--indeg[b] == 0) stack[top++] = b;
    });
  }
  return seen == g;
}

void Digraph::finalize() {
  FUSEDP_CHECK(!finalized_, "finalize() called twice");
  // Transitive closure in reverse topological order: reach(n) = succ(n) U
  // union of reach(s) for s in succ(n).
  finalized_ = true;  // topo_order uses only succ/pred
  const std::vector<int> order = topo_order();
  reach_.assign(static_cast<std::size_t>(n_), NodeSet());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int n = *it;
    NodeSet r = succ_[static_cast<std::size_t>(n)];
    succ_[static_cast<std::size_t>(n)].for_each(
        [&](int s) { r = r | reach_[static_cast<std::size_t>(s)]; });
    reach_[static_cast<std::size_t>(n)] = r;
  }
}

}  // namespace fusedp
