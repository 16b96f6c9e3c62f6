// Small dense digraph over <= 64 nodes.
//
// Provides the graph queries the fusion engines need: successor/predecessor
// sets, transitive reachability (for Algorithm 1's cycle check), topological
// order, undirected connectivity of a node subset (group-connectivity
// validation), and source/sink sets.
#pragma once

#include <span>
#include <vector>

#include "graph/nodeset.hpp"

namespace fusedp {

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(int n);

  int num_nodes() const { return n_; }
  void add_edge(int from, int to);
  bool has_edge(int from, int to) const {
    return succ_[static_cast<std::size_t>(from)].contains(to);
  }

  NodeSet successors(int n) const { return succ_[static_cast<std::size_t>(n)]; }
  NodeSet predecessors(int n) const { return pred_[static_cast<std::size_t>(n)]; }

  // Union of successors of all members of `s`, excluding members of `s`.
  NodeSet successors_of_set(NodeSet s) const;
  NodeSet predecessors_of_set(NodeSet s) const;

  // All nodes reachable from n via >= 1 edge.  O(1) after finalize().
  NodeSet reachable_from(int n) const;
  bool is_reachable(int from, int to) const {
    return reachable_from(from).contains(to);
  }

  // Nodes with no predecessors / successors.
  NodeSet sources() const;
  NodeSet sinks() const;

  // True iff the nodes of `s` form a connected subgraph when edge directions
  // are ignored (the paper requires each group H_i to be connected).
  bool is_connected_undirected(NodeSet s) const;

  // Topological order of all nodes; throws if the graph has a cycle.
  std::vector<int> topo_order() const;

  // Topological order restricted to the members of `s`.
  std::vector<int> topo_order_of(NodeSet s) const;

  // True iff the quotient graph whose vertices are `groups` (disjoint node
  // sets covering a subset of nodes) is acyclic, considering only edges
  // between different groups.
  bool quotient_is_acyclic(std::span<const NodeSet> groups) const;

  // Must be called after all edges are added and before reachability queries.
  void finalize();
  bool finalized() const { return finalized_; }

 private:
  int n_ = 0;
  bool finalized_ = false;
  std::vector<NodeSet> succ_;
  std::vector<NodeSet> pred_;
  std::vector<NodeSet> reach_;  // transitive closure
};

}  // namespace fusedp
