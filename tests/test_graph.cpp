// Unit tests for NodeSet, Digraph, and set-partition enumeration.
#include <gtest/gtest.h>

#include <set>

#include "graph/digraph.hpp"
#include "graph/partitions.hpp"
#include "support/rng.hpp"

namespace fusedp {
namespace {

TEST(NodeSetTest, BasicOps) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  s = s.with(3).with(7).with(63);
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.contains(63));
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.first(), 3);
  EXPECT_EQ(s.without(3).first(), 7);
  EXPECT_EQ((s & NodeSet::single(7)).size(), 1);
  EXPECT_EQ((s - NodeSet::single(7)).size(), 2);
  EXPECT_TRUE(s.contains_all(NodeSet::single(7)));
  EXPECT_EQ(s.to_string(), "{3,7,63}");
}

TEST(NodeSetTest, ForEachAscending) {
  NodeSet s = NodeSet::single(5).with(1).with(9);
  std::vector<int> seen;
  s.for_each([&](int n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<int>{1, 5, 9}));
}

Digraph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.finalize();
  return g;
}

TEST(DigraphTest, SuccessorsAndPredecessors) {
  const Digraph g = diamond();
  EXPECT_EQ(g.successors(0).size(), 2);
  EXPECT_EQ(g.predecessors(3).size(), 2);
  EXPECT_EQ(g.successors_of_set(NodeSet::single(0).with(1)).to_string(),
            "{2,3}");
}

TEST(DigraphTest, Reachability) {
  const Digraph g = diamond();
  EXPECT_TRUE(g.is_reachable(0, 3));
  EXPECT_TRUE(g.is_reachable(1, 3));
  EXPECT_FALSE(g.is_reachable(1, 2));
  EXPECT_FALSE(g.is_reachable(3, 0));
  EXPECT_EQ(g.reachable_from(0).size(), 3);
}

TEST(DigraphTest, SourcesAndSinks) {
  const Digraph g = diamond();
  EXPECT_EQ(g.sources().to_string(), "{0}");
  EXPECT_EQ(g.sinks().to_string(), "{3}");
}

TEST(DigraphTest, UndirectedConnectivity) {
  const Digraph g = diamond();
  EXPECT_TRUE(g.is_connected_undirected(NodeSet::single(1).with(0).with(2)));
  EXPECT_FALSE(g.is_connected_undirected(NodeSet::single(1).with(2)));
  EXPECT_TRUE(g.is_connected_undirected(NodeSet::single(1).with(2).with(3)));
  EXPECT_TRUE(g.is_connected_undirected(NodeSet()));
  EXPECT_TRUE(g.is_connected_undirected(NodeSet::single(2)));
}

TEST(DigraphTest, TopoOrderRespectsEdges) {
  const Digraph g = diamond();
  const std::vector<int> order = g.topo_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(DigraphTest, TopoOrderOfSubset) {
  const Digraph g = diamond();
  const std::vector<int> order = g.topo_order_of(NodeSet::single(1).with(3));
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(DigraphTest, QuotientAcyclicity) {
  const Digraph g = diamond();
  // {0,3} sandwiches 1 and 2 -> cyclic quotient.
  EXPECT_FALSE(g.quotient_is_acyclic(std::vector<NodeSet>{
      NodeSet::single(0).with(3), NodeSet::single(1), NodeSet::single(2)}));
  EXPECT_TRUE(g.quotient_is_acyclic(std::vector<NodeSet>{
      NodeSet::single(0).with(1), NodeSet::single(2), NodeSet::single(3)}));
  EXPECT_TRUE(g.quotient_is_acyclic(std::vector<NodeSet>{
      NodeSet::single(0).with(1).with(2).with(3)}));
}

TEST(DigraphTest, MutuallyCyclicGroupsDetected) {
  // a=0->m=1, d=2->m, c=3->b=4 (internal), a->b, c->d: groups {a,m,d} and
  // {b,c} are each internally fine but mutually cyclic.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(3, 4);
  g.add_edge(0, 4);
  g.add_edge(3, 2);
  g.finalize();
  EXPECT_FALSE(g.quotient_is_acyclic(std::vector<NodeSet>{
      NodeSet::single(0).with(1).with(2), NodeSet::single(3).with(4)}));
}

TEST(DigraphTest, CycleThrows) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW(g.finalize(), Error);
}

TEST(DigraphTest, RejectsSelfEdge) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(1, 1), Error);
}

TEST(PartitionsTest, CountsAreBellNumbers) {
  EXPECT_EQ(bell_number(0), 1u);
  EXPECT_EQ(bell_number(1), 1u);
  EXPECT_EQ(bell_number(2), 2u);
  EXPECT_EQ(bell_number(3), 5u);
  EXPECT_EQ(bell_number(5), 52u);
  EXPECT_EQ(bell_number(10), 115975u);
  for (int k = 1; k <= 8; ++k) {
    NodeSet s;
    for (int i = 0; i < k; ++i) s = s.with(i * 3);  // non-contiguous members
    std::uint64_t count = 0;
    for_each_partition(s, [&](std::span<const NodeSet>) { ++count; });
    EXPECT_EQ(count, bell_number(k)) << "k=" << k;
  }
}

TEST(PartitionsTest, PartsAreDisjointAndCover) {
  NodeSet s = NodeSet::single(1).with(4).with(6).with(7);
  for_each_partition(s, [&](std::span<const NodeSet> parts) {
    NodeSet u;
    for (NodeSet p : parts) {
      EXPECT_FALSE(p.empty());
      EXPECT_FALSE(u.intersects(p));
      u = u | p;
    }
    EXPECT_EQ(u.bits(), s.bits());
  });
}

TEST(PartitionsTest, DistinctPartitions) {
  NodeSet s = NodeSet::single(0).with(1).with(2).with(3).with(4);
  std::set<std::vector<std::uint64_t>> seen;
  for_each_partition(s, [&](std::span<const NodeSet> parts) {
    std::vector<std::uint64_t> key;
    for (NodeSet p : parts) key.push_back(p.bits());
    std::sort(key.begin(), key.end());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate partition";
  });
  EXPECT_EQ(seen.size(), 52u);
}

TEST(PartitionsTest, EmptySetHasOnePartition) {
  int count = 0;
  for_each_partition(NodeSet(), [&](std::span<const NodeSet> parts) {
    EXPECT_TRUE(parts.empty());
    ++count;
  });
  EXPECT_EQ(count, 1);
}

// Property: reachability closure equals per-query BFS on random DAGs.
TEST(DigraphProperty, ReachabilityMatchesBfs) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 10 + static_cast<int>(rng.next_below(20));
    Digraph g(n);
    for (int a = 0; a < n; ++a)
      for (int b = a + 1; b < n; ++b)
        if (rng.next_bool(0.15)) g.add_edge(a, b);
    g.finalize();
    for (int a = 0; a < n; ++a) {
      // BFS from a.
      NodeSet visited;
      NodeSet frontier = g.successors(a);
      while (!frontier.empty()) {
        visited = visited | frontier;
        NodeSet next;
        frontier.for_each([&](int v) { next = next | g.successors(v); });
        frontier = next - visited;
      }
      EXPECT_EQ(g.reachable_from(a).bits(), visited.bits());
    }
  }
}

}  // namespace
}  // namespace fusedp
