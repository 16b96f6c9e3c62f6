// Set-partition enumeration for the DP recurrence's PARTITIONS operator
// (paper Figure 5, Case II): all ways of splitting the successor frontier
// into new groups.
//
// Enumeration uses restricted-growth strings; the number of partitions of a
// k-element set is the Bell number B(k) (B(5)=52 — the paper reports
// max|SUCC(G)| <= 5 across all six benchmarks, Table 2).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "graph/nodeset.hpp"

namespace fusedp {

// Invokes `fn` once per partition of the members of `s`.  Each partition is a
// span of disjoint non-empty NodeSets whose union is `s`, over storage that
// is reused between calls; copy it if you keep it.  The enumeration itself
// allocates nothing.  Enumeration order is deterministic.  `s` may have at
// most `kMaxPartitionSetSize` members (guards against pathological
// frontiers).
inline constexpr int kMaxPartitionSetSize = 12;

void for_each_partition(
    NodeSet s, const std::function<void(std::span<const NodeSet>)>& fn);

// Number of partitions of a k-element set (Bell number); k <= 20.
std::uint64_t bell_number(int k);

}  // namespace fusedp
