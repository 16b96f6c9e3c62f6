#include "graph/partitions.hpp"

#include <array>

namespace fusedp {

namespace {

using Parts = std::array<NodeSet, kMaxPartitionSetSize>;

// Recursively assigns members[i..k-1] to parts[0..nparts) or a fresh part.
void enumerate(const std::array<int, kMaxPartitionSetSize>& members, int k,
               int i, Parts& parts, std::size_t nparts,
               const std::function<void(std::span<const NodeSet>)>& fn) {
  if (i == k) {
    fn(std::span<const NodeSet>(parts.data(), nparts));
    return;
  }
  const int n = members[static_cast<std::size_t>(i)];
  for (std::size_t p = 0; p < nparts; ++p) {
    parts[p] = parts[p].with(n);
    enumerate(members, k, i + 1, parts, nparts, fn);
    parts[p] = parts[p].without(n);
  }
  parts[nparts] = NodeSet::single(n);
  enumerate(members, k, i + 1, parts, nparts + 1, fn);
}

}  // namespace

void for_each_partition(
    NodeSet s, const std::function<void(std::span<const NodeSet>)>& fn) {
  const int k = s.size();
  FUSEDP_CHECK(k <= kMaxPartitionSetSize, "partition set too large");
  std::array<int, kMaxPartitionSetSize> members{};
  {
    int i = 0;
    s.for_each([&](int n) { members[static_cast<std::size_t>(i++)] = n; });
  }
  Parts parts{};
  enumerate(members, k, 0, parts, 0, fn);
}

std::uint64_t bell_number(int k) {
  FUSEDP_CHECK(k >= 0 && k <= 20, "bell_number supports k in [0,20]");
  // Bell triangle.
  std::array<std::array<std::uint64_t, 21>, 21> t{};
  t[0][0] = 1;
  for (int n = 1; n <= k; ++n) {
    t[static_cast<std::size_t>(n)][0] =
        t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(n - 1)];
    for (int j = 1; j <= n; ++j)
      t[static_cast<std::size_t>(n)][static_cast<std::size_t>(j)] =
          t[static_cast<std::size_t>(n)][static_cast<std::size_t>(j - 1)] +
          t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(j - 1)];
  }
  return t[static_cast<std::size_t>(k)][0];
}

}  // namespace fusedp
