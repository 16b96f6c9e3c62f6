// Axis-aligned integer boxes (inclusive bounds) — the polyhedral-lite domain
// representation.  Every stage domain and every required/owned region in the
// overlapped-tiling analysis is a Box.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace fusedp {

inline constexpr int kMaxDims = 4;

struct Box {
  int rank = 0;
  std::int64_t lo[kMaxDims] = {0, 0, 0, 0};
  std::int64_t hi[kMaxDims] = {-1, -1, -1, -1};  // inclusive

  Box() = default;
  // Dense box [0, e-1] per extent.
  static Box dense(const std::vector<std::int64_t>& extents) {
    Box b;
    FUSEDP_CHECK(!extents.empty() && extents.size() <= kMaxDims,
                 "box rank out of range");
    b.rank = static_cast<int>(extents.size());
    for (int d = 0; d < b.rank; ++d) {
      FUSEDP_CHECK(extents[static_cast<std::size_t>(d)] > 0,
                   "extent must be positive");
      b.lo[d] = 0;
      b.hi[d] = extents[static_cast<std::size_t>(d)] - 1;
    }
    return b;
  }

  bool empty() const {
    for (int d = 0; d < rank; ++d)
      if (lo[d] > hi[d]) return true;
    return rank == 0;
  }

  std::int64_t extent(int d) const { return hi[d] >= lo[d] ? hi[d] - lo[d] + 1 : 0; }

  std::int64_t volume() const {
    if (rank == 0) return 0;
    std::int64_t v = 1;
    for (int d = 0; d < rank; ++d) v *= extent(d);
    return v;
  }

  std::vector<std::int64_t> extents() const {
    std::vector<std::int64_t> e(static_cast<std::size_t>(rank));
    for (int d = 0; d < rank; ++d) e[static_cast<std::size_t>(d)] = extent(d);
    return e;
  }

  bool contains(const Box& o) const {
    if (o.rank != rank) return false;
    for (int d = 0; d < rank; ++d)
      if (o.lo[d] < lo[d] || o.hi[d] > hi[d]) return false;
    return true;
  }

  bool contains_point(const std::int64_t* c) const {
    for (int d = 0; d < rank; ++d)
      if (c[d] < lo[d] || c[d] > hi[d]) return false;
    return true;
  }

  // Smallest box containing both (rank must match).
  Box hull(const Box& o) const {
    FUSEDP_DCHECK(o.rank == rank, "rank mismatch in hull");
    if (empty()) return o;
    if (o.empty()) return *this;
    Box r = *this;
    for (int d = 0; d < rank; ++d) {
      r.lo[d] = std::min(lo[d], o.lo[d]);
      r.hi[d] = std::max(hi[d], o.hi[d]);
    }
    return r;
  }

  Box intersect(const Box& o) const {
    FUSEDP_DCHECK(o.rank == rank, "rank mismatch in intersect");
    Box r = *this;
    for (int d = 0; d < rank; ++d) {
      r.lo[d] = std::max(lo[d], o.lo[d]);
      r.hi[d] = std::min(hi[d], o.hi[d]);
    }
    return r;
  }

  bool operator==(const Box& o) const {
    if (o.rank != rank) return false;
    for (int d = 0; d < rank; ++d)
      if (lo[d] != o.lo[d] || hi[d] != o.hi[d]) return false;
    return true;
  }

  std::string to_string() const {
    std::string s = "[";
    for (int d = 0; d < rank; ++d) {
      if (d) s += " x ";
      s += std::to_string(lo[d]) + ".." + std::to_string(hi[d]);
    }
    return s + "]";
  }
};

// Floor division (rounds toward negative infinity) — used when mapping
// upsampled coordinates to producer coordinates.
inline std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  FUSEDP_DCHECK(b > 0, "floor_div expects positive divisor");
  std::int64_t q = a / b;
  if ((a % b) != 0 && a < 0) --q;
  return q;
}

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return -floor_div(-a, b);
}

}  // namespace fusedp
