#include "test_util.hpp"

#include <cstring>
#include <memory>
#include <string>

#include "analysis/scaling.hpp"

namespace fusedp::testing {

std::unique_ptr<Pipeline> random_pipeline(int n, std::int64_t h,
                                          std::int64_t w, std::uint64_t seed,
                                          bool allow_scaling) {
  Rng rng(seed);
  auto pl = std::make_unique<Pipeline>("random");
  const int img = pl->add_input("img", {h, w});

  // Track each stage's resolution level so scaled accesses stay consistent.
  std::vector<int> level;  // stage resolution: extents = (h, w) >> level
  std::vector<const Stage*> stages;
  for (int i = 0; i < n; ++i) {
    // Pick 1..2 producers from the input and previous stages.
    int prods[2] = {-1, -1};  // -1 = input image
    if (i > 0) {
      prods[0] = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i)));
      prods[1] = rng.next_bool(0.3)
                     ? -1
                     : static_cast<int>(
                           rng.next_below(static_cast<std::uint64_t>(i)));
    }
    int lvl = prods[0] < 0 ? 0 : level[static_cast<std::size_t>(prods[0])];
    if (allow_scaling && prods[0] >= 0 && rng.next_bool(0.25) && lvl < 3 &&
        (prods[1] < 0 || level[static_cast<std::size_t>(prods[1])] == lvl))
      ++lvl;  // this stage downsamples its producers
    // Only keep the second producer if resolutions are compatible.
    if (prods[1] >= 0 &&
        level[static_cast<std::size_t>(prods[1])] !=
            (prods[0] < 0 ? 0 : level[static_cast<std::size_t>(prods[0])]))
      prods[1] = -2;  // drop

    const std::int64_t sh = std::max<std::int64_t>(8, h >> lvl);
    const std::int64_t sw = std::max<std::int64_t>(8, w >> lvl);
    std::string name = "s";
    name += std::to_string(i);
    StageBuilder b(*pl, pl->add_stage(name, {sh, sw}));
    Eh acc = b.cst(0.37f * static_cast<float>(i + 1));
    for (int p : prods) {
      if (p == -2) continue;
      const int plvl = p < 0 ? 0 : level[static_cast<std::size_t>(p)];
      const bool down = plvl < lvl;  // producer finer: access 2x+off
      const int taps = 1 + static_cast<int>(rng.next_below(3));
      for (int t = 0; t < taps; ++t) {
        const std::int64_t dy = static_cast<std::int64_t>(rng.next_below(3)) - 1;
        const std::int64_t dx = static_cast<std::int64_t>(rng.next_below(3)) - 1;
        Eh tap = p < 0 ? (down ? b.at_scaled({true, img}, {dy, dx}, {2, 2},
                                             {1, 1})
                               : b.in(img, {dy, dx}))
                       : (down ? b.at_scaled({false, p}, {dy, dx}, {2, 2},
                                             {1, 1})
                               : b.at(*stages[static_cast<std::size_t>(p)],
                                      {dy, dx}));
        acc = acc + tap * (0.1f + 0.05f * static_cast<float>(t));
      }
    }
    b.define(acc * 0.5f);
    level.push_back(lvl);
    stages.push_back(&b.stage());
  }
  pl->finalize();
  return pl;
}

namespace {

void enumerate_rec(const Pipeline& pl, std::vector<NodeSet>& groups,
                   NodeSet covered, int next,
                   const std::function<void(const Grouping&)>& fn) {
  const int n = pl.num_stages();
  if (next == n) {
    if (!pl.graph().quotient_is_acyclic(groups)) return;
    Grouping g;
    for (NodeSet s : groups) {
      if (!pl.graph().is_connected_undirected(s)) return;
      if (!constant_dependence_vectors(pl, s)) return;
      int reds = 0;
      s.for_each([&](int v) {
        if (pl.stage(v).kind == StageKind::kReduction) ++reds;
      });
      if (reds > 0 && s.size() > 1) return;
      GroupSchedule gs;
      gs.stages = s;
      g.groups.push_back(gs);
    }
    fn(g);
    return;
  }
  if (covered.contains(next)) {
    enumerate_rec(pl, groups, covered, next + 1, fn);
    return;
  }
  // Either start a new group at `next`, or add it to an existing group.
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i] = groups[i].with(next);
    enumerate_rec(pl, groups, covered.with(next), next + 1, fn);
    groups[i] = groups[i].without(next);
  }
  groups.push_back(NodeSet::single(next));
  enumerate_rec(pl, groups, covered.with(next), next + 1, fn);
  groups.pop_back();
}

}  // namespace

void for_each_valid_grouping(const Pipeline& pl,
                             const std::function<void(const Grouping&)>& fn) {
  std::vector<NodeSet> groups;
  enumerate_rec(pl, groups, NodeSet(), 0, fn);
}

bool buffers_equal(const Buffer& a, const Buffer& b) {
  return first_mismatch(a, b) < 0;
}

std::int64_t first_mismatch(const Buffer& a, const Buffer& b) {
  if (a.volume() != b.volume()) return 0;
  for (std::int64_t i = 0; i < a.volume(); ++i)
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) return i;
  return -1;
}

}  // namespace fusedp::testing
