#include "verify/differ.hpp"

#include <cstring>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "analysis/scaling.hpp"
#include "api/session.hpp"
#include "fusion/serialize.hpp"
#include "support/rng.hpp"

namespace fusedp::verify {

namespace {

// Compares `got` against `want` over `dom` bit for bit, and on the first
// mismatch fills the coordinate/bit fields of `rec` and returns true.
bool compare_stage(const Box& dom, const BufferView& got,
                   const BufferView& want, DivergenceRecord* rec) {
  std::int64_t c[kMaxDims] = {0, 0, 0, 0};
  for (int d = 0; d < dom.rank; ++d) c[d] = dom.lo[d];
  const int last = dom.rank - 1;
  for (;;) {
    for (std::int64_t x = dom.lo[last]; x <= dom.hi[last]; ++x) {
      c[last] = x;
      const float w = want.at(c);
      const float g = got.at(c);
      std::uint32_t wb, gb;
      std::memcpy(&wb, &w, sizeof wb);
      std::memcpy(&gb, &g, sizeof gb);
      if (wb != gb) {
        rec->rank = dom.rank;
        for (int d = 0; d < dom.rank; ++d) rec->coord[d] = c[d];
        rec->want_bits = wb;
        rec->got_bits = gb;
        rec->want = w;
        rec->got = g;
        return true;
      }
    }
    int d = last - 1;
    for (; d >= 0; --d) {
      if (++c[d] <= dom.hi[d]) break;
      c[d] = dom.lo[d];
    }
    if (d < 0) return false;
  }
}

int find_root(std::vector<int>& comp, int v) {
  while (comp[static_cast<std::size_t>(v)] != v)
    v = comp[static_cast<std::size_t>(v)] =
        comp[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])];
  return v;
}

Grouping grouping_from_components(const Pipeline& pl, std::vector<int>& comp) {
  const int n = pl.num_stages();
  std::vector<NodeSet> sets(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    const int r = find_root(comp, s);
    sets[static_cast<std::size_t>(r)] =
        sets[static_cast<std::size_t>(r)].with(s);
  }
  Grouping g;
  for (int r = 0; r < n; ++r) {
    if (sets[static_cast<std::size_t>(r)].empty()) continue;
    GroupSchedule gs;
    gs.stages = sets[static_cast<std::size_t>(r)];
    g.groups.push_back(std::move(gs));
  }
  return g;
}

bool grouping_ok(const Pipeline& pl, const Grouping& g) {
  if (!validate_grouping(pl, g)) return false;
  for (const GroupSchedule& gs : g.groups)
    if (gs.stages.size() > 1 && !constant_dependence_vectors(pl, gs.stages))
      return false;
  return true;
}

// A random valid grouping: start from singletons, merge random
// producer-consumer edges, keeping only merges the validator (plus the
// constant-dependence-vector fusability check) accepts.  Tile sizes are then
// drawn adversarially: untiled, all-ones, oversized, or non-divisible —
// lower() clamps and granularity-rounds whatever we pick, so every style is
// legal and each exercises a different cleanup-tile path.
Grouping random_grouping(const Pipeline& pl, Rng& rng) {
  const int n = pl.num_stages();
  std::vector<int> comp(static_cast<std::size_t>(n));
  std::iota(comp.begin(), comp.end(), 0);

  std::vector<std::pair<int, int>> edges;
  for (int s = 0; s < n; ++s)
    for (const Access& a : pl.stage(s).loads)
      if (!a.producer.is_input && a.producer.id != s)
        edges.emplace_back(a.producer.id, s);

  const int tries =
      edges.empty() ? 0 : 1 + static_cast<int>(rng.next_below(edges.size()));
  for (int t = 0; t < tries; ++t) {
    const auto& [p, c] = edges[rng.next_below(edges.size())];
    if (find_root(comp, p) == find_root(comp, c)) continue;
    const std::vector<int> saved = comp;
    comp[static_cast<std::size_t>(find_root(comp, p))] = find_root(comp, c);
    Grouping g = grouping_from_components(pl, comp);
    if (!grouping_ok(pl, g)) comp = saved;  // undo an unfusable merge
  }

  Grouping g = grouping_from_components(pl, comp);
  for (GroupSchedule& gs : g.groups) {
    switch (rng.next_below(5)) {
      case 0:
        break;  // untiled
      case 1:
        gs.tile_sizes.assign(kMaxDims, 1);
        break;
      case 2:
        for (int d = 0; d < kMaxDims; ++d)
          gs.tile_sizes.push_back(
              1 + static_cast<std::int64_t>(rng.next_below(17)));
        break;
      case 3:
        gs.tile_sizes.assign(kMaxDims, std::int64_t{1} << 20);  // oversized
        break;
      default: {
        static constexpr std::int64_t primes[] = {3, 5, 7, 13};
        for (int d = 0; d < kMaxDims; ++d)
          gs.tile_sizes.push_back(primes[rng.next_below(4)]);
        break;
      }
    }
  }
  return g;
}

Grouping singleton_untiled(const Pipeline& pl) {
  Grouping g;
  for (int s = 0; s < pl.num_stages(); ++s) {
    GroupSchedule gs;
    gs.stages = NodeSet::single(s);
    g.groups.push_back(std::move(gs));
  }
  return g;
}

// The backend ladder, cheapest-divergence-to-localize first: each config
// differs from its predecessor by one mechanism, so the first diverging
// label already names the guilty layer.
struct Cfg {
  const char* name;
  EvalMode mode;
  bool super, pool;
};
constexpr Cfg kConfigs[] = {
    {"scalar-tiled", EvalMode::kScalar, false, false},
    {"vector-nosuper", EvalMode::kRow, false, false},
    {"vector", EvalMode::kRow, true, false},
    // Same mechanisms as "vector" but tiles claimed through the
    // work-stealing pool (>= 2 lanes, so stealing actually happens): a
    // divergence here indicts the pool executor path, nothing else.
    {"vector-pool", EvalMode::kRow, true, true},
};

// Runs every backend config over one grouping, comparing each materialized
// stage against `ref`.  Returns true (and fills res->record) on divergence.
bool run_configs(const Pipeline& pl, const std::vector<Buffer>& inputs,
                 const std::vector<Buffer>& ref, const std::vector<int>& topo,
                 const Grouping& g, std::uint64_t seed, Rng& rng,
                 int max_threads, DiffResult* res) {
  for (const Cfg& c : kConfigs) {
    ExecOptions opts;
    opts.mode = c.mode;
    opts.superop_fusion = c.super;
    opts.pool_backend = c.pool;
    opts.num_threads =
        (c.pool ? 2 : 1) +
        static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(std::max(1, max_threads))));
    opts.guard_arena = rng.next_bool(0.5);
    opts.pooled_storage = rng.next_bool(0.25);

    ++res->runs;
    DivergenceRecord rec;
    rec.seed = seed;
    rec.pipeline = pl.name();
    rec.backend = c.name;
    rec.opts = opts;
    rec.schedule = grouping_to_text(pl, g);
    try {
      Executor ex(pl, g, opts);
      Workspace ws;
      ex.run(inputs, ws);
      // Pooled storage reuses dead intermediates' slots, so only output
      // buffers (always dedicated) are still intact after the run.
      const bool outputs_only = opts.pooled_storage;
      for (int s : topo) {
        if (!ws.has(s)) continue;
        if (outputs_only && !pl.is_liveout(s)) continue;
        const Box& dom = pl.stage(s).domain;
        if (compare_stage(dom, ws.stage_view(s),
                          ref[static_cast<std::size_t>(s)].view(), &rec)) {
          rec.stage = pl.stage(s).name;
          res->diverged = true;
          res->record = std::move(rec);
          return true;
        }
      }
    } catch (const std::exception& e) {
      rec.error = e.what();
      res->diverged = true;
      res->record = std::move(rec);
      return true;
    }
  }

  // Final rung: the Session facade over the full vector backend, with the
  // trace collector attached.  The "vector" rung above just passed with the
  // same mechanisms, so a divergence here indicts the facade or the
  // observer instrumentation — which must be bit-invisible.
  {
    Options sopts;
    sopts.num_threads =
        1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(std::max(1, max_threads))));
    sopts.guard_arena = rng.next_bool(0.5);
    sopts.pooled_storage = rng.next_bool(0.25);
    sopts.pool_backend = rng.next_bool(0.25);
    sopts.collect_trace = true;
    sopts.trace_tiles = rng.next_bool();

    ++res->runs;
    DivergenceRecord rec;
    rec.seed = seed;
    rec.pipeline = pl.name();
    rec.backend = "session";
    rec.opts = make_exec_options(sopts);
    rec.schedule = grouping_to_text(pl, g);
    Result<Session> session = Session::open(pl, g, sopts);
    if (!session.ok()) {
      rec.error = session.error().what();
      res->diverged = true;
      res->record = std::move(rec);
      return true;
    }
    Session s = std::move(session).value();
    if (Result<double> r = s.execute(inputs); !r.ok()) {
      rec.error = r.error().what();
      res->diverged = true;
      res->record = std::move(rec);
      return true;
    }
    // The session workspace only promises output buffers (pooling may have
    // recycled intermediates); outputs are exactly what the facade returns.
    const std::vector<int>& outs = pl.outputs();
    for (int i = 0; i < static_cast<int>(outs.size()); ++i) {
      const int st = outs[static_cast<std::size_t>(i)];
      const Box& dom = pl.stage(st).domain;
      if (compare_stage(dom, s.output(i).view(),
                        ref[static_cast<std::size_t>(st)].view(), &rec)) {
        rec.stage = pl.stage(st).name;
        res->diverged = true;
        res->record = std::move(rec);
        return true;
      }
    }
  }
  return false;
}

// The row-kernel table a seed's runs use, drawn per seed like the
// configs' pool_backend, but from a stream of its own so the config draws
// stay what they were.  A replay of the seed draws the same table; a host
// without AVX2 runs the baseline table for every seed.
RowKernelIsa draw_row_kernels(std::uint64_t seed) {
  Rng rng(seed ^ 0x15A7AB1Eu);
  const RowKernelIsa isa =
      rng.next_bool() ? RowKernelIsa::kAvx2 : RowKernelIsa::kBaseline;
  return row_kernels_supported(isa) ? isa : RowKernelIsa::kBaseline;
}

}  // namespace

std::string DivergenceRecord::to_string() const {
  std::ostringstream os;
  os << "divergence seed=" << seed << " pipeline=" << pipeline
     << " backend=" << backend;
  if (!error.empty()) {
    os << "\n  error: " << error;
  } else {
    os << " stage=" << stage << " coord=(";
    for (int d = 0; d < rank; ++d) os << coord[d] << (d + 1 < rank ? "," : "");
    os << ")\n  want=0x" << std::hex << std::setw(8) << std::setfill('0')
       << want_bits << std::dec << " (" << want << ")  got=0x" << std::hex
       << std::setw(8) << std::setfill('0') << got_bits << std::dec << " ("
       << got << ")";
  }
  os << "\n  opts: threads=" << opts.num_threads
     << " mode=" << (opts.mode == EvalMode::kRow ? "row" : "scalar")
     << " superops=" << opts.superop_fusion
     << " pooled=" << opts.pooled_storage << " guard=" << opts.guard_arena
     << " pool_backend=" << opts.pool_backend
     << " row_kernels=" << row_kernel_isa_name(row_kernels);
  std::string sched = schedule;
  for (char& ch : sched)
    if (ch == '\n') ch = ';';
  os << "\n  schedule: " << sched;
  os << "\n  replay: fusedp_verify --replay " << seed;
  return os.str();
}

DiffResult diff_pipeline(const Pipeline& pl,
                         const std::vector<Buffer>& inputs,
                         std::uint64_t seed, const DifferOptions& d) {
  DiffResult res;
  res.row_kernels = draw_row_kernels(seed);
  const detail::ScopedRowKernels kernels(res.row_kernels);
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  const std::vector<int> topo = pl.graph().topo_order();
  Rng rng(seed ^ 0xD1FFC0DEu);

  std::vector<Grouping> groupings;
  groupings.push_back(singleton_untiled(pl));
  for (int i = 0; i < d.groupings_per_seed; ++i)
    groupings.push_back(random_grouping(pl, rng));

  for (const Grouping& g : groupings)
    if (run_configs(pl, inputs, ref, topo, g, seed, rng, d.max_threads, &res))
      break;
  res.record.row_kernels = res.row_kernels;
  return res;
}

DiffResult diff_grouping(const Pipeline& pl, const Grouping& grouping,
                         const std::vector<Buffer>& inputs,
                         std::uint64_t seed, const DifferOptions& d) {
  DiffResult res;
  res.row_kernels = active_row_kernels();  // the table a run here uses
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  const std::vector<int> topo = pl.graph().topo_order();
  Rng rng(seed ^ 0xD1FFC0DEu);
  run_configs(pl, inputs, ref, topo, grouping, seed, rng, d.max_threads,
              &res);
  res.record.row_kernels = res.row_kernels;
  return res;
}

DiffResult diff_seed(std::uint64_t seed, const DifferOptions& opts) {
  const auto pl = generate_pipeline(seed, opts.gen);
  const auto inputs = generate_inputs(*pl, seed);
  return diff_pipeline(*pl, inputs, seed, opts);
}

}  // namespace fusedp::verify
