// The differential verification subsystem: generator determinism and
// coverage, the cross-backend oracle on clean builds, and the two planted
// defects it exists to catch — a silent miscompile in the compiled backend
// and a row-register overrun under the guard arena.
#include <gtest/gtest.h>

#include "support/fault.hpp"
#include "test_util.hpp"
#include "verify/differ.hpp"
#include "verify/pipegen.hpp"

namespace fusedp {
namespace {

using verify::DiffResult;
using verify::PipeGenOptions;

Grouping singletons(const Pipeline& pl) {
  Grouping g;
  for (int s = 0; s < pl.num_stages(); ++s) {
    GroupSchedule gs;
    gs.stages = NodeSet::single(s);
    g.groups.push_back(gs);
  }
  return g;
}

TEST(PipeGen, DeterministicPerSeed) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
    const auto a = verify::generate_pipeline(seed);
    const auto b = verify::generate_pipeline(seed);
    ASSERT_EQ(a->num_stages(), b->num_stages());
    ASSERT_EQ(a->num_inputs(), b->num_inputs());
    for (int s = 0; s < a->num_stages(); ++s) {
      const Stage& sa = a->stage(s);
      const Stage& sb = b->stage(s);
      EXPECT_EQ(sa.name, sb.name);
      EXPECT_EQ(sa.rank(), sb.rank());
      EXPECT_EQ(sa.volume(), sb.volume());
      EXPECT_EQ(sa.nodes.size(), sb.nodes.size());
      EXPECT_EQ(sa.loads.size(), sb.loads.size());
    }
    const auto ia = verify::generate_inputs(*a, seed);
    const auto ib = verify::generate_inputs(*b, seed);
    ASSERT_EQ(ia.size(), ib.size());
    for (std::size_t i = 0; i < ia.size(); ++i)
      EXPECT_TRUE(testing::buffers_equal(ia[i], ib[i]));
  }
}

TEST(PipeGen, DifferentSeedsDiffer) {
  // Not a guarantee per pair, but across a handful of seeds the structures
  // must not all collapse to one shape.
  bool any_differ = false;
  const auto base = verify::generate_pipeline(0);
  for (std::uint64_t seed = 1; seed < 6 && !any_differ; ++seed) {
    const auto pl = verify::generate_pipeline(seed);
    any_differ = pl->num_stages() != base->num_stages() ||
                 pl->total_volume() != base->total_volume();
  }
  EXPECT_TRUE(any_differ);
}

TEST(PipeGen, CoversTheVocabulary) {
  // Across a seed sweep the generator must exercise every feature class it
  // advertises: re-sampling accesses, rank-3 stages, constant axes,
  // non-clamp borders, selects, fan-out, and degenerate extents.
  bool scaled = false, rank3 = false, const_axis = false, border = false;
  bool select_op = false, fan_out = false, degenerate = false;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const auto pl = verify::generate_pipeline(seed);
    std::vector<int> consumers(static_cast<std::size_t>(pl->num_stages()), 0);
    for (int s = 0; s < pl->num_stages(); ++s) {
      const Stage& st = pl->stage(s);
      rank3 |= st.rank() == 3;
      degenerate |= st.domain.extent(st.rank() - 1) == 1 ||
                    st.domain.extent(st.rank() - 2) == 1;
      for (const ExprNode& n : st.nodes) select_op |= n.op == Op::kSelect;
      for (const Access& a : st.loads) {
        border |= a.border != Border::kClamp;
        if (!a.producer.is_input)
          ++consumers[static_cast<std::size_t>(a.producer.id)];
        for (const AxisMap& m : a.axes) {
          scaled |= m.kind == AxisMap::Kind::kAffine && (m.num != 1 || m.den != 1);
          const_axis |= m.kind == AxisMap::Kind::kConstant;
        }
      }
    }
    for (int c : consumers) fan_out |= c >= 2;
  }
  EXPECT_TRUE(scaled);
  EXPECT_TRUE(rank3);
  EXPECT_TRUE(const_axis);
  EXPECT_TRUE(border);
  EXPECT_TRUE(select_op);
  EXPECT_TRUE(fan_out);
  EXPECT_TRUE(degenerate);
}

TEST(Differ, SeedSweepIsClean) {
  int avx2_seeds = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const DiffResult res = verify::diff_seed(seed);
    EXPECT_FALSE(res.diverged) << res.record.to_string();
    EXPECT_GT(res.runs, 0);
    EXPECT_TRUE(row_kernels_supported(res.row_kernels));
    avx2_seeds += res.row_kernels == RowKernelIsa::kAvx2;
  }
  // Each seed draws its row-kernel table, so a sweep covers both wherever
  // the host can run both.
  if (row_kernels_supported(RowKernelIsa::kAvx2)) {
    EXPECT_GT(avx2_seeds, 0);
    EXPECT_LT(avx2_seeds, 25);
  } else {
    EXPECT_EQ(avx2_seeds, 0);
  }
}

TEST(Differ, PlantedMiscompileCaughtWithFullRecord) {
  // Arm the test-only silent-corruption point inside the compiled backend:
  // one output element gets its low mantissa bit flipped, exactly once.
  // The oracle must catch it and produce a complete, replayable record.
  FaultInjector::arm_corrupt("compile.row_value");
  const DiffResult res = verify::diff_seed(3);
  FaultInjector::disarm();

  ASSERT_TRUE(res.diverged);
  const verify::DivergenceRecord& r = res.record;
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.seed, 3u);
  EXPECT_EQ(r.pipeline, "gen3");
  // Only the compiled evaluator hosts the fault point, so the guilty
  // backend must be a compiled config.
  EXPECT_TRUE(r.backend == "vector-nosuper" || r.backend == "vector")
      << r.backend;
  EXPECT_FALSE(r.stage.empty());
  EXPECT_GT(r.rank, 0);
  // A single low-bit flip: patterns differ in exactly bit 0.
  EXPECT_EQ(r.want_bits ^ r.got_bits, 1u);
  EXPECT_FALSE(r.schedule.empty());
  const std::string s = r.to_string();
  EXPECT_NE(s.find("stage="), std::string::npos);
  EXPECT_NE(s.find("want=0x"), std::string::npos);
  EXPECT_NE(s.find("--replay 3"), std::string::npos);
  // The record names the table that ran, so the replay is exact.
  EXPECT_EQ(r.row_kernels, res.row_kernels);
  EXPECT_NE(s.find(std::string("row_kernels=") +
                   row_kernel_isa_name(res.row_kernels)),
            std::string::npos)
      << s;

  // The same seed must be clean once the fault is gone (nothing latched).
  const DiffResult clean = verify::diff_seed(3);
  EXPECT_FALSE(clean.diverged) << clean.record.to_string();
  EXPECT_EQ(clean.row_kernels, res.row_kernels);
}

TEST(GuardArena, SyntheticOverrunDetectedCompiled) {
  // "eval.guard_overrun" writes one float past a row register's payload,
  // into the canary line — the class of bug the guard arena exists for.
  const auto pl = verify::generate_pipeline(5);
  const auto inputs = verify::generate_inputs(*pl, 5);
  ExecOptions opts;
  opts.guard_arena = true;
  FaultInjector::arm_corrupt("eval.guard_overrun");
  try {
    run_pipeline(*pl, singletons(*pl), inputs, opts);
    FaultInjector::disarm();
    ADD_FAILURE() << "guard arena missed the planted overrun";
  } catch (const Error& e) {
    FaultInjector::disarm();
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("guard"), std::string::npos)
        << e.what();
  }
}

TEST(GuardArena, CleanRunsAreBitIdentical) {
  // Guarding must never change results: canaries live outside row payloads.
  for (std::uint64_t seed : {2ull, 9ull, 17ull}) {
    const auto pl = verify::generate_pipeline(seed);
    const auto inputs = verify::generate_inputs(*pl, seed);
    const auto ref = run_reference(*pl, inputs);
    ExecOptions opts;
    opts.guard_arena = true;
    opts.num_threads = 2;
    const auto outs = run_pipeline(*pl, singletons(*pl), inputs, opts);
    ASSERT_EQ(outs.size(), pl->outputs().size());
    for (std::size_t o = 0; o < outs.size(); ++o)
      EXPECT_TRUE(testing::buffers_equal(
          outs[o], ref[static_cast<std::size_t>(pl->outputs()[o])]))
          << "seed " << seed << " output " << o;
  }
}

TEST(Differ, GroupingOracleMatchesChosenSchedule) {
  // diff_grouping (the fusedp_cli --verify path) on a hand-picked fused
  // schedule of a generated pipeline.
  const auto pl = verify::generate_pipeline(11);
  const auto inputs = verify::generate_inputs(*pl, 11);
  const DiffResult res = verify::diff_grouping(*pl, singletons(*pl), inputs, 11);
  EXPECT_FALSE(res.diverged) << res.record.to_string();
  EXPECT_EQ(res.runs, 5);  // four bit-exact executor configs + Session
}

}  // namespace
}  // namespace fusedp
