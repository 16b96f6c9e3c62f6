#include "runtime/plan_printer.hpp"

#include <sstream>

#include "ir/printer.hpp"

namespace fusedp {

namespace {

// Measured record for plan group `index`, if the trace has one.
const observe::GroupRecord* measured_group(const observe::RunTrace* trace,
                                           int index) {
  if (trace == nullptr) return nullptr;
  for (const observe::GroupRecord& r : trace->groups)
    if (r.index == index) return &r;
  return nullptr;
}

// Line 15's promises checked on the tiles group `g` runs.
void print_tile_check(std::ostringstream& out, const Pipeline& pl,
                      const GroupPlan& g, const CostModel& model) {
  const MachineModel& m = model.machine();
  const bool l2 = model.cost(g.stages).used_l2;
  out << "// line 15: " << g.total_tiles << " tiles for " << m.cores
      << " cores";
  if (g.total_tiles < m.cores) out << " (grid cannot feed the cores)";
  out << "; run tile " << run_tile_volume(pl, g.stages, g.align, g.tile_sizes)
      << " floats, " << (l2 ? "L2" : "L1") << " budget "
      << (l2 ? m.l2_floats() : m.l1_floats()) << " floats\n";
}

}  // namespace

std::string plan_to_string(const ExecutablePlan& plan,
                           const observe::RunTrace* trace,
                           const CostModel* model) {
  const Pipeline& pl = *plan.pipeline;
  std::ostringstream out;
  out << "// executable plan for pipeline '" << pl.name() << "' ("
      << plan.groups.size() << " groups)\n";
  int gi = 0;
  for (const GroupPlan& g : plan.groups) {
    const int index = gi++;
    out << "\n// group " << index << ": " << g.stages.to_string();
    if (g.model_cost > 0.0) out << "  // predicted cost " << g.model_cost;
    if (const observe::GroupRecord* m = measured_group(trace, index)) {
      out << "  // measured " << m->seconds * 1e3 << " ms";
      if (m->computed_elems > 0)
        out << ", "
            << 100.0 *
                   static_cast<double>(m->computed_elems - m->owned_elems) /
                   static_cast<double>(m->computed_elems)
            << "% redundant";
    }
    out << "\n";
    if (g.is_reduction) {
      const Stage& st = pl.stage(g.stages.first());
      out << "reduce " << st.name << st.domain.to_string()
          << "  // native, per-cell parallel\n";
      continue;
    }
    if (model != nullptr) print_tile_check(out, pl, g, *model);
    out << "#pragma omp parallel for schedule(dynamic)  // " << g.total_tiles
        << " independent overlapped tiles"
        << (g.region_template.translatable ? ", translatable region template"
                                           : "")
        << "\n";
    out << "for tile (";
    for (int d = 0; d < g.align.num_classes; ++d) {
      if (d) out << ", ";
      out << g.tiles_per_dim[static_cast<std::size_t>(d)];
    }
    out << ") of size [";
    for (int d = 0; d < g.align.num_classes; ++d) {
      if (d) out << "x";
      out << g.tile_sizes[static_cast<std::size_t>(d)];
    }
    out << "] {\n";
    // Group totals of the vector-backend statistics, so a reader can see at
    // a glance how much of the group's work runs in fused kernels and how
    // small its per-row register working set is.
    std::int32_t group_regs = 0, group_fused = 0;
    for (int s : g.stage_order) {
      const CompiledStage& cs = plan.compiled[static_cast<std::size_t>(s)];
      if (!cs.valid()) continue;
      group_regs += cs.num_regs;
      group_fused += cs.fused;
    }
    out << "// row registers: " << group_regs
        << " total, fused superops: " << group_fused << "\n";
    if (g.verdict.measured) {
      out << "// never-pessimize: micro-measured " << g.verdict.vector_ms
          << " ms vector vs " << g.verdict.scalar_ms << " ms plain ("
          << benefit_cause_name(g.verdict.cause) << ") -> "
          << (g.verdict.demoted ? "demoted to plain compilation"
                                : "vector form kept")
          << "\n";
    } else if (g.verdict.cause != BenefitCause::kNone) {
      out << "// never-pessimize: suspect ("
          << benefit_cause_name(g.verdict.cause) << "), not measured\n";
    }
    for (int s : g.stage_order) {
      const Stage& st = pl.stage(s);
      const bool mat = plan.materialized[static_cast<std::size_t>(s)];
      out << "  // " << st.name;
      if (st.rank() > 0) {
        out << ": scale";
        const StageAlign& sa = g.align.stages[static_cast<std::size_t>(s)];
        for (int d = 0; d < st.rank(); ++d) {
          const DimAlign& da = sa.dim[static_cast<std::size_t>(d)];
          out << " " << da.sn << "/" << da.sd;
        }
      }
      const CompiledStage& cs = plan.compiled[static_cast<std::size_t>(s)];
      if (cs.valid())
        out << "  // compiled: " << cs.num_slots() << " ops (from "
            << cs.source_nodes << " nodes, " << cs.folded << " folded, "
            << cs.cse_hits << " cse), " << cs.num_regs << " regs, "
            << cs.fused << " fused";
      out << "\n";
      out << "  for (required region of " << st.name << ")  "
          << (mat ? "compute -> buffer (via scratch + owned-slice publish "
                    "when the region carries a halo)"
                  : "compute -> per-thread scratch")
          << "\n";
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace fusedp
