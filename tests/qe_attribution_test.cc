// Count-once attribution of elimination work (DESIGN.md §6).
//
// Every registry counter of the QE layer is counted once, at the site
// where its work happens: the CAD sizes in Cad::Build, the path counters
// where a path is taken. So the registry deltas of one cold elimination
// equal the QeStats the run returns, with the planner on or off, however
// the run nests its sub-eliminations — and a QE-cache hit, which builds no
// CAD, moves no CAD counter.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "base/memo.h"
#include "base/metrics.h"
#include "constraint/formula.h"
#include "qe/qe.h"
#include "qe/qe_cache.h"

namespace ccdb {
namespace {

Polynomial V(int i) { return Polynomial::Var(i); }
Polynomial C(std::int64_t c) { return Polynomial(c); }

using Snapshot = std::map<std::string, std::uint64_t>;

std::uint64_t Delta(const Snapshot& before, const Snapshot& after,
                    const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

// exists y (x^2 + y^2 - 4 <= 0 and y - x >= 0): one CAD block.
Formula SingleBlock() {
  return Formula::Exists(
      1, Formula::And({Formula::Compare(V(0) * V(0) + V(1) * V(1) - C(4),
                                        RelOp::kLe, C(0)),
                       Formula::Compare(V(1) - V(0), RelOp::kGe, C(0))}));
}

// exists y ((x^2 + y^2 - 4 <= 0 and y >= 1) or (y - x^2 + 1 <= 0 and
// x + y >= 0)): the monolithic path splits it per disjunct, the planner
// makes it a union of two CAD blocks.
Formula DisjunctSplit() {
  Formula circle = Formula::And(
      {Formula::Compare(V(0) * V(0) + V(1) * V(1) - C(4), RelOp::kLe, C(0)),
       Formula::Compare(V(1), RelOp::kGe, C(1))});
  Formula parabola = Formula::And(
      {Formula::Compare(V(1) - V(0) * V(0) + C(1), RelOp::kLe, C(0)),
       Formula::Compare(V(0) + V(1), RelOp::kGe, C(0))});
  return Formula::Exists(1, Formula::Or({circle, parabola}));
}

struct Observed {
  QeStats stats;
  Snapshot before, after;
};

Observed Eliminate(const Formula& formula, PlanToggle plan) {
  Observed run;
  QeOptions options;
  options.plan = plan;
  run.before = MetricsRegistry::Global().SnapshotValues();
  auto result = EliminateQuantifiers(formula, 1, options, &run.stats);
  run.after = MetricsRegistry::Global().SnapshotValues();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return run;
}

void ExpectCountedOnce(const Formula& formula) {
  for (PlanToggle plan : {PlanToggle::kOff, PlanToggle::kOn}) {
    SCOPED_TRACE(plan == PlanToggle::kOn ? "plan on" : "plan off");
    QeResultCache().Clear();
    Observed cold = Eliminate(formula, plan);
    ASSERT_GT(cold.stats.cad_cells, 0u);
    ASSERT_EQ(cold.stats.cache_hits, 0u);
    ASSERT_FALSE(cold.stats.used_thom_augmentation);
    EXPECT_EQ(Delta(cold.before, cold.after, "cad.cells"),
              cold.stats.cad_cells);
    EXPECT_EQ(Delta(cold.before, cold.after, "cad.projection_factors"),
              cold.stats.projection_factors);

    if (!MemoCachesEnabled()) continue;  // CCDB_QE_CACHE=0: no hit to test
    Observed warm = Eliminate(formula, plan);
    EXPECT_EQ(warm.stats.cache_hits, 1u);
    EXPECT_EQ(warm.stats.cad_cells, cold.stats.cad_cells);
    EXPECT_EQ(Delta(warm.before, warm.after, "cad.cells"), 0u);
    EXPECT_EQ(Delta(warm.before, warm.after, "cad.projection_factors"), 0u);
  }
}

TEST(QeAttributionTest, SingleBlockCadCountsOnce) {
  ExpectCountedOnce(SingleBlock());
}

TEST(QeAttributionTest, DisjunctSplitCadCountsOnce) {
  ExpectCountedOnce(DisjunctSplit());
}

// A universal prefix runs as the planner's one monolithic node, which
// nests a full sub-elimination: the linear path is still taken once.
TEST(QeAttributionTest, PathCounterCountsOnce) {
  Formula f = Formula::Forall(
      1, Formula::Or({Formula::Compare(V(1) - V(0), RelOp::kGe, C(0)),
                      Formula::Compare(V(1) + V(0), RelOp::kLt, C(2))}));
  for (PlanToggle plan : {PlanToggle::kOff, PlanToggle::kOn}) {
    SCOPED_TRACE(plan == PlanToggle::kOn ? "plan on" : "plan off");
    QeResultCache().Clear();
    Observed run = Eliminate(f, plan);
    ASSERT_TRUE(run.stats.used_linear_path);
    EXPECT_EQ(Delta(run.before, run.after, "qe.linear_path"), 1u);
    EXPECT_EQ(Delta(run.before, run.after, "qe.calls"),
              plan == PlanToggle::kOn ? 2u : 1u);
  }
}

// The CAD sizes have one registry name each; the qe.cad.* copies are gone.
TEST(QeAttributionTest, NoDuplicateCadInstruments) {
  QeResultCache().Clear();
  Eliminate(SingleBlock(), PlanToggle::kOn);
  for (const auto& [name, value] : MetricsRegistry::Global().SnapshotValues()) {
    EXPECT_NE(name.rfind("qe.cad.", 0), 0u) << name;
  }
}

}  // namespace
}  // namespace ccdb
