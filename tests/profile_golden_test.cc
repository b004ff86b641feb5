// Golden attribution trees (DESIGN.md §12).
//
// The EXPLAIN ANALYZE `qe_rounds` trees of four representative runs — a
// planned union, monolithic eliminations, a QE-cache hit and a Datalog
// fixpoint — rendered with every timing zeroed: labels, counter names,
// counter order and counter values. Only timings may vary between runs and
// thread counts, so everything left after zeroing them is pinned here,
// verbatim, at threads 1, 2 and 8. The sessions force planning and the
// memo layers per case, so the trees do not depend on the CCDB_PLAN /
// CCDB_QE_CACHE environment either.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/config.h"
#include "base/profile.h"
#include "base/thread_pool.h"
#include "datalog/datalog.h"
#include "engine/database.h"
#include "engine/session.h"
#include "qe/qe_cache.h"

namespace ccdb {
namespace {

void ZeroTimes(ProfileNode* node) {
  node->inclusive_us = 0;
  for (ProfileNode& child : node->children) ZeroTimes(&child);
}

std::string Render(std::vector<ProfileNode> rounds) {
  std::string out;
  for (ProfileNode& round : rounds) {
    ZeroTimes(&round);
    out += round.ToString();
  }
  return out;
}

// A dense-order disjunct, a linear disjunct, and a free leaf × CAD
// disjunct under one exists: every fragment engine in one plan.
constexpr const char kMixed[] =
    "exists y ((x <= y and y <= 3) or (x + 2*y <= 4 and -1 <= y) or "
    "(x < 5 and x^2 + y^2 <= 4))";
// A universal prefix: the planner falls back to one monolithic node.
constexpr const char kForall[] = "forall y (y^2 - x*y + 1 > 0)";
// A defining equation for z: peeled by substitution before CAD runs on y.
constexpr const char kSubstituted[] =
    "exists y (exists z (z - 2*x - 1 = 0 and y^2 + z^2 - 4 <= 0 and "
    "y - x >= 0))";
// Shares its CAD block with kMixed.
constexpr const char kSharedBlock[] =
    "exists y ((x < 5 and x^2 + y^2 <= 4) or (x - y >= 2))";

// The profile of `text` on a fresh session; `warmup`, when not empty, is
// analyzed first on a cleared QE result cache.
std::string Analyze(const std::string& text, bool plan, int threads,
                    const std::string& warmup = "") {
  ConstraintDatabase db;
  std::unique_ptr<Session> session = db.OpenSession(
      EngineConfig::Process().WithPlan(plan).WithQeCache(true).WithThreads(
          threads));
  QeResultCache().Clear();
  if (!warmup.empty()) {
    auto first = session->ExplainAnalyze(warmup);
    EXPECT_TRUE(first.ok()) << first.status().ToString();
  }
  auto analyzed = session->ExplainAnalyze(text);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  if (!analyzed.ok()) return "";
  return Render(analyzed->profile.qe_rounds);
}

// Reach(x,y) :- Edge(x,y).  Reach(x,y) :- Reach(x,z), Edge(z,y).
// over Edge = {y = x + 1, 0 <= x <= 3}.
std::string AnalyzeFixpoint(int threads) {
  Polynomial x = Polynomial::Var(0), y = Polynomial::Var(1);
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  DatalogRule base;
  base.head = "Reach";
  base.head_vars = {0, 1};
  base.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
  program.rules.push_back(base);
  DatalogRule step = base;
  step.body = {DatalogLiteral::Rel("Reach", {0, 2}),
               DatalogLiteral::Rel("Edge", {2, 1})};
  program.rules.push_back(step);
  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(y - x - Polynomial(1), RelOp::kEq);
  t.atoms.emplace_back(-x, RelOp::kLe);
  t.atoms.emplace_back(x - Polynomial(3), RelOp::kLe);
  edge.AddTuple(std::move(t));
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", edge);

  ThreadPool pool(threads);
  ProfileSink sink;
  DatalogOptions options;
  options.seminaive = PlanToggle::kOn;
  options.qe.plan = PlanToggle::kOn;
  options.qe.memo = PlanToggle::kOn;
  options.qe.pool = &pool;
  options.qe.profile = &sink;
  QeResultCache().Clear();
  auto result = EvaluateDatalog(program, edb, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return Render(sink.Take());
}

constexpr const char kPlannedUnion[] = R"(union  0.000 ms (self 0.000 ms)  [members=3 tuples_out=4 cad_cells=18 projection_factors=2 fm_rounds=2 max_bits=3]
  block[fourier_motzkin] exists x1  0.000 ms  [fm_rounds=1 max_bits=3 tuples_out=1]
  block[dense_order] exists x1  0.000 ms  [fm_rounds=1 max_bits=2 tuples_out=1]
  product  0.000 ms (self 0.000 ms)  [tuples_out=2]
    leaf  0.000 ms  [tuples_out=1]
    block[cad] exists x1  0.000 ms  [cad_cells=18 projection_factors=2 max_bits=3 tuples_out=2]
)";
constexpr const char kMonolithicSplit[] = R"(qe.disjunct_split  0.000 ms (self 0.000 ms)  [cad_cells=22 projection_factors=3 fm_rounds=2 max_bits=3 tuples_out=4]
  disjunct[0]  0.000 ms  [fm_rounds=1 max_bits=3 tuples_out=1]
  disjunct[1]  0.000 ms  [fm_rounds=1 max_bits=2 tuples_out=1]
  disjunct[2]  0.000 ms  [cad_cells=22 projection_factors=3 max_bits=3 tuples_out=2]
)";
constexpr const char kPlannedFallback[] = R"(monolithic[cad]  0.000 ms  [cad_cells=26 projection_factors=3 max_bits=3 tuples_out=3]
)";
constexpr const char kMonolithicCad[] = R"(qe.cad  0.000 ms  [cad_cells=26 projection_factors=3 max_bits=3 tuples_out=3]
)";
constexpr const char kCachedHit[] = R"(qe[cached]  0.000 ms  [cad_cells=18 projection_factors=2 fm_rounds=2 max_bits=3 qe_cache_hits=1 tuples_out=4]
)";
constexpr const char kNestedHit[] = R"(union  0.000 ms (self 0.000 ms)  [members=2 tuples_out=3 cad_cells=18 projection_factors=2 fm_rounds=1 max_bits=3 qe_cache_hits=1]
  block[fourier_motzkin] exists x1  0.000 ms  [fm_rounds=1 max_bits=2 tuples_out=1]
  product  0.000 ms (self 0.000 ms)  [tuples_out=2]
    leaf  0.000 ms  [tuples_out=1]
    block[cad] exists x1  0.000 ms  [cad_cells=18 projection_factors=2 max_bits=3 qe_cache_hits=1 tuples_out=2]
)";
constexpr const char kPlannedSubstitution[] = R"(union  0.000 ms (self 0.000 ms)  [members=1 tuples_out=7 cad_cells=72 projection_factors=5 max_bits=3]
  block[cad] exists x1 x2  0.000 ms  [substitutions=1 cad_cells=72 projection_factors=5 max_bits=3 tuples_out=7]
)";
constexpr const char kMonolithicSubstitution[] = R"(qe.cad  0.000 ms  [substitutions=1 cad_cells=72 projection_factors=5 max_bits=3 tuples_out=7]
)";
constexpr const char kFixpoint[] = R"(datalog.round[0]  0.000 ms (self 0.000 ms)  [rules=2]
  rule[0] Reach  0.000 ms  [max_bits=2 tuples_out=1]
  rule[1] Reach  0.000 ms  [tuples_out=0]
datalog.round[1]  0.000 ms (self 0.000 ms)  [rules=2 delta_tuples=1]
  rule[0] Reach  0.000 ms  [tuples_out=0]
  rule[1] Reach  0.000 ms  [max_bits=2 tuples_out=1]
datalog.round[2]  0.000 ms (self 0.000 ms)  [rules=2 delta_tuples=1]
  rule[0] Reach  0.000 ms  [tuples_out=0]
  rule[1] Reach  0.000 ms  [max_bits=2 tuples_out=1]
datalog.round[3]  0.000 ms (self 0.000 ms)  [rules=2 delta_tuples=1]
  rule[0] Reach  0.000 ms  [tuples_out=0]
  rule[1] Reach  0.000 ms  [max_bits=3 tuples_out=1]
datalog.round[4]  0.000 ms (self 0.000 ms)  [rules=2 delta_tuples=1]
  rule[0] Reach  0.000 ms  [tuples_out=0]
  rule[1] Reach  0.000 ms  [max_bits=3 tuples_out=1]
)";

class ProfileGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfileGoldenTest, PlannedUnion) {
  EXPECT_EQ(Analyze(kMixed, /*plan=*/true, GetParam()), kPlannedUnion);
}

TEST_P(ProfileGoldenTest, MonolithicDisjunctSplit) {
  EXPECT_EQ(Analyze(kMixed, /*plan=*/false, GetParam()),
            kMonolithicSplit);
}

TEST_P(ProfileGoldenTest, PlannedFallbackToMonolithic) {
  EXPECT_EQ(Analyze(kForall, /*plan=*/true, GetParam()),
            kPlannedFallback);
}

TEST_P(ProfileGoldenTest, MonolithicCad) {
  EXPECT_EQ(Analyze(kForall, /*plan=*/false, GetParam()),
            kMonolithicCad);
}

TEST_P(ProfileGoldenTest, CachedHit) {
  EXPECT_EQ(Analyze(kMixed, /*plan=*/true, GetParam(), kMixed), kCachedHit);
}

TEST_P(ProfileGoldenTest, NestedCacheHit) {
  EXPECT_EQ(Analyze(kSharedBlock, /*plan=*/true, GetParam(), kMixed),
            kNestedHit);
}

TEST_P(ProfileGoldenTest, PlannedSubstitution) {
  EXPECT_EQ(Analyze(kSubstituted, /*plan=*/true, GetParam()),
            kPlannedSubstitution);
}

TEST_P(ProfileGoldenTest, MonolithicSubstitution) {
  EXPECT_EQ(Analyze(kSubstituted, /*plan=*/false, GetParam()),
            kMonolithicSubstitution);
}

TEST_P(ProfileGoldenTest, DatalogFixpoint) {
  EXPECT_EQ(AnalyzeFixpoint(GetParam()), kFixpoint);
}

INSTANTIATE_TEST_SUITE_P(Threads, ProfileGoldenTest,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace ccdb
