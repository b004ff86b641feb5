// Session contexts (DESIGN.md §16): the de-globalized execution scope.
// Two sessions with DIFFERENT configs — plan on vs off, 1 vs 8 threads,
// private pools — coexist in one process and answer byte-identically to
// their serial single-threaded equivalents; pinned MVCC snapshots make a
// writer invisible; and the whole-query memo distinguishes snapshot
// versions and resolved plan settings instead of aliasing across them.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/config.h"
#include "engine/database.h"
#include "engine/session.h"

namespace ccdb {
namespace {

std::string Render(const StatusOr<CalcFResult>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out = result->relation.ToString(result->column_names);
  if (result->has_scalar) {
    out += "|scalar=" + (result->scalar.exact
                             ? result->scalar.exact_value.ToString()
                             : std::to_string(result->scalar.approx_value));
  }
  return out;
}

void DefineFixtures(ConstraintDatabase& db) {
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  ASSERT_TRUE(db.Define("D(x, y) := x^2 + y^2 <= 25").ok());
  ASSERT_TRUE(db.Define("L(x, y) := x + y <= 3 and x >= 0 and y >= 0").ok());
}

const std::vector<std::string>& Workload() {
  static const std::vector<std::string> queries = {
      "exists y (S(x, y) and y <= 0)",
      "exists y (D(x, y) and L(x, y))",
      "S(x, y) and D(x, y)",
      "SURFACE[x, y](L(x, y))(z)",
      "forall y (y >= 4*x^2 - 20*x + 25 or not D(x, y))",
  };
  return queries;
}

TEST(SessionTest, OpenSessionAppliesConfigAndAssignsUniqueIds) {
  ConstraintDatabase db;
  EngineConfig off = EngineConfig::Process()
                         .WithPlan(false)
                         .WithQeCache(false)
                         .WithThreads(1);
  EngineConfig on =
      EngineConfig::Process().WithPlan(true).WithQeCache(true).WithThreads(8);

  std::unique_ptr<Session> a = db.OpenSession(off);
  std::unique_ptr<Session> b = db.OpenSession(on);

  std::set<std::uint64_t> ids = {a->id(), b->id()};
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_GT(a->id(), 0u);
  EXPECT_GT(b->id(), a->id()) << "ids are handed out in open order";

  // The session config is authoritative: kOn/kOff, never kAuto.
  EXPECT_EQ(a->options().qe.plan, PlanToggle::kOff);
  EXPECT_EQ(a->options().qe.memo, PlanToggle::kOff);
  EXPECT_EQ(b->options().qe.plan, PlanToggle::kOn);
  EXPECT_EQ(b->options().qe.memo, PlanToggle::kOn);

  // Private pools sized by the config, not by the Shared() singleton.
  ASSERT_NE(a->pool(), nullptr);
  ASSERT_NE(b->pool(), nullptr);
  EXPECT_NE(a->pool(), b->pool());
  EXPECT_EQ(a->pool()->threads(), 1);
  EXPECT_EQ(b->pool()->threads(), 8);
  EXPECT_EQ(a->options().qe.pool, a->pool());

  // Distinct configs, distinct fingerprints.
  EXPECT_NE(a->config_fingerprint(), b->config_fingerprint());
  EXPECT_EQ(a->config_fingerprint(), off.Fingerprint());
}

TEST(SessionTest, ConcurrentMixedConfigSessionsAreByteIdenticalToSerial) {
  // The ISSUE acceptance test: one session at plan-off / 1 thread and one
  // at plan-on / 8 threads run the workload concurrently in one process.
  // Every answer must be byte-identical to its SERIAL EQUIVALENT — a
  // fresh single-threaded database evaluating at the same plan setting.
  // (Plan on vs off may legally render equivalent answers differently on
  // nonlinear corpora; thread count and session machinery never may.)
  ConstraintDatabase db;
  DefineFixtures(db);

  auto serial_at = [](PlanToggle plan) {
    CalcFOptions options;
    options.qe.plan = plan;
    ConstraintDatabase serial(options);
    DefineFixtures(serial);
    std::vector<std::string> out;
    out.reserve(Workload().size());
    for (const std::string& query : Workload()) {
      out.push_back(Render(serial.Query(query)));
    }
    return out;
  };
  const std::vector<std::string> serial_off = serial_at(PlanToggle::kOff);
  const std::vector<std::string> serial_on = serial_at(PlanToggle::kOn);

  std::unique_ptr<Session> slow = db.OpenSession(
      EngineConfig::Process().WithPlan(false).WithThreads(1));
  std::unique_ptr<Session> fast =
      db.OpenSession(EngineConfig::Process().WithPlan(true).WithThreads(8));

  constexpr int kRounds = 3;
  std::vector<std::string> slow_failures, fast_failures;
  auto run = [&](Session* session, const std::vector<std::string>* serial,
                 std::vector<std::string>* failures) {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < Workload().size(); ++i) {
        std::string got = Render(session->Query(Workload()[i]));
        if (got != (*serial)[i]) {
          failures->push_back("round " + std::to_string(round) + " query " +
                              Workload()[i] + ": " + got +
                              " != " + (*serial)[i]);
        }
      }
    }
  };
  std::thread t1(run, slow.get(), &serial_off, &slow_failures);
  std::thread t2(run, fast.get(), &serial_on, &fast_failures);
  t1.join();
  t2.join();

  EXPECT_TRUE(slow_failures.empty()) << slow_failures.front();
  EXPECT_TRUE(fast_failures.empty()) << fast_failures.front();
}

TEST(SessionTest, PinnedSnapshotMakesWriterInvisibleUntilRepin) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := x + y <= 10 and x >= 0 and y >= 0").ok());
  const std::string query = "exists y (S(x, y) and y <= 1)";
  const std::string before = Render(db.Query(query));

  std::unique_ptr<Session> session = db.OpenSession();
  session->PinSnapshot();
  EXPECT_TRUE(session->pinned());
  const std::uint64_t pinned_version = session->snapshot()->version();

  // The writer widens S and churns another relation; the pinned session
  // keeps answering from its version.
  ASSERT_TRUE(db.Insert("S(x, y) := x + y <= 20 and x >= -5 and y >= 0").ok());
  ASSERT_TRUE(db.Define("T(x) := x <= 1").ok());
  const std::string after = Render(db.Query(query));
  ASSERT_NE(before, after) << "fixture: the insert must change the answer";

  EXPECT_EQ(Render(session->Query(query)), before);
  EXPECT_EQ(session->snapshot()->version(), pinned_version);
  // A pinned session cannot even see relations defined after the pin.
  EXPECT_FALSE(session->Query("T(x) and x >= 0").ok());

  // Re-pinning moves the session to the current version; Unpin returns it
  // to always-current reads.
  session->PinSnapshot();
  EXPECT_GT(session->snapshot()->version(), pinned_version);
  EXPECT_EQ(Render(session->Query(query)), after);
  EXPECT_TRUE(session->Query("T(x) and x >= 0").ok());
  session->Unpin();
  EXPECT_FALSE(session->pinned());
  EXPECT_EQ(Render(session->Query(query)), after);
}

TEST(SessionTest, WholeQueryCacheIsVersionedAcrossPinnedSessions) {
  // Hit-counter assertions for the versioned whole-query memo: a pinned
  // session keeps HITTING its old version's entry after a writer mutates
  // (and keeps getting the old answer), while a fresh-snapshot session
  // MISSES and computes the new answer. The cache key carries the read-set
  // versions, so neither aliases the other.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := x + y <= 10 and x >= 0 and y >= 0").ok());
  const std::string query = "exists y (S(x, y) and y <= 1)";

  EngineConfig config = EngineConfig::Process().WithQeCache(true);
  std::unique_ptr<Session> old_session = db.OpenSession(config);
  old_session->PinSnapshot();

  StatusOr<ExplainResult> miss = old_session->Explain(query);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->from_cache) << "first evaluation must be a miss";
  const std::string old_answer =
      miss->result.relation.ToString(miss->result.column_names);

  ASSERT_TRUE(db.Insert("S(x, y) := x + y <= 20 and x >= -5 and y >= 0").ok());

  StatusOr<ExplainResult> hit = old_session->Explain(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache)
      << "pinned session must hit its version's entry after the write";
  EXPECT_EQ(hit->result.relation.ToString(hit->result.column_names),
            old_answer);

  std::unique_ptr<Session> new_session = db.OpenSession(config);
  StatusOr<ExplainResult> fresh = new_session->Explain(query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->from_cache)
      << "new version must be a distinct cache entry";
  EXPECT_NE(fresh->result.relation.ToString(fresh->result.column_names),
            old_answer);

  // And the new version's entry is itself warm now.
  StatusOr<ExplainResult> warm = new_session->Explain(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
}

TEST(SessionTest, PlanOnAndPlanOffSessionsDoNotAliasCacheEntries) {
  // The resolved-plan bit is part of the cache key: cached stats carry the
  // plan summary, so a plan-off session must never be served a plan-on
  // entry (and vice versa). Answers still agree byte-for-byte.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  const std::string query = "exists y (S(x, y) and y <= 0)";

  std::unique_ptr<Session> plan_on =
      db.OpenSession(EngineConfig::Process().WithPlan(true).WithQeCache(true));
  std::unique_ptr<Session> plan_off = db.OpenSession(
      EngineConfig::Process().WithPlan(false).WithQeCache(true));

  StatusOr<ExplainResult> on1 = plan_on->Explain(query);
  ASSERT_TRUE(on1.ok());
  EXPECT_FALSE(on1->from_cache);

  // Same text, same snapshot version — but a different resolved plan bit:
  // the plan-off session must compute, not hit the plan-on entry.
  StatusOr<ExplainResult> off1 = plan_off->Explain(query);
  ASSERT_TRUE(off1.ok());
  EXPECT_FALSE(off1->from_cache) << "plan-off must not hit the plan-on entry";
  EXPECT_EQ(off1->result.relation.ToString(off1->result.column_names),
            on1->result.relation.ToString(on1->result.column_names));

  // Each setting hits its own entry on re-query.
  StatusOr<ExplainResult> on2 = plan_on->Explain(query);
  StatusOr<ExplainResult> off2 = plan_off->Explain(query);
  ASSERT_TRUE(on2.ok());
  ASSERT_TRUE(off2.ok());
  EXPECT_TRUE(on2->from_cache);
  EXPECT_TRUE(off2->from_cache);
}

TEST(SessionTest, SessionFixpointForcesConfiguredDatalogToggles) {
  // Fixpoint under a session forces the semi-naive / incremental toggles
  // from the session config (incremental off here so both sessions compute
  // fresh); both settings reach a byte-identical model, and the stats show
  // which path actually ran (deltas only exist on the semi-naive path).
  ConstraintDatabase db;
  ASSERT_TRUE(
      db.Define("Edge(x, y) := y - x = 1 and x >= 0 and x <= 3").ok());

  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("Edge", {2, 1}));
    program.rules.push_back(rule);
  }

  std::unique_ptr<Session> seminaive = db.OpenSession(
      EngineConfig::Process().WithSeminaive(true).WithIncremental(false));
  std::unique_ptr<Session> naive = db.OpenSession(
      EngineConfig::Process().WithSeminaive(false).WithIncremental(false));

  DatalogStats stats_semi, stats_naive;
  auto model_semi = seminaive->Fixpoint(program, {}, &stats_semi);
  auto model_naive = naive->Fixpoint(program, {}, &stats_naive);
  ASSERT_TRUE(model_semi.ok()) << model_semi.status().ToString();
  ASSERT_TRUE(model_naive.ok()) << model_naive.status().ToString();

  ASSERT_EQ(model_semi->count("Reach"), 1u);
  ASSERT_EQ(model_naive->count("Reach"), 1u);
  EXPECT_EQ(model_semi->at("Reach").ToString({"x", "y"}),
            model_naive->at("Reach").ToString({"x", "y"}));
  EXPECT_TRUE(stats_semi.reached_fixpoint);
  EXPECT_TRUE(stats_naive.reached_fixpoint);
  EXPECT_GT(stats_semi.delta_tuples, 0u) << "semi-naive path must have run";
  EXPECT_EQ(stats_naive.delta_tuples, 0u) << "naive path must have run";
}

TEST(SessionTest, QueryFpRunsUnderTheSessionMemoToggle) {
  // QueryFp's quantifier elimination runs under the session's options: a
  // memo-off session neither reads nor writes the QE cache, so repeating
  // the same text never reports a cache hit.
  ConstraintDatabase db;
  DefineFixtures(db);
  std::unique_ptr<Session> session =
      db.OpenSession(EngineConfig::Process().WithQeCache(false));
  const std::string text = "exists y (L(x, y) and y >= 1)";
  for (int run = 0; run < 2; ++run) {
    FpQeStats stats;
    auto result = session->QueryFp(text, 64, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(stats.qe.cache_hits, 0u) << "run " << run;
  }
}

}  // namespace
}  // namespace ccdb
