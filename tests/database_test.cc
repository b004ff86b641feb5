#include "engine/database.h"

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"

#include <gtest/gtest.h>

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

ConstraintDatabase PaperDb() {
  ConstraintDatabase db;
  CCDB_CHECK(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  return db;
}

void DefineMoveFixtures(ConstraintDatabase& db) {
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  ASSERT_TRUE(
      db.Define("Edge(x, y) := y - x - 1 = 0 and x >= 0 and x <= 2").ok());
}

// Reach := transitive closure of Edge.
DatalogProgram ReachProgram() {
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  DatalogRule base;
  base.head = "Reach";
  base.head_vars = {0, 1};
  base.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
  program.rules.push_back(base);
  DatalogRule step;
  step.head = "Reach";
  step.head_vars = {0, 1};
  step.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
  step.body.push_back(DatalogLiteral::Rel("Edge", {2, 1}));
  program.rules.push_back(step);
  return program;
}

// Renders the facade's Query, Explain, ReadSet and Fixpoint answers. They
// all run in the database's default session, which holds a pointer back
// to its database and must follow it across a move.
std::vector<std::string> FacadeReads(const ConstraintDatabase& db) {
  const std::string text = "exists y (S(x, y) and y <= 9)";
  std::vector<std::string> out;
  auto query = db.Query(text);
  out.push_back(query.ok() ? query->relation.ToString(query->column_names)
                           : "error: " + query.status().ToString());
  auto explain = db.Explain(text);
  out.push_back(explain.ok()
                    ? explain->result.relation.ToString(
                          explain->result.column_names) +
                          " numeric_points=" +
                          std::to_string(explain->numeric_points)
                    : "error: " + explain.status().ToString());
  auto read_set = db.ReadSet(text);
  std::string versions;
  if (read_set.ok()) {
    for (const auto& [name, version] : *read_set) {
      versions += name + "@" + std::to_string(version) + ";";
    }
  }
  out.push_back(read_set.ok() ? versions
                             : "error: " + read_set.status().ToString());
  auto fixpoint = db.Fixpoint(ReachProgram());
  out.push_back(fixpoint.ok() ? fixpoint->at("Reach").ToString({"x", "y"})
                              : "error: " + fixpoint.status().ToString());
  return out;
}

TEST(DatabaseTest, FacadeSurvivesMove) {
  ConstraintDatabase a;
  DefineMoveFixtures(a);
  const std::vector<std::string> before = FacadeReads(a);
  for (const std::string& answer : before) {
    ASSERT_EQ(answer.rfind("error: ", 0), std::string::npos) << answer;
  }
  ConstraintDatabase b = std::move(a);
  EXPECT_EQ(FacadeReads(b), before);
  ConstraintDatabase c;
  c = std::move(b);
  EXPECT_EQ(FacadeReads(c), before);
}

TEST(DatabaseTest, FacadeSurvivesOpenDurableReturn) {
  const std::string dir = ::testing::TempDir() + "/ccdb_facade_move";
  std::filesystem::remove_all(dir);
  {
    // OpenDurable returns by value: its local database is moved into the
    // StatusOr, and from there into `db`.
    StatusOr<ConstraintDatabase> opened = ConstraintDatabase::OpenDurable(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DefineMoveFixtures(*opened);
    const std::vector<std::string> before = FacadeReads(*opened);
    ConstraintDatabase reference;
    DefineMoveFixtures(reference);
    const std::vector<std::string> expected = FacadeReads(reference);
    // Same answers as an in-memory database; the read-set versions differ.
    EXPECT_EQ(before[0], expected[0]);
    EXPECT_EQ(before[1], expected[1]);
    EXPECT_EQ(before[3], expected[3]);
    ConstraintDatabase db = std::move(*opened);
    EXPECT_EQ(FacadeReads(db), before);
  }
  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, EndToEndPaperPipeline) {
  // The complete Figure 1 run: instantiate -> QE -> numerical evaluation.
  ConstraintDatabase db = PaperDb();
  auto solutions =
      db.Solve("exists y (S(x, y) and y <= 0)", R(1, 1000000));
  ASSERT_TRUE(solutions.ok()) << solutions.status().ToString();
  ASSERT_EQ(solutions->size(), 1u);
  EXPECT_EQ((*solutions)[0][0], R(5, 2));
}

TEST(DatabaseTest, SurfaceQueryScalar) {
  ConstraintDatabase db = PaperDb();
  auto result = db.Query("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_scalar);
  EXPECT_EQ(result->scalar.exact_value, R(18));
}

TEST(DatabaseTest, RegisterQueryOutput) {
  ConstraintDatabase db = PaperDb();
  auto q = db.Query("exists y (S(x, y) and y <= 0)");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(db.Register("Answer", q->relation).ok());
  auto contains = db.Contains("Answer", {R(5, 2)});
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains);
  auto reuse = db.Query("EVAL[x](Answer(x))(r)");
  ASSERT_TRUE(reuse.ok()) << reuse.status().ToString();
  EXPECT_TRUE(reuse->relation.Contains({R(5, 2)}));
}

TEST(DatabaseTest, FinitePrecisionQuery) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("T(x, y) := 100*x - y <= 0 and y <= 200").ok());
  FpQeStats stats;
  auto generous = db.QueryFp("exists y (T(x, y))", 64, &stats);
  ASSERT_TRUE(generous.ok()) << generous.status().ToString();
  EXPECT_TRUE(stats.defined);
  EXPECT_TRUE(generous->relation.Contains({R(2)}));
  EXPECT_FALSE(generous->relation.Contains({R(3)}));

  auto starved = db.QueryFp("exists y (T(x, y))", 2, &stats);
  EXPECT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kUndefined);
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  ConstraintDatabase db = PaperDb();
  std::string path = "/tmp/ccdb_database_test.txt";
  ASSERT_TRUE(db.Save(path).ok());
  ConstraintDatabase loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  auto result = loaded.Query("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->scalar.exact_value, R(18));
  std::remove(path.c_str());
}

TEST(DatabaseTest, Errors) {
  ConstraintDatabase db = PaperDb();
  EXPECT_FALSE(db.Define("S(x) := x = 0").ok());  // duplicate
  EXPECT_FALSE(db.Drop("Nope").ok());
  EXPECT_FALSE(db.Query("Unknown(x)").ok());
  EXPECT_FALSE(db.Relation("Unknown").ok());
  EXPECT_TRUE(db.Relation("S").ok());
  EXPECT_EQ(db.RelationNames().size(), 1u);
}

TEST(DatabaseTest, InfiniteAnswerSetSolveFails) {
  ConstraintDatabase db = PaperDb();
  auto result = db.Solve("exists y (S(x, y))", R(1, 100));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ccdb
