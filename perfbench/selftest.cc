// Self-test of the benchmark: the oracles accept the engine's answers and
// reject perturbed ones (a dropped tuple, a shifted constant), and the op
// streams are a pure function of the seed. Exits 0 when every check holds.
//
//   perfbench_selftest [ops-per-workload]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

Rational Q(std::int64_t num, std::int64_t den = 1) {
  return Rational(num) / Rational(den);
}

void TestOracleCases() {
  // Figure 1 of the paper: 4x^2 - y - 20x + 25 <= 0 and y <= 9 has area 18.
  Band fig1{4, 0, 0, 100};
  Expect(std::fabs(BandCapArea(fig1, Q(9)) - 18.0) < 1e-12, "figure-1 area");

  const Band band{1, 0, 0, 3};  // y >= x^2, x^2 + (y-2)^2 <= 9
  Expect(BandSelectHolds(band, Q(0), Q(0)), "vertex selected at c = 0");
  Expect(!BandSelectHolds(band, Q(-1, 100), Q(0)), "nothing below the vertex");
  Expect(BandSelectHolds(band, Q(1), Q(1)), "x = 1 touches at c = 1");
  Expect(!BandSelectHolds(band, Q(1), Q(101, 100)), "x = 1.01 misses c = 1");
  // x = 2: parabola at 4, disc spans 2 +- sqrt(5) (top 4.236): inside.
  Expect(BandSelectHolds(band, Q(10), Q(2)), "x = 2 under the disc top");
  // x = 21/10: parabola 4.41 above the disc top 2 + sqrt(9 - 4.41) = 4.142.
  Expect(!BandSelectHolds(band, Q(10), Q(21, 10)), "disc clips x = 2.1");
  Expect(!BandSelectHolds(band, Q(10), Q(3)), "disc shadow edge");

  Expect(TangentX(band, Q(2)) == Q(1), "tangent point of slope 2");
  Expect(TangentOffset(band, Q(2)) == Q(-1), "tangent line y - 2x <= -1");

  // Unit square and the triangle x >= 0, y >= 0, x + y <= 2.
  const Polygon square = {{Q(-1), Q(0), Q(0)}, {Q(1), Q(0), Q(1)},
                          {Q(0), Q(-1), Q(0)}, {Q(0), Q(1), Q(1)}};
  const Polygon triangle = {{Q(-1), Q(0), Q(0)}, {Q(0), Q(-1), Q(0)},
                            {Q(1), Q(1), Q(2)}};
  Expect(ProjectionHolds({square}, {}, Q(1, 2)), "square projects");
  Expect(!ProjectionHolds({square}, {}, Q(3, 2)), "outside the square");
  const Polygon y_at_least_one = {{Q(0), Q(-1), Q(-1)}};
  Expect(ProjectionHolds({triangle}, y_at_least_one, Q(1)),
         "triangle reaches y = 1 at x = 1");
  Expect(!ProjectionHolds({triangle}, y_at_least_one, Q(3, 2)),
         "triangle below y = 1 at x = 1.5");
  Expect(JoinHolds({square}, {triangle}, Q(1), Q(1, 2), Q(3, 2)),
         "join through z = 1/2");
  Expect(!JoinHolds({square}, {triangle}, Q(-1), Q(1, 2), Q(1)),
         "join capped below every z");

  Expect(ReachHolds(Q(0), Q(8), Q(0), Q(8)), "whole chain reaches");
  Expect(ReachHolds(Q(0), Q(8), Q(1, 2), Q(5, 2)), "half-step start");
  Expect(!ReachHolds(Q(0), Q(8), Q(1), Q(5, 2)), "non-integer step");
  Expect(!ReachHolds(Q(0), Q(8), Q(2), Q(9)), "beyond the chain end");
  Expect(!ReachHolds(Q(0), Q(8), Q(3), Q(3)), "zero steps");
}

void TestSeedDeterminism() {
  for (const char* w : {"cad_select", "cad_rw", "linear_rw", "datalog_refresh"}) {
    const std::uint64_t a = OpSequenceHash(w, 7, 400);
    Expect(a == OpSequenceHash(w, 7, 400),
           std::string(w) + ": same seed, same op sequence");
    Expect(a != OpSequenceHash(w, 8, 400),
           std::string(w) + ": another seed, another op sequence");
  }
}

// The answer with one piece dropped: tuple `drop` of a relation answer,
// the scalar of an aggregate, the last point of a Solve.
Answer Drop(const Answer& a, std::size_t drop) {
  Answer out = a;
  if (a.has_scalar) {
    out.has_scalar = false;
  } else if (!a.points.empty()) {
    out.points.pop_back();
  } else {
    auto* tuples = out.relation.mutable_tuples();
    tuples->erase(tuples->begin() + static_cast<std::ptrdiff_t>(drop));
  }
  return out;
}

// answer translated by 1/3 along its first column: x -> x - 1/3 in every
// atom, which shifts every constant of the answer.
Answer Shift(const Answer& a) {
  Answer out = a;
  const ccdb::Polynomial moved =
      ccdb::Polynomial::Var(0) - ccdb::Polynomial(Q(1, 3));
  for (ccdb::GeneralizedTuple& t : *out.relation.mutable_tuples()) {
    for (ccdb::Atom& atom : t.atoms) atom.poly = atom.poly.SubstitutePoly(0, moved);
  }
  out.scalar = a.scalar * 1.01 + 1e-3;
  for (auto& p : out.points) p[0] += Q(1, 1000);
  return out;
}

struct Tally {
  int accepted = 0, dropped_rejected = 0, shifted_rejected = 0, ops = 0;
};

void RunWorkload(const std::string& workload, int ops) {
  ccdb::ConstraintDatabase db;
  std::vector<std::unique_ptr<OpStream>> streams;
  std::vector<std::unique_ptr<ccdb::Session>> sessions;
  const ccdb::EngineConfig config = ccdb::EngineConfig{}.WithThreads(1);
  for (int c = 0; c < WorkloadClients(workload); ++c) {
    streams.push_back(MakeStream(workload, 11, c));
    for (const std::string& def : streams.back()->CatalogDefinitions(0)) {
      Expect(db.Define(def).ok(), workload + ": define " + def);
    }
    sessions.push_back(db.OpenSession(config));
  }
  // The warm-up leaves each chain at its base with its closure computed.
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const std::vector<Op> warmup = streams[c]->WarmupOps(0);
    Expect(!warmup.empty(), workload + ": no warm-up ops");
    for (const Op& op : warmup) {
      if (op.kind != OpKind::kRefresh) continue;
      ccdb::Session& s = *sessions[c];
      Expect((op.redefine ? s.Drop(op.relation) : s.Insert(op.text)).ok() &&
                 (!op.redefine || s.Define(op.text).ok()) &&
                 s.Fixpoint(ClosureProgram(op.relation)).ok(),
             workload + ": warm-up " + op.text);
    }
  }
  const ccdb::Rational epsilon(ccdb::BigInt(1),
                               ccdb::BigInt::Pow2(kSolveEpsilonLog2));
  Tally tally;
  for (int i = 0; i < ops; ++i) {
    const int c = i % static_cast<int>(streams.size());
    ccdb::Session& s = *sessions[c];
    Op op = streams[c]->Next();
    Answer answer;
    ccdb::Status status = ccdb::Status::Ok();
    switch (op.kind) {
      case OpKind::kQuery:
      case OpKind::kAggregate:
      case OpKind::kFpQuery: {
        auto r = op.kind == OpKind::kFpQuery ? s.QueryFp(op.text, kFpBits)
                                             : s.Query(op.text);
        status = r.status();
        if (r.ok()) {
          answer.relation = r->relation;
          answer.columns = r->column_names;
          answer.has_scalar = r->has_scalar;
          answer.scalar = r->scalar.Value();
          answer.scalar_error = r->scalar.error_estimate;
        }
        break;
      }
      case OpKind::kSolve: {
        auto r = s.Solve(op.text, epsilon);
        status = r.status();
        if (r.ok()) answer.points = *r;
        break;
      }
      case OpKind::kInsert:
        status = s.Insert(op.text);
        break;
      case OpKind::kRedefine:
        status = s.Drop(op.relation);
        if (status.ok()) status = s.Define(op.text);
        break;
      case OpKind::kRefresh: {
        status = op.redefine ? s.Drop(op.relation) : s.Insert(op.text);
        if (status.ok() && op.redefine) status = s.Define(op.text);
        if (!status.ok()) break;
        auto r = s.Fixpoint(ClosureProgram(op.relation));
        status = r.status();
        if (r.ok()) {
          answer.relation = r->at(ReachOf(op.relation));
          answer.columns = {"x", "y"};
        }
        break;
      }
    }
    Expect(status.ok(), workload + ": " + op.text + ": " + status.ToString());
    if (!status.ok() || !op.check) continue;
    ++tally.ops;
    std::string why;
    const bool ok = op.check(answer, &why);
    Expect(ok, workload + ": oracle rejects the engine's answer to `" +
                   op.text + "`: " + why);
    tally.accepted += ok;

    // A perturbed answer must be rejected whenever it differs from the
    // engine's answer at one of the op's probes (a perturbation no probe
    // can see is indistinguishable by construction). Scalar and point
    // answers always change.
    auto expect_rejected = [&](const Answer& perturbed, const char* what,
                               int* rejected) {
      bool visible = answer.has_scalar || !answer.points.empty();
      for (const auto& p : op.probes) {
        visible |= perturbed.relation.Contains(p) != answer.relation.Contains(p);
      }
      if (!visible) return;
      std::string unused;
      const bool ok = !op.check(perturbed, &unused);
      Expect(ok, workload + ": " + what + " answer accepted for `" + op.text + "`");
      *rejected += ok;
    };
    const bool value = answer.has_scalar || !answer.points.empty();
    const std::size_t pieces = value ? 1 : answer.relation.tuples().size();
    for (std::size_t t = 0; t < pieces && t < 8; ++t) {
      expect_rejected(Drop(answer, t), "dropped-tuple", &tally.dropped_rejected);
    }
    expect_rejected(Shift(answer), "shifted", &tally.shifted_rejected);
  }
  std::printf("%s: %d checked ops, %d accepted, %d shifted answers rejected, "
              "%d dropped-tuple answers rejected\n",
              workload.c_str(), tally.ops, tally.accepted,
              tally.shifted_rejected, tally.dropped_rejected);
  Expect(tally.ops > 0, workload + ": no checked ops");
  // Vacuity guards: the perturbations must have been visible somewhere.
  Expect(tally.shifted_rejected * 3 >= tally.ops,
         workload + ": most shifted answers invisible to the probes");
  Expect(tally.dropped_rejected > 0,
         workload + ": no dropped tuple was visible to the probes");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int ops = argc > 1 ? std::atoi(argv[1]) : 40;
  perfbench::TestOracleCases();
  perfbench::TestSeedDeterminism();
  for (const char* w : {"cad_select", "cad_rw", "linear_rw", "datalog_refresh"}) {
    perfbench::RunWorkload(w, ops);
  }
  if (perfbench::g_failures > 0) {
    std::printf("%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
