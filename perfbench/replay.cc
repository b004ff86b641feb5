#include "replay.h"

#include <set>

#include "agg/aggregates.h"
#include "base/memo.h"
#include "fp/fp_semantics.h"
#include "numeric/numerical_eval.h"
#include "plan/planner.h"
#include "poly/resultant.h"
#include "poly/root_isolation.h"
#include "poly/upoly.h"
#include "qe/cad.h"
#include "qe/dense_order.h"
#include "qe/fourier_motzkin.h"
#include "qe/qe.h"
#include "query/lower.h"
#include "query/parser.h"
#include "workloads.h"

namespace perfbench {

using ccdb::ConstraintRelation;
using ccdb::Formula;
using ccdb::PlanNode;
using ccdb::Polynomial;
using ccdb::StatusOr;

ReplayCounts& ReplayCounts::operator+=(const ReplayCounts& o) {
  blocks_cad += o.blocks_cad;
  blocks_fm += o.blocks_fm;
  blocks_dense_order += o.blocks_dense_order;
  cad_cells += o.cad_cells;
  projection_factors += o.projection_factors;
  sign_evals += o.sign_evals;
  roots += o.roots;
  fm_rounds += o.fm_rounds;
  max_intermediate_bits = std::max(max_intermediate_bits, o.max_intermediate_bits);
  failures += o.failures;
  return *this;
}

Replayer::Replayer(const ccdb::ConstraintDatabase* db,
                   const ccdb::Session* session, SpanRecorder* spans)
    : db_(db), session_(session), spans_(spans) {
  qe_ = session_->options().qe;
  qe_.memo = ccdb::PlanToggle::kOff;
  qe_.governor = &unlimited_;
  qe_.profile = nullptr;
}

void Replayer::Note(const ccdb::Status& status) {
  if (!status.ok()) ++counts_.failures;
}

StatusOr<Replayer::Front> Replayer::FrontEnd(
    std::uint64_t op, const std::string& text,
    const std::vector<std::string>& columns) {
  std::shared_ptr<const ccdb::QFormula> parsed;
  {
    ScopedSpan span(spans_, "query.parse", op);
    CCDB_ASSIGN_OR_RETURN(parsed, ccdb::ParseFormula(text));
  }
  Front front;
  Formula lowered = Formula::True();
  {
    ScopedSpan span(spans_, "query.lower", op);
    ccdb::VarEnv env;
    for (const std::string& column :
         columns.empty() ? parsed->FreeVarNames() : columns) {
      env.Intern(column);
    }
    front.arity = env.next_index;
    CCDB_ASSIGN_OR_RETURN(lowered, ccdb::LowerFormula(*parsed, &env));
  }
  std::shared_ptr<const ccdb::Catalog::View> snapshot;
  {
    ScopedSpan span(spans_, "storage.snapshot", op);
    snapshot = db_->catalog().Snapshot();
  }
  {
    ScopedSpan span(spans_, "query.instantiate", op);
    CCDB_ASSIGN_OR_RETURN(
        front.formula,
        lowered.InstantiateRelations([&snapshot](const std::string& name) {
          return snapshot->GetRelation(name);
        }));
  }
  return front;
}

StatusOr<ConstraintRelation> Replayer::Eliminate(std::uint64_t op,
                                                 const Formula& formula,
                                                 int arity) {
  ccdb::QueryPlan plan;
  {
    ScopedSpan span(spans_, "plan.build", op);
    plan = ccdb::PlanQuery(formula, arity, qe_);
  }
  counts_.blocks_cad += plan.dispatch[static_cast<int>(ccdb::Fragment::kPolynomial)];
  counts_.blocks_fm += plan.dispatch[static_cast<int>(ccdb::Fragment::kLinear)];
  counts_.blocks_dense_order +=
      plan.dispatch[static_cast<int>(ccdb::Fragment::kDenseOrder)];
  ccdb::QeStats stats;
  StatusOr<ConstraintRelation> result = ConstraintRelation();
  {
    ScopedSpan span(spans_, "qe.eliminate", op);
    result = ccdb::EliminateQuantifiers(formula, arity, qe_, &stats);
  }
  counts_.fm_rounds += stats.fm_rounds;
  counts_.max_intermediate_bits =
      std::max<std::uint64_t>(counts_.max_intermediate_bits,
                              stats.max_intermediate_bits);
  if (plan.root != nullptr) pending_.push_back(plan.root);
  return result;
}

template <typename Stages>
void Replayer::Replay(std::uint64_t op, Stages stages) {
  {
    ScopedSpan root(spans_, "replay", op);
    stages();
  }
  Decompose(op);
}

void Replayer::Decompose(std::uint64_t op) {
  if (pending_.empty()) return;
  // The per-block decomposition of qe.eliminate runs after the stage
  // replay, under a root of its own, so the layer fold does not count the
  // same work twice.
  ScopedSpan span(spans_, "replay.blocks", op);
  for (const auto& root : pending_) Blocks(op, *root);
  pending_.clear();
}

void Replayer::Blocks(std::uint64_t op, const PlanNode& node) {
  if (node.kind == PlanNode::Kind::kBlock) {
    if (node.fragment == ccdb::Fragment::kPolynomial) {
      CadBlock(op, node);
    } else {
      const bool dense = node.fragment == ccdb::Fragment::kDenseOrder;
      ScopedSpan span(spans_, dense ? "qe.dense_order" : "qe.fm", op);
      std::vector<ccdb::GeneralizedTuple> tuples = node.tuples;
      // vars are outermost first; elimination runs innermost first.
      for (auto v = node.vars.rbegin(); v != node.vars.rend(); ++v) {
        auto next = dense ? ccdb::EliminateExistsDenseOrder(tuples, *v,
                                                            &unlimited_,
                                                            qe_.pool)
                          : ccdb::EliminateExistsLinear(tuples, *v,
                                                        &unlimited_, qe_.pool);
        if (!next.ok()) {
          Note(next.status());
          break;
        }
        tuples = *std::move(next);
      }
    }
  }
  for (const auto& child : node.children) Blocks(op, *child);
}

void Replayer::CadBlock(std::uint64_t op, const PlanNode& node) {
  std::set<Polynomial> distinct;
  int num_vars = 0;
  for (const ccdb::GeneralizedTuple& tuple : node.tuples) {
    for (const ccdb::Atom& atom : tuple.atoms) {
      if (atom.poly.is_constant()) continue;
      distinct.insert(atom.poly);
      num_vars = std::max(num_vars, atom.poly.max_var() + 1);
    }
  }
  for (int v : node.vars) num_vars = std::max(num_vars, v + 1);
  const std::vector<Polynomial> polys(distinct.begin(), distinct.end());
  if (polys.empty()) return;

  StatusOr<ccdb::Cad> cad = ccdb::Status::Internal("not built");
  {
    ScopedSpan span(spans_, "qe.cad.build", op);
    ccdb::CadOptions options;
    options.governor = &unlimited_;
    options.pool = qe_.pool;
    cad = ccdb::Cad::Build(polys, num_vars, options);
  }
  if (!cad.ok()) {
    Note(cad.status());
    return;
  }
  {
    // Cell-truth evaluation: the sign of every block polynomial at every
    // leaf-cell sample.
    ScopedSpan span(spans_, "qe.cad.sign_eval", op);
    cad->ForEachCellAtDimension(num_vars, [&](const ccdb::CadCell& cell) {
      for (const Polynomial& p : polys) {
        (void)cell.sample.SignAt(p);
        ++counts_.sign_evals;
      }
    });
  }
  counts_.cad_cells += cad->CountAllCells();
  for (int level = 0; level < num_vars; ++level) {
    counts_.projection_factors += cad->factors_at_level(level).size();
  }
  {
    // One projection step on the block polynomials: squarefree basis,
    // then pairwise resultants and discriminants in the innermost variable.
    ScopedSpan span(spans_, "poly.projection", op);
    const int var = num_vars - 1;
    auto basis = ccdb::SquarefreeBasis(polys, &unlimited_);
    if (!basis.ok()) {
      Note(basis.status());
    } else {
      std::vector<Polynomial> top;
      for (const Polynomial& p : *basis) {
        if (p.DegreeIn(var) > 0) top.push_back(p);
      }
      for (std::size_t i = 0; i < top.size(); ++i) {
        Note(ccdb::Discriminant(top[i], var, &unlimited_).status());
        for (std::size_t j = i + 1; j < top.size(); ++j) {
          Note(ccdb::Resultant(top[i], top[j], var, &unlimited_).status());
        }
      }
    }
  }
  {
    ScopedSpan span(spans_, "poly.root_isolation", op);
    for (const Polynomial& factor : cad->factors_at_level(0)) {
      auto upoly = ccdb::UPoly::FromPolynomial(factor, 0);
      if (!upoly.ok()) {
        Note(upoly.status());
        continue;
      }
      auto roots = ccdb::IsolateRealRoots(*upoly, &unlimited_);
      if (!roots.ok()) {
        Note(roots.status());
        continue;
      }
      counts_.roots += roots->size();
    }
  }
}

void Replayer::Query(std::uint64_t op, const std::string& text) {
  Replay(op, [&] {
    auto front = FrontEnd(op, text, {});
    if (!front.ok()) return Note(front.status());
    Note(Eliminate(op, front->formula, front->arity).status());
  });
}

void Replayer::Solve(std::uint64_t op, const std::string& text,
                     const ccdb::Rational& epsilon) {
  Replay(op, [&] {
    auto front = FrontEnd(op, text, {});
    if (!front.ok()) return Note(front.status());
    auto relation = Eliminate(op, front->formula, front->arity);
    if (!relation.ok()) return Note(relation.status());
    ScopedSpan span(spans_, "numeric.solve", op);
    Note(ccdb::ApproximateSolutions(*relation, epsilon, &unlimited_).status());
  });
}

void Replayer::Surface(std::uint64_t op, const std::string& text,
                       const std::string& body) {
  Replay(op, [&] {
    {
      ScopedSpan span(spans_, "query.parse", op);
      Note(ccdb::ParseFormula(text).status());
    }
    auto front = FrontEnd(op, body, {"x", "y"});
    if (!front.ok()) return Note(front.status());
    auto relation = Eliminate(op, front->formula, front->arity);
    if (!relation.ok()) return Note(relation.status());
    ScopedSpan span(spans_, "agg.surface", op);
    ccdb::AggregateModules modules(session_->options().tolerance, &unlimited_);
    Note(modules.Surface(*relation).status());
  });
}

void Replayer::FpQuery(std::uint64_t op, const std::string& text,
                       std::uint32_t k) {
  ScopedSpan root(spans_, "replay", op);
  auto front = FrontEnd(op, text, {});
  if (!front.ok()) return Note(front.status());
  // EliminateQuantifiersFp takes no QeOptions: its QE runs under the
  // process-wide memo switch, which the replay turns off for the call (the
  // benchmark refuses CCDB_* overrides, so on is the value to restore).
  ScopedSpan span(spans_, "fp.query", op);
  ccdb::SetMemoCachesEnabled(false);
  Note(ccdb::EliminateQuantifiersFp(front->formula, front->arity,
                                    ccdb::FpContext{k})
           .status());
  ccdb::SetMemoCachesEnabled(true);
}

void Replayer::Write(std::uint64_t op, const std::string& definition) {
  ScopedSpan root(spans_, "replay", op);
  ScopedSpan span(spans_, "query.parse", op);
  Note(ccdb::ParseRelationDef(definition).status());
}

void Replayer::RuleBody(std::uint64_t op, const std::string& edge,
                        const ConstraintRelation& reach) {
  Replay(op, [&] {
    const Formula body = Formula::Exists(
        2, Formula::And(Formula::Relation(ReachOf(edge), {0, 2}),
                        Formula::Relation(edge, {2, 1})));
    std::shared_ptr<const ccdb::Catalog::View> snapshot;
    {
      ScopedSpan span(spans_, "storage.snapshot", op);
      snapshot = db_->catalog().Snapshot();
    }
    StatusOr<Formula> instantiated = Formula::True();
    {
      ScopedSpan span(spans_, "query.instantiate", op);
      instantiated = body.InstantiateRelations(
          [&](const std::string& name) -> StatusOr<ConstraintRelation> {
            if (name == ReachOf(edge)) return reach;
            return snapshot->GetRelation(name);
          });
    }
    if (!instantiated.ok()) return Note(instantiated.status());
    Note(Eliminate(op, *instantiated, 2).status());
  });
}

}  // namespace perfbench
