#include "qe/qe.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/memo.h"
#include "base/metrics.h"
#include "base/profile.h"
#include "base/trace.h"
#include "plan/fragment.h"
#include "plan/planner.h"
#include "qe/cad.h"
#include "qe/fourier_motzkin.h"
#include "qe/qe_cache.h"

namespace ccdb {

namespace {

Formula TuplesToFormula(const std::vector<GeneralizedTuple>& tuples) {
  std::vector<Formula> disjuncts;
  for (const GeneralizedTuple& tuple : tuples) {
    std::vector<Formula> conjuncts;
    for (const Atom& atom : tuple.atoms) {
      conjuncts.push_back(Formula::MakeAtom(atom));
    }
    disjuncts.push_back(Formula::And(conjuncts));
  }
  return Formula::Or(disjuncts);
}

std::vector<GeneralizedTuple> NegateTuples(
    const std::vector<GeneralizedTuple>& tuples) {
  return ToDnf(Formula::Not(TuplesToFormula(tuples)));
}

std::uint64_t MaxBits(const std::vector<GeneralizedTuple>& tuples) {
  std::uint64_t bits = 0;
  for (const GeneralizedTuple& tuple : tuples) {
    for (const Atom& atom : tuple.atoms) {
      bits = std::max(bits, atom.poly.MaxCoefficientBitLength());
    }
  }
  return bits;
}

std::vector<Polynomial> CollectDistinctPolys(
    const std::vector<GeneralizedTuple>& tuples) {
  std::vector<Polynomial> polys;
  for (const GeneralizedTuple& tuple : tuples) {
    for (const Atom& atom : tuple.atoms) {
      bool seen = false;
      for (const Polynomial& p : polys) {
        if (p == atom.poly) {
          seen = true;
          break;
        }
      }
      if (!seen) polys.push_back(atom.poly);
    }
  }
  return polys;
}

// Truth of a DNF matrix given precomputed polynomial signs.
bool MatrixTruth(const std::vector<GeneralizedTuple>& tuples,
                 const std::vector<Polynomial>& polys,
                 const std::vector<int>& signs) {
  auto sign_of = [&](const Polynomial& p) {
    for (std::size_t i = 0; i < polys.size(); ++i) {
      if (polys[i] == p) return signs[i];
    }
    CCDB_CHECK_MSG(false, "polynomial missing from sign table");
    return 0;
  };
  for (const GeneralizedTuple& tuple : tuples) {
    bool all = true;
    for (const Atom& atom : tuple.atoms) {
      if (!SignSatisfies(sign_of(atom.poly), atom.op)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return tuples.empty() ? false : false;
}

RelOp OpForSign(int sign) {
  if (sign < 0) return RelOp::kLt;
  if (sign > 0) return RelOp::kGt;
  return RelOp::kEq;
}

std::int64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Folds a run's QeStats into a ProfileNode's counter list, skipping names
// the producer already attached (monolithic sub-nodes carry their own) and
// zero values.
void AddQeCounters(ProfileNode* node, const QeStats& s) {
  auto add = [node](const char* name, std::uint64_t v) {
    if (v == 0) return;
    for (const auto& [key, unused] : node->counters) {
      if (key == name) return;
    }
    node->AddCounter(name, v);
  };
  add("cad_cells", s.cad_cells);
  add("projection_factors", s.projection_factors);
  add("fm_rounds", s.fm_rounds);
  add("max_bits", s.max_intermediate_bits);
  add("qe_cache_hits", s.cache_hits);
}

}  // namespace

// Virtual substitution for defining equations: when the innermost
// quantifier is "exists v" and EVERY tuple either does not mention v or
// contains an equation p = 0 that is linear in v with a nonzero CONSTANT
// coefficient, v can be eliminated by exact substitution v := g(rest) —
// no CAD needed. This is what makes queries produced by the CALC_F
// function-approximation rewriting (t = h(x) conjuncts) cheap. Declared in
// qe.h so the planner's per-block executor peels with the identical
// rewrite.
bool TrySubstituteInnermostExists(std::vector<GeneralizedTuple>* tuples,
                                  int var) {
  std::vector<GeneralizedTuple> rewritten;
  for (const GeneralizedTuple& tuple : *tuples) {
    int eq_index = -1;
    Polynomial solved;
    for (std::size_t i = 0; i < tuple.atoms.size(); ++i) {
      const Atom& atom = tuple.atoms[i];
      if (atom.op != RelOp::kEq || atom.poly.DegreeIn(var) != 1) continue;
      auto coeffs = atom.poly.CoefficientsIn(var);
      if (!coeffs[1].is_constant()) continue;
      solved = coeffs[0].Scale(-coeffs[1].constant_value().Inverse());
      eq_index = static_cast<int>(i);
      break;
    }
    if (eq_index < 0) {
      bool mentions = false;
      for (const Atom& atom : tuple.atoms) {
        if (atom.poly.Mentions(var)) {
          mentions = true;
          break;
        }
      }
      if (mentions) return false;  // cannot handle this tuple
      rewritten.push_back(tuple);
      continue;
    }
    GeneralizedTuple substituted;
    for (std::size_t i = 0; i < tuple.atoms.size(); ++i) {
      if (static_cast<int>(i) == eq_index) continue;
      const Atom& atom = tuple.atoms[i];
      substituted.atoms.emplace_back(atom.poly.SubstitutePoly(var, solved),
                                     atom.op);
    }
    if (substituted.SimplifyConstants()) {
      rewritten.push_back(std::move(substituted));
    }
  }
  *tuples = std::move(rewritten);
  return true;
}

namespace {

struct CadEvalResult {
  // Sign vectors (over the free-space factor set) of true / false
  // free-space cells.
  std::vector<std::vector<int>> true_vectors;
  std::vector<std::vector<int>> false_vectors;
  bool sentence_truth = false;  // when num_free_vars == 0
};

// For each polynomial, its index among `factors` (the factors of one CAD
// level), or -1 when it is none of them.
std::vector<int> FactorIndices(const std::vector<Polynomial>& polys,
                               const std::vector<Polynomial>& factors) {
  std::vector<int> indices(polys.size(), -1);
  for (std::size_t i = 0; i < polys.size(); ++i) {
    for (std::size_t j = 0; j < factors.size(); ++j) {
      if (polys[i] == factors[j]) {
        indices[i] = static_cast<int>(j);
        break;
      }
    }
  }
  return indices;
}

// How the sign queries of one free-space cell's subtree were decided:
// `filtered` by an interval enclosure or the lifting record, `exact` by
// an exact zero test. Folded into the metrics registry once per cell.
struct SignTally {
  std::uint64_t filtered = 0;
  std::uint64_t exact = 0;

  ~SignTally() {
    CCDB_METRIC_COUNT("cad.sign.filtered", filtered);
    CCDB_METRIC_COUNT("cad.sign.exact", exact);
  }
};

// Sign of `p` at `cell`'s sample. `factor` is p's index among the factors
// of the cell's own level, or -1. For such a factor the lifting already
// decided whether it vanishes (CadCell::vanishing), so only the sign of a
// known nonzero value is left to refine.
int CellSign(const CadCell& cell, const Polynomial& p, int factor,
             SignTally* tally) {
  if (factor >= 0) {
    ++tally->filtered;
    if (std::binary_search(cell.vanishing.begin(), cell.vanishing.end(),
                           factor)) {
      return 0;
    }
    return cell.sample.NonzeroSignAt(p);
  }
  bool exact = false;
  int sign = cell.sample.SignAt(p, &exact);
  ++(exact ? tally->exact : tally->filtered);
  return sign;
}

// Evaluates the quantifier prefix over a built CAD. prefix[i] quantifies
// variable num_free + i. Free-space cells are evaluated across `pool`:
// each cell's subtree is disjoint (sample coordinates are owned per cell,
// so lazy interval refinement never crosses threads) and the verdicts are
// merged in stack order, keeping the result thread-count independent.
StatusOr<CadEvalResult> EvaluateCad(const Cad& cad,
                                    const std::vector<PrenexBlock>& prefix,
                                    int num_free,
                                    const std::vector<GeneralizedTuple>& matrix,
                                    const std::vector<Polynomial>& matrix_polys,
                                    ThreadPool* pool) {
  CCDB_TRACE_SPAN("cad.eval");
  int n = cad.num_vars();
  const std::vector<int> matrix_factor =
      FactorIndices(matrix_polys, cad.factors_at_level(n - 1));
  // Recursive truth of a cell.
  std::function<bool(const CadCell&, SignTally*)> truth =
      [&](const CadCell& cell, SignTally* tally) -> bool {
    int dim = cell.dimension();
    if (dim == n) {
      std::vector<int> signs;
      signs.reserve(matrix_polys.size());
      for (std::size_t i = 0; i < matrix_polys.size(); ++i) {
        signs.push_back(
            CellSign(cell, matrix_polys[i], matrix_factor[i], tally));
      }
      return MatrixTruth(matrix, matrix_polys, signs);
    }
    // Children live at variable index `dim`; its quantifier:
    CCDB_CHECK(dim >= num_free);
    const PrenexBlock& block = prefix[dim - num_free];
    if (block.is_exists) {
      for (const CadCell& child : cell.children) {
        if (truth(child, tally)) return true;
      }
      return false;
    }
    for (const CadCell& child : cell.children) {
      if (!truth(child, tally)) return false;
    }
    return true;
  };

  CadEvalResult result;
  if (num_free == 0) {
    // Sentence: combine the base stack with the first quantifier.
    CCDB_CHECK(!prefix.empty());
    SignTally tally;
    if (prefix[0].is_exists) {
      result.sentence_truth = false;
      for (const CadCell& cell : cad.roots()) {
        if (truth(cell, &tally)) {
          result.sentence_truth = true;
          break;
        }
      }
    } else {
      result.sentence_truth = true;
      for (const CadCell& cell : cad.roots()) {
        if (!truth(cell, &tally)) {
          result.sentence_truth = false;
          break;
        }
      }
    }
    return result;
  }

  std::vector<Polynomial> free_factors = cad.FactorsBelow(num_free);
  const std::vector<int> free_factor =
      FactorIndices(free_factors, cad.factors_at_level(num_free - 1));
  std::vector<const CadCell*> free_cells;
  cad.ForEachCellAtDimension(
      num_free, [&free_cells](const CadCell& cell) { free_cells.push_back(&cell); });
  struct CellVerdict {
    std::vector<int> vector;
    bool truth = false;
  };
  CCDB_ASSIGN_OR_RETURN(
      std::vector<CellVerdict> verdicts,
      ThreadPool::Resolve(pool)->ParallelMap<CellVerdict>(
          free_cells.size(), [&](std::size_t i) -> StatusOr<CellVerdict> {
            const CadCell& cell = *free_cells[i];
            SignTally tally;
            CellVerdict verdict;
            verdict.vector.reserve(free_factors.size());
            for (std::size_t k = 0; k < free_factors.size(); ++k) {
              verdict.vector.push_back(
                  CellSign(cell, free_factors[k], free_factor[k], &tally));
            }
            verdict.truth = truth(cell, &tally);
            return verdict;
          }));
  for (CellVerdict& verdict : verdicts) {
    if (verdict.truth) {
      result.true_vectors.push_back(std::move(verdict.vector));
    } else {
      result.false_vectors.push_back(std::move(verdict.vector));
    }
  }
  return result;
}

// Folds a finished run's QeStats into the global metrics registry on every
// exit path (including errors).
struct QeMetricsFolder {
  const QeStats* s;
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  ~QeMetricsFolder() {
    CCDB_METRIC_COUNT("qe.calls", 1);
    if (s->used_linear_path) CCDB_METRIC_COUNT("qe.linear_path", 1);
    if (s->used_dense_order_path) CCDB_METRIC_COUNT("qe.dense_order_path", 1);
    if (s->used_thom_augmentation) CCDB_METRIC_COUNT("qe.thom_augmentations", 1);
    CCDB_METRIC_COUNT("qe.cad.cells", s->cad_cells);
    CCDB_METRIC_COUNT("qe.cad.projection_factors", s->projection_factors);
    CCDB_METRIC_MAX("qe.max_intermediate_bits", s->max_intermediate_bits);
    auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    CCDB_METRIC_HISTOGRAM("qe.eliminate.us",
                          static_cast<std::uint64_t>(micros));
  }
};

}  // namespace

std::string QeStats::ToString() const {
  std::ostringstream out;
  out << "cad_cells=" << cad_cells
      << " projection_factors=" << projection_factors
      << " fm_rounds=" << fm_rounds
      << " max_intermediate_bits=" << max_intermediate_bits
      << " linear_path=" << (used_linear_path ? "yes" : "no")
      << " dense_order_path=" << (used_dense_order_path ? "yes" : "no")
      << " thom_augmentation=" << (used_thom_augmentation ? "yes" : "no");
  if (!plan.empty()) out << " plan={" << plan << "}";
  return out.str();
}

std::string QeStats::ToJson() const {
  return JsonObjectBuilder()
      .Add("cad_cells", static_cast<std::uint64_t>(cad_cells))
      .Add("projection_factors", static_cast<std::uint64_t>(projection_factors))
      .Add("fm_rounds", fm_rounds)
      .Add("max_intermediate_bits", max_intermediate_bits)
      .Add("used_linear_path", used_linear_path)
      .Add("used_dense_order_path", used_dense_order_path)
      .Add("used_thom_augmentation", used_thom_augmentation)
      .Add("plan", plan)
      .Build();
}

// The elimination algorithm proper. The public EliminateQuantifiers wraps
// this with the failpoint/budget prologue, the QE result cache, and the
// profile-root bookkeeping. `prof` (nullable) receives this run's
// attribution subtree; options.profile is already cleared by the wrapper,
// so recursive EliminateQuantifiers calls below never double-append roots
// to the sink.
static StatusOr<ConstraintRelation> EliminateQuantifiersUncached(
    const Formula& formula, int num_free_vars, const QeOptions& options,
    QeStats* s, ProfileNode* prof) {
  const ResourceGovernor* gov = options.governor;

  // Structure-aware planning (plan/planner.h): classify, miniscope, split
  // into independent blocks, dispatch each block to its cheapest engine.
  // The plan executor forces kOff on its sub-eliminations, so this branch
  // is taken exactly once per top-level run.
  if (PlannerResolved(options)) {
    QueryPlan plan = GetOrBuildPlan(formula, num_free_vars, options);
    s->plan = plan.Summary();
    return ExecutePlan(plan, options, s, prof);
  }

  std::set<int> all_vars = formula.AllVars();
  int next_fresh = num_free_vars;
  if (!all_vars.empty()) {
    next_fresh = std::max(next_fresh, *all_vars.rbegin() + 1);
  }
  PrenexForm prenex = ToPrenex(formula, &next_fresh);

  // Compact the quantified variables to num_free_vars, num_free_vars+1, ...
  // in prefix order (outermost first). ToPrenex hands out strictly
  // increasing fresh indices in prefix order, so renaming in order is safe.
  Formula matrix_formula = prenex.matrix;
  for (std::size_t i = 0; i < prenex.prefix.size(); ++i) {
    int target = num_free_vars + static_cast<int>(i);
    if (prenex.prefix[i].var != target) {
      matrix_formula =
          matrix_formula.RenameFreeVar(prenex.prefix[i].var, target);
      prenex.prefix[i].var = target;
    }
  }
  int q = static_cast<int>(prenex.prefix.size());
  int n = num_free_vars + q;

  std::vector<GeneralizedTuple> tuples = ToDnf(matrix_formula);
  s->max_intermediate_bits = MaxBits(tuples);

  if (q == 0) {
    if (prof != nullptr) prof->label = "qe.quantifier_free";
    return ConstraintRelation(num_free_vars, SimplifyTuples(std::move(tuples)));
  }

  if (n == 0) {
    // Sentence with no variables at all.
    if (prof != nullptr) prof->label = "qe.sentence";
    bool truth = matrix_formula.EvaluateAt({});
    ConstraintRelation rel(0);
    if (truth) rel.AddTuple(GeneralizedTuple());
    return rel;
  }

  // Peel innermost existential quantifiers that have defining equations.
  std::uint64_t peeled = 0;
  while (options.allow_equation_substitution && q > 0 &&
         prenex.prefix.back().is_exists &&
         TrySubstituteInnermostExists(&tuples, num_free_vars + q - 1)) {
    CCDB_CHECK_BUDGET(gov, "qe.drive");
    CCDB_METRIC_COUNT("qe.equation_substitutions", 1);
    ++peeled;
    prenex.prefix.pop_back();
    --q;
    n = num_free_vars + q;
    tuples = SimplifyTuples(std::move(tuples));
    s->max_intermediate_bits =
        std::max(s->max_intermediate_bits, MaxBits(tuples));
  }
  if (prof != nullptr && peeled > 0) prof->AddCounter("substitutions", peeled);
  if (q == 0) {
    if (prof != nullptr) prof->label = "qe.substituted";
    return ConstraintRelation(num_free_vars, SimplifyTuples(std::move(tuples)));
  }

  // Linear fast path: Fourier-Motzkin, innermost quantifier first. The
  // shared fragment classifier (plan/fragment.h) replaces the previous
  // per-engine IsLinearSystem/IsDenseOrderSystem probes.
  const Fragment matrix_fragment = options.allow_linear_fast_path
                                       ? ClassifyTuples(tuples)
                                       : Fragment::kPolynomial;
  if (matrix_fragment != Fragment::kPolynomial) {
    CCDB_TRACE_SPAN("qe.fourier_motzkin");
    if (prof != nullptr) prof->label = "qe.fourier_motzkin";
    s->used_linear_path = true;
    s->used_dense_order_path = matrix_fragment == Fragment::kDenseOrder;
    for (int i = q - 1; i >= 0; --i) {
      CCDB_CHECK_BUDGET(gov, "qe.fm");
      ++s->fm_rounds;
      int var = num_free_vars + i;
      if (prenex.prefix[i].is_exists) {
        CCDB_ASSIGN_OR_RETURN(
            tuples, EliminateExistsLinear(tuples, var, gov, options.pool));
      } else {
        std::vector<GeneralizedTuple> negated = NegateTuples(tuples);
        CCDB_ASSIGN_OR_RETURN(
            negated, EliminateExistsLinear(negated, var, gov, options.pool));
        tuples = NegateTuples(negated);
      }
      s->max_intermediate_bits =
          std::max(s->max_intermediate_bits, MaxBits(tuples));
    }
    return ConstraintRelation(num_free_vars, SimplifyTuples(std::move(tuples)));
  }

  // CAD path.
  if (options.linear_only) {
    // Degradation rung: the caller asked for the linear fragment only.
    // Refusing CAD with kResourceExhausted lets policy ladders treat "this
    // rung cannot answer" uniformly with budget trips.
    return Status::ResourceExhausted(
        "stage=qe.drive reason=linear_only: query needs CAD but the policy "
        "restricts this attempt to the linear fragment");
  }
  // Disjunct-wise elimination (the driver's parallel fan-out point): an
  // all-existential prefix distributes over the top-level union, so
  // exists ȳ (D1 ∨ ... ∨ Dm) is answered by m independent eliminations,
  // each building a CAD over only its own polynomials. Slots are merged
  // in disjunct order — the split and the merge order are algorithm
  // decisions, not scheduling artifacts, so the answer is identical at
  // every thread count (and with the split disabled, semantically so).
  bool all_exists = true;
  for (const PrenexBlock& block : prenex.prefix) {
    if (!block.is_exists) all_exists = false;
  }
  if (options.allow_disjunct_split && all_exists && tuples.size() > 1) {
    CCDB_TRACE_SPAN("qe.disjunct_split");
    CCDB_METRIC_COUNT("qe.disjunct_splits", 1);
    const bool profiling = prof != nullptr;
    struct DisjunctSlot {
      ConstraintRelation rel;
      QeStats stats;
      std::int64_t us = 0;
    };
    CCDB_ASSIGN_OR_RETURN(
        std::vector<DisjunctSlot> slots,
        ThreadPool::Resolve(options.pool)->ParallelMap<DisjunctSlot>(
            tuples.size(), [&](std::size_t i) -> StatusOr<DisjunctSlot> {
              CCDB_CHECK_BUDGET(gov, "qe.drive");
              auto slot_start = std::chrono::steady_clock::now();
              std::vector<Formula> atoms;
              atoms.reserve(tuples[i].atoms.size());
              for (const Atom& atom : tuples[i].atoms) {
                atoms.push_back(Formula::MakeAtom(atom));
              }
              Formula disjunct = Formula::And(atoms);
              for (int v = n - 1; v >= num_free_vars; --v) {
                disjunct = Formula::Exists(v, std::move(disjunct));
              }
              DisjunctSlot slot;
              CCDB_ASSIGN_OR_RETURN(
                  slot.rel, EliminateQuantifiers(disjunct, num_free_vars,
                                                 options, &slot.stats));
              if (profiling) slot.us = ElapsedUs(slot_start);
              return slot;
            }));
    ConstraintRelation rel(num_free_vars);
    if (profiling) prof->label = "qe.disjunct_split";
    for (std::size_t i = 0; i < slots.size(); ++i) {
      DisjunctSlot& slot = slots[i];
      s->cad_cells += slot.stats.cad_cells;
      s->projection_factors += slot.stats.projection_factors;
      s->fm_rounds += slot.stats.fm_rounds;
      s->cache_hits += slot.stats.cache_hits;
      s->max_intermediate_bits =
          std::max(s->max_intermediate_bits, slot.stats.max_intermediate_bits);
      s->used_linear_path |= slot.stats.used_linear_path;
      s->used_dense_order_path |= slot.stats.used_dense_order_path;
      s->used_thom_augmentation |= slot.stats.used_thom_augmentation;
      if (profiling) {
        // Children in disjunct order — the tree shape is a plan decision,
        // not a scheduling artifact.
        ProfileNode child;
        child.label = "disjunct[" + std::to_string(i) + "]";
        child.inclusive_us = slot.us;
        AddQeCounters(&child, slot.stats);
        child.AddCounter("tuples_out", slot.rel.tuples().size());
        prof->children.push_back(std::move(child));
      }
      for (GeneralizedTuple& tuple : *slot.rel.mutable_tuples()) {
        rel.AddTuple(std::move(tuple));
      }
    }
    *rel.mutable_tuples() = SimplifyTuples(std::move(*rel.mutable_tuples()));
    return rel;
  }

  CCDB_TRACE_SPAN("qe.cad_path");
  if (prof != nullptr) prof->label = "qe.cad";
  std::vector<Polynomial> matrix_polys = CollectDistinctPolys(tuples);
  for (int attempt = 0; attempt < 2; ++attempt) {
    CCDB_CHECK_BUDGET(gov, "qe.drive");
    CadOptions cad_options;
    cad_options.derivative_closure_below = attempt == 0 ? 0 : num_free_vars;
    cad_options.governor = gov;
    cad_options.pool = options.pool;
    if (attempt == 1) {
      s->used_thom_augmentation = true;
      CCDB_LOG(INFO) << "QE: retrying CAD with Thom-derivative augmentation "
                        "(plain sign vectors could not separate cells)";
    }
    CCDB_ASSIGN_OR_RETURN(Cad cad,
                          Cad::Build(matrix_polys, n, cad_options));
    s->cad_cells = cad.CountAllCells();
    s->projection_factors = 0;
    for (int level = 0; level < n; ++level) {
      for (const Polynomial& p : cad.factors_at_level(level)) {
        s->projection_factors++;
        s->max_intermediate_bits =
            std::max(s->max_intermediate_bits, p.MaxCoefficientBitLength());
      }
    }

    CCDB_ASSIGN_OR_RETURN(
        CadEvalResult eval,
        EvaluateCad(cad, prenex.prefix, num_free_vars, tuples, matrix_polys,
                    options.pool));

    if (num_free_vars == 0) {
      ConstraintRelation rel(0);
      if (eval.sentence_truth) rel.AddTuple(GeneralizedTuple());
      return rel;
    }

    // Solution formula construction: distinct sign vectors of true cells,
    // valid when no false cell shares a vector with a true cell.
    bool collision = false;
    for (const auto& tv : eval.true_vectors) {
      for (const auto& fv : eval.false_vectors) {
        if (tv == fv) {
          collision = true;
          break;
        }
      }
      if (collision) break;
    }
    if (collision) {
      if (attempt == 0 && options.allow_thom_augmentation) continue;
      return Status::Internal(
          "solution formula construction failed: a true and a false cell "
          "share a sign vector even after Thom augmentation");
    }

    std::vector<Polynomial> free_factors = cad.FactorsBelow(num_free_vars);
    std::vector<std::vector<int>> distinct_vectors;
    for (const auto& tv : eval.true_vectors) {
      bool seen = false;
      for (const auto& existing : distinct_vectors) {
        if (existing == tv) {
          seen = true;
          break;
        }
      }
      if (!seen) distinct_vectors.push_back(tv);
    }
    ConstraintRelation rel(num_free_vars);
    for (const auto& vec : distinct_vectors) {
      GeneralizedTuple tuple;
      for (std::size_t i = 0; i < free_factors.size(); ++i) {
        tuple.atoms.emplace_back(free_factors[i], OpForSign(vec[i]));
      }
      if (tuple.atoms.empty()) {
        // No factors below the free space: the whole free space is true.
        rel.AddTuple(GeneralizedTuple());
        continue;
      }
      rel.AddTuple(std::move(tuple));
    }
    for (const GeneralizedTuple& tuple : rel.tuples()) {
      for (const Atom& atom : tuple.atoms) {
        s->max_intermediate_bits = std::max(
            s->max_intermediate_bits, atom.poly.MaxCoefficientBitLength());
      }
    }
    return rel;
  }
  return Status::Internal("unreachable: CAD attempts exhausted");
}

StatusOr<ConstraintRelation> EliminateQuantifiers(const Formula& formula,
                                                  int num_free_vars,
                                                  const QeOptions& options,
                                                  QeStats* stats) {
  CCDB_TRACE_SPAN("qe.eliminate");
  QeStats local_stats;
  QeStats* s = stats != nullptr ? stats : &local_stats;
  *s = QeStats();
  QeMetricsFolder folder{s};
  const ResourceGovernor* gov = options.governor;
  CCDB_FAILPOINT("qe.drive");
  CCDB_CHECK_BUDGET(gov, "qe.drive");

  CCDB_CHECK_MSG(!formula.has_relation_symbols(),
                 "instantiate relations before quantifier elimination");
  for (int v : formula.FreeVars()) {
    CCDB_CHECK_MSG(v < num_free_vars,
                   "free variable " << v << " beyond arity " << num_free_vars);
  }

  // Profile bookkeeping (observation only — arming a sink never changes
  // the answer, and the sink pointer is excluded from every cache key).
  // The sink is cleared from the options passed down so recursive calls
  // report through this run's tree instead of appending their own roots.
  ProfileSink* sink = options.profile;
  const auto prof_start = std::chrono::steady_clock::now();
  QeOptions inner = options;
  inner.profile = nullptr;

  // Memoized path: only ungoverned runs may SKIP work via the cache, so
  // governed budget charging and degradation behaviour never depend on
  // cache temperature. (The failpoint above fires either way.) The cache
  // is a pure memo over the interned formula id — a hit is byte-identical
  // to recomputation.
  const bool use_cache = gov == nullptr && MemoCachesEnabledFor(options.memo);
  QeCacheKey key;
  if (use_cache) {
    key = MakeQeCacheKey(formula, num_free_vars, options);
    QeCacheValue cached;
    if (QeResultCache().Lookup(key, &cached)) {
      *s = cached.stats;
      s->cache_hits += 1;
      if (sink != nullptr) {
        ProfileNode node;
        node.label = "qe[cached]";
        node.inclusive_us = ElapsedUs(prof_start);
        AddQeCounters(&node, *s);
        node.AddCounter("tuples_out", cached.relation.tuples().size());
        sink->Add(std::move(node));
      }
      return cached.relation;
    }
  }
  ProfileNode prof_root;
  CCDB_ASSIGN_OR_RETURN(
      ConstraintRelation result,
      EliminateQuantifiersUncached(formula, num_free_vars, inner, s,
                                   sink != nullptr ? &prof_root : nullptr));
  // Canonical presentation: sorting the union of canonicalized disjuncts
  // makes the answer independent of derivation order — the anchor of the
  // planner-on/planner-off byte-identity contract (and a no-op for
  // semantics, since a union is order-insensitive).
  std::sort(result.mutable_tuples()->begin(), result.mutable_tuples()->end());
  if (use_cache) {
    // The stored stats describe the computation itself; the hit count is
    // zeroed so a replay reports exactly the hits it newly incurs.
    QeStats stored = *s;
    stored.cache_hits = 0;
    QeResultCache().Insert(key, QeCacheValue{formula, result, stored});
  }
  if (sink != nullptr) {
    if (prof_root.label.empty()) prof_root.label = "qe";
    prof_root.inclusive_us = ElapsedUs(prof_start);
    AddQeCounters(&prof_root, *s);
    if (!prof_root.HasCounter("tuples_out")) {
      prof_root.AddCounter("tuples_out", result.tuples().size());
    }
    sink->Add(std::move(prof_root));
  }
  return result;
}

StatusOr<bool> DecideSentence(const Formula& sentence, const QeOptions& options,
                              QeStats* stats) {
  CCDB_ASSIGN_OR_RETURN(ConstraintRelation rel,
                        EliminateQuantifiers(sentence, 0, options, stats));
  return !rel.is_empty_syntactically();
}

}  // namespace ccdb
