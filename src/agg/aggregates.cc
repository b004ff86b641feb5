#include "agg/aggregates.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "arith/floatk.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "numeric/numerical_eval.h"
#include "numeric/quadrature.h"
#include "qe/cad.h"

namespace ccdb {

StatusOr<AggregateKind> AggregateKindFromName(const std::string& name) {
  if (name == "MIN") return AggregateKind::kMin;
  if (name == "MAX") return AggregateKind::kMax;
  if (name == "AVG") return AggregateKind::kAvg;
  if (name == "LENGTH") return AggregateKind::kLength;
  if (name == "SURFACE") return AggregateKind::kSurface;
  if (name == "VOLUME") return AggregateKind::kVolume;
  if (name == "EVAL") return AggregateKind::kEval;
  return Status::NotFound("unknown aggregate: " + name);
}

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kLength:
      return "LENGTH";
    case AggregateKind::kSurface:
      return "SURFACE";
    case AggregateKind::kVolume:
      return "VOLUME";
    case AggregateKind::kEval:
      return "EVAL";
  }
  return "?";
}

int AggregateInputArity(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kMin:
    case AggregateKind::kMax:
    case AggregateKind::kAvg:
    case AggregateKind::kLength:
      return 1;
    case AggregateKind::kSurface:
      return 2;
    case AggregateKind::kVolume:
      return 3;
    case AggregateKind::kEval:
      return -1;
  }
  return -1;
}

namespace {

AggregateValue ExactValue(Rational value) {
  AggregateValue out;
  out.exact = true;
  out.exact_value = std::move(value);
  out.approx_value = out.exact_value.ToDouble();
  return out;
}

AggregateValue ApproxValue(double value, double error) {
  AggregateValue out;
  out.exact = false;
  out.approx_value = value;
  out.error_estimate = error;
  return out;
}

// Endpoint of a decomposition piece as an aggregate value.
AggregateValue EndpointValue(const AlgebraicNumber& endpoint,
                             double tolerance) {
  if (endpoint.is_rational()) return ExactValue(endpoint.rational_value());
  Rational eps = FloatK::FromDouble(tolerance).ToRational();
  if (eps.sign() <= 0) eps = Rational(BigInt(1), BigInt::Pow2(40));
  return ApproxValue(endpoint.Approximate(eps).ToDouble(), tolerance);
}

bool CellSatisfies(const CadCell& cell, const ConstraintRelation& relation) {
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    bool all = true;
    for (const Atom& atom : tuple.atoms) {
      if (!SignSatisfies(cell.sample.SignAt(atom.poly), atom.op)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

// Substitutes variable 0 := x0 in a binary relation, producing a unary
// relation over the remaining variable (renamed to 0).
ConstraintRelation SubstituteFirstVar(const ConstraintRelation& relation,
                                      const Rational& x0) {
  ConstraintRelation out(relation.arity() - 1);
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    GeneralizedTuple mapped;
    for (const Atom& atom : tuple.atoms) {
      Polynomial p = atom.poly.Substitute(0, x0);
      // Shift remaining variables down by one.
      int max_var = p.max_var();
      if (max_var >= 1) {
        std::vector<int> mapping(max_var + 1);
        for (int v = 0; v <= max_var; ++v) mapping[v] = v == 0 ? 0 : v - 1;
        p = p.RenameVars(mapping);
      }
      mapped.atoms.emplace_back(std::move(p), atom.op);
    }
    if (mapped.SimplifyConstants()) out.AddTuple(std::move(mapped));
  }
  return out;
}

// 1-D measure of a unary relation: {exact?, rational, double}. Undefined
// when some satisfied sector is unbounded.
struct Measure1D {
  bool exact = true;
  Rational exact_total;
  double approx_total = 0.0;
};

StatusOr<Measure1D> MeasureUnary(const ConstraintRelation& relation,
                                 double tolerance,
                                 const ResourceGovernor* gov) {
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, gov));
  Measure1D out;
  for (const auto& piece : decomposition.pieces) {
    if (piece.is_point) continue;
    if (!piece.has_lower || !piece.has_upper) {
      return Status::Undefined("unbounded set has infinite measure");
    }
    AggregateValue lo = EndpointValue(piece.lower, tolerance);
    AggregateValue hi = EndpointValue(piece.upper, tolerance);
    if (lo.exact && hi.exact && out.exact) {
      out.exact_total += hi.exact_value - lo.exact_value;
    } else {
      out.exact = false;
    }
    out.approx_total += hi.Value() - lo.Value();
  }
  if (out.exact) out.approx_total = out.exact_total.ToDouble();
  return out;
}

}  // namespace

StatusOr<AggregateValue> AggregateModules::Min(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "MIN requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, governor_));
  if (decomposition.pieces.empty()) {
    return Status::Undefined("MIN of an empty set");
  }
  const auto& first = decomposition.pieces.front();
  if (first.is_point) return EndpointValue(first.lower, tolerance_);
  if (!first.has_lower) {
    return Status::Undefined("MIN of a set unbounded below");
  }
  // Open sector at the bottom: the infimum is not attained.
  return Status::Undefined("MIN does not exist (infimum not attained)");
}

StatusOr<AggregateValue> AggregateModules::Max(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "MAX requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, governor_));
  if (decomposition.pieces.empty()) {
    return Status::Undefined("MAX of an empty set");
  }
  const auto& last = decomposition.pieces.back();
  if (last.is_point) return EndpointValue(last.upper, tolerance_);
  if (!last.has_upper) {
    return Status::Undefined("MAX of a set unbounded above");
  }
  return Status::Undefined("MAX does not exist (supremum not attained)");
}

StatusOr<AggregateValue> AggregateModules::Avg(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "AVG requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, governor_));
  if (decomposition.pieces.empty()) {
    return Status::Undefined("AVG of an empty set");
  }
  bool all_points = true;
  for (const auto& piece : decomposition.pieces) {
    if (!piece.is_point) all_points = false;
    if (!piece.has_lower || !piece.has_upper) {
      return Status::Undefined("AVG of an unbounded set");
    }
  }
  if (all_points) {
    // Arithmetic mean of the finite set.
    bool exact = true;
    Rational exact_sum(0);
    double approx_sum = 0.0;
    for (const auto& piece : decomposition.pieces) {
      AggregateValue v = EndpointValue(piece.lower, tolerance_);
      if (v.exact && exact) {
        exact_sum += v.exact_value;
      } else {
        exact = false;
      }
      approx_sum += v.Value();
    }
    Rational count(static_cast<std::int64_t>(decomposition.pieces.size()));
    if (exact) return ExactValue(exact_sum / count);
    return ApproxValue(approx_sum / count.ToDouble(), tolerance_);
  }
  // Mean with respect to the 1-D uniform measure: (∫ x dx) / measure.
  bool exact = true;
  Rational exact_moment(0), exact_measure(0);
  double approx_moment = 0.0, approx_measure = 0.0;
  Rational half(BigInt(1), BigInt(2));
  for (const auto& piece : decomposition.pieces) {
    if (piece.is_point) continue;
    AggregateValue lo = EndpointValue(piece.lower, tolerance_);
    AggregateValue hi = EndpointValue(piece.upper, tolerance_);
    if (lo.exact && hi.exact && exact) {
      exact_moment +=
          (hi.exact_value * hi.exact_value - lo.exact_value * lo.exact_value) *
          half;
      exact_measure += hi.exact_value - lo.exact_value;
    } else {
      exact = false;
    }
    approx_moment += 0.5 * (hi.Value() * hi.Value() - lo.Value() * lo.Value());
    approx_measure += hi.Value() - lo.Value();
  }
  if (exact) {
    if (exact_measure.is_zero()) return Status::Undefined("AVG of a null set");
    return ExactValue(exact_moment / exact_measure);
  }
  if (approx_measure <= 0.0) return Status::Undefined("AVG of a null set");
  return ApproxValue(approx_moment / approx_measure, tolerance_);
}

StatusOr<AggregateValue> AggregateModules::Length(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "LENGTH requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(Measure1D measure,
                        MeasureUnary(relation, tolerance_, governor_));
  if (measure.exact) return ExactValue(measure.exact_total);
  return ApproxValue(measure.approx_total, tolerance_);
}

StatusOr<double> AggregateModules::SliceMeasure(
    const ConstraintRelation& relation, const Rational& x0) const {
  CCDB_CHECK(relation.arity() == 2);
  ConstraintRelation slice = SubstituteFirstVar(relation, x0);
  CCDB_ASSIGN_OR_RETURN(Measure1D measure,
                        MeasureUnary(slice, tolerance_, governor_));
  return measure.approx_total;
}

StatusOr<AggregateValue> AggregateModules::Surface(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 2, "SURFACE requires a binary relation");
  if (relation.is_empty_syntactically()) return ExactValue(Rational(0));
  CadOptions surface_cad_options;
  surface_cad_options.governor = governor_;
  CCDB_ASSIGN_OR_RETURN(Cad cad,
                        Cad::Build(relation.CollectPolynomials(), 2,
                                   surface_cad_options));
  const std::vector<CadCell>& base = cad.roots();
  bool exact = true;
  Rational exact_total(0);
  double approx_total = 0.0;
  double approx_error = 0.0;

  for (std::size_t b = 0; b < base.size(); ++b) {
    const CadCell& base_cell = base[b];
    bool base_is_sector = base_cell.index[0] % 2 == 1;
    // Gather satisfied children and their stack structure.
    const std::vector<CadCell>& stack = base_cell.children;
    std::vector<bool> satisfied(stack.size(), false);
    bool any_positive = false;
    for (std::size_t c = 0; c < stack.size(); ++c) {
      satisfied[c] = CellSatisfies(stack[c], relation);
      if (satisfied[c] && c % 2 == 0) any_positive = true;  // y-sector
    }
    if (!base_is_sector) continue;  // x-section: zero width
    if (!any_positive) continue;
    bool base_unbounded = (b == 0) || (b + 1 == base.size());
    if (base_unbounded) {
      return Status::Undefined("SURFACE of an x-unbounded region");
    }
    // Check y-unbounded satisfied sectors.
    if (satisfied.front() || (stack.size() > 1 && satisfied.back()) ||
        (stack.size() == 1 && satisfied[0])) {
      return Status::Undefined("SURFACE of a y-unbounded region");
    }
    const AlgebraicNumber& a = base[b - 1].sample.coord(0);
    const AlgebraicNumber& c = base[b + 1].sample.coord(0);

    // Try the exact path: rational endpoints and polynomial-graph
    // boundaries (the boundary factor is linear in y with constant leading
    // coefficient).
    bool piece_exact = a.is_rational() && c.is_rational();
    Rational piece_exact_total(0);
    std::vector<std::pair<UPoly, UPoly>> graph_bounds;  // lower, upper
    if (piece_exact) {
      for (std::size_t j = 0; j + 1 < stack.size() && piece_exact; ++j) {
        if (j % 2 != 0 || !satisfied[j]) continue;  // only inner y-sectors
        // Sector children[j] is bounded by sections children[j-1] and
        // children[j+1] (j > 0 guaranteed since satisfied.front() was
        // rejected above).
        auto graph_of = [&](const CadCell& section,
                            UPoly* out) -> bool {
          // The first factor vanishing on the section (lifting record).
          if (section.vanishing.empty()) return false;
          const Polynomial& factor =
              cad.factors_at_level(1)[section.vanishing.front()];
          if (factor.DegreeIn(1) != 1) return false;
          Polynomial lc = factor.LeadingCoefficientIn(1);
          if (!lc.is_constant()) return false;
          Polynomial g =
              factor.CoefficientsIn(1)[0].Scale(-lc.constant_value()
                                                     .Inverse());
          auto u = UPoly::FromPolynomial(g, 0);
          if (!u.ok()) return false;
          *out = std::move(*u);
          return true;
        };
        UPoly lower_graph, upper_graph;
        if (j == 0 || j + 1 >= stack.size() ||
            !graph_of(stack[j - 1], &lower_graph) ||
            !graph_of(stack[j + 1], &upper_graph)) {
          piece_exact = false;
          break;
        }
        piece_exact_total += IntegratePolynomial(
            upper_graph - lower_graph, a.rational_value(), c.rational_value());
      }
    }
    if (piece_exact) {
      exact_total += piece_exact_total;
      approx_total += piece_exact_total.ToDouble();
      continue;
    }
    // Numeric path: integrate the slice measure. Quadrature nodes are
    // quantized to 24-bit dyadics so the per-slice exact root isolation
    // works with short rationals; the induced node perturbation is far
    // below the quadrature tolerance.
    exact = false;
    double numeric_tol = std::max(tolerance_, 1e-6);
    Rational eps = FloatK::FromDouble(numeric_tol).ToRational();
    double a_d = a.Approximate(eps).ToDouble();
    double c_d = c.Approximate(eps).ToDouble();
    Status slice_error = Status::Ok();
    FpFormat node_format{24, 1024};
    auto integrand = [&](double x) -> double {
      auto node = FloatK::FromRational(FloatK::FromDouble(x).ToRational(),
                                       node_format, FpMode::kRound);
      Rational x_rational =
          node.ok() ? node->ToRational() : FloatK::FromDouble(x).ToRational();
      auto m = SliceMeasure(relation, x_rational);
      if (!m.ok()) {
        slice_error = m.status();
        return 0.0;
      }
      return *m;
    };
    auto quad = AdaptiveSimpson(integrand, a_d, c_d, numeric_tol, 24,
                                governor_);
    if (!slice_error.ok()) return slice_error;
    if (!quad.ok()) return quad.status();
    approx_total += quad->value;
    approx_error += quad->error_estimate;
  }
  if (exact) return ExactValue(exact_total);
  return ApproxValue(approx_total, approx_error + tolerance_);
}

StatusOr<AggregateValue> AggregateModules::Volume(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 3, "VOLUME requires a ternary relation");
  if (relation.is_empty_syntactically()) return ExactValue(Rational(0));
  // x-extent: decompose the projection onto x via a CAD of the level-0
  // projection factors (cheap: build the full projection but only the base
  // phase matters for the extent).
  CadOptions volume_cad_options;
  volume_cad_options.governor = governor_;
  CCDB_ASSIGN_OR_RETURN(Cad cad,
                        Cad::Build(relation.CollectPolynomials(), 3,
                                   volume_cad_options));
  const std::vector<CadCell>& base = cad.roots();
  // Find satisfied leaves to detect x-unboundedness and collect the
  // satisfied base range.
  double total = 0.0;
  double total_error = 0.0;
  double volume_tol = std::max(tolerance_, 1e-5);
  for (std::size_t b = 0; b < base.size(); ++b) {
    bool any = false;
    std::function<void(const CadCell&)> scan = [&](const CadCell& cell) {
      if (cell.dimension() == 3) {
        bool sector_volume = cell.index[1] % 2 == 1 && cell.index[2] % 2 == 1;
        if (sector_volume && CellSatisfies(cell, relation)) any = true;
        return;
      }
      for (const CadCell& child : cell.children) scan(child);
    };
    scan(base[b]);
    if (!any) continue;
    if (base[b].index[0] % 2 == 0) continue;  // x-section: zero width
    if (b == 0 || b + 1 == base.size()) {
      return Status::Undefined("VOLUME of an x-unbounded region");
    }
    Rational eps = FloatK::FromDouble(volume_tol).ToRational();
    double a_d = base[b - 1].sample.coord(0).Approximate(eps).ToDouble();
    double c_d = base[b + 1].sample.coord(0).Approximate(eps).ToDouble();
    Status inner_error = Status::Ok();
    AggregateModules inner_modules(volume_tol, governor_);
    auto integrand = [&](double x) -> double {
      ConstraintRelation slice =
          SubstituteFirstVar(relation, FloatK::FromDouble(x).ToRational());
      auto area = inner_modules.Surface(slice);
      if (!area.ok()) {
        inner_error = area.status();
        return 0.0;
      }
      return area->Value();
    };
    auto quad = AdaptiveSimpson(integrand, a_d, c_d, volume_tol, 16,
                                governor_);
    if (!inner_error.ok()) return inner_error;
    if (!quad.ok()) return quad.status();
    total += quad->value;
    total_error += quad->error_estimate;
  }
  return ApproxValue(total, total_error + volume_tol);
}

StatusOr<ConstraintRelation> AggregateModules::Eval(
    const ConstraintRelation& relation, const Rational& epsilon) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_ASSIGN_OR_RETURN(NumericalEvaluation eval,
                        EvaluateNumerically(relation, governor_));
  if (!eval.finite) return relation;  // "or to S itself otherwise"
  ConstraintRelation out(relation.arity());
  for (const AlgebraicPoint& point : eval.points) {
    GeneralizedTuple tuple;
    for (int v = 0; v < point.dimension(); ++v) {
      const AlgebraicNumber& coord = point.coord(v);
      Rational value = coord.is_rational() ? coord.rational_value()
                                           : coord.Approximate(epsilon);
      tuple.atoms.emplace_back(Polynomial::Var(v) - Polynomial(value),
                               RelOp::kEq);
    }
    out.AddTuple(std::move(tuple));
  }
  return out;
}

StatusOr<ConstraintRelation> AggregateModules::ApplyParameterized(
    AggregateKind kind, const ConstraintRelation& relation,
    int num_params) const {
  CCDB_CHECK(num_params >= 1);
  int agg_arity = relation.arity() - num_params;
  int required = AggregateInputArity(kind);
  if (required >= 0 && agg_arity != required) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(kind)) + " aggregates over arity " +
        std::to_string(required) + ", got " + std::to_string(agg_arity));
  }
  if (kind == AggregateKind::kEval) {
    return Status::Unimplemented("parameterized EVAL");
  }

  // Split every tuple into t_x (parameters only) and t_y (aggregation
  // variables only, renamed down to 0..agg_arity-1). The paper makes the
  // same separability requirement: "if for each t ∈ r, constraints in t
  // can be divided into constraints only on x and constraints only on y
  // ... (the query is undefined otherwise)".
  struct SplitTuple {
    GeneralizedTuple x_part;
    GeneralizedTuple y_part;
  };
  std::vector<SplitTuple> split;
  std::vector<Polynomial> x_polys;
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    SplitTuple st;
    for (const Atom& atom : tuple.atoms) {
      bool mentions_x = false, mentions_y = false;
      for (int v = 0; v <= atom.poly.max_var(); ++v) {
        if (!atom.poly.Mentions(v)) continue;
        (v < num_params ? mentions_x : mentions_y) = true;
      }
      if (mentions_x && mentions_y) {
        return Status::Undefined(
            "parameterized aggregate over a non-separable tuple: " +
            atom.poly.ToString());
      }
      if (mentions_y) {
        int max_var = atom.poly.max_var();
        std::vector<int> mapping(max_var + 1, 0);
        for (int v = 0; v <= max_var; ++v) {
          mapping[v] = v >= num_params ? v - num_params : v;
        }
        st.y_part.atoms.emplace_back(atom.poly.RenameVars(mapping), atom.op);
      } else {
        st.x_part.atoms.push_back(atom);
        if (!atom.poly.is_constant()) x_polys.push_back(atom.poly);
      }
    }
    split.push_back(std::move(st));
  }

  // CAD of the parameter space (the paper's "Construct a CAD C on the
  // constraint relation {t_x | t ∈ r}"), with a Thom retry when plain
  // sign vectors cannot distinguish cells carrying different values.
  for (int attempt = 0; attempt < 2; ++attempt) {
    CadOptions cad_options;
    cad_options.derivative_closure_below = attempt == 0 ? 0 : num_params;
    cad_options.governor = governor_;
    CCDB_ASSIGN_OR_RETURN(Cad cad,
                          Cad::Build(x_polys, num_params, cad_options));
    std::vector<Polynomial> factors = cad.FactorsBelow(num_params);

    struct CellResult {
      std::vector<int> signs;
      bool defined = false;
      Rational value;
    };
    std::vector<CellResult> results;
    Status inner_error = Status::Ok();
    cad.ForEachCellAtDimension(num_params, [&](const CadCell& cell) {
      if (!inner_error.ok()) return;
      CellResult result;
      result.signs.reserve(factors.size());
      for (const Polynomial& f : factors) {
        result.signs.push_back(cell.sample.SignAt(f));
      }
      // Active tuples: those whose x-part holds on this cell.
      ConstraintRelation slice_union(agg_arity);
      bool any_active = false;
      for (const SplitTuple& st : split) {
        bool active = true;
        for (const Atom& atom : st.x_part.atoms) {
          if (!SignSatisfies(cell.sample.SignAt(atom.poly), atom.op)) {
            active = false;
            break;
          }
        }
        if (active) {
          any_active = true;
          slice_union.AddTuple(st.y_part);
        }
      }
      if (any_active) {
        auto value = ApplyNumeric(kind, slice_union);
        if (value.ok()) {
          result.defined = true;
          result.value = value->exact
                             ? value->exact_value
                             : FloatK::FromDouble(value->approx_value)
                                   .ToRational();
        } else if (value.status().code() != StatusCode::kUndefined) {
          inner_error = value.status();
        }
      }
      results.push_back(std::move(result));
    });
    CCDB_RETURN_IF_ERROR(inner_error);

    // Sign-vector discrimination: a vector shared by cells with different
    // outcomes needs the Thom retry.
    bool collision = false;
    for (std::size_t i = 0; i < results.size() && !collision; ++i) {
      for (std::size_t j = i + 1; j < results.size(); ++j) {
        if (results[i].signs != results[j].signs) continue;
        if (results[i].defined != results[j].defined ||
            (results[i].defined && results[i].value != results[j].value)) {
          collision = true;
          break;
        }
      }
    }
    if (collision) {
      if (attempt == 0) continue;
      return Status::Internal(
          "parameterized aggregate: cells with different values share a "
          "sign vector even after Thom augmentation");
    }

    ConstraintRelation out(num_params + 1);
    std::vector<std::vector<int>> emitted;
    for (const CellResult& result : results) {
      if (!result.defined) continue;
      bool seen = false;
      for (const auto& signs : emitted) {
        if (signs == result.signs) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      emitted.push_back(result.signs);
      GeneralizedTuple tuple;
      for (std::size_t i = 0; i < factors.size(); ++i) {
        RelOp op = result.signs[i] < 0
                       ? RelOp::kLt
                       : (result.signs[i] > 0 ? RelOp::kGt : RelOp::kEq);
        tuple.atoms.emplace_back(factors[i], op);
      }
      tuple.atoms.emplace_back(
          Polynomial::Var(num_params) - Polynomial(result.value), RelOp::kEq);
      out.AddTuple(std::move(tuple));
    }
    return out;
  }
  return Status::Internal("unreachable: parameterized aggregate attempts");
}

StatusOr<AggregateValue> AggregateModules::ApplyNumeric(
    AggregateKind kind, const ConstraintRelation& relation) const {
  int required = AggregateInputArity(kind);
  if (required >= 0 && relation.arity() != required) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(kind)) + " requires arity " +
        std::to_string(required) + ", got " +
        std::to_string(relation.arity()));
  }
  switch (kind) {
    case AggregateKind::kMin:
      return Min(relation);
    case AggregateKind::kMax:
      return Max(relation);
    case AggregateKind::kAvg:
      return Avg(relation);
    case AggregateKind::kLength:
      return Length(relation);
    case AggregateKind::kSurface:
      return Surface(relation);
    case AggregateKind::kVolume:
      return Volume(relation);
    case AggregateKind::kEval:
      return Status::InvalidArgument("EVAL is not a numeric aggregate");
  }
  return Status::Internal("unreachable aggregate kind");
}

}  // namespace ccdb
