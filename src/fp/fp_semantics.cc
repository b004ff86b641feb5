#include "fp/fp_semantics.h"

#include <sstream>

#include "base/metrics.h"
#include "base/trace.h"

namespace ccdb {

std::string FpQeStats::ToString() const {
  std::ostringstream out;
  out << "defined=" << (defined ? "yes" : "no") << " max_bits=" << max_bits
      << " [" << qe.ToString() << "]";
  return out.str();
}

std::string FpQeStats::ToJson() const {
  return JsonObjectBuilder()
      .Add("defined", defined)
      .Add("max_bits", max_bits)
      .AddRaw("qe", qe.ToJson())
      .Build();
}

StatusOr<ConstraintRelation> EliminateQuantifiersFp(const Formula& formula,
                                                    int num_free_vars,
                                                    const FpContext& context,
                                                    FpQeStats* stats) {
  CCDB_TRACE_SPAN("fp.eliminate");
  CCDB_METRIC_COUNT("fp.queries", 1);
  FpQeStats local;
  FpQeStats* s = stats != nullptr ? stats : &local;
  *s = FpQeStats();

  // The finite-precision semantics is defined *through the algorithm*
  // ("a semantics defined w.r.t. a specific evaluation algorithm", paper
  // Section 4): we run the identical deterministic pipeline and enforce the
  // Z_k budget on every integer it materializes. Arithmetic inside a step
  // is still exact (the paper: "arithmetic operations are still carried
  // out in exact values"); it is the *materialized* numbers that must fit.
  QeStats qe_stats;
  auto result =
      EliminateQuantifiers(formula, num_free_vars, context.qe, &qe_stats);
  s->qe = qe_stats;
  s->max_bits = qe_stats.max_intermediate_bits;
  CCDB_METRIC_MAX("fp.max_bits", s->max_bits);
  if (!result.ok()) return result.status();
  if (s->max_bits > context.k) {
    s->defined = false;
    CCDB_METRIC_COUNT("fp.undefined", 1);
    return Status::Undefined(
        "FO^F_QE: evaluation needs integers of bit length " +
        std::to_string(s->max_bits) + " > k = " + std::to_string(context.k));
  }
  s->defined = true;
  return result;
}

StatusOr<bool> DecideSentenceFp(const Formula& sentence,
                                const FpContext& context, FpQeStats* stats) {
  CCDB_ASSIGN_OR_RETURN(
      ConstraintRelation rel,
      EliminateQuantifiersFp(sentence, 0, context, stats));
  return !rel.is_empty_syntactically();
}

StatusOr<std::uint32_t> MinimalDefiningK(const Formula& formula,
                                         int num_free_vars,
                                         std::uint32_t max_k) {
  // One exact run reveals the materialized maximum; the minimal k equals
  // it by definition of the budget check.
  FpQeStats stats;
  FpContext context{max_k};
  auto result =
      EliminateQuantifiersFp(formula, num_free_vars, context, &stats);
  if (result.ok()) {
    return static_cast<std::uint32_t>(stats.max_bits);
  }
  if (result.status().code() == StatusCode::kUndefined) {
    return Status::Undefined("query needs more than max_k = " +
                             std::to_string(max_k) + " bits (" +
                             std::to_string(stats.max_bits) + ")");
  }
  return result.status();
}

}  // namespace ccdb
