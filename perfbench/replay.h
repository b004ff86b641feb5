#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// Traced replay of an op's pipeline stages through the engine's public
// layer functions, timed from the benchmark's own files. The replay runs
// after the op's real call, outside its span, and measures work rather
// than cache hits: every replayed call forces QeOptions::memo = kOff and
// carries an unlimited ResourceGovernor, under which the QE, plan and
// resultant memo layers stand down (base/memo.h pure-memo contract).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/resource.h"
#include "datalog/datalog.h"
#include "engine/session.h"
#include "plan/planner.h"
#include "spans.h"

namespace perfbench {

/// Counts the replays observed, summed over ops.
struct ReplayCounts {
  std::uint64_t blocks_cad = 0;
  std::uint64_t blocks_fm = 0;
  std::uint64_t blocks_dense_order = 0;
  std::uint64_t cad_cells = 0;
  std::uint64_t projection_factors = 0;
  std::uint64_t sign_evals = 0;
  std::uint64_t roots = 0;
  std::uint64_t fm_rounds = 0;           // QeStats::fm_rounds
  std::uint64_t max_intermediate_bits = 0;  // max of QeStats
  std::uint64_t failures = 0;            // replays that returned an error

  ReplayCounts& operator+=(const ReplayCounts& o);
};

class Replayer {
 public:
  Replayer(const ccdb::ConstraintDatabase* db, const ccdb::Session* session,
           SpanRecorder* spans);

  /// First-order query (Session::Query / Solve): front end, plan, QE and a
  /// per-block decomposition of the QE; Solve adds numeric evaluation.
  void Query(std::uint64_t op, const std::string& text);
  void Solve(std::uint64_t op, const std::string& text,
             const ccdb::Rational& epsilon);
  /// SURFACE aggregate: parses the whole text, then evaluates the
  /// aggregated body over columns (x, y) and the SURFACE module on it.
  void Surface(std::uint64_t op, const std::string& text,
               const std::string& body);
  /// QueryFp: front end plus finite-precision elimination at `k` bits.
  void FpQuery(std::uint64_t op, const std::string& text, std::uint32_t k);
  /// A write's definition text through the relation-definition parser.
  void Write(std::uint64_t op, const std::string& definition);
  /// The inductive rule body of the closure over `edge`, instantiated
  /// against the fixpoint's result `reach` and the current catalog:
  /// exists z (reach(x, z) and edge(z, y)), through plan, QE and block
  /// decomposition.
  void RuleBody(std::uint64_t op, const std::string& edge,
                const ccdb::ConstraintRelation& reach);

  const ReplayCounts& counts() const { return counts_; }

 private:
  struct Front {
    ccdb::Formula formula = ccdb::Formula::True();
    int arity = 0;
  };
  ccdb::StatusOr<Front> FrontEnd(std::uint64_t op, const std::string& text,
                                 const std::vector<std::string>& columns);
  ccdb::StatusOr<ccdb::ConstraintRelation> Eliminate(
      std::uint64_t op, const ccdb::Formula& formula, int arity);
  /// Runs `stages` under the op's "replay" root span, then Decompose.
  template <typename Stages>
  void Replay(std::uint64_t op, Stages stages);
  void Decompose(std::uint64_t op);
  void Blocks(std::uint64_t op, const ccdb::PlanNode& node);
  void CadBlock(std::uint64_t op, const ccdb::PlanNode& node);
  void Note(const ccdb::Status& status);

  const ccdb::ConstraintDatabase* db_;
  const ccdb::Session* session_;
  SpanRecorder* spans_;
  ccdb::ResourceGovernor unlimited_{ccdb::ResourceLimits{}};
  ccdb::QeOptions qe_;
  ReplayCounts counts_;
  /// Plans whose blocks Decompose has yet to replay.
  std::vector<std::shared_ptr<const ccdb::PlanNode>> pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
