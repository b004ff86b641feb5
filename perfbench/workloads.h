#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// Seeded operation streams of the workloads. A stream is a pure
// function of (workload, seed, client): it never looks at engine output,
// so the same seed always yields the same op sequence. Every op carries a
// check that decides its answer with the oracles of oracle.h.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "constraint/atom.h"
#include "datalog/datalog.h"
#include "oracle.h"

namespace perfbench {

enum class OpKind {
  kQuery,      // Session::Query, first-order
  kAggregate,  // Session::Query, SURFACE aggregate
  kSolve,      // Session::Solve
  kFpQuery,    // Session::QueryFp
  kInsert,     // Session::Insert
  kRedefine,   // Session::Drop + Session::Define back to the base tuples
  kRefresh,    // datalog: Insert or re-Define, then Session::Fixpoint
};
const char* OpKindName(OpKind kind);

/// What an op returned, as the checks need it.
struct Answer {
  ccdb::ConstraintRelation relation;  // query / fp query / Reach
  std::vector<std::string> columns;   // column names of `relation`
  bool has_scalar = false;            // aggregate
  double scalar = 0.0;
  double scalar_error = 0.0;
  std::vector<std::vector<Rational>> points;  // solve
};

/// Decides an answer; on a mismatch returns false and says why.
using Check = std::function<bool(const Answer&, std::string* why)>;

struct Op {
  OpKind kind = OpKind::kQuery;
  /// Query text, or the definition an insert / re-define applies.
  std::string text;
  /// Relation a write targets (for kRefresh, the chain's edge relation).
  std::string relation;
  /// For aggregates: the aggregated body and its columns (the traced
  /// replay evaluates it on its own).
  std::string body;
  /// kRefresh: whether the write is a re-Define (else an Insert).
  bool redefine = false;
  /// Points at which `check` compares membership in a relation answer
  /// with the oracle (empty for scalar and point answers).
  std::vector<std::vector<Rational>> probes;
  /// Null for writes without an answer.
  Check check;
};

/// Fixed engine parameters of the ops.
inline constexpr std::uint32_t kFpBits = 64;            // QueryFp bit budget
inline constexpr int kSolveEpsilonLog2 = 20;            // Solve epsilon 2^-20
inline constexpr int kBands = 16;                       // cad_select catalog
inline constexpr int kLinearRelationsPerClient = 4;     // linear_rw catalog
inline constexpr int kLinearBaseTuples = 12;
inline constexpr int kLinearMaxTuples = 24;
inline constexpr int kChainBase = 6;                    // datalog_refresh
inline constexpr int kChainInsertsPerCycle = 4;
inline constexpr int kLinearChainBase = 3;              // linear_rw chains
inline constexpr int kLinearChainInserts = 2;

class OpStream {
 public:
  virtual ~OpStream() = default;
  /// Definitions the catalog starts from (client-owned relations only).
  /// Variant 0 is the catalog the ops run against; variant v > 0 is the
  /// same catalog translated so far that nothing of it is in any cache —
  /// a cold set-up of the same size.
  virtual std::vector<std::string> CatalogDefinitions(int variant) const = 0;
  /// Untimed ops a set-up runs after defining `variant`, to fill the caches
  /// and materialized state the loop starts from (kQuery and kRefresh
  /// only; their answers are not checked).
  virtual std::vector<Op> WarmupOps(int variant) const = 0;
  virtual Op Next() = 0;
};

/// Streams of one workload. `client` selects the relations a linear_rw
/// client owns; the other workloads have one client.
std::unique_ptr<OpStream> MakeStream(const std::string& workload,
                                     std::uint64_t seed, int client);
/// Number of clients (streams, each with its own session) of a workload;
/// one thread drives them all in turn (0 = unknown workload).
int WorkloadClients(const std::string& workload);

/// FNV-1a hash of the first `count` ops of every client stream (kind and
/// text) — the op-sequence identity of a seed.
std::uint64_t OpSequenceHash(const std::string& workload, std::uint64_t seed,
                             int count);

/// The reachability closure program refresh ops keep up to date over the
/// chain relation `edge`: R(x, y) :- edge(x, y); R(x, y) :- R(x, z),
/// edge(z, y), where R is ReachOf(edge).
ccdb::DatalogProgram ClosureProgram(const std::string& edge);
std::string ReachOf(const std::string& edge);

/// cad_select band i (0 <= i < kBands).
Band BandAt(int i);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
