#ifndef CCDB_BASE_CONFIG_H_
#define CCDB_BASE_CONFIG_H_

/// Engine configuration, resolved ONCE from the environment.
///
/// Every CCDB_* engine knob is parsed here and nowhere else: the rest of
/// the engine never calls getenv — a CI gate, scripts/check_no_getenv.sh,
/// enforces this; the only allowlisted exceptions are this file's
/// implementation and the fault-injection registry. Subsystems
/// that used to sniff the environment at first use (planner, memo caches,
/// thread pool, semi-naive Datalog, tracing, logging, WAL durability)
/// now read their defaults from EngineConfig::Process(), and a Session
/// (engine/session.h) can carry a different EngineConfig per client, so
/// two sessions with different configurations coexist in one process.
///
/// Parse diagnostics: an invalid value emits ONE stderr warning per bad
/// knob naming the variable and the fallback actually used — startup
/// never crashes on a bad environment (DESIGN.md §16).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ccdb {

/// Three-way per-call toggle used throughout the pipeline's option
/// structs: kAuto is the process config (the matching
/// EngineConfig::Process() field; for the memo caches, MemoCachesEnabled()
/// in base/memo.h); kOn/kOff force the feature per call, and a Session
/// forces every toggle its config carries. Carried here (not in qe/)
/// because it is a configuration concept shared by the planner, the memo
/// caches, semi-naive Datalog, and incremental re-fixpoint alike.
enum class PlanToggle { kAuto, kOn, kOff };

/// Resolves `toggle`: kOn/kOff force, kAuto yields `process` (the matching
/// EngineConfig::Process() field).
inline bool ResolveToggle(PlanToggle toggle, bool process) {
  return toggle == PlanToggle::kOn || (toggle == PlanToggle::kAuto && process);
}

/// Immutable resolved engine configuration. Value semantics: copy it,
/// override fields with the With* builders, hand it to
/// ConstraintDatabase::OpenSession. The process-wide instance —
/// EngineConfig::Process() — is resolved from the environment exactly
/// once; it is the config of every database's default session (the
/// facade) and what every kAuto toggle resolves to.
struct EngineConfig {
  /// Concurrent runners of the session's thread pool (CCDB_THREADS,
  /// default 1 = the exact serial path).
  int threads = 1;
  /// Structure-aware query planning (CCDB_PLAN, default on). Byte-identity
  /// contract: plan on/off changes cost, never answers.
  bool plan = true;
  /// Semi-naive Datalog delta evaluation (CCDB_SEMINAIVE, default on).
  bool seminaive = true;
  /// Incremental re-fixpoint of materialized Datalog state
  /// (CCDB_INCREMENTAL, default on).
  bool incremental = true;
  /// Memo caches: QE results, plans, resultants, rule bodies, whole
  /// queries (CCDB_QE_CACHE, default on; pure memos — byte-identical
  /// either way).
  bool qe_cache = true;
  /// Capacity of the QE result cache (CCDB_QE_CACHE_CAPACITY,
  /// default 4096 entries).
  std::size_t qe_cache_capacity = 4096;
  /// CCDB_FILTER (default on). Unread: sign evaluation at CAD sample
  /// points is always filtered (one interval pass, zeros from the lifting
  /// record, exact fallback; DESIGN.md §"Sample-point sign evaluation"),
  /// and the filtered path is exact by construction, so there is nothing
  /// to switch off. It stays only because it is part of Canonical(), the
  /// configuration fingerprint benchmark runs are compared under; delete
  /// it together with the next benchmark change.
  bool filter = true;
  /// Minimum log severity, one of DEBUG|INFO|WARN|ERROR|OFF
  /// (CCDB_LOG_LEVEL, default WARN). Stored as the canonical spelling.
  std::string log_level = "WARN";
  /// Span tracing armed at startup (CCDB_TRACE, default off).
  bool trace = false;
  /// Structured JSONL query-log destination; empty = disabled
  /// (CCDB_QUERY_LOG).
  std::string query_log_path;
  /// WAL fsync policy, one of always|batch|off (CCDB_WAL_FSYNC,
  /// default always). Consumed by DurabilityOptions::FromEnv.
  std::string wal_fsync = "always";
  /// Auto-checkpoint threshold in WAL record bytes
  /// (CCDB_WAL_CHECKPOINT_BYTES, default 1 MiB).
  std::uint64_t wal_checkpoint_bytes = 1u << 20;

  /// Resolves a fresh config from the environment. Invalid values fall
  /// back to the field default and produce one warning each — appended to
  /// `warnings` when non-null, and always echoed to stderr (so a bad knob
  /// is visible even when nobody collects diagnostics).
  static EngineConfig FromEnv(std::vector<std::string>* warnings = nullptr);

  /// The process-wide configuration: FromEnv() resolved exactly once, at
  /// first use, with warnings to stderr. Immutable: kAuto toggles (plan,
  /// seminaive, incremental, memo), the ThreadPool::Shared width, the log
  /// level, tracer, query log and WAL policy all read it instead of
  /// calling getenv.
  static const EngineConfig& Process();

  /// Per-field programmatic overrides (value-semantics builders).
  EngineConfig WithThreads(int value) const;
  EngineConfig WithPlan(bool value) const;
  EngineConfig WithSeminaive(bool value) const;
  EngineConfig WithIncremental(bool value) const;
  EngineConfig WithQeCache(bool value) const;
  EngineConfig WithFilter(bool value) const;

  /// Stable identity of the resolved configuration: 16 lowercase hex
  /// digits (FNV-1a over the canonical rendering). Logged in every
  /// query-log record (schema v3) so a log line names the exact config
  /// its query ran under.
  std::string Fingerprint() const;

  /// Canonical one-line "key=value,..." rendering — the fingerprint's
  /// preimage, also useful in error messages.
  std::string Canonical() const;

  /// Multi-line human-readable table (the REPL's `.config`).
  std::string ToString() const;
};

}  // namespace ccdb

#endif  // CCDB_BASE_CONFIG_H_
