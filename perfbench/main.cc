// The repo benchmark's workload runner: one process runs one workload.
//
//   perfbench --workload <cad_select|cad_rw|linear_rw|datalog_refresh>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Sets the engine up several times (the median is setup_s), then runs the
// workload's closed loop for --seconds on one thread, checking every
// answer with the benchmark's own oracle. --trace 0 reports end-to-end
// metrics; --trace 1 runs the first third untraced and the rest traced —
// every op's real call in a span plus a replay of its pipeline stages —
// and reports the per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the full record (every
// metric, the engine config and its fingerprint) goes to
// <out-dir>/<workload>.seed<n>.trace<t>.json, spans to
// <out-dir>/<workload>.spans.jsonl.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "base/metrics.h"
#include "engine/database.h"
#include "engine/session.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ccdb::ConstraintDatabase;
using ccdb::EngineConfig;
using ccdb::Session;

constexpr int kSetups = 5;
constexpr int kWindows = 8;
constexpr std::size_t kMaxReportedFailures = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && WorkloadClients(args->workload) > 0 &&
         args->seconds > 0;
}

// The workloads whose time is CAD work; their sessions run threads=2.
bool CadWorkload(const std::string& workload) {
  return workload == "cad_select" || workload == "cad_rw";
}

// The engine configuration every session of a workload runs under: built
// from the defaults with the explicit With* methods, never from the
// environment. The WAL policy (no fsync per op, so disk jitter stays out;
// checkpoint every 64 KiB of log) is carried in the same config so its
// fingerprint covers it.
EngineConfig PinnedConfig(const std::string& workload) {
  EngineConfig config = EngineConfig{}
                            .WithThreads(CadWorkload(workload) ? 2 : 1)
                            .WithPlan(true)
                            .WithQeCache(true)
                            .WithSeminaive(true)
                            .WithIncremental(true);
  config.wal_fsync = "off";
  config.wal_checkpoint_bytes = 64u << 10;
  return config;
}

ccdb::DurabilityOptions PinnedDurability(const EngineConfig& config) {
  ccdb::DurabilityOptions durability;
  durability.fsync = *ccdb::ParseWalFsyncPolicy(config.wal_fsync);
  durability.checkpoint_bytes = config.wal_checkpoint_bytes;
  return durability;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * (values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - lo) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t Counter(const char* name) {
  return ccdb::MetricsRegistry::Global().GetCounter(name)->value();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double CpuMs(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return t.tv_sec * 1e3 + t.tv_nsec / 1e6;
}

// What one op or call cost: wall-clock latency, and CPU time — the
// process's CPU time, so the engine work summed over engine threads,
// without the time a thread waited to be scheduled (the parallel CAD
// waiting for its second worker). On a shared 4-vCPU VM the wall time of
// one op stream swung by a quarter within a minute while its CPU time
// stayed within a few percent, so the gated metrics are CPU-based and the
// wall-clock ones are recorded beside them.
struct Cost {
  double wall_ms = 0, cpu_ms = 0;
  Cost& operator+=(const Cost& o) {
    wall_ms += o.wall_ms;
    cpu_ms += o.cpu_ms;
    return *this;
  }
};

std::vector<double> Wall(const std::vector<Cost>& costs) {
  std::vector<double> out;
  for (const Cost& c : costs) out.push_back(c.wall_ms);
  return out;
}

std::vector<double> Cpu(const std::vector<Cost>& costs) {
  std::vector<double> out;
  for (const Cost& c : costs) out.push_back(c.cpu_ms);
  return out;
}

// ------------------------------------------------------------------ clients

// What one phase (untraced or traced) of the loop recorded, over all clients.
struct PhaseResult {
  std::int64_t start_ns = 0, end_ns = 0;
  std::vector<Cost> ops;
  std::vector<std::int64_t> op_start_ns;  // parallel to `ops`
  std::map<std::string, std::vector<Cost>> calls;
  Cost busy;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  // Traced phase only.
  std::uint64_t traced_ops = 0;
  std::uint64_t attributable_real_ns = 0, attributable_replay_ns = 0;
  std::uint64_t pool_completed = 0, pool_stolen = 0;
  std::uint64_t wal_inserts = 0, wal_bytes = 0, wal_user_bytes = 0;
  std::uint64_t fixpoints = 0, rounds = 0, delta_tuples = 0,
                rules_skipped = 0;
};

struct Shared {
  ConstraintDatabase* db = nullptr;
  std::string wal_path;  // empty for in-memory databases
};

std::uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

// One client: an op stream and the session it runs against. The loop
// drives every client from one thread, in turn, so an op's cost never
// includes contention with another client's op running beside it.
class Client {
 public:
  Client(Shared* shared, Session* session, OpStream* stream,
         std::uint64_t op_base)
      : shared_(shared),
        session_(session),
        stream_(stream),
        replayer_(shared->db, session, &spans_),
        next_op_(op_base) {}

  // Runs the stream's next op; traced runs record spans and replays.
  void Next(bool traced, PhaseResult* out) {
    const Op op = stream_->Next();
    Step(op, next_op_++, traced, out);
  }

  const SpanRecorder& spans() const { return spans_; }
  const ReplayCounts& replay_counts() const { return replayer_.counts(); }

 private:
  // One timed engine call: returns its status, adds its latency.
  template <typename Fn>
  ccdb::Status Call(const char* kind, const char* span_name, std::uint64_t op,
                    bool traced, Cost* op_cost, PhaseResult* out, Fn fn) {
    const std::uint64_t completed = traced ? Counter("threadpool.tasks_completed") : 0;
    const std::uint64_t stolen = traced ? Counter("threadpool.tasks_stolen") : 0;
    ccdb::Status status;
    std::int64_t start, end;
    double cpu_start, cpu_end;
    {
      ScopedSpan span(traced ? &spans_ : nullptr, span_name, op);
      cpu_start = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
      start = NowNs();
      status = fn();
      end = NowNs();
      cpu_end = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
    }
    if (traced) {
      out->pool_completed += Counter("threadpool.tasks_completed") - completed;
      out->pool_stolen += Counter("threadpool.tasks_stolen") - stolen;
    }
    const Cost cost{(end - start) / 1e6, cpu_end - cpu_start};
    out->calls[kind].push_back(cost);
    *op_cost += cost;
    return status;
  }

  void Step(const Op& op, std::uint64_t id, bool traced, PhaseResult* out) {
    ++out->attempted;
    if (traced) ++out->traced_ops;
    Answer answer;
    Cost op_cost;
    ccdb::Status status;
    const std::uint64_t hits_before = Counter("query_cache_hits");
    const std::size_t mark = spans_.spans().size();
    out->op_start_ns.push_back(NowNs());
    switch (op.kind) {
      case OpKind::kQuery:
      case OpKind::kAggregate:
        status = Call(op.kind == OpKind::kQuery ? "query" : "aggregate",
                      op.kind == OpKind::kQuery ? "engine.query"
                                                : "engine.aggregate",
                      id, traced, &op_cost, out, [&] {
                        auto result = session_->Query(op.text);
                        if (!result.ok()) return result.status();
                        answer.relation = result->relation;
                        answer.columns = result->column_names;
                        answer.has_scalar = result->has_scalar;
                        answer.scalar = result->scalar.Value();
                        answer.scalar_error = result->scalar.error_estimate;
                        return ccdb::Status::Ok();
                      });
        break;
      case OpKind::kSolve:
        status = Call("solve", "engine.solve", id, traced, &op_cost, out, [&] {
          auto result = session_->Solve(
              op.text, ccdb::Rational(ccdb::BigInt(1),
                                      ccdb::BigInt::Pow2(kSolveEpsilonLog2)));
          if (!result.ok()) return result.status();
          answer.points = *std::move(result);
          return ccdb::Status::Ok();
        });
        break;
      case OpKind::kFpQuery:
        status = Call("fp_query", "engine.fp_query", id, traced, &op_cost, out,
                      [&] {
                        auto result = session_->QueryFp(op.text, kFpBits);
                        if (!result.ok()) return result.status();
                        answer.relation = result->relation;
                        answer.columns = result->column_names;
                        return ccdb::Status::Ok();
                      });
        break;
      case OpKind::kInsert:
      case OpKind::kRedefine:
        status = Write(op, op.kind == OpKind::kRedefine, id, traced, &op_cost,
                       out);
        break;
      case OpKind::kRefresh:
        status = Write(op, op.redefine, id, traced, &op_cost, out);
        if (status.ok()) {
          ccdb::DatalogStats stats;
          status = Call("fixpoint", "engine.fixpoint", id, traced, &op_cost, out,
                        [&] {
                          auto result = session_->Fixpoint(
                              ClosureProgram(op.relation), {}, &stats);
                          if (!result.ok()) return result.status();
                          answer.relation = result->at(ReachOf(op.relation));
                          answer.columns = {"x", "y"};
                          return ccdb::Status::Ok();
                        });
          if (traced) {
            ++out->fixpoints;
            out->rounds += stats.iterations;
            out->delta_tuples += stats.delta_tuples;
            out->rules_skipped += stats.rules_skipped;
          }
        }
        break;
    }
    out->ops.push_back(op_cost);
    out->busy += op_cost;

    std::string why;
    if (!status.ok()) {
      why = status.ToString();
    } else if (op.check && !op.check(answer, &why)) {
      if (why.empty()) why = "oracle mismatch";
    }
    if (!why.empty()) {
      ++out->failed;
      if (out->failures.size() < kMaxReportedFailures) {
        out->failures.push_back(std::string(OpKindName(op.kind)) + " `" +
                                op.text + "`: " + why);
      }
    }
    if (!traced || !status.ok()) return;

    // Replay outside the real call's span.
    const bool hit = Counter("query_cache_hits") > hits_before;
    const std::size_t replay_mark = spans_.spans().size();
    switch (op.kind) {
      case OpKind::kQuery:
        replayer_.Query(id, op.text);
        break;
      case OpKind::kAggregate:
        replayer_.Surface(id, op.text, op.body);
        break;
      case OpKind::kSolve:
        replayer_.Solve(id, op.text,
                        ccdb::Rational(ccdb::BigInt(1),
                                       ccdb::BigInt::Pow2(kSolveEpsilonLog2)));
        break;
      case OpKind::kFpQuery:
        replayer_.FpQuery(id, op.text, kFpBits);
        break;
      case OpKind::kInsert:
      case OpKind::kRedefine:
        replayer_.Write(id, op.text);
        break;
      case OpKind::kRefresh:
        replayer_.Write(id, op.text);
        replayer_.RuleBody(id, op.relation, answer.relation);
        break;
    }
    const bool read = op.kind == OpKind::kQuery ||
                      op.kind == OpKind::kAggregate ||
                      op.kind == OpKind::kSolve ||
                      op.kind == OpKind::kFpQuery;
    if (read && !hit) {
      const auto& spans = spans_.spans();
      for (std::size_t i = mark; i < replay_mark; ++i) {
        if (spans[i].parent < 0) {
          out->attributable_real_ns += spans[i].end_ns - spans[i].start_ns;
        }
      }
      // Stages are the children of the replay's "replay" root.
      for (std::size_t i = replay_mark; i < spans.size(); ++i) {
        const int parent = spans[i].parent;
        if (parent >= 0 && std::strcmp(spans[parent].name, "replay") == 0) {
          out->attributable_replay_ns += spans[i].end_ns - spans[i].start_ns;
        }
      }
    }
  }

  ccdb::Status Write(const Op& op, bool redefine, std::uint64_t id,
                     bool traced, Cost* op_cost, PhaseResult* out) {
    const bool sized = traced && !shared_->wal_path.empty();
    const std::uint64_t before = sized ? FileSize(shared_->wal_path) : 0;
    ccdb::Status status;
    if (redefine) {
      status = Call("define", "engine.define", id, traced, op_cost, out, [&] {
        ccdb::Status dropped = session_->Drop(op.relation);
        if (!dropped.ok()) return dropped;
        return session_->Define(op.text);
      });
    } else {
      status = Call("insert", "engine.insert", id, traced, op_cost, out,
                    [&] { return session_->Insert(op.text); });
    }
    if (sized && !redefine && status.ok()) {
      const std::uint64_t after = FileSize(shared_->wal_path);
      if (after > before) {  // a checkpoint rotated the log otherwise
        ++out->wal_inserts;
        out->wal_bytes += after - before;
        out->wal_user_bytes += op.text.size();
      }
    }
    return status;
  }

  Shared* shared_;
  Session* session_;
  OpStream* stream_;
  SpanRecorder spans_;
  Replayer replayer_;
  std::uint64_t next_op_;
};

// ------------------------------------------------------------------- setup

struct Deployment {
  std::unique_ptr<ConstraintDatabase> db;
  std::vector<std::unique_ptr<OpStream>> streams;
  std::vector<std::unique_ptr<Session>> sessions;
  std::string dir;
};

// One set-up of catalog `variant` (0 = the one the loop runs against).
ccdb::Status SetUp(const Args& args, int variant, const std::string& dir,
                   Deployment* out) {
  const EngineConfig config = PinnedConfig(args.workload);
  const int clients = WorkloadClients(args.workload);
  for (int c = 0; c < clients; ++c) {
    out->streams.push_back(MakeStream(args.workload, args.seed, c));
  }
  std::vector<std::string> defs;
  std::vector<Op> warmup;
  for (const auto& stream : out->streams) {
    for (std::string& def : stream->CatalogDefinitions(variant)) defs.push_back(def);
    for (Op& op : stream->WarmupOps(variant)) warmup.push_back(std::move(op));
  }
  if (args.workload == "linear_rw" || args.workload == "cad_rw") {
    // Define into a fresh durable directory, close, then recover from it.
    out->dir = dir;
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      auto db = ConstraintDatabase::OpenDurable(dir, {}, PinnedDurability(config));
      if (!db.ok()) return db.status();
      for (const std::string& def : defs) CCDB_RETURN_IF_ERROR(db->Define(def));
    }
    auto db = ConstraintDatabase::OpenDurable(dir, {}, PinnedDurability(config));
    if (!db.ok()) return db.status();
    out->db = std::make_unique<ConstraintDatabase>(std::move(*db));
  } else {
    out->db = std::make_unique<ConstraintDatabase>();
    for (const std::string& def : defs) {
      CCDB_RETURN_IF_ERROR(out->db->Define(def));
    }
  }
  for (int c = 0; c < clients; ++c) {
    out->sessions.push_back(out->db->OpenSession(config));
  }
  Session& session = *out->sessions[0];
  for (const Op& op : warmup) {
    if (op.kind == OpKind::kQuery) {
      CCDB_RETURN_IF_ERROR(session.Query(op.text).status());
      continue;
    }
    if (op.redefine) {
      CCDB_RETURN_IF_ERROR(session.Drop(op.relation));
      CCDB_RETURN_IF_ERROR(session.Define(op.text));
    } else {
      CCDB_RETURN_IF_ERROR(session.Insert(op.text));
    }
    CCDB_RETURN_IF_ERROR(session.Fixpoint(ClosureProgram(op.relation)).status());
  }
  return ccdb::Status::Ok();
}

// --------------------------------------------------------------- reporting

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char ch : value) {
      if (ch == '"' || ch == '\\') escaped += '\\';
      escaped += ch;
    }
    return Raw(key, "\"" + escaped + "\"");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name, unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  return obj.str();
}

int Run(const Args& args) {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CCDB_", 5) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "pins the engine configuration itself\n",
                   *env);
      return 2;
    }
  }
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out_dir.c_str());
    return 2;
  }
  const std::string scratch = args.out_dir + "/db." + args.workload + "." +
                              std::to_string(::getpid());

  // Set up kSetups times, each cold (a translated catalog, nothing of it in
  // any cache); the median CPU time is setup_s. The last, variant 0, is
  // used.
  std::vector<Cost> setups;
  Deployment deployment;
  for (int variant = kSetups - 1; variant >= 0; --variant) {
    deployment = Deployment{};
    const std::int64_t start = NowNs();
    const double cpu_start = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
    ccdb::Status status = SetUp(args, variant,
                                scratch + "/setup" + std::to_string(variant),
                                &deployment);
    setups.push_back({(NowNs() - start) / 1e6,
                      CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start});
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  Shared shared;
  shared.db = deployment.db.get();
  if (!deployment.dir.empty()) shared.wal_path = deployment.dir + "/wal.log";
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < deployment.sessions.size(); ++c) {
    clients.push_back(std::make_unique<Client>(
        &shared, deployment.sessions[c].get(), deployment.streams[c].get(),
        (c + 1) * 100000000ull));
  }

  auto run_phase = [&](double seconds, bool traced) {
    PhaseResult result;
    result.start_ns = NowNs();
    result.end_ns = result.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t c = 0; NowNs() < result.end_ns; c = (c + 1) % clients.size()) {
      clients[c]->Next(traced, &result);
    }
    return result;
  };

  // The registry values a traced phase reports as deltas.
  const char* kDeltaCounters[] = {
      "plan_cache_hits",        "plan_cache_misses",
      "qe_cache_hits",          "qe_cache_misses",
      "resultant_cache_hits",   "resultant_cache_misses",
      "query_cache_hits",       "query_cache_misses",
      "wal.checkpoints",        "datalog_fixpoint_hits",
      "datalog_fixpoint_resumes", "datalog_fixpoint_recomputes"};
  PhaseResult untraced, traced;
  std::map<std::string, std::uint64_t> delta;
  if (!args.trace) {
    untraced = run_phase(args.seconds, false);
  } else {
    untraced = run_phase(args.seconds / 3, false);
    std::map<std::string, std::uint64_t> before;
    for (const char* name : kDeltaCounters) before[name] = Counter(name);
    traced = run_phase(args.seconds - args.seconds / 3, true);
    for (const char* name : kDeltaCounters) delta[name] = Counter(name) - before[name];
  }

  // ---- aggregate the phases
  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  std::vector<std::string> failures = untraced.failures;
  for (const std::string& f : traced.failures) {
    if (failures.size() < kMaxReportedFailures) failures.push_back(f);
  }
  const std::vector<double> op_wall = Wall(untraced.ops),
                            op_cpu = Cpu(untraced.ops);

  // The gated timings are medians over kWindows equal stretches of the
  // untraced phase, each stretch's figure taken on its own ops: a burst of
  // host load that slows a few seconds of the run moves one or two windows,
  // not the median. Throughput counts the engine time of the ops only, so
  // the benchmark's checking between ops does not count.
  std::vector<std::vector<Cost>> windows(kWindows);
  const double span_ns = std::max<double>(untraced.end_ns - untraced.start_ns, 1);
  for (std::size_t i = 0; i < untraced.ops.size(); ++i) {
    const double at = (untraced.op_start_ns[i] - untraced.start_ns) / span_ns;
    windows[std::min(kWindows - 1, static_cast<int>(at * kWindows))].push_back(
        untraced.ops[i]);
  }
  std::vector<double> window_p50, window_p90, window_rate;
  for (const std::vector<Cost>& window : windows) {
    if (window.empty()) continue;
    Cost busy;
    for (const Cost& c : window) busy += c;
    window_p50.push_back(Percentile(Cpu(window), 0.5));
    window_p90.push_back(Percentile(Cpu(window), 0.9));
    window_rate.push_back(Ratio(window.size() * 1e3, busy.cpu_ms));
  }

  // The gated end-to-end metrics (BENCHMARK.json): CPU-based, see Cost.
  std::vector<Metric> e2e = {
      {"op_cpu_p50_ms", "ms", Percentile(window_p50, 0.5)},
      {"op_cpu_p90_ms", "ms", Percentile(window_p90, 0.5)},
      {"ops_per_cpu_s", "1/s", Percentile(window_rate, 0.5)},
      {"setup_s", "s", Percentile(Cpu(setups), 0.5) / 1e3},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
  // Recorded beside them (metrics.json): wall-clock twins over the whole
  // phase and the per-operation-type metrics of the op types this workload
  // contains.
  std::vector<Metric> by_kind = {
      {"op_p50_ms", "ms", Percentile(op_wall, 0.5)},
      {"op_p90_ms", "ms", Percentile(op_wall, 0.9)},
      {"ops_per_s", "1/s", Ratio(untraced.ops.size() * 1e3, untraced.busy.wall_ms)},
      {"setup_wall_s", "s", Percentile(Wall(setups), 0.5) / 1e3},
  };
  for (const auto& [kind, p] : std::vector<std::pair<std::string, int>>{
           {"query", 50}, {"query", 90}, {"aggregate", 50}, {"solve", 50},
           {"fp_query", 50}, {"insert", 50}, {"insert", 90},
           {"fixpoint", 50}, {"fixpoint", 90}}) {
    auto it = untraced.calls.find(kind);
    if (it == untraced.calls.end()) continue;
    const std::string suffix = "p" + std::to_string(p) + "_ms";
    by_kind.push_back({kind + "_" + suffix, "ms", Percentile(Wall(it->second), p / 100.0)});
    by_kind.push_back({kind + "_cpu_" + suffix, "ms", Percentile(Cpu(it->second), p / 100.0)});
  }
  by_kind.push_back({"error_rate", "ratio", Ratio(failed, attempted)});

  std::vector<Metric> layer;
  if (args.trace) {
    std::map<std::string, double> span_us;
    ReplayCounts counts;
    std::vector<const SpanRecorder*> recorders;
    for (const auto& client : clients) {
      recorders.push_back(&client->spans());
      for (const Span& s : client->spans().spans()) span_us[s.name] += s.micros();
      counts += client->replay_counts();
    }
    const std::string spans_path = args.out_dir + "/" + args.workload + ".spans.jsonl";
    if (!WriteSpans(recorders, spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    if (counts.failures > 0) {
      std::fprintf(stderr, "perfbench: %llu replayed calls failed\n",
                   static_cast<unsigned long long>(counts.failures));
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(traced.traced_ops, 1));
    auto us = [&](const char* name, const char* span) {
      layer.push_back({name, "us", span_us[span] / n});
    };
    auto per_op = [&](const char* name, double count) {
      layer.push_back({name, "count/op", count / n});
    };
    auto rate = [&](const char* name, const char* prefix) {
      const double hits = delta[std::string(prefix) + "_hits"];
      const double misses = delta[std::string(prefix) + "_misses"];
      layer.push_back({name, "ratio", Ratio(hits, hits + misses)});
    };
    us("query.parse_us", "query.parse");
    us("query.lower_us", "query.lower");
    us("query.instantiate_us", "query.instantiate");
    us("plan.build_us", "plan.build");
    rate("plan.cache_hit_rate", "plan_cache");
    per_op("plan.blocks_cad", counts.blocks_cad);
    per_op("plan.blocks_fm", counts.blocks_fm);
    per_op("plan.blocks_dense_order", counts.blocks_dense_order);
    us("qe.eliminate_us", "qe.eliminate");
    us("qe.cad.build_us", "qe.cad.build");
    us("qe.cad.sign_eval_us", "qe.cad.sign_eval");
    per_op("qe.cad.sign_evals", counts.sign_evals);
    per_op("qe.cad.cells", counts.cad_cells);
    per_op("qe.cad.projection_factors", counts.projection_factors);
    us("qe.fm_us", "qe.fm");
    per_op("qe.fm_rounds", counts.fm_rounds);
    us("qe.dense_order_us", "qe.dense_order");
    rate("qe.cache_hit_rate", "qe_cache");
    layer.push_back({"arith.max_intermediate_bits", "bits",
                     static_cast<double>(counts.max_intermediate_bits)});
    us("poly.projection_us", "poly.projection");
    rate("poly.resultant_cache_hit_rate", "resultant_cache");
    us("poly.root_isolation_us", "poly.root_isolation");
    per_op("poly.roots", counts.roots);
    us("numeric.solve_us", "numeric.solve");
    us("agg.surface_us", "agg.surface");
    us("fp.query_us", "fp.query");
    const double fp = static_cast<double>(std::max<std::uint64_t>(traced.fixpoints, 1));
    layer.push_back({"datalog.rounds", "count/fixpoint", traced.rounds / fp});
    layer.push_back({"datalog.delta_tuples", "count/fixpoint", traced.delta_tuples / fp});
    layer.push_back({"datalog.rules_skipped", "count/fixpoint", traced.rules_skipped / fp});
    const double resumes = delta["datalog_fixpoint_resumes"];
    layer.push_back({"datalog.resume_share", "ratio",
                     Ratio(resumes, resumes + delta["datalog_fixpoint_recomputes"] +
                                        delta["datalog_fixpoint_hits"])});
    us("storage.snapshot_us", "storage.snapshot");
    layer.push_back({"storage.wal_bytes_per_insert", "B",
                     Ratio(traced.wal_bytes, traced.wal_inserts)});
    layer.push_back({"storage.wal_bytes_per_user_byte", "ratio",
                     Ratio(traced.wal_bytes, traced.wal_user_bytes)});
    layer.push_back({"storage.checkpoints", "count",
                     static_cast<double>(delta["wal.checkpoints"])});
    rate("engine.query_cache_hit_rate", "query_cache");
    const double real_ns = traced.attributable_real_ns;
    layer.push_back({"engine.unattributed_frac", "ratio",
                     real_ns > 0 ? 1.0 - traced.attributable_replay_ns / real_ns
                                 : 0.0});
    per_op("pool.tasks_completed", traced.pool_completed);
    per_op("pool.tasks_stolen", traced.pool_stolen);
    // Span bookkeeping inside the real calls' CPU time, traced against
    // untraced op medians.
    const double base = Percentile(op_cpu, 0.5);
    layer.push_back({"trace.overhead_frac", "ratio",
                     base > 0 ? Percentile(Cpu(traced.ops), 0.5) / base - 1.0 : 0.0});
  }

  // ---- record and report
  const EngineConfig config = PinnedConfig(args.workload);
  const std::string bench_settings = config.Canonical();
  const std::string fingerprint = config.Fingerprint();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("config %s fingerprint=%s\n", bench_settings.c_str(),
              fingerprint.c_str());
  std::printf("ops attempted=%llu failed=%llu samples=%zu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), untraced.ops.size());
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  for (const auto* group : {&e2e, &by_kind, &layer}) {
    for (const Metric& m : *group) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  JsonObject record;
  record.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Num("trace", args.trace ? 1 : 0)
      .Str("config", bench_settings)
      .Str("fingerprint", fingerprint)
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Num("samples", static_cast<double>(untraced.ops.size()))
      .Raw("end_to_end", MetricsJson(e2e))
      .Raw("by_kind", MetricsJson(by_kind))
      .Raw("per_layer", MetricsJson(layer));
  const std::string record_path = args.out_dir + "/" + args.workload + ".seed" +
                                  std::to_string(args.seed) + ".trace" +
                                  (args.trace ? "1" : "0") + ".json";
  std::ofstream(record_path, std::ios::trunc) << record.str() << "\n";

  clients.clear();
  deployment = Deployment{};
  fs::remove_all(scratch, ec);

  JsonObject result;
  result.Raw("correct", failed == 0 ? "true" : "false")
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Raw("metrics", MetricsJson(args.trace ? layer : e2e));
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cad_select|cad_rw|linear_rw|"
                 "datalog_refresh> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
