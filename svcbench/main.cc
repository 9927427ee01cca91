// svcbench: closed-loop benchmark of the rdfmr query service.
//
// One process starts a service::ServiceServer on a unix socket in front of
// a QueryService (max_concurrent=1, engine num_threads=2, 16 MB result
// cache) and replays a workload's fixed, seeded operation sequence
// through one ServiceClient connection with one request in flight. The
// loop is closed because the users it models wait for each reply: an
// analyst session, or a dashboard re-issuing queries.
//
//   svcbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR [--git-sha SHA]
//
// The run, in order:
//   1. fixture (untimed): generate the datasets from the seed, write the
//      refresh dataset's N-Triples files, and compute every request's
//      reference answers in memory (reference.h);
//   2. set-up, timed as setup_s: .rdx index build, server start, dataset
//      registration and cache warm-up — repeated (a set-up the host
//      disturbed is redone), the median reported and the last instance
//      kept;
//   3. the timed sequence, group by group (a group the host disturbed is
//      replayed, see RunSequence); every response is checked against its
//      reference (count + digest of the returned answers);
//   4. cross-check (untimed): each executed (query, engine, dataset)
//      combination runs once through a direct Exec call with the same
//      options, whose modeled seconds, DFS writes and shuffle bytes must
//      equal the socket responses';
//   5. with --trace 1, probes of each layer, a Chrome
//      trace and a self-time table.
//
// The last stdout line is the result object {"correct", "attempted",
// "failed", "metrics"}; the line before it stamps host and configuration.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "digest.h"
#include "dfs/sim_dfs.h"
#include "engine/engine.h"
#include "engine/plan_chooser.h"
#include "query/aggregate.h"
#include "query/sparql_parser.h"
#include "rdf/graph_stats.h"
#include "rdf/ntriples.h"
#include "reference.h"
#include "schedule.h"
#include "service/client.h"
#include "service/dataset_io.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/server.h"
#include "stats.h"
#include "storage/mapped_dataset.h"
#include "storage/rdx_reader.h"
#include "storage/rdx_writer.h"
#include "trace_log.h"

#ifndef SVCBENCH_BUILD_TYPE
#define SVCBENCH_BUILD_TYPE "unknown"
#endif

namespace svcbench {
namespace {

using rdfmr::JsonValue;
using rdfmr::Result;
using rdfmr::Status;

/// Set-ups are repeated until at least kSetupRepeats are kept and the
/// kept ones took at least kSetupSeconds: a workload whose set-up is one
/// short query execution repeats it more often.
constexpr size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 4.0;
constexpr uint32_t kEngineThreads = 2;
constexpr uint32_t kMaxConcurrent = 1;
constexpr const char kSocket[] = "svc.sock";
constexpr double kMiB = 1024.0 * 1024.0;
/// Trace-mode probe rounds over the hit set, and repeats of each
/// microsecond-scale probe (parse, choose, compile).
constexpr int kHitProbeRounds = 300;
constexpr int kMicroProbeRepeats = 25;
/// Repeats of each executed combination's Exec and Query probes.
constexpr int kExecProbeRepeats = 2;
constexpr int kReloadProbeRepeats = 5;
/// A group of operations timed while the VM's CPU steal share (from
/// /proc/stat, 10 ms ticks) exceeded this is replayed...
constexpr double kMaxGroupSteal = 0.005;
/// ...while replays so far took under this share of the nominal run
/// length. Host interference on this class of VM arrives in bursts of
/// seconds; left in, it moved hit percentiles by up to 2x between runs.
constexpr double kReplayShare = 0.5;
/// A set-up disturbed the same way is redone while the redone set-ups
/// took under this many seconds in total.
constexpr double kSetupRedoSeconds = 4.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string git_sha = "unknown";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds == 0) {
    return Status::InvalidArgument(
        "usage: svcbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR [--git-sha SHA]");
  }
  return args;
}

// ---- host facts -------------------------------------------------------------

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int field = 0; field < 10 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Seconds taken by a fixed chain of dependent integer operations on the
/// calling thread: the host's CPU speed at that moment (clock, SMT
/// neighbours), which steal does not show. A diagnostic for the stamp.
double CpuProbeSeconds() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 1;
  for (int i = 0; i < 1000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  volatile uint64_t sink = x;
  (void)sink;
  return seconds;
}

/// True when the VM's CPU steal share between two readings exceeded
/// kMaxGroupSteal.
bool Disturbed(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  const uint64_t steal = after.steal - before.steal;
  return total > 0 && static_cast<double>(steal) / total > kMaxGroupSteal;
}

/// Resets the kernel's peak-RSS mark to the current RSS, so a later
/// PeakRssMb() covers only what follows. False when unsupported.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- fixture ----------------------------------------------------------------

rdfmr::service::ServiceConfig MakeServiceConfig() {
  // The `rdfmr serve` defaults, with 2 engine threads and one query
  // executing at a time.
  rdfmr::service::ServiceConfig config;
  config.cluster.num_nodes = 8;
  config.cluster.disk_per_node = 256ULL << 20;
  config.cluster.block_size = config.cluster.disk_per_node / 64 + 1;
  config.cluster.num_threads = kEngineThreads;
  config.max_concurrent = kMaxConcurrent;
  return config;
}

std::string DeltaNt(uint32_t variant) {
  return "delta-" + std::to_string(variant) + ".nt";
}
std::string DeltaRdx(uint32_t variant) {
  return "delta-" + std::to_string(variant) + ".rdx";
}

std::string LoadLine(const std::string& dataset, const std::string& path) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("verb", "load");
  o.Set("dataset", dataset);
  o.Set("path", path);
  return o.Dump();
}

struct ParsedRequest {
  std::shared_ptr<const rdfmr::GraphPatternQuery> query;
  std::optional<rdfmr::AggregateSpec> aggregate;
  rdfmr::EngineKind kind = rdfmr::EngineKind::kNtgaLazy;
};

Result<ParsedRequest> ParseRequest(const RequestSpec& spec) {
  ParsedRequest out;
  RDFMR_ASSIGN_OR_RETURN(rdfmr::ParsedQuery parsed,
                         rdfmr::ParseSparqlQuery(spec.label, spec.sparql));
  out.query = std::make_shared<const rdfmr::GraphPatternQuery>(
      std::move(parsed.query));
  out.aggregate = std::move(parsed.aggregate);
  RDFMR_ASSIGN_OR_RETURN(out.kind, rdfmr::EngineKindFromString(spec.engine));
  return out;
}

/// The in-process equivalent of `spec`'s request line.
rdfmr::service::ServiceRequest InProcessRequest(const RequestSpec& spec,
                                                const ParsedRequest& p,
                                                bool use_result_cache) {
  rdfmr::service::ServiceRequest request;
  request.dataset = spec.dataset;
  request.query = p.query;
  request.aggregate = p.aggregate;
  request.options.kind = p.kind;
  request.use_result_cache = use_result_cache;
  return request;
}

struct Fixture {
  WorkloadSpec w;
  std::vector<std::string> lines;      ///< per request
  std::vector<ParsedRequest> parsed;   ///< per request
  /// Reference per request and delta variant (main-dataset requests
  /// have the same reference under both).
  std::vector<std::array<AnswerRef, 2>> refs;
  std::vector<rdfmr::Triple> main_triples;
  std::vector<rdfmr::Triple> delta0_triples;
};

/// References computed so far, by (dataset content, query text): the
/// engines of one query share its reference.
using RefCache = std::map<std::pair<std::string, std::string>, AnswerRef>;

AnswerRef Evaluate(const RequestSpec& spec, const ParsedRequest& p,
                   const std::string& content,
                   const std::vector<rdfmr::Triple>& triples,
                   RefCache* cache) {
  auto [it, inserted] = cache->try_emplace({content, spec.sparql});
  if (inserted) {
    it->second = ReferenceOf(EvaluateReference(*p.query, p.aggregate, triples),
                             kMaxAnswers);
  }
  return it->second;
}

Result<Fixture> BuildFixture(const Args& args) {
  Fixture f;
  RDFMR_ASSIGN_OR_RETURN(f.w,
                         BuildWorkload(args.workload, args.seed, args.seconds));
  RDFMR_ASSIGN_OR_RETURN(
      f.main_triples,
      rdfmr::service::GenerateFamilyDataset(f.w.main.family, f.w.main.scale,
                                            f.w.main.seed));
  // The refresh parses these files, so the references are computed from
  // the same parse of them.
  std::vector<rdfmr::Triple> delta[2];
  for (uint32_t v = 0; v < 2; ++v) {
    RDFMR_ASSIGN_OR_RETURN(
        std::vector<rdfmr::Triple> generated,
        rdfmr::service::GenerateFamilyDataset(
            f.w.delta[v].family, f.w.delta[v].scale, f.w.delta[v].seed));
    RDFMR_RETURN_NOT_OK(
        rdfmr::service::WriteDatasetFile(DeltaNt(v), generated));
    RDFMR_ASSIGN_OR_RETURN(delta[v],
                           rdfmr::service::ReadDatasetFile(DeltaNt(v)));
  }
  RefCache cache;
  for (const RequestSpec& spec : f.w.requests) {
    f.lines.push_back(RequestLine(spec));
    RDFMR_ASSIGN_OR_RETURN(ParsedRequest p, ParseRequest(spec));
    std::array<AnswerRef, 2> ref;
    if (spec.dataset == "delta") {
      ref = {Evaluate(spec, p, DeltaNt(0), delta[0], &cache),
             Evaluate(spec, p, DeltaNt(1), delta[1], &cache)};
    } else {
      ref[0] = ref[1] = Evaluate(spec, p, "main", f.main_triples, &cache);
    }
    f.refs.push_back(ref);
    f.parsed.push_back(std::move(p));
  }
  f.delta0_triples = std::move(delta[0]);
  return f;
}

// ---- the served instance ----------------------------------------------------

/// Service, server and the one client connection. Members are destroyed
/// client first, then the server (which drains and joins), then the
/// service.
struct Instance {
  std::unique_ptr<rdfmr::service::QueryService> service;
  std::unique_ptr<rdfmr::service::ServiceServer> server;
  std::optional<rdfmr::service::ServiceClient> client;
  uint64_t warm_answers = 0;

  ~Instance() {
    client.reset();
    if (server) server->Stop();
  }
};

Result<JsonValue> Call(rdfmr::service::ServiceClient& client,
                       const std::string& line) {
  RDFMR_ASSIGN_OR_RETURN(std::string text, client.CallLine(line));
  return rdfmr::ParseJson(text);
}

Status ExpectOk(const Result<JsonValue>& response, const std::string& what) {
  if (!response.ok()) return response.status();
  if (!response->GetBool("ok")) {
    return Status::Unknown(what + ": " + response->GetString("error"));
  }
  return Status::OK();
}

/// One set-up: index build, server start, registration, warm-up.
/// Warm-up answers are checked like timed ones; a mismatch is counted in
/// `*failures`.
Result<std::unique_ptr<Instance>> SetUp(const Fixture& f, uint64_t* failures) {
  RDFMR_RETURN_NOT_OK(rdfmr::storage::WriteRdxFile("main.rdx",
                                                   f.main_triples));
  RDFMR_RETURN_NOT_OK(rdfmr::storage::WriteRdxFile(DeltaRdx(0),
                                                   f.delta0_triples));
  auto inst = std::make_unique<Instance>();
  inst->service = std::make_unique<rdfmr::service::QueryService>(
      MakeServiceConfig());
  std::filesystem::remove(kSocket);
  inst->server = std::make_unique<rdfmr::service::ServiceServer>(
      inst->service.get(), std::string(kSocket));
  RDFMR_RETURN_NOT_OK(inst->server->Start());
  RDFMR_ASSIGN_OR_RETURN(
      rdfmr::service::ServiceClient client,
      rdfmr::service::ServiceClient::ConnectWithRetry(
          std::string("unix:") + kSocket, 20));
  inst->client.emplace(std::move(client));
  RDFMR_RETURN_NOT_OK(ExpectOk(
      Call(*inst->client, LoadLine("main", "main.rdx")), "load main"));
  RDFMR_RETURN_NOT_OK(ExpectOk(
      Call(*inst->client, LoadLine("delta", DeltaRdx(0))), "load delta"));
  for (uint32_t r : f.w.warm) {
    Result<JsonValue> response = Call(*inst->client, f.lines[r]);
    RDFMR_RETURN_NOT_OK(response.status());
    const std::string error = CheckResponse(*response, f.refs[r][0]);
    if (!error.empty()) {
      std::fprintf(stderr, "warm-up %s: %s\n",
                   f.w.requests[r].label.c_str(), error.c_str());
      ++*failures;
    }
    inst->warm_answers += response->GetUint("num_answers");
  }
  return inst;
}

// ---- the timed sequence -----------------------------------------------------

/// Deterministic stats of one executed query, as rendered on the wire.
struct ModeledStats {
  std::string key;  ///< exact rendering of the compared fields
  double modeled_seconds = 0;
  uint64_t hdfs_write_bytes = 0;
  uint64_t shuffle_bytes = 0;
};

ModeledStats ModeledOf(const JsonValue& stats) {
  ModeledStats m;
  JsonValue key = JsonValue::MakeObject();
  for (const char* field : {"modeled_seconds", "hdfs_write_bytes",
                            "shuffle_bytes", "mr_cycles"}) {
    key.Set(field, stats.Get(field));
  }
  m.key = key.Dump();
  m.modeled_seconds = stats.GetDouble("modeled_seconds");
  m.hdfs_write_bytes = stats.GetUint("hdfs_write_bytes");
  m.shuffle_bytes = stats.GetUint("shuffle_bytes");
  return m;
}

/// One executed (result-cache miss) query of the timed sequence.
struct MissSample {
  size_t op = 0;
  uint32_t request = 0;
  uint32_t variant = 0;
  double seconds = 0;
  ModeledStats modeled;
  uint64_t answers = 0;
  uint64_t cycles = 0;
  uint64_t read_bytes = 0;
  uint64_t peak_bytes = 0;
  double map_s = 0, sort_s = 0, reduce_s = 0;
};

struct ReloadSample {
  double seconds = 0;
  double parse_s = 0;
  double rdx_write_s = 0;
};

/// Samples of the timed sequence.
struct Samples {
  std::vector<double> hit_s;
  /// The same hits, split into windows of kHitWindow consecutive hits.
  std::vector<std::vector<double>> hit_windows;
  /// Hits issued right after an executed query.
  std::vector<double> after_miss_hit_s;
  std::vector<MissSample> misses;
  std::vector<ReloadSample> reloads;
  double e2e_s = 0;   ///< sum of operation latencies
  double wall_s = 0;  ///< wall time of the groups these samples come from

  void Append(Samples&& o) {
    auto move_into = [](auto& to, auto& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    move_into(hit_s, o.hit_s);
    move_into(hit_windows, o.hit_windows);
    move_into(after_miss_hit_s, o.after_miss_hit_s);
    move_into(misses, o.misses);
    move_into(reloads, o.reloads);
    e2e_s += o.e2e_s;
    wall_s += o.wall_s;
  }
};

struct RunResult {
  Samples samples;            ///< from the accepted group executions
  std::vector<bool> op_failed;  ///< per op, over every execution
  uint64_t executed = 0;      ///< operations executed, replays included
  uint64_t replayed_groups = 0;
  double replay_s = 0;
  CpuTimes accepted_cpu;      ///< CPU ticks over the accepted groups
  std::vector<double> cpu_probe_s;  ///< CpuProbeSeconds before each group
  size_t spans = 0;           ///< spans kept during the sequence
};

/// Key of a delta-dependent request: delta requests have one reference
/// and one direct execution per content variant.
uint32_t VariantOf(const Fixture& f, uint32_t request, uint32_t variant) {
  return f.w.requests[request].dataset == "delta" ? variant : 0;
}

/// Executes operation `i`, checks its response and adds its sample to
/// `out`. Returns an empty string or the reason the operation failed.
std::string RunOp(const Fixture& f, Instance& inst, SpanLog& log, size_t i,
                  const rdfmr::IriCompactor& compactor, Samples* out) {
  const Op& op = f.w.ops[i];
  if (op.kind == OpKind::kReload) {
    ReloadSample sample;
    const uint32_t span = log.Begin("op.reload", i);
    const uint32_t read = log.Begin("rdf.read_file", i);
    Result<std::string> text = ReadFile(DeltaNt(op.variant));
    log.End(read);
    const uint32_t parse = log.Begin("rdf.parse", i);
    Result<std::vector<rdfmr::Triple>> triples =
        text.ok() ? rdfmr::LoadNTriples(*text, compactor)
                  : Result<std::vector<rdfmr::Triple>>(text.status());
    sample.parse_s = log.End(parse);
    const uint32_t write = log.Begin("storage.rdx_write", i);
    Status written =
        triples.ok()
            ? rdfmr::storage::WriteRdxFile(DeltaRdx(op.variant), *triples)
            : triples.status();
    sample.rdx_write_s = log.End(write);
    const uint32_t load = log.Begin("net.load_call", i);
    Result<JsonValue> response =
        written.ok()
            ? Call(*inst.client, LoadLine("delta", DeltaRdx(op.variant)))
            : Result<JsonValue>(written);
    log.End(load);
    sample.seconds = log.End(span);
    out->e2e_s += sample.seconds;
    out->reloads.push_back(sample);
    Status st = ExpectOk(response, "reload");
    return st.ok() ? "" : st.ToString();
  }
  const bool hit = op.kind == OpKind::kHit;
  const uint32_t span = log.Begin(hit ? "op.hit" : "op.query", i);
  const uint32_t socket = log.Begin("net.socket_call", i);
  Result<std::string> text = inst.client->CallLine(f.lines[op.request]);
  const double seconds = log.End(socket);
  log.End(span);
  out->e2e_s += seconds;
  Result<JsonValue> response =
      text.ok() ? rdfmr::ParseJson(*text) : Result<JsonValue>(text.status());
  if (!response.ok()) return response.status().ToString();
  std::string error = CheckResponse(
      *response, f.refs[op.request][VariantOf(f, op.request, op.variant)]);
  if (error.empty() && response->GetBool("result_cache_hit") != hit) {
    error = hit ? "expected a result-cache hit" : "expected an execution";
  }
  if (hit) {
    const bool after_other = i == 0 || f.w.ops[i - 1].kind != OpKind::kHit;
    if (after_other || out->hit_windows.empty() ||
        out->hit_windows.back().size() == kHitWindow) {
      out->hit_windows.emplace_back();
    }
    out->hit_windows.back().push_back(seconds);
    out->hit_s.push_back(seconds);
    if (i > 0 && f.w.ops[i - 1].kind == OpKind::kQuery) {
      out->after_miss_hit_s.push_back(seconds);
    }
    return error;
  }
  const JsonValue& stats = response->Get("stats");
  MissSample m;
  m.op = i;
  m.request = op.request;
  m.variant = VariantOf(f, op.request, op.variant);
  m.seconds = seconds;
  m.modeled = ModeledOf(stats);
  m.answers = response->GetUint("num_answers");
  m.cycles = stats.GetUint("mr_cycles");
  m.read_bytes = stats.GetUint("hdfs_read_bytes");
  m.peak_bytes = stats.GetUint("peak_dfs_used_bytes");
  m.map_s = stats.GetDouble("map_seconds");
  m.sort_s = stats.GetDouble("shuffle_sort_seconds");
  m.reduce_s = stats.GetDouble("reduce_seconds");
  out->misses.push_back(std::move(m));
  return error;
}

/// Replays the sequence group by group. A group during which the VM's
/// CPU steal share exceeded kMaxGroupSteal is discarded and replayed, as
/// long as the replays so far took under kReplayShare of the nominal run
/// length; its operations are still checked and counted as attempted.
RunResult RunSequence(const Fixture& f, Instance& inst, SpanLog& log,
                      uint32_t seconds) {
  RunResult run;
  run.op_failed.assign(f.w.ops.size(), false);
  const rdfmr::IriCompactor compactor(
      std::vector<std::pair<std::string, std::string>>{
          {rdfmr::service::kIriPrefix, ""}});
  const size_t spans_before = log.size();
  size_t begin = 0;
  while (begin < f.w.ops.size()) {
    size_t end = begin;
    while (end < f.w.ops.size() &&
           f.w.ops[end].group == f.w.ops[begin].group) {
      ++end;
    }
    for (;;) {
      Samples group;
      run.cpu_probe_s.push_back(CpuProbeSeconds());
      const CpuTimes cpu_before = ReadCpuTimes();
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = begin; i < end; ++i) {
        const std::string error = RunOp(f, inst, log, i, compactor, &group);
        if (!error.empty() && !run.op_failed[i]) {
          std::fprintf(stderr, "op %zu (%s): %s\n", i,
                       OpKindName(f.w.ops[i].kind), error.c_str());
          run.op_failed[i] = true;
        }
      }
      group.wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      const CpuTimes cpu_after = ReadCpuTimes();
      run.executed += end - begin;
      if (Disturbed(cpu_before, cpu_after) &&
          run.replay_s < kReplayShare * seconds) {
        ++run.replayed_groups;
        run.replay_s += group.wall_s;
        continue;
      }
      run.accepted_cpu.total += cpu_after.total - cpu_before.total;
      run.accepted_cpu.steal += cpu_after.steal - cpu_before.steal;
      run.samples.Append(std::move(group));
      break;
    }
    begin = end;
  }
  run.spans = log.size() - spans_before;
  return run;
}

// ---- direct execution -------------------------------------------------------

/// A dataset mounted the way the service mounts it, for direct Exec.
struct DirectDataset {
  std::unique_ptr<rdfmr::SimDfs> dfs;
  std::shared_ptr<const rdfmr::GraphStats> stats;
};

Result<DirectDataset> MountDirect(const std::string& rdx_path) {
  RDFMR_ASSIGN_OR_RETURN(
      std::shared_ptr<const rdfmr::storage::RdxReader> reader,
      rdfmr::storage::RdxReader::Open(rdx_path));
  DirectDataset d;
  d.dfs = std::make_unique<rdfmr::SimDfs>(MakeServiceConfig().cluster);
  RDFMR_RETURN_NOT_OK(d.dfs->MountMapped(
      rdfmr::service::DatasetHandle::kBasePath,
      std::make_shared<const rdfmr::storage::MappedDataset>(reader)));
  d.stats = std::make_shared<const rdfmr::GraphStats>(
      reader->DecodeGraphStats());
  return d;
}

rdfmr::ExecRequest MakeExecRequest(const ParsedRequest& p,
                                   const DirectDataset& d) {
  rdfmr::ExecRequest request;
  request.query = p.query;
  request.aggregate = p.aggregate;
  request.stats = d.stats;
  return request;
}

/// Probe timings of one executed (request, variant) combination.
struct PairProbe {
  ModeledStats direct;   ///< from Exec with the service's options
  double exec_s = 0;     ///< Exec, decode on
  double nodecode_s = 0; ///< Exec, decode off (trace mode)
  double phases_s = 0;   ///< MR phase seconds of the decode-off run
  double query_s = 0;    ///< QueryService::Query miss (trace mode)
};

using PairKey = std::pair<uint32_t, uint32_t>;  // (request, variant)

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  JsonValue m = JsonValue::MakeObject();
  for (const Metric& metric : metrics) {
    JsonValue v = JsonValue::MakeObject();
    v.Set("value", metric.value);
    v.Set("unit", metric.unit);
    m.Set(metric.name, std::move(v));
  }
  JsonValue o = JsonValue::MakeObject();
  o.Set("correct", correct);
  o.Set("attempted", attempted);
  o.Set("failed", failed);
  o.Set("metrics", std::move(m));
  return o.Dump();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

template <typename T, typename F>
std::vector<double> Map(const std::vector<T>& items, F f) {
  std::vector<double> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(f(item));
  return out;
}

/// Cost of keeping one span, measured: Begin/End pairs on a keeping log
/// minus the same on a non-keeping one, alternated, medians compared. It
/// is within timer noise of zero, so it may come out slightly negative.
double SpanCostSeconds() {
  constexpr int kSpans = 100000;
  auto time = [](bool enabled) {
    SpanLog log(enabled);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpans; ++i) log.End(log.Begin("calibrate", i));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> kept, dropped;
  for (int trial = 0; trial < 7; ++trial) {
    dropped.push_back(time(false));
    kept.push_back(time(true));
  }
  return (Median(kept) - Median(dropped)) / kSpans;
}

// ---- main -------------------------------------------------------------------

int Run(const Args& args) {
  ::unsetenv("RDFMR_THREADS");
  ::unsetenv("RDFMR_MAX_ATTEMPTS");
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec || ::chdir(args.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot use work dir %s\n", args.work_dir.c_str());
    return 2;
  }

  const auto program_start = std::chrono::steady_clock::now();
  auto phase = [&](const char* done) {
    std::fprintf(stderr, "[svcbench %s] %s at %.1f s\n",
                 args.workload.c_str(), done,
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - program_start)
                     .count());
  };
  Result<Fixture> fixture = BuildFixture(args);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture: %s\n",
                 fixture.status().ToString().c_str());
    return 2;
  }
  Fixture& f = *fixture;
  phase("fixture");
  SpanLog log(args.trace);

  uint64_t failed = 0;
  uint64_t attempted = 0;
  // Set-ups during which the VM lost CPU to steal are redone, like the
  // groups of the timed sequence, within kSetupRedoSeconds.
  std::vector<double> setup_s;
  double setup_kept_s = 0;
  uint64_t setup_redos = 0;
  double setup_redo_s = 0;
  std::unique_ptr<Instance> inst;
  while (setup_s.size() < kSetupRepeats || setup_kept_s < kSetupSeconds) {
    inst.reset();
    const CpuTimes cpu_before = ReadCpuTimes();
    const uint32_t span = log.Begin("setup", 0);
    Result<std::unique_ptr<Instance>> made = SetUp(f, &failed);
    const double seconds = log.End(span);
    const CpuTimes cpu_after = ReadCpuTimes();
    if (!made.ok()) {
      std::fprintf(stderr, "set-up: %s\n", made.status().ToString().c_str());
      return 2;
    }
    inst = std::move(*made);
    attempted += f.w.warm.size();
    if (Disturbed(cpu_before, cpu_after) &&
        setup_redo_s < kSetupRedoSeconds) {
      ++setup_redos;
      setup_redo_s += seconds;
      continue;
    }
    setup_s.push_back(seconds);
    setup_kept_s += seconds;
  }
  // Setup-time facts of the kept instance (the cache holds exactly the
  // warm set here).
  const rdfmr::service::ServiceStatsSnapshot warm_stats =
      inst->service->Stats();
  f.main_triples = {};
  f.main_triples.shrink_to_fit();

  phase("set-up");
  const CpuTimes cpu_before = ReadCpuTimes();
  const bool peak_reset = ResetPeakRss();
  RunResult run = RunSequence(f, *inst, log, args.seconds);
  const Samples& samples = run.samples;
  const double rss_mb = PeakRssMb();
  const CpuTimes cpu_after = ReadCpuTimes();
  const rdfmr::service::ServiceStatsSnapshot run_stats = inst->service->Stats();
  attempted += run.executed;
  phase("timed sequence");

  // Cross-check, and the per-combination probes of the traced run.
  std::map<PairKey, PairProbe> pairs;
  for (const MissSample& m : samples.misses) pairs[{m.request, m.variant}];
  std::map<std::string, DirectDataset> mounted;
  std::vector<double> choose_s, compile_s, parse_s;
  bool direct_ok = true;
  for (auto& [key, probe] : pairs) {
    const RequestSpec& spec = f.w.requests[key.first];
    const ParsedRequest& p = f.parsed[key.first];
    const std::string path =
        spec.dataset == "delta" ? DeltaRdx(key.second) : "main.rdx";
    if (!mounted.count(path)) {
      Result<DirectDataset> d = MountDirect(path);
      if (!d.ok()) {
        std::fprintf(stderr, "mount %s: %s\n", path.c_str(),
                     d.status().ToString().c_str());
        direct_ok = false;
        continue;
      }
      mounted.emplace(path, std::move(*d));
    }
    DirectDataset& d = mounted.at(path);
    const rdfmr::ExecRequest request = MakeExecRequest(p, d);
    rdfmr::EngineOptions options;
    options.kind = p.kind;
    uint32_t span = log.Begin("engine.exec", 0);
    Result<rdfmr::ExecResult> exec = rdfmr::Exec(
        d.dfs.get(), rdfmr::service::DatasetHandle::kBasePath, request,
        options);
    probe.exec_s = log.End(span);
    if (!exec.ok()) {
      std::fprintf(stderr, "direct Exec %s: %s\n", spec.label.c_str(),
                   exec.status().ToString().c_str());
      direct_ok = false;
      continue;
    }
    probe.direct = ModeledOf(rdfmr::service::ExecStatsToJson(exec->stats));
    if (!args.trace) continue;

    // Layer probes: Exec with and without decode, and the service's own
    // execution bypassing its result cache (delta requests against the
    // variant they name), interleaved and repeated; medians kept.
    if (spec.dataset == "delta") {
      Call(*inst->client, LoadLine("delta", DeltaRdx(key.second)));
    }
    std::vector<double> exec_s = {probe.exec_s}, nodecode_s, phases_s,
                        query_s;
    const rdfmr::service::ServiceRequest sreq =
        InProcessRequest(spec, p, /*use_result_cache=*/false);
    for (int r = 0; r < kExecProbeRepeats; ++r) {
      if (r > 0) {
        span = log.Begin("engine.exec", 0);
        rdfmr::Exec(d.dfs.get(), rdfmr::service::DatasetHandle::kBasePath,
                    request, options);
        exec_s.push_back(log.End(span));
      }
      rdfmr::EngineOptions nodecode_options = options;
      nodecode_options.decode_answers = false;
      span = log.Begin("engine.exec_nodecode", 0);
      Result<rdfmr::ExecResult> nodecode = rdfmr::Exec(
          d.dfs.get(), rdfmr::service::DatasetHandle::kBasePath, request,
          nodecode_options);
      nodecode_s.push_back(log.End(span));
      if (nodecode.ok()) {
        phases_s.push_back(nodecode->stats.map_seconds +
                           nodecode->stats.shuffle_sort_seconds +
                           nodecode->stats.reduce_seconds);
      }
      span = log.Begin("service.query_miss", 0);
      inst->service->Query(sreq);
      query_s.push_back(log.End(span));
    }
    probe.exec_s = Median(exec_s);
    probe.nodecode_s = Median(nodecode_s);
    probe.phases_s = Median(phases_s);
    probe.query_s = Median(query_s);

    const Result<uint64_t> base_size =
        d.dfs->FileSize(rdfmr::service::DatasetHandle::kBasePath);
    const uint64_t base_bytes = base_size.ok() ? *base_size : 0;
    rdfmr::EngineOptions concrete = options;
    for (int r = 0; r < kMicroProbeRepeats; ++r) {
      span = log.Begin("engine.choose", 0);
      Result<rdfmr::PlanChoice> choice =
          rdfmr::ChoosePlan(request, *d.stats, base_bytes,
                            d.dfs->UsedBytes(), d.dfs->config(), options);
      choose_s.push_back(log.End(span));
      if (choice.ok()) concrete.kind = choice->kind;
      span = log.Begin("engine.compile", 0);
      rdfmr::CompileQueryPlanTemplate(
          p.query, rdfmr::service::DatasetHandle::kBasePath, p.aggregate,
          concrete);
      compile_s.push_back(log.End(span));
      span = log.Begin("query.parse", 0);
      rdfmr::ParseSparqlQuery(spec.label, spec.sparql);
      parse_s.push_back(log.End(span));
    }
  }
  mounted.clear();
  phase("cross-check");
  for (const MissSample& m : samples.misses) {
    const PairProbe& probe = pairs.at({m.request, m.variant});
    if (probe.direct.key != m.modeled.key) {
      std::fprintf(stderr, "cross-check %s: socket %s, direct %s\n",
                   f.w.requests[m.request].label.c_str(), m.modeled.key.c_str(),
                   probe.direct.key.c_str());
      run.op_failed[m.op] = true;
    }
  }
  for (bool op_failed : run.op_failed) failed += op_failed;

  // ---- end-to-end metrics ----
  std::vector<double> query_ms = Map(samples.misses, [](const MissSample& m) {
    return m.seconds * 1e3;
  });
  std::vector<std::vector<double>> hit_ms;
  for (const std::vector<double>& window : samples.hit_windows) {
    hit_ms.push_back(Map(window, [](double s) { return s * 1e3; }));
  }
  std::vector<double> reload_ms =
      Map(samples.reloads, [](const ReloadSample& r) {
        return r.seconds * 1e3;
      });
  const std::optional<double> query_p50 = Percentile(query_ms, 0.5);
  const std::optional<double> hit_p50 = WindowedPercentile(hit_ms, 0.5);
  const std::optional<double> hit_p90 = WindowedPercentile(hit_ms, 0.9);
  const std::optional<double> reload_p50 = Percentile(reload_ms, 0.5);
  if (!query_p50 || !hit_p50 || !hit_p90 || !reload_p50) {
    std::fprintf(stderr,
                 "too few samples for a percentile: %zu queries, %zu hits, "
                 "%zu reloads\n",
                 query_ms.size(), samples.hit_s.size(), reload_ms.size());
    return 2;
  }
  double modeled_s = 0, write_mb = 0, shuffle_mb = 0;
  for (const MissSample& m : samples.misses) {
    modeled_s += m.modeled.modeled_seconds;
    write_mb += m.modeled.hdfs_write_bytes / kMiB;
    shuffle_mb += m.modeled.shuffle_bytes / kMiB;
  }
  const double steal_share =
      cpu_after.total > cpu_before.total
          ? static_cast<double>(cpu_after.steal - cpu_before.steal) /
                (cpu_after.total - cpu_before.total)
          : 0.0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"qps", f.w.ops.size() / samples.wall_s, "1/s"},
        {"query_p50_ms", *query_p50, "ms"},
        {"hit_p50_ms", *hit_p50, "ms"},
        {"hit_p90_ms", *hit_p90, "ms"},
        {"reload_p50_ms", *reload_p50, "ms"},
        {"rss_mb", rss_mb, "MB"},
        {"modeled_s", modeled_s, "s"},
        {"dfs_write_mb", write_mb, "MB"},
        {"shuffle_mb", shuffle_mb, "MB"},
    };
  } else {
    // ---- per-layer probes ----
    std::mt19937_64 rng(args.seed);
    std::vector<double> ping_s, socket_s, handle_s, query_hit_s;
    const std::string ping_line = R"({"verb":"ping"})";
    for (int r = 0; r < kHitProbeRounds; ++r) {
      const uint32_t req = f.w.warm[rng() % f.w.warm.size()];
      const ParsedRequest& p = f.parsed[req];
      const uint64_t id = f.w.ops.size() + r;
      uint32_t span = log.Begin("net.ping", id);
      inst->client->CallLine(ping_line);
      ping_s.push_back(log.End(span));
      span = log.Begin("net.socket_call", id);
      inst->client->CallLine(f.lines[req]);
      socket_s.push_back(log.End(span));
      span = log.Begin("service.handle_line", id);
      rdfmr::service::HandleRequestLine(inst->service.get(), f.lines[req]);
      handle_s.push_back(log.End(span));
      span = log.Begin("service.query_hit", id);
      const rdfmr::service::ServiceResponse response = inst->service->Query(
          InProcessRequest(f.w.requests[req], p, /*use_result_cache=*/true));
      query_hit_s.push_back(log.End(span));
      if (!response.result_cache_hit) {
        std::fprintf(stderr, "hit probe missed the cache\n");
      }
    }
    std::vector<double> stats_s, open_s, register_s;
    Result<std::vector<rdfmr::Triple>> delta_triples =
        rdfmr::service::ReadDatasetFile(DeltaNt(0));
    if (!delta_triples.ok()) {
      std::fprintf(stderr, "%s\n", delta_triples.status().ToString().c_str());
      return 2;
    }
    for (int r = 0; r < kReloadProbeRepeats; ++r) {
      uint32_t span = log.Begin("rdf.stats", 0);
      rdfmr::GraphStats::Compute(*delta_triples);
      stats_s.push_back(log.End(span));
      span = log.Begin("storage.rdx_open", 0);
      rdfmr::storage::RdxReader::Open(DeltaRdx(0));
      open_s.push_back(log.End(span));
      span = log.Begin("service.register", 0);
      inst->service->RegisterMappedDataset("probe", DeltaRdx(0));
      register_s.push_back(log.End(span));
      inst->service->DropDataset("probe");
    }

    const double transport = Median(socket_s) - Median(handle_s);
    const double protocol = Median(handle_s) - Median(query_hit_s);
    const double hit = Median(query_hit_s);
    const double net_service = transport + protocol;
    // Per executed query, layer times of its combination's probes.
    std::vector<double> miss_overhead, decode, glue;
    double attributed = 0;
    for (const MissSample& m : samples.misses) {
      const PairProbe& probe = pairs.at({m.request, m.variant});
      miss_overhead.push_back(probe.query_s - probe.exec_s);
      decode.push_back(probe.exec_s - probe.nodecode_s);
      glue.push_back(probe.nodecode_s - probe.phases_s);
      attributed += probe.query_s + net_service;
    }
    attributed += samples.hit_s.size() * (net_service + hit);
    for (const ReloadSample& r : samples.reloads) {
      attributed += r.parse_s + r.rdx_write_s + Median(register_s) +
                    net_service;
    }
    auto per_query = [&](auto field) {
      return Mean(Map(samples.misses, field));
    };
    uint64_t peak = 0;
    for (const MissSample& m : samples.misses) {
      peak = std::max(peak, m.peak_bytes);
    }
    const uint64_t lookups = run_stats.result_cache_lookups;
    metrics = {
        {"net.ping_us", Median(ping_s) * 1e6, "us"},
        {"net.transport_us", transport * 1e6, "us"},
        {"service.protocol_us", protocol * 1e6, "us"},
        {"service.hit_us", hit * 1e6, "us"},
        {"service.miss_overhead_ms", Mean(miss_overhead) * 1e3, "ms"},
        {"service.cache_hit_ratio",
         lookups ? static_cast<double>(run_stats.result_cache_hits) / lookups
                 : 0.0,
         "ratio"},
        {"service.cache_bytes_per_answer",
         inst->warm_answers
             ? static_cast<double>(warm_stats.result_cache_bytes) /
                   inst->warm_answers
             : 0.0,
         "B"},
        {"service.register_ms", Median(register_s) * 1e3, "ms"},
        {"service.after_miss_hit_ms", Median(samples.after_miss_hit_s) * 1e3,
         "ms"},
        {"engine.choose_us", Median(choose_s) * 1e6, "us"},
        {"engine.compile_us", Median(compile_s) * 1e6, "us"},
        {"engine.decode_ms", Mean(decode) * 1e3, "ms"},
        {"engine.glue_ms", Mean(glue) * 1e3, "ms"},
        {"mapreduce.map_ms",
         per_query([](const MissSample& m) { return m.map_s * 1e3; }), "ms"},
        {"mapreduce.sort_ms",
         per_query([](const MissSample& m) { return m.sort_s * 1e3; }), "ms"},
        {"mapreduce.reduce_ms",
         per_query([](const MissSample& m) { return m.reduce_s * 1e3; }),
         "ms"},
        {"mapreduce.cycles",
         per_query([](const MissSample& m) { return double(m.cycles); }),
         "count"},
        {"mapreduce.shuffle_mb",
         per_query([](const MissSample& m) {
           return m.modeled.shuffle_bytes / kMiB;
         }),
         "MB"},
        {"dfs.read_mb",
         per_query([](const MissSample& m) { return m.read_bytes / kMiB; }),
         "MB"},
        {"dfs.write_mb",
         per_query([](const MissSample& m) {
           return m.modeled.hdfs_write_bytes / kMiB;
         }),
         "MB"},
        {"dfs.peak_mb", peak / kMiB, "MB"},
        {"query.parse_us", Median(parse_s) * 1e6, "us"},
        {"query.answers",
         per_query([](const MissSample& m) { return double(m.answers); }),
         "count"},
        {"rdf.parse_ms",
         Median(Map(samples.reloads, [](const ReloadSample& r) {
           return r.parse_s;
         })) * 1e3,
         "ms"},
        {"rdf.stats_ms", Median(stats_s) * 1e3, "ms"},
        {"storage.rdx_write_ms",
         Median(Map(samples.reloads, [](const ReloadSample& r) {
           return r.rdx_write_s;
         })) * 1e3,
         "ms"},
        {"storage.rdx_open_ms", Median(open_s) * 1e3, "ms"},
        {"unattributed_frac", 1.0 - attributed / samples.e2e_s, "ratio"},
        {"trace.overhead_frac", SpanCostSeconds() * run.spans /
                                    (samples.wall_s + run.replay_s),
         "ratio"},
    };
    const std::string stem =
        "trace-" + args.workload + "-" + std::to_string(args.seed);
    Status written = log.WriteChromeTrace(stem + ".json");
    std::ofstream table(stem + ".selftime.txt");
    table << log.SelfTimeTable();
    std::fprintf(stderr, "trace: %s/%s.json, self time: %s/%s.selftime.txt\n",
                 args.work_dir.c_str(), stem.c_str(), args.work_dir.c_str(),
                 stem.c_str());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    }
  }

  // Host and configuration stamp, on the line before the result.
  JsonValue stamp = JsonValue::MakeObject();
  stamp.Set("workload", args.workload);
  stamp.Set("seed", args.seed);
  stamp.Set("seconds", static_cast<uint64_t>(args.seconds));
  stamp.Set("trace", args.trace);
  stamp.Set("nproc",
            static_cast<uint64_t>(std::thread::hardware_concurrency()));
  stamp.Set("compiler", __VERSION__);
  stamp.Set("build_type", SVCBENCH_BUILD_TYPE);
  stamp.Set("git_sha", args.git_sha);
  stamp.Set("main_dataset", f.w.main.family + " scale " +
                                std::to_string(f.w.main.scale));
  stamp.Set("delta_dataset", f.w.delta[0].family + " scale " +
                                 std::to_string(f.w.delta[0].scale));
  stamp.Set("max_concurrent", static_cast<uint64_t>(kMaxConcurrent));
  stamp.Set("engine_threads", static_cast<uint64_t>(kEngineThreads));
  stamp.Set("clients", static_cast<uint64_t>(1));
  stamp.Set("warm_cache_bytes", warm_stats.result_cache_bytes);
  stamp.Set("ops", static_cast<uint64_t>(f.w.ops.size()));
  stamp.Set("queries", static_cast<uint64_t>(samples.misses.size()));
  stamp.Set("hits", static_cast<uint64_t>(samples.hit_s.size()));
  stamp.Set("reloads", static_cast<uint64_t>(samples.reloads.size()));
  stamp.Set("timed_wall_s", samples.wall_s);
  stamp.Set("cpu_steal_share", steal_share);
  stamp.Set("accepted_steal_share",
            run.accepted_cpu.total
                ? static_cast<double>(run.accepted_cpu.steal) /
                      run.accepted_cpu.total
                : 0.0);
  stamp.Set("replayed_groups", run.replayed_groups);
  stamp.Set("replay_s", run.replay_s);
  stamp.Set("cpu_probe_ms", Median(run.cpu_probe_s) * 1e3);
  stamp.Set("setups", static_cast<uint64_t>(setup_s.size()));
  stamp.Set("setup_redos", setup_redos);
  stamp.Set("setup_redo_s", setup_redo_s);
  stamp.Set("peak_rss_reset", peak_reset);
  JsonValue stamp_line = JsonValue::MakeObject();
  stamp_line.Set("stamp", std::move(stamp));
  std::printf("%s\n", stamp_line.Dump().c_str());

  const bool correct = failed == 0 && direct_ok;
  std::printf("%s\n",
              ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  rdfmr::Result<svcbench::Args> args = svcbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  return svcbench::Run(*args);
}
