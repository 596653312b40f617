// loombench — the repository benchmark.
//
//   loombench run --workload NAME --seed N --seconds S --trace 0|1
//                 --serve-bin PATH [--git-rev REV] [--trace-dir DIR]
//
// Generates the workload's dataset from the seed, writes it as a LOOMES
// stream plus a .lw workload into the current directory, runs it through
// the public entry points for about S seconds, checks the outputs, and
// prints a metadata JSON line followed by the result line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 only when every output check passed. loombench/run.py builds
// this binary and loom_serve from the repository sources and calls it.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "datasets/dataset_registry.h"
#include "datasets/dblp_generator.h"
#include "datasets/lubm_generator.h"
#include "datasets/musicbrainz_generator.h"
#include "engine/edge_source.h"
#include "graph/graph_algos.h"
#include "io/edge_stream_io.h"
#include "partition/partition_metrics.h"
#include "query/workload_io.h"
#include "query/workload_runner.h"
#include "serve_load.h"
#include "stats.h"
#include "util/simd.h"

#ifndef LOOMBENCH_BUILD_TYPE
#define LOOMBENCH_BUILD_TYPE "unknown"
#endif

namespace loombench {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

double ProcStatusMb(int pid, const char* field) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  const std::string key = std::string(field) + ":";
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no " + key + " in " + path);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double Fastest(const std::vector<double>& pass_s) {
  return pass_s.empty() ? 0.0
                        : *std::min_element(pass_s.begin(), pass_s.end());
}

void AddIngestRate(double edges, const std::vector<double>& pass_s,
                   RunResult* r) {
  r->Add("ingest_eps", "edges/s", edges / Fastest(pass_s));
  r->Meta("ingest_eps_median", JsonNumber(edges / Median(pass_s)));
  r->Meta("timed_passes", JsonNumber(static_cast<double>(pass_s.size())));
}

namespace {

using loom::datasets::DatasetId;
using loom::stream::StreamOrder;

constexpr char kStreamFile[] = "stream.les";
constexpr char kWorkloadFile[] = "workload.lw";
constexpr char kAssignFile[] = "assign.bin";

struct WorkloadSpec {
  const char* name;
  DatasetId dataset;
  double scale;
  StreamOrder order;
  bool served;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"mb-bfs-loom", DatasetId::kMusicBrainz, 4.0, StreamOrder::kBreadthFirst,
     false},
    {"lubm-random-loom", DatasetId::kLubm4000, 4.0, StreamOrder::kRandom,
     false},
    {"serve-dblp-mixed", DatasetId::kDblp, 4.0, StreamOrder::kBreadthFirst,
     true},
};

struct MetricDecl {
  const char* name;
  const char* unit;
};

// The metric sets the result line carries; BENCHMARK.json lists the same.
constexpr MetricDecl kEndToEnd[] = {
    {"ingest_eps", "edges/s"}, {"ipt_ratio", "fraction"},
    {"edge_cut_ratio", "fraction"}, {"mem_peak_mb", "MiB"},
    {"setup_s", "s"}, {"ok_ratio", "fraction"},
};

// Layers a workload does not run (serve.* offline) report 0.
constexpr MetricDecl kPerLayer[] = {
    {"io.decode_s", "s"},
    {"io.decode_ns_per_edge", "ns"},
    {"io.read_mb", "MiB"},
    {"engine.pass_s", "s"},
    {"engine.ingest_s", "s"},
    {"engine.batch_us_p50", "us"},
    {"engine.batch_us_p99", "us"},
    {"engine.batch_samples", "count"},
    {"engine.finalize_s", "s"},
    {"engine.sink_s", "s"},
    {"engine.self_s", "s"},
    {"stream.bypass_ratio", "fraction"},
    {"stream.window_peak", "edges"},
    {"motif.admitted", "edges"},
    {"motif.extension_matches", "count"},
    {"motif.join_attempts", "count"},
    {"motif.join_yield", "fraction"},
    {"motif.pool_reuse_ratio", "fraction"},
    {"core.cluster_decisions", "count"},
    {"core.fallback_ratio", "fraction"},
    {"core.cluster_edges", "edges"},
    {"partition.vertices_assigned", "count"},
    {"partition.imbalance", "fraction"},
    {"serve.ingest_ack_us_p50", "us"},
    {"serve.ingest_ack_us_p99", "us"},
    {"serve.ingest_ack_samples", "count"},
    {"serve.finalize_s", "s"},
    {"serve.queue_p50", "edges"},
    {"serve.queue_max", "edges"},
    {"serve.get_unassigned_ratio", "fraction"},
    {"serve.gen_late_us_p99", "us"},
    {"serve.ingests", "count"},
    {"serve.gets", "count"},
    {"serve.get_us_p50", "us"},
    {"serve.get_us_p99", "us"},
    {"serve.get_samples", "count"},
    {"trace.overhead_ratio", "fraction"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;
  std::string git_rev = "unknown";
  std::string trace_dir;
  std::string self_exe;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  a.self_exe = argv[0];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--serve-bin") a.serve_bin = value;
    else if (flag == "--git-rev") a.git_rev = value;
    else if (flag == "--trace-dir") a.trace_dir = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

/// MakeDataset at `scale`, with the generator's RNG seed offset by `seed`
/// (seed 0 reproduces MakeDataset exactly), normalised the same way.
loom::datasets::Dataset MakeSeededDataset(DatasetId id, double scale,
                                          uint64_t seed) {
  loom::datasets::Dataset ds;
  auto scaled = [scale](size_t base) {
    return static_cast<size_t>(std::llround(static_cast<double>(base) * scale));
  };
  switch (id) {
    case DatasetId::kMusicBrainz: {
      loom::datasets::MusicBrainzConfig cfg;
      cfg.num_albums = scaled(cfg.num_albums);
      cfg.seed += seed;
      ds = loom::datasets::GenerateMusicBrainz(cfg);
      break;
    }
    case DatasetId::kDblp: {
      loom::datasets::DblpConfig cfg;
      cfg.num_papers = scaled(cfg.num_papers);
      cfg.seed += seed;
      ds = loom::datasets::GenerateDblp(cfg);
      break;
    }
    case DatasetId::kLubm4000: {
      loom::datasets::LubmConfig cfg;  // the registry's LUBM-4000 settings
      cfg.universities = scaled(400);
      cfg.seed = 0x40BA + seed;
      cfg.name = "lubm-4000";
      ds = loom::datasets::GenerateLubm(cfg);
      break;
    }
    default:
      throw std::runtime_error("no seeded generator for this dataset");
  }
  ds.workload = loom::datasets::WorkloadFor(id, &ds.registry);
  ds.graph = loom::graph::DropIsolatedVertices(ds.graph);
  return ds;
}

/// Generates the dataset and writes its LOOMES stream and .lw workload;
/// returns the time taken.
double GenerateInputs(const WorkloadSpec& w, uint64_t seed,
                      loom::datasets::Dataset* ds) {
  const int64_t begin = NowNs();
  *ds = MakeSeededDataset(w.dataset, w.scale, seed);
  std::unique_ptr<loom::engine::EdgeSource> source =
      loom::engine::MakeEdgeSource(*ds, w.order, 0x10c5 + seed);
  loom::io::WriteEdgeStream(kStreamFile, ds->registry, ds->NumVertices(),
                            source.get());
  loom::query::WriteWorkloadFile(ds->workload, ds->registry, kWorkloadFile);
  return (NowNs() - begin) / 1e9;
}

/// The offline child's final assignment as a Partitioning (for ipt and
/// edge cut over the generated graph).
loom::partition::Partitioning ToPartitioning(
    const std::vector<loom::graph::PartitionId>& slots, RunResult* r) {
  loom::partition::Partitioning p(kPartitions, slots.size());
  for (size_t v = 0; v < slots.size(); ++v) {
    if (slots[v] == loom::graph::kNoPartition) continue;
    if (p.Assign(static_cast<loom::graph::VertexId>(v), slots[v]) != slots[v]) {
      r->Fail("assignment of vertex " + std::to_string(v) +
              " exceeds partition capacity");
      break;
    }
  }
  return p;
}

void RunWorkload(const WorkloadSpec& w, const Args& args, RunResult* r) {
  loom::datasets::Dataset ds;
  const double generate_s = GenerateInputs(w, args.seed, &ds);
  std::ifstream stream_file(kStreamFile, std::ios::binary | std::ios::ate);
  r->Meta("edges", JsonNumber(static_cast<double>(ds.NumEdges())));
  r->Meta("vertices", JsonNumber(static_cast<double>(ds.NumVertices())));
  r->Meta("file_bytes", JsonNumber(static_cast<double>(stream_file.tellg())));
  r->Meta("generate_s", JsonNumber(generate_s));

  IngestChildConfig child;
  child.self_exe = args.self_exe;
  child.stream_path = kStreamFile;
  child.workload_path = kWorkloadFile;
  child.assign_path = kAssignFile;
  child.trace = args.trace;
  if (args.trace && !args.trace_dir.empty()) {
    child.spans_path = args.trace_dir + "/" + w.name + "-seed" +
                       std::to_string(args.seed) + ".tsv";
  }
  if (w.served) {
    // One offline replay (two when tracing: untraced, then traced) is the
    // reference the server must reproduce.
    child.min_passes = child.max_passes = args.trace ? 2 : 1;
  } else {
    child.seconds = args.seconds;
    child.min_passes = args.trace ? 4 : 3;
    child.max_passes = 100000;
  }
  const IngestChildResult offline = RunIngestChild(child);
  for (const std::string& f : offline.failures) r->Fail("offline:" + f);
  for (const auto& [key, value] : offline.meta) r->Meta(key, value);
  const uint64_t hash = offline.passes.front().hash;
  for (const IngestChildResult::Pass& p : offline.passes) {
    if (p.hash != hash) {
      r->Fail("assignment hash differs between passes: " + Hex(hash) +
              " vs " + Hex(p.hash));
    }
  }
  if (offline.vertices != ds.NumVertices() || offline.edges != ds.NumEdges()) {
    r->Fail("stream header disagrees with the generated graph");
  }
  r->Meta("assignment_hash", JsonString(Hex(hash)));
  r->Meta("offline_passes",
          JsonNumber(static_cast<double>(offline.passes.size())));

  std::vector<double> build_s, untraced_s, traced_s;
  for (const IngestChildResult::Pass& p : offline.passes) {
    build_s.push_back(p.build_s);
    (p.traced ? traced_s : untraced_s).push_back(p.ingest_s);
  }
  // Every declared edge of every pass is an attempt; an edge a pass did not
  // ingest is a failure.
  for (const IngestChildResult::Pass& p : offline.passes) {
    r->attempted += offline.edges;
    r->failed += offline.edges - std::min(p.edges, offline.edges);
  }

  // Quality over the generated graph, outside every timed window.
  const loom::partition::Partitioning p =
      ToPartitioning(offline.assignment, r);
  const uint64_t cut = loom::partition::EdgeCut(ds.graph, p);
  const loom::query::ExecutorConfig executor{.max_seeds = 4000,
                                             .max_matches_per_seed = 256};
  const double ipt =
      loom::query::RunWorkload(ds.graph, p, ds.workload, executor).IptRatio();

  double setup_s = 0.0;
  if (w.served) {
    ServeConfig sc;
    sc.serve_bin = args.serve_bin;
    sc.stream_path = kStreamFile;
    sc.workload_path = kWorkloadFile;
    sc.seconds = args.seconds;
    sc.trace = args.trace;
    sc.seed = args.seed;
    sc.replay_assignment = &offline.assignment;
    sc.replay_hash = hash;
    sc.replay_cut = cut;
    setup_s = RunServeWorkload(sc, r);
  } else {
    setup_s = Median(build_s);
    AddIngestRate(static_cast<double>(ds.NumEdges()), untraced_s, r);
    r->Add("mem_peak_mb", "MiB", offline.mem_growth_mb);
  }
  if (args.trace) {
    for (const Metric& m : offline.layers) r->Add(m.name, m.unit, m.value);
    if (!w.served) {
      r->Add("trace.overhead_ratio", "fraction",
             Fastest(untraced_s) / Fastest(traced_s) - 1.0);
    }
  }
  r->Add("ipt_ratio", "fraction", ipt);
  r->Add("edge_cut_ratio", "fraction",
         static_cast<double>(cut) / static_cast<double>(ds.NumEdges()));
  r->Add("setup_s", "s", setup_s);
  r->Meta("edge_cut", JsonNumber(static_cast<double>(cut)));
  r->Meta("error_rate",
          JsonNumber(static_cast<double>(r->failed) / r->attempted));
  r->Add("ok_ratio", "fraction",
         static_cast<double>(r->attempted - r->failed) / r->attempted);
}

/// The result line: exactly the declared metric set, in declaration order.
/// Only the serve.* layers of an offline workload may be absent (reported
/// as 0); any other missing metric is a bug.
std::string ResultLine(RunResult* r, bool trace, bool served) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : r->metrics) by_name[m.name] = &m;
  std::string metrics;
  auto emit = [&](const MetricDecl* begin, const MetricDecl* end) {
    for (const MetricDecl* d = begin; d != end; ++d) {
      const auto it = by_name.find(d->name);
      double value = 0.0;
      if (it != by_name.end()) {
        value = it->second->value;
      } else if (served || std::strncmp(d->name, "serve.", 6) != 0) {
        throw std::runtime_error(std::string("metric not measured: ") +
                                 d->name);
      }
      if (!std::isfinite(value)) {
        r->Fail(std::string("metric ") + d->name + " is not finite");
        value = 0.0;
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += JsonString(d->name) + ": {\"value\": " + JsonNumber(value) +
                 ", \"unit\": " + JsonString(d->unit) + "}";
    }
  };
  if (trace) {
    emit(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    emit(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  return std::string("{\"correct\": ") + (r->correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r->attempted) +
         ", \"failed\": " + std::to_string(r->failed) + ", \"metrics\": {" +
         metrics + "}}";
}

int RunMain(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'; known:";
    for (const WorkloadSpec& w : kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << "\n";
    return 2;
  }
  if (spec->served && args.serve_bin.empty()) {
    std::cerr << "--serve-bin is required for " << spec->name << "\n";
    return 2;
  }

  RunResult r;
  r.Meta("workload", JsonString(spec->name));
  r.Meta("seed", JsonNumber(static_cast<double>(args.seed)));
  r.Meta("seconds", JsonNumber(args.seconds));
  r.Meta("trace", args.trace ? "true" : "false");
  r.Meta("nproc",
         JsonNumber(static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN))));
  r.Meta("build_type", JsonString(LOOMBENCH_BUILD_TYPE));
  r.Meta("git_rev", JsonString(args.git_rev));
  r.Meta("simd", JsonString(loom::util::simd::LevelName(
                     loom::util::simd::ActiveLevel())));
  RunWorkload(*spec, args, &r);
  const std::string result = ResultLine(&r, args.trace, spec->served);

  for (const Metric& m : r.metrics) {
    std::cerr << "  " << m.name << " = " << JsonNumber(m.value) << ' '
              << m.unit << "\n";
  }
  for (const std::string& f : r.failures) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }
  std::string meta;
  for (const auto& [key, value] : r.meta) {
    meta += (meta.empty() ? "" : ", ") + JsonString(key) + ": " + value;
  }
  std::cout << "{\"meta\": {" << meta << "}}\n" << result << std::endl;
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace loombench

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "ingest") == 0) {
      return loombench::IngestChildMain(argc, argv);
    }
    if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
      return loombench::RunMain(argc, argv);
    }
    std::cerr << "usage: loombench run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH [--git-rev REV] "
                 "[--trace-dir DIR]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "loombench: " << e.what() << "\n";
    return 1;
  }
}
