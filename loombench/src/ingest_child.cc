// Offline ingest passes: LOOMES file -> io::FileEdgeSource ->
// engine::Session ("loom" at paper defaults) -> the session's
// io::AssignmentSink, the path `loom_partition --input S.les` takes.
//
// The passes run in a child process of the benchmark so that the child's peak
// RSS (VmHWM) covers the partitioner, not the generated dataset the parent
// holds.
// The child reports on stdout, one record per line:
//
//   edges <E> vertices <V>
//   pass <traced 0|1> <ingest_s> <build_s> <assignment_hash_hex> <edges>
//   mem_growth_mb <MiB>
//   layer <name> <unit> <value>
//   meta <key> <value>
//   fail <message>
//
// and writes the last pass's assignment (one uint32 per vertex id) to the
// --assign-out file.

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "child_process.h"
#include "engine/session.h"
#include "io/edge_stream_io.h"
#include "partition/partition_metrics.h"
#include "query/workload_io.h"
#include "trace.h"

namespace loombench {
namespace {

using loom::graph::PartitionId;

// Checks the pass's output: the sink saw each vertex exactly once and agrees
// with the partitioning, every vertex is placed, and no partition exceeds
// the capacity max_imbalance allows.
void CheckPass(const loom::partition::Partitioning& p, const DenseSink& sink,
               uint64_t vertices, size_t pass) {
  const std::string at = " (pass " + std::to_string(pass) + ")";
  const auto assigned = p.assignments();
  uint64_t placed = 0, mismatched = 0;
  for (uint64_t v = 0; v < vertices; ++v) {
    const PartitionId part = v < assigned.size() ? assigned[v]
                                                 : loom::graph::kNoPartition;
    if (part != loom::graph::kNoPartition) ++placed;
    if (sink.slots()[v] != part) ++mismatched;
  }
  if (placed != vertices) {
    std::cout << "fail " << vertices - placed << " of " << vertices
              << " vertices unassigned" << at << "\n";
  }
  if (mismatched != 0 || sink.bad() != 0 || sink.appends() != placed) {
    std::cout << "fail sink disagrees with the partitioning: " << mismatched
              << " mismatched, " << sink.bad() << " bad appends, "
              << sink.appends() << " appends for " << placed << " placements"
              << at << "\n";
  }
  for (uint32_t i = 0; i < p.k(); ++i) {
    if (p.Size(i) > p.Capacity()) {
      std::cout << "fail partition " << i << " holds " << p.Size(i)
                << " vertices, over the max_imbalance capacity "
                << p.Capacity() << at << "\n";
    }
  }
}

void PrintLayer(const std::string& name, const std::string& unit,
                double value) {
  std::cout << "layer " << name << ' ' << unit << ' ' << JsonNumber(value)
            << "\n";
}

}  // namespace

std::vector<std::string> IngestChildConfig::ToArgv() const {
  std::vector<std::string> argv = {
      self_exe,          "ingest",
      "--stream",        stream_path,
      "--workload-file", workload_path,
      "--assign-out",    assign_path,
      "--seconds",       JsonNumber(seconds),
      "--min-passes",    std::to_string(min_passes),
      "--max-passes",    std::to_string(max_passes),
      "--trace",         trace ? "1" : "0"};
  if (!spans_path.empty()) {
    argv.push_back("--spans-out");
    argv.push_back(spans_path);
  }
  return argv;
}

IngestChildConfig ParseIngestChildArgs(int argc, char** argv) {
  IngestChildConfig c;
  c.self_exe = argv[0];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--stream") c.stream_path = value;
    else if (flag == "--workload-file") c.workload_path = value;
    else if (flag == "--assign-out") c.assign_path = value;
    else if (flag == "--spans-out") c.spans_path = value;
    else if (flag == "--seconds") c.seconds = std::stod(value);
    else if (flag == "--min-passes") c.min_passes = std::stoul(value);
    else if (flag == "--max-passes") c.max_passes = std::stoul(value);
    else if (flag == "--trace") c.trace = value == "1";
    else throw std::runtime_error("ingest: unknown flag " + flag);
  }
  if (c.stream_path.empty() || c.workload_path.empty() ||
      c.assign_path.empty()) {
    throw std::runtime_error(
        "ingest: --stream, --workload-file and --assign-out are required");
  }
  return c;
}

int IngestChildMain(int argc, char** argv) {
  const IngestChildConfig args = ParseIngestChildArgs(argc, argv);

  loom::graph::LabelRegistry registry;
  loom::io::EdgeStreamInfo info;
  {
    loom::io::FileEdgeSource probe(args.stream_path);
    std::string error;
    if (!probe.InternLabels(&registry, &error)) {
      throw std::runtime_error(error);
    }
    info = probe.info();
  }
  const loom::query::Workload workload =
      loom::query::ReadWorkloadFile(args.workload_path, &registry);
  const uint64_t vertices = info.vertex_count;
  std::cout << "edges " << info.edge_count << " vertices " << vertices << "\n";

  loom::engine::SessionConfig config;
  config.spec = "loom";
  config.options.k = kPartitions;
  config.options.window_size = kWindow;
  config.options.support_threshold = kThreshold;
  config.options.expected_vertices = vertices;
  config.options.expected_edges = info.edge_count;
  const loom::engine::BuildContext context{&workload, registry.size()};

  DenseSink sink(vertices);
  Trace trace;
  std::vector<PassLayers> traced;
  std::vector<double> batch_us;
  loom::engine::RunReport last_report;
  uint64_t window_peak = 0;
  double imbalance = 0.0;

  const double rss_before = ProcStatusMb(0, "VmRSS");
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t pass = 0; pass < args.max_passes; ++pass) {
    if (pass >= args.min_passes && NowNs() >= deadline) break;
    const bool traced_pass = args.trace && pass % 2 == 1;
    sink.Reset();
    loom::io::FileEdgeSource file(args.stream_path);
    // Declared before the session, which holds pointers to them.
    TracingSource source(&file, &trace);
    TracingSink traced_sink(&sink, &trace);
    TraceObserver observer(&trace, &source);

    const int64_t build_begin = NowNs();
    std::string error;
    std::unique_ptr<loom::engine::Session> session =
        loom::engine::Session::Create(config, context, &error);
    if (session == nullptr) throw std::runtime_error(error);
    const double build_s = (NowNs() - build_begin) / 1e9;

    loom::engine::RunReport report;
    double ingest_s = 0.0;
    if (traced_pass) {
      trace.Clear();
      trace.Reserve(2 * (info.edge_count / 512 + 16) +
                    vertices / TracingSink::kSinkSampleEvery);
      session->AddObserver(&observer);
      session->AddSink(&traced_sink);
      trace.BeginPass();
      report = session->Run(source);
      trace.EndPass(report.edges);
      PassLayers layers = SummarizePass(trace);
      ingest_s = layers.pass_s;
      batch_us.insert(batch_us.end(), layers.batch_us.begin(),
                      layers.batch_us.end());
      traced.push_back(std::move(layers));
      window_peak = std::max(window_peak, observer.window_peak());
    } else {
      session->AddSink(&sink);
      const int64_t begin = NowNs();
      report = session->Run(file);
      ingest_s = (NowNs() - begin) / 1e9;
    }
    if (pass == 0) {
      std::cout << "mem_growth_mb "
                << JsonNumber(ProcStatusMb(0, "VmHWM") - rss_before) << "\n";
    }
    const loom::partition::Partitioning& p = session->partitioning();
    if (report.edges != info.edge_count) {
      std::cout << "fail pass " << pass << " ingested " << report.edges
                << " of " << info.edge_count << " edges\n";
    }
    CheckPass(p, sink, vertices, pass);
    imbalance = loom::partition::Imbalance(p);
    std::cout << "pass " << (traced_pass ? 1 : 0) << ' '
              << JsonNumber(ingest_s) << ' ' << JsonNumber(build_s) << ' '
              << Hex(loom::partition::AssignmentHash(p, vertices)) << ' '
              << report.edges << "\n";
    last_report = report;
  }

  {
    std::ofstream out(args.assign_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(sink.slots().data()),
              static_cast<std::streamsize>(sink.slots().size() *
                                           sizeof(PartitionId)));
    if (!out) throw std::runtime_error("cannot write " + args.assign_path);
  }

  if (!traced.empty()) {
    if (!args.spans_path.empty()) trace.WriteTsv(args.spans_path);
    auto median_of = [&](double PassLayers::*field) {
      std::vector<double> v;
      for (const PassLayers& l : traced) v.push_back(l.*field);
      return Median(std::move(v));
    };
    const double edges = static_cast<double>(info.edge_count);
    const double decode_s = median_of(&PassLayers::decode_s);
    std::ifstream file(args.stream_path, std::ios::binary | std::ios::ate);
    PrintLayer("engine.pass_s", "s", median_of(&PassLayers::pass_s));
    PrintLayer("io.decode_s", "s", decode_s);
    PrintLayer("io.decode_ns_per_edge", "ns", decode_s * 1e9 / edges);
    PrintLayer("io.read_mb", "MiB",
               static_cast<double>(file.tellg()) / (1024.0 * 1024.0));
    PrintLayer("engine.ingest_s", "s", median_of(&PassLayers::ingest_s));
    const Percentile p99 = TailPercentile(batch_us, 0.99);
    PrintLayer("engine.batch_us_p50", "us", Median(batch_us));
    PrintLayer("engine.batch_us_p99", "us", p99.value);
    std::cout << "meta engine.batch_p99_q " << JsonNumber(p99.q) << "\n";
    PrintLayer("engine.batch_samples", "count", p99.samples);
    PrintLayer("engine.finalize_s", "s", median_of(&PassLayers::finalize_s));
    PrintLayer("engine.sink_s", "s", median_of(&PassLayers::sink_s));
    PrintLayer("engine.self_s", "s", median_of(&PassLayers::self_s));

    // Counts: deterministic, identical on every pass.
    const loom::engine::StatsObserver::Totals& totals = last_report.events;
    const double ingested =
        static_cast<double>(totals.last_progress.edges_ingested);
    PrintLayer("stream.bypass_ratio", "fraction",
               ingested > 0 ? totals.last_progress.edges_bypassed / ingested
                            : 0.0);
    PrintLayer("stream.window_peak", "edges", window_peak);
    auto stat = [&](const char* name) {
      return static_cast<double>(last_report.Stat(name));
    };
    const double attempts = stat("matcher_join_attempts");
    const double allocs =
        stat("match_allocs_fresh") + stat("match_allocs_reused");
    PrintLayer("motif.admitted", "edges", stat("matcher_edges_admitted"));
    PrintLayer("motif.extension_matches", "count",
               stat("matcher_extension_matches"));
    PrintLayer("motif.join_attempts", "count", attempts);
    PrintLayer("motif.join_yield", "fraction",
               attempts > 0 ? stat("matcher_join_matches") / attempts : 0.0);
    PrintLayer("motif.pool_reuse_ratio", "fraction",
               allocs > 0 ? stat("match_allocs_reused") / allocs : 0.0);
    const double decisions = static_cast<double>(totals.cluster_decisions);
    PrintLayer("core.cluster_decisions", "count", decisions);
    PrintLayer("core.fallback_ratio", "fraction",
               decisions > 0 ? totals.fallback_decisions / decisions : 0.0);
    PrintLayer("core.cluster_edges", "edges",
               static_cast<double>(totals.cluster_edges_assigned));
    PrintLayer("partition.vertices_assigned", "count",
               static_cast<double>(totals.vertices_assigned));
    PrintLayer("partition.imbalance", "fraction", imbalance);
  }
  return 0;
}

IngestChildResult RunIngestChild(const IngestChildConfig& c) {
  ChildProcess child(c.ToArgv(), "", /*pipe_stdout=*/true);
  const std::string text = child.ReadStdout();
  if (!child.Wait(60.0)) throw std::runtime_error("ingest child failed");

  IngestChildResult r;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "edges") {
      std::string vtag;
      in >> r.edges >> vtag >> r.vertices;
    } else if (tag == "pass") {
      IngestChildResult::Pass p;
      int traced = 0;
      std::string hash;
      in >> traced >> p.ingest_s >> p.build_s >> hash >> p.edges;
      p.traced = traced != 0;
      p.hash = std::stoull(hash, nullptr, 16);
      r.passes.push_back(p);
    } else if (tag == "mem_growth_mb") {
      in >> r.mem_growth_mb;
    } else if (tag == "layer") {
      Metric m;
      in >> m.name >> m.unit >> m.value;
      r.layers.push_back(m);
    } else if (tag == "meta") {
      std::string key, value;
      in >> key >> value;
      r.meta.emplace_back(key, value);
    } else if (tag == "fail") {
      std::string rest;
      std::getline(in, rest);
      r.failures.push_back(rest);
    }
  }
  if (r.passes.empty()) throw std::runtime_error("ingest child ran no pass");

  std::ifstream in(c.assign_path, std::ios::binary);
  r.assignment.resize(r.vertices);
  in.read(reinterpret_cast<char*>(r.assignment.data()),
          static_cast<std::streamsize>(r.vertices * sizeof(PartitionId)));
  if (!in) throw std::runtime_error("cannot read " + c.assign_path);
  return r;
}

}  // namespace loombench
