// Shared pieces of the loombench program: the clock, the result record every
// workload fills, and the entry points of its two halves (offline ingest
// child, served workload).

#ifndef LOOMBENCH_BENCH_H_
#define LOOMBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace loombench {

/// Paper-default backend settings every workload runs (Sec. 5: k = 8,
/// window t = 10000, support threshold 40%).
inline constexpr uint32_t kPartitions = 8;
inline constexpr uint64_t kWindow = 10000;
inline constexpr double kThreshold = 0.4;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one benchmark run reports: the contract's result line plus the
/// metadata printed beside it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// key -> already-encoded JSON value, for the metadata line.
  std::vector<std::pair<std::string, std::string>> meta;
  /// Output-check failures (each also clears `correct`).
  std::vector<std::string> failures;

  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void Meta(std::string key, std::string json_value) {
    meta.emplace_back(std::move(key), std::move(json_value));
  }
  void Fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

/// A "VmRSS" / "VmHWM" field of /proc/<pid>/status in MiB (pid 0: this
/// process). Per address space, so unlike getrusage's ru_maxrss it does not
/// inherit the spawning process's peak across exec. Throws if unreadable.
double ProcStatusMb(int pid, const char* field);

/// 16 lowercase hex digits (the assignment-hash spelling loom_serve uses).
std::string Hex(uint64_t v);

/// JSON encoders for the metadata line.
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// The shortest of `pass_s` (0 for none).
double Fastest(const std::vector<double>& pass_s);

/// Adds ingest_eps: `edges` over the FASTEST pass. On a shared host, slow
/// phases from co-tenants last tens of seconds and shift a run's median
/// pass by 15% (IQR over ten seeds), the fastest pass by about 5%. The
/// median-pass rate goes to the metadata line as ingest_eps_median.
void AddIngestRate(double edges, const std::vector<double>& pass_s,
                   RunResult* r);

/// `ingest` mode: offline passes over a LOOMES file in a fresh process (so
/// its peak RSS excludes the generated dataset). Prints one record per line
/// on stdout for the parent; returns the exit code.
int IngestChildMain(int argc, char** argv);

/// One run of the offline ingest child, as the parent reads it back.
struct IngestChildResult {
  struct Pass {
    bool traced = false;
    double ingest_s = 0.0;
    double build_s = 0.0;
    uint64_t hash = 0;
    uint64_t edges = 0;  // edges the session ingested
  };
  std::vector<Pass> passes;
  double mem_growth_mb = 0.0;
  uint64_t edges = 0;
  uint64_t vertices = 0;
  /// Per-layer metrics of the traced passes (empty when untraced).
  std::vector<Metric> layers;
  /// key -> JSON number, for the metadata line.
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<std::string> failures;
  /// The last pass's assignment, indexed by vertex id.
  std::vector<loom::graph::PartitionId> assignment;
};

/// The ingest child's command line: the parent writes it with ToArgv and
/// the child reads it back with ParseIngestChildArgs.
struct IngestChildConfig {
  std::string self_exe;       // this binary, run in `ingest` mode
  std::string stream_path;    // LOOMES input
  std::string workload_path;  // .lw query workload
  std::string assign_path;    // out: the last pass's assignment
  double seconds = 1.0;       // pass budget
  size_t min_passes = 1;
  size_t max_passes = 1;
  bool trace = false;         // alternate untraced / traced passes
  std::string spans_path;     // traced: last traced pass's spans (TSV)

  std::vector<std::string> ToArgv() const;
};

/// Reads `loombench ingest ...` back into its config. Throws
/// std::runtime_error on an unknown flag or a missing path.
IngestChildConfig ParseIngestChildArgs(int argc, char** argv);

/// Spawns the ingest child and parses its records. Throws
/// std::runtime_error if the child fails to run or exits non-zero.
IngestChildResult RunIngestChild(const IngestChildConfig& config);

}  // namespace loombench

#endif  // LOOMBENCH_BENCH_H_
