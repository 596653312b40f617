// The served workload: a loom_serve child process fed by one pipelined
// INGEST connection while two reader connections send GET open-loop (one
// also polls STATS), all through serve::Client.

#ifndef LOOMBENCH_SERVE_LOAD_H_
#define LOOMBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "graph/types.h"

namespace loombench {

/// Pipelined INGEST commands in flight on the writer connection: the
/// default --depth of `loom_ctl ingest-file`, the repository's ingest client.
inline constexpr size_t kIngestDepth = 512;
/// Reader connections, one thread each, and the GET rate they share. No
/// caller in the repository sends GET or STATS at a known rate, so the
/// rates are this benchmark's choice, well under reader capacity (see
/// loombench/README.md).
inline constexpr int kReaders = 2;
inline constexpr double kGetRatePerSec = 8000.0;
/// Reader 0 sends STATS instead of GET on every kStatsEvery-th op (about
/// 20 Hz at the rate above).
inline constexpr uint64_t kStatsEvery = 200;
/// An op the generator would send later than this after its due time is
/// dropped and counted as failed.
inline constexpr int64_t kMaxLateNs = 100'000'000;

struct ServeConfig {
  std::string serve_bin;
  std::string stream_path;
  std::string workload_path;
  double seconds = 1.0;
  bool trace = false;
  uint64_t seed = 0;
  /// The offline Session replay of the same stream: its final assignment,
  /// assignment hash and edge cut are what the server must reproduce.
  const std::vector<loom::graph::PartitionId>* replay_assignment = nullptr;
  uint64_t replay_hash = 0;
  uint64_t replay_cut = 0;
};

/// Runs served passes for `seconds` (at least three; traced runs alternate
/// untraced and traced passes). Adds ingest_eps, mem_peak_mb and the serve.*
/// layer metrics to `out`, counts attempts and failures, records failed
/// checks, and returns the median server start time (spawn until the socket
/// accepts), in seconds.
double RunServeWorkload(const ServeConfig& config, RunResult* out);

}  // namespace loombench

#endif  // LOOMBENCH_SERVE_LOAD_H_
