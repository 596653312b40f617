#include "serve_load.h"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <thread>

#include "child_process.h"
#include "io/edge_stream_io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "stats.h"

namespace loombench {
namespace {

using loom::graph::kNoPartition;
using loom::graph::PartitionId;
using loom::graph::VertexId;

constexpr char kSocket[] = "serve.sock";

/// Picks GET targets uniformly among the vertices already streamed.
class VertexChooser {
 public:
  explicit VertexChooser(const std::string& stream_path) {
    loom::io::FileEdgeSource source(stream_path);
    std::vector<bool> seen(source.info().vertex_count, false);
    std::vector<loom::stream::StreamEdge> batch(4096);
    for (size_t n; (n = source.NextBatch(batch)) > 0;) {
      for (size_t i = 0; i < n; ++i) {
        for (VertexId v : {batch[i].u, batch[i].v}) {
          if (!seen[v]) {
            seen[v] = true;
            order_.push_back(v);
          }
        }
        seen_after_.push_back(static_cast<uint32_t>(order_.size()));
      }
    }
  }

  /// A vertex among those the first `edges_sent` edges mention.
  VertexId Pick(uint64_t edges_sent, std::mt19937_64* rng) const {
    const uint64_t sent = std::min<uint64_t>(edges_sent, seen_after_.size());
    const uint64_t seen = sent == 0 ? 1 : seen_after_[sent - 1];
    return order_[std::uniform_int_distribution<uint64_t>(0, seen - 1)(*rng)];
  }

  uint64_t edges() const { return seen_after_.size(); }

 private:
  std::vector<VertexId> order_;         // vertices by first appearance
  std::vector<uint32_t> seen_after_;    // distinct vertices in edges [0, i]
};

/// Parses "<key>=<unsigned>" out of a reply; false when absent.
bool ReplyField(const std::string& reply, const std::string& key,
                uint64_t* value, int base = 10) {
  const std::string needle = " " + key + "=";
  const size_t at = reply.find(needle);
  if (at == std::string::npos) return false;
  *value = std::strtoull(reply.c_str() + at + needle.size(), nullptr, base);
  return true;
}

struct ServePass {
  bool traced = false;
  double start_s = 0.0;
  double ingest_s = 0.0;
  double finalize_s = 0.0;
  double rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ingests = 0;
  uint64_t gets = 0;
  uint64_t unassigned = 0;
  std::vector<double> get_us;
  std::vector<double> late_us;
  std::vector<double> ack_us;
  std::vector<double> queue;
  std::vector<std::string> failures;
};

/// What one reader connection saw.
struct ReaderLog {
  std::vector<OpenLoopOp> ops;
  std::vector<std::pair<VertexId, PartitionId>> answers;  // GET replies
  std::vector<double> queue;                              // STATS queue=
  uint64_t unassigned = 0;
};

void RunReader(int id, loom::serve::Client* client,
               const VertexChooser& chooser, uint64_t seed,
               const std::atomic<uint64_t>& edges_sent,
               const std::atomic<int64_t>& start_ns,
               const std::atomic<int64_t>& stop_ns, ReaderLog* log) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // 1 ns: wake on schedule
  while (start_ns.load(std::memory_order_acquire) == 0) {
    if (stop_ns.load(std::memory_order_acquire) != 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::mt19937_64 rng(seed);
  const int64_t interval =
      static_cast<int64_t>(1e9 * kReaders / kGetRatePerSec);
  // Readers interleave: reader r's ops sit r/kReaders of an interval late.
  const int64_t start =
      start_ns.load(std::memory_order_acquire) + id * interval / kReaders;
  std::string reply, error;
  auto op = [&](uint64_t i) {
    if (id == 0 && i % kStatsEvery == 0) {
      uint64_t queued = 0;
      if (!client->Roundtrip("STATS", &reply, &error) ||
          !loom::serve::IsOk(reply) || !ReplyField(reply, "queue", &queued)) {
        return false;
      }
      log->queue.push_back(static_cast<double>(queued));
      return true;
    }
    const VertexId v =
        chooser.Pick(edges_sent.load(std::memory_order_acquire), &rng);
    if (!client->Roundtrip("GET " + std::to_string(v), &reply, &error) ||
        !loom::serve::IsOk(reply)) {
      return false;
    }
    // "OK <v> <partition|->"
    const size_t space = reply.rfind(' ');
    if (space == std::string::npos || space < 3) return false;
    const std::string part = reply.substr(space + 1);
    if (reply.compare(3, space - 3, std::to_string(v)) != 0) return false;
    if (part == "-") {
      ++log->unassigned;
      log->answers.emplace_back(v, kNoPartition);
    } else {
      log->answers.emplace_back(v, static_cast<PartitionId>(std::stoul(part)));
    }
    return true;
  };
  log->ops = RunOpenLoop(
      start, interval, kMaxLateNs, stop_ns, NowNs,
      [](int64_t t) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(t)));
      },
      op);
}

ServePass RunServePass(const ServeConfig& c, const VertexChooser& chooser,
                       size_t pass_index, bool traced) {
  ServePass pass;
  pass.traced = traced;
  auto fail = [&](std::string why) {
    pass.failures.push_back("serve pass " + std::to_string(pass_index) + ": " +
                            why);
  };

  ::unlink(kSocket);
  const int64_t spawn_ns = NowNs();
  ChildProcess server(
      {c.serve_bin, "--socket", kSocket, "--workload", c.workload_path,
       "--like", c.stream_path, "--system", "loom", "--k",
       std::to_string(kPartitions), "--window", std::to_string(kWindow),
       "--threshold", "0.4"},
      "serve.log");
  loom::serve::Client writer;
  std::string error, reply;
  while (!writer.Connect(kSocket, &error)) {
    if (NowNs() - spawn_ns > 30'000'000'000) {
      throw std::runtime_error("loom_serve did not accept within 30 s: " +
                               error);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  pass.start_s = (NowNs() - spawn_ns) / 1e9;
  loom::serve::Client readers[kReaders];
  for (auto& r : readers) {
    if (!r.Connect(kSocket, &error)) throw std::runtime_error(error);
  }

  std::atomic<uint64_t> edges_sent{0};
  std::atomic<int64_t> start_ns{0}, stop_ns{0};
  ReaderLog logs[kReaders];
  std::vector<std::thread> threads;
  // Stops and joins the readers on every way out of this function.
  struct JoinReaders {
    std::atomic<int64_t>* stop;
    std::vector<std::thread>* threads;
    ~JoinReaders() {
      int64_t unset = 0;
      stop->compare_exchange_strong(unset, NowNs());
      for (std::thread& t : *threads) {
        if (t.joinable()) t.join();
      }
    }
  } join_readers{&stop_ns, &threads};
  for (int r = 0; r < kReaders; ++r) {
    const uint64_t seed = c.seed * 1000003u + pass_index * kReaders + r;
    threads.emplace_back(RunReader, r, &readers[r], std::cref(chooser), seed,
                         std::cref(edges_sent), std::cref(start_ns),
                         std::cref(stop_ns), &logs[r]);
  }

  // Writer: the stream file through FileEdgeSource, as pipelined INGEST.
  loom::io::FileEdgeSource source(c.stream_path);
  std::vector<loom::stream::StreamEdge> batch(1024);
  std::vector<int64_t> sent_at(traced ? kIngestDepth : 0);
  if (traced) pass.ack_us.reserve(chooser.edges());
  uint64_t sent = 0, acked = 0, rejected = 0;
  bool transport_ok = true;
  auto drain_one = [&] {
    if (!writer.ReadReply(&reply, &error)) return false;
    if (traced) {
      pass.ack_us.push_back((NowNs() - sent_at[acked % kIngestDepth]) / 1e3);
    }
    ++acked;
    if (!loom::serve::IsOk(reply)) ++rejected;
    return true;
  };
  const int64_t first_ns = NowNs();
  loom::serve::Command cmd;
  cmd.type = loom::serve::CommandType::kIngest;
  for (size_t n; transport_ok && (n = source.NextBatch(batch)) > 0;) {
    for (size_t i = 0; i < n && transport_ok; ++i) {
      while (sent - acked >= kIngestDepth && transport_ok) {
        transport_ok = drain_one();
      }
      cmd.edge = batch[i];
      if (traced) sent_at[sent % kIngestDepth] = NowNs();
      transport_ok = transport_ok &&
                     writer.SendLine(loom::serve::FormatCommand(cmd), &error);
      if (!transport_ok) break;
      ++sent;
      edges_sent.store(sent, std::memory_order_release);
      if (sent == 1) start_ns.store(first_ns, std::memory_order_release);
    }
  }
  while (transport_ok && acked < sent) transport_ok = drain_one();
  const int64_t finalize_ns = NowNs();
  uint64_t finalized = 0;
  const bool finalize_ok = transport_ok &&
                           writer.Roundtrip("FINALIZE", &reply, &error) &&
                           loom::serve::IsOk(reply) &&
                           ReplyField(reply, "edges", &finalized);
  const int64_t end_ns = NowNs();
  stop_ns.store(end_ns, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  pass.ingest_s = (end_ns - first_ns) / 1e9;
  pass.finalize_s = (end_ns - finalize_ns) / 1e9;
  pass.ingests = sent;
  pass.attempted += chooser.edges() + 1;  // every INGEST, plus FINALIZE
  pass.failed += rejected + (chooser.edges() - acked) + (finalize_ok ? 0 : 1);
  if (!transport_ok) fail("writer connection failed: " + error);
  if (rejected != 0) fail(std::to_string(rejected) + " INGEST rejected");
  if (!finalize_ok) fail("FINALIZE failed: " + reply + error);
  if (finalize_ok && finalized != chooser.edges()) {
    fail("FINALIZE reports " + std::to_string(finalized) + " of " +
         std::to_string(chooser.edges()) + " edges");
  }

  // Quality snapshot: the served partitioning must be the offline replay's.
  uint64_t hash = 0, cut = 0;
  ++pass.attempted;
  std::string snapshot;
  if (writer.Roundtrip("SNAPSHOT-QUALITY", &snapshot, &error) &&
      loom::serve::IsOk(snapshot) && ReplyField(snapshot, "hash", &hash, 16) &&
      ReplyField(snapshot, "cut", &cut)) {
    if (hash != c.replay_hash || cut != c.replay_cut) {
      fail("served snapshot '" + snapshot + "' differs from the offline "
           "replay (cut " + std::to_string(c.replay_cut) + ")");
    }
  } else {
    ++pass.failed;
    fail("SNAPSHOT-QUALITY failed: " + snapshot + error);
  }

  // Readers: every op is an attempt; dropped, ERR and transport failures
  // count as failed. A GET answered "-" is a success (not placed yet).
  for (int r = 0; r < kReaders; ++r) {
    const ReaderLog& log = logs[r];
    for (size_t i = 0; i < log.ops.size(); ++i) {
      const OpenLoopOp& op = log.ops[i];
      ++pass.attempted;
      if (!op.sent() || !op.ok) {
        ++pass.failed;
        continue;
      }
      pass.late_us.push_back(op.LateUs());
      const bool stats_op = r == 0 && i % kStatsEvery == 0;
      if (!stats_op) pass.get_us.push_back(op.LatencyUs());
    }
    pass.gets += log.answers.size();
    pass.unassigned += log.unassigned;
    pass.queue.insert(pass.queue.end(), log.queue.begin(), log.queue.end());
    // Assignments are write-once: a placed answer must be the final one.
    uint64_t wrong = 0;
    for (const auto& [v, p] : log.answers) {
      if (p != kNoPartition && (*c.replay_assignment)[v] != p) ++wrong;
    }
    if (wrong != 0) {
      fail(std::to_string(wrong) + " GET answers disagree with the final "
           "assignment (reader " + std::to_string(r) + ")");
    }
  }

  // The server's peak RSS, read while it still runs.
  pass.rss_mb = ProcStatusMb(server.pid(), "VmHWM");

  ++pass.attempted;
  if (!writer.Roundtrip("SHUTDOWN", &reply, &error) ||
      !loom::serve::IsOk(reply)) {
    ++pass.failed;
    fail("SHUTDOWN failed: " + reply + error);
  }
  writer.Close();
  for (auto& r : readers) r.Close();
  if (!server.Wait(60.0)) fail("loom_serve did not exit cleanly");
  return pass;
}

}  // namespace

double RunServeWorkload(const ServeConfig& c, RunResult* out) {
  const VertexChooser chooser(c.stream_path);
  std::vector<ServePass> passes;
  const size_t min_passes = c.trace ? 4 : 3;
  const int64_t deadline = NowNs() + static_cast<int64_t>(c.seconds * 1e9);
  for (size_t i = 0; i < min_passes || NowNs() < deadline; ++i) {
    passes.push_back(RunServePass(c, chooser, i, c.trace && i % 2 == 1));
  }

  std::vector<double> start_s, rss_mb, untraced_s, traced_s, finalize_s,
      get_us, late_us, ack_us, queue;
  uint64_t ingests = 0, gets = 0, unassigned = 0, traced_passes = 0;
  for (const ServePass& p : passes) {
    out->attempted += p.attempted;
    out->failed += p.failed;
    for (const std::string& f : p.failures) out->Fail(f);
    start_s.push_back(p.start_s);
    rss_mb.push_back(p.rss_mb);
    (p.traced ? traced_s : untraced_s).push_back(p.ingest_s);
    // Latency samples come from the passes the run measures: all of them
    // untraced, the traced ones when tracing.
    if (p.traced != c.trace) continue;
    get_us.insert(get_us.end(), p.get_us.begin(), p.get_us.end());
    late_us.insert(late_us.end(), p.late_us.begin(), p.late_us.end());
    ack_us.insert(ack_us.end(), p.ack_us.begin(), p.ack_us.end());
    queue.insert(queue.end(), p.queue.begin(), p.queue.end());
    finalize_s.push_back(p.finalize_s);
    ingests += p.ingests;
    gets += p.gets;
    unassigned += p.unassigned;
    ++traced_passes;
  }
  const double edges = static_cast<double>(chooser.edges());
  const Percentile get_p99 = TailPercentile(get_us, 0.99);
  out->Meta("serve_passes", JsonNumber(static_cast<double>(passes.size())));
  out->Meta("get_samples", JsonNumber(static_cast<double>(get_p99.samples)));
  out->Meta("get_us_p50", JsonNumber(Median(get_us)));
  out->Meta("get_us_p99", JsonNumber(get_p99.value));
  out->Meta("get_p99_q", JsonNumber(get_p99.q));
  if (!c.trace) {
    AddIngestRate(edges, untraced_s, out);
    out->Add("mem_peak_mb", "MiB", Median(rss_mb));
    return Median(start_s);
  }
  const double n = static_cast<double>(traced_passes);
  const Percentile ack_p99 = TailPercentile(ack_us, 0.99);
  const Percentile late_p99 = TailPercentile(late_us, 0.99);
  out->Add("serve.ingest_ack_us_p50", "us", Median(ack_us));
  out->Add("serve.ingest_ack_us_p99", "us", ack_p99.value);
  out->Add("serve.ingest_ack_samples", "count", ack_p99.samples);
  out->Add("serve.finalize_s", "s", Median(finalize_s));
  out->Add("serve.queue_p50", "edges", Median(queue));
  out->Add("serve.queue_max",  "edges",
           queue.empty() ? 0.0 : *std::max_element(queue.begin(), queue.end()));
  out->Add("serve.get_unassigned_ratio", "fraction",
           gets > 0 ? static_cast<double>(unassigned) / gets : 0.0);
  out->Add("serve.gen_late_us_p99", "us", late_p99.value);
  out->Add("serve.ingests", "count", ingests / n);
  out->Add("serve.gets", "count", gets / n);
  out->Add("serve.get_us_p50", "us", Median(get_us));
  out->Add("serve.get_us_p99", "us", get_p99.value);
  out->Add("serve.get_samples", "count", get_p99.samples);
  out->Add("trace.overhead_ratio", "fraction",
           Fastest(untraced_s) / Fastest(traced_s) - 1.0);
  out->Meta("ingest_ack_p99_q", JsonNumber(ack_p99.q));
  out->Meta("gen_late_p99_q", JsonNumber(late_p99.q));
  out->Meta("stats_samples", JsonNumber(static_cast<double>(queue.size())));
  return Median(start_s);
}

}  // namespace loombench
