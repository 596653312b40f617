// In-memory span recording for the traced run. Every span is taken in the
// benchmark's own code, around calls into a layer's public surface:
//
//   * TracingSource   — EdgeSource::NextBatch of the wrapped source (io)
//   * TraceObserver   — engine::BatchEvent (the IngestBatch wall time the
//                       engine reports), and the finalize interval, from the
//                       exhausting NextBatch to the finalizing ProgressEvent
//   * TracingSink     — the session's io::AssignmentSink::Append (sampled)
//
// Spans are appended to a preallocated vector and only read after the pass,
// so recording costs two clock reads and a store.

#ifndef LOOMBENCH_TRACE_H_
#define LOOMBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/edge_source.h"
#include "engine/observer.h"
#include "io/assignment_sink.h"
#include "stats.h"

namespace loombench {

enum class SpanKind : uint8_t {
  kPass,         // Session::Run, from the call to its return
  kNextBatch,    // EdgeSource::NextBatch
  kIngestBatch,  // Partitioner::IngestBatch (from BatchEvent)
  kFinalize,     // Partitioner::Finalize (exhausted source -> final event)
  kSinkAppend,   // AssignmentSink::Append (sampled, see TracingSink)
};

const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kPass;
  uint32_t parent = 0;  // index of the enclosing span (the pass: itself)
  Interval time;
  uint64_t items = 0;   // edges (batches) or appends the span stands for
};

class Trace {
 public:
  void Reserve(size_t spans) { spans_.reserve(spans); }
  void Clear() { spans_.clear(); }

  /// Opens the pass span; children recorded until EndPass hang off it.
  void BeginPass() {
    pass_ = static_cast<uint32_t>(spans_.size());
    spans_.push_back({SpanKind::kPass, pass_, {NowNs(), 0}, 0});
  }
  void EndPass(uint64_t edges) {
    spans_[pass_].time.end = NowNs();
    spans_[pass_].items = edges;
  }
  void Record(SpanKind kind, int64_t begin, int64_t end, uint64_t items) {
    spans_.push_back({kind, pass_, {begin, end}, items});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as TSV (kind, parent, begin_ns, end_ns, items), with
  /// times relative to the first span.
  void WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint32_t pass_ = 0;
};

/// Times every NextBatch of `inner`; remembers when the source ran dry (the
/// start of the engine's finalize).
class TracingSource : public loom::engine::EdgeSource {
 public:
  TracingSource(loom::engine::EdgeSource* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  size_t NextBatch(std::span<loom::stream::StreamEdge> out) override {
    const int64_t begin = NowNs();
    const size_t n = inner_->NextBatch(out);
    const int64_t end = NowNs();
    trace_->Record(SpanKind::kNextBatch, begin, end, n);
    if (n == 0) exhausted_at_ = end;
    return n;
  }
  size_t SizeHint() const override { return inner_->SizeHint(); }
  void Reset() override { inner_->Reset(); }

  int64_t exhausted_at() const { return exhausted_at_; }

 private:
  loom::engine::EdgeSource* inner_;
  Trace* trace_;
  int64_t exhausted_at_ = 0;
};

/// Times every kSinkSampleEvery-th Append into `inner`; the span stands for
/// that many appends (items). Timing every append costs two clock reads per
/// vertex, which on lubm-random-loom slowed a traced pass by 17%.
class TracingSink : public loom::io::AssignmentSink {
 public:
  static constexpr uint64_t kSinkSampleEvery = 16;

  TracingSink(loom::io::AssignmentSink* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  void Append(loom::graph::VertexId vertex,
              loom::graph::PartitionId partition) override {
    if (++appends_ % kSinkSampleEvery != 0) {
      inner_->Append(vertex, partition);
      return;
    }
    const int64_t begin = NowNs();
    inner_->Append(vertex, partition);
    trace_->Record(SpanKind::kSinkAppend, begin, NowNs(), kSinkSampleEvery);
  }
  void Flush() override { inner_->Flush(); }

 private:
  loom::io::AssignmentSink* inner_;
  Trace* trace_;
  uint64_t appends_ = 0;
};

/// Turns the session's public events into spans and peak counters.
class TraceObserver : public loom::engine::EngineObserver {
 public:
  TraceObserver(Trace* trace, const TracingSource* source)
      : trace_(trace), source_(source) {}

  void OnBatch(const loom::engine::BatchEvent& e) override {
    const int64_t end = NowNs();
    trace_->Record(SpanKind::kIngestBatch, end - static_cast<int64_t>(e.ns),
                   end, e.edges);
  }
  void OnProgress(const loom::engine::ProgressEvent& e) override {
    if (e.window_population > window_peak_) {
      window_peak_ = e.window_population;
    }
    if (e.finalizing && source_->exhausted_at() != 0) {
      trace_->Record(SpanKind::kFinalize, source_->exhausted_at(), NowNs(), 0);
    }
  }

  /// Largest window population seen in a ProgressEvent (sampled every
  /// DriveConfig::progress_interval edges, plus the final event).
  uint64_t window_peak() const { return window_peak_; }

 private:
  Trace* trace_;
  const TracingSource* source_;
  uint64_t window_peak_ = 0;
};

/// Dense in-memory sink: one partition slot per vertex id, plus a count of
/// appends and of vertices appended twice (the sink contract says once).
class DenseSink : public loom::io::AssignmentSink {
 public:
  explicit DenseSink(size_t vertices)
      : slots_(vertices, loom::graph::kNoPartition) {}

  void Reset() {
    std::fill(slots_.begin(), slots_.end(), loom::graph::kNoPartition);
    appends_ = 0;
    bad_ = 0;
  }
  void Append(loom::graph::VertexId vertex,
              loom::graph::PartitionId partition) override {
    ++appends_;
    if (vertex >= slots_.size() ||
        slots_[vertex] != loom::graph::kNoPartition) {
      ++bad_;
      return;
    }
    slots_[vertex] = partition;
  }

  const std::vector<loom::graph::PartitionId>& slots() const { return slots_; }
  uint64_t appends() const { return appends_; }
  /// Appends out of range or repeating a vertex.
  uint64_t bad() const { return bad_; }

 private:
  std::vector<loom::graph::PartitionId> slots_;
  uint64_t appends_ = 0;
  uint64_t bad_ = 0;
};

/// Per-pass layer times derived from a traced pass's spans, in seconds.
struct PassLayers {
  double pass_s = 0.0;
  double decode_s = 0.0;
  double ingest_s = 0.0;
  double finalize_s = 0.0;
  double sink_s = 0.0;
  double self_s = 0.0;  // pass minus the union of its child spans
  uint64_t edges = 0;
  std::vector<double> batch_us;
};

PassLayers SummarizePass(const Trace& trace);

}  // namespace loombench

#endif  // LOOMBENCH_TRACE_H_
