#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace loombench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPass: return "pass";
    case SpanKind::kNextBatch: return "io.next_batch";
    case SpanKind::kIngestBatch: return "engine.ingest_batch";
    case SpanKind::kFinalize: return "engine.finalize";
    case SpanKind::kSinkAppend: return "engine.sink_append";
  }
  return "?";
}

void Trace::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "kind\tparent\tbegin_ns\tend_ns\titems\n";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().time.begin;
  for (const Span& s : spans_) {
    out << SpanName(s.kind) << '\t' << s.parent << '\t'
        << s.time.begin - origin << '\t' << s.time.end - origin << '\t'
        << s.items << '\n';
  }
  if (!out) throw std::runtime_error("writing spans to " + path + " failed");
}

PassLayers SummarizePass(const Trace& trace) {
  PassLayers out;
  Interval pass;
  std::vector<Interval> children;
  auto seconds = [](const Interval& t) { return (t.end - t.begin) / 1e9; };
  for (const Span& s : trace.spans()) {
    switch (s.kind) {
      case SpanKind::kPass:
        pass = s.time;
        out.pass_s = seconds(s.time);
        out.edges = s.items;
        break;
      case SpanKind::kNextBatch:
        out.decode_s += seconds(s.time);
        children.push_back(s.time);
        break;
      case SpanKind::kIngestBatch:
        out.ingest_s += seconds(s.time);
        out.batch_us.push_back((s.time.end - s.time.begin) / 1e3);
        children.push_back(s.time);
        break;
      case SpanKind::kFinalize:
        out.finalize_s += seconds(s.time);
        children.push_back(s.time);
        break;
      case SpanKind::kSinkAppend:
        // Nested inside an ingest batch or the finalize span, so it never
        // changes the union the pass's self time subtracts. A sampled span
        // stands for `items` appends.
        out.sink_s += seconds(s.time) * static_cast<double>(s.items);
        break;
    }
  }
  out.self_s = SelfTime(pass, std::move(children)) / 1e9;
  return out;
}

}  // namespace loombench
