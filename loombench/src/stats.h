// The benchmark's own arithmetic: medians, tail percentiles under the
// ten-samples-beyond rule, span self time, and the open-loop request
// schedule. Pure functions over in-memory samples (the open-loop runner
// takes its clock as a parameter), so tests/stats_test.cc checks them
// without a server or a real clock.

#ifndef LOOMBENCH_STATS_H_
#define LOOMBENCH_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace loombench {

/// Middle value (mean of the two middle values for an even count); 0 for an
/// empty input.
double Median(std::vector<double> samples);

/// A reported percentile: `value` at quantile `q` over `samples` samples.
struct Percentile {
  double value = 0.0;
  double q = 0.0;  // the quantile actually reported, in (0, 1]
  size_t samples = 0;
};

/// Nearest-rank `q`-quantile of `samples`, lowered to the highest quantile
/// that still leaves at least `min_beyond` samples strictly after it in
/// sorted order. With fewer than min_beyond + 1 samples no quantile
/// qualifies: the minimum is returned with q = 1 / n. Empty input gives a
/// zero Percentile.
Percentile TailPercentile(std::vector<double> samples, double q,
                          size_t min_beyond = 10);

/// Half-open time interval [begin, end), in nanoseconds.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// The part of `parent` not covered by the union of `children` (each child
/// clipped to the parent; overlapping children count once).
int64_t SelfTime(Interval parent, std::vector<Interval> children);

/// One operation of an open-loop schedule. Times are nanoseconds on the
/// caller's clock; `sent_ns` = `done_ns` = -1 for an op dropped unsent.
struct OpenLoopOp {
  int64_t due_ns = 0;
  int64_t sent_ns = -1;
  int64_t done_ns = -1;
  bool ok = false;

  bool sent() const { return sent_ns >= 0; }
  /// Latency charged to the op: reply time minus DUE time, so a stalled
  /// reply also charges every op that queued behind it.
  double LatencyUs() const { return (done_ns - due_ns) / 1e3; }
  /// How late the generator sent it.
  double LateUs() const { return (sent_ns - due_ns) / 1e3; }
};

/// Drives an open-loop schedule over one blocking connection: op i is due
/// at start_ns + i * interval_ns and is sent at the later of its due time
/// and the previous reply. Ops due before `stop_ns` (read each iteration;
/// 0 = not yet known) all run, so a stall is caught up rather than hidden;
/// an op that would go out more than `max_late_ns` after its due time is
/// dropped unsent — the generator fell behind — and counts as a failure.
/// `now()` reads the clock, `sleep_until(t)` blocks until about t, and
/// `op(i)` performs op i, returning true on an OK reply.
template <class Now, class SleepUntil, class Op>
std::vector<OpenLoopOp> RunOpenLoop(int64_t start_ns, int64_t interval_ns,
                                    int64_t max_late_ns,
                                    const std::atomic<int64_t>& stop_ns,
                                    Now now, SleepUntil sleep_until, Op op) {
  std::vector<OpenLoopOp> ops;
  for (uint64_t i = 0;; ++i) {
    OpenLoopOp rec;
    rec.due_ns = start_ns + static_cast<int64_t>(i) * interval_ns;
    int64_t t = now();
    for (;;) {
      const int64_t stop = stop_ns.load(std::memory_order_acquire);
      if (stop != 0 && rec.due_ns >= stop) return ops;
      if (t >= rec.due_ns) break;
      sleep_until(stop != 0 ? std::min(rec.due_ns, stop) : rec.due_ns);
      t = now();
    }
    if (t - rec.due_ns > max_late_ns) {
      ops.push_back(rec);  // dropped: never sent
      continue;
    }
    rec.sent_ns = t;
    rec.ok = op(i);
    rec.done_ns = now();
    ops.push_back(rec);
  }
}

}  // namespace loombench

#endif  // LOOMBENCH_STATS_H_
