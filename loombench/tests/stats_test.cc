// The benchmark's own arithmetic: medians, the ten-samples-beyond
// percentile rule, span self time and open-loop latency accounting.

#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

namespace loombench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({7.0}), 7.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(TailPercentile, NearestRankWhenTheSampleSupportsIt) {
  // 1000 samples: p99 is rank 990, with exactly ten samples beyond it.
  const Percentile p = TailPercentile(Iota(1000), 0.99);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_EQ(p.samples, 1000u);
}

TEST(TailPercentile, LowersToKeepTenSamplesBeyond) {
  // 500 samples: rank 495 would leave five beyond; the reported quantile
  // drops to rank 490 (q = 0.98), which leaves ten.
  const Percentile p = TailPercentile(Iota(500), 0.99);
  EXPECT_EQ(p.value, 490.0);
  EXPECT_DOUBLE_EQ(p.q, 0.98);
  EXPECT_EQ(p.samples, 500u);
}

TEST(TailPercentile, TooFewSamplesFallToTheMinimum) {
  const Percentile eleven = TailPercentile(Iota(11), 0.99);
  EXPECT_EQ(eleven.value, 1.0);  // ten beyond the smallest
  const Percentile five = TailPercentile(Iota(5), 0.99);
  EXPECT_EQ(five.value, 1.0);
  EXPECT_DOUBLE_EQ(five.q, 0.2);
  EXPECT_EQ(TailPercentile({}, 0.99).samples, 0u);
}

TEST(TailPercentile, UnsortedInput) {
  std::vector<double> v = Iota(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(TailPercentile(v, 0.99).value, 1980.0);
  EXPECT_EQ(TailPercentile(v, 0.5).value, 1000.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Parent [0, 100); children [10, 30) and [20, 50) overlap -> union 40.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {20, 50}}), 60);
  // A nested child adds nothing; disjoint children add up.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {15, 25}, {60, 70}}), 70);
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  EXPECT_EQ(SelfTime({0, 100}, {{-50, 10}, {90, 200}}), 80);
  EXPECT_EQ(SelfTime({0, 100}, {{150, 200}, {-20, -10}}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{0, 100}}), 0);
}

// A fake clock: sleeping jumps to the wake time, an op advances the clock
// by its service time.
struct FakeClock {
  int64_t t = 0;
};

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  FakeClock clock;
  std::atomic<int64_t> stop{0};
  const std::vector<int64_t> service = {10, 10, 10, 10};
  auto ops = RunOpenLoop(
      0, 100, 1'000'000, stop, [&] { return clock.t; },
      [&](int64_t until) { clock.t = std::max(clock.t, until); },
      [&](uint64_t i) {
        clock.t += service[i];
        if (i + 1 == service.size()) stop = 400;
        return true;
      });
  ASSERT_EQ(ops.size(), 4u);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].due_ns, static_cast<int64_t>(i) * 100);
    EXPECT_EQ(ops[i].sent_ns, ops[i].due_ns);  // on time
    EXPECT_DOUBLE_EQ(ops[i].LatencyUs(), 0.010);
  }
}

TEST(OpenLoop, StalledReplyChargesTheOpsQueuedBehindIt) {
  FakeClock clock;
  std::atomic<int64_t> stop{0};
  // Op 1 stalls 350 ns; ops 2..4 fall due meanwhile and go out back to
  // back after it, each charged from its own due time.
  auto ops = RunOpenLoop(
      0, 100, 1'000'000, stop, [&] { return clock.t; },
      [&](int64_t until) { clock.t = std::max(clock.t, until); },
      [&](uint64_t i) {
        clock.t += i == 1 ? 350 : 10;
        if (i == 5) stop = 550;
        return true;
      });
  ASSERT_EQ(ops.size(), 6u);
  EXPECT_EQ(ops[1].done_ns, 450);
  EXPECT_EQ(ops[2].sent_ns, 450);  // due 200: 250 late
  EXPECT_EQ(ops[2].done_ns, 460);
  EXPECT_DOUBLE_EQ(ops[2].LateUs(), 0.250);
  EXPECT_DOUBLE_EQ(ops[2].LatencyUs(), 0.260);
  EXPECT_EQ(ops[3].sent_ns, 460);  // due 300
  EXPECT_DOUBLE_EQ(ops[3].LatencyUs(), 0.170);
  EXPECT_EQ(ops[4].sent_ns, 470);  // due 400
  EXPECT_DOUBLE_EQ(ops[4].LatencyUs(), 0.080);
  EXPECT_EQ(ops[5].sent_ns, 500);  // back on schedule
  EXPECT_DOUBLE_EQ(ops[5].LatencyUs(), 0.010);
}

TEST(OpenLoop, OpsTooLateAreDroppedUnsent) {
  FakeClock clock;
  std::atomic<int64_t> stop{0};
  // max_late 150: after op 0 stalls 500 ns, ops 1..3 (due 100..300) would
  // leave more than 150 ns late and are dropped; op 4 (due 400) goes out.
  auto ops = RunOpenLoop(
      0, 100, 150, stop, [&] { return clock.t; },
      [&](int64_t until) { clock.t = std::max(clock.t, until); },
      [&](uint64_t i) {
        clock.t += i == 0 ? 500 : 10;
        stop = 450;
        return true;
      });
  ASSERT_EQ(ops.size(), 5u);
  for (size_t i = 1; i <= 3; ++i) EXPECT_FALSE(ops[i].sent()) << i;
  EXPECT_TRUE(ops[4].sent());
  EXPECT_EQ(ops[4].sent_ns, 500);
}

TEST(OpenLoop, StopsAtTheStopTime) {
  FakeClock clock;
  std::atomic<int64_t> stop{250};
  auto ops = RunOpenLoop(
      0, 100, 1'000'000, stop, [&] { return clock.t; },
      [&](int64_t until) { clock.t = std::max(clock.t, until); },
      [&](uint64_t) {
        clock.t += 1;
        return false;
      });
  ASSERT_EQ(ops.size(), 3u);  // due 0, 100, 200
  EXPECT_FALSE(ops[0].ok);
}

}  // namespace
}  // namespace loombench
