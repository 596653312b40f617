#include "stats.h"

#include <algorithm>
#include <cmath>

namespace loombench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

Percentile TailPercentile(std::vector<double> samples, double q,
                          size_t min_beyond) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  // Ten beyond: at most n - min_beyond samples at or below the reported one.
  if (n - rank < min_beyond) rank = n > min_beyond ? n - min_beyond : 1;
  out.value = samples[rank - 1];
  out.q = static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t reach = parent.begin;  // end of the union swept so far
  for (const Interval& c : children) {
    if (c.end <= c.begin || c.end <= reach) continue;
    covered += c.end - std::max(c.begin, reach);
    reach = c.end;
  }
  return (parent.end - parent.begin) - covered;
}

}  // namespace loombench
