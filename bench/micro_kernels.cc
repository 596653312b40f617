// Micro-benchmarks for the util::simd hot-loop kernels: ns/op per kernel at
// each dispatch level this CPU supports, over the shapes the streaming path
// actually sees (small neighbour spans vs hub spans, paper-k bid tables,
// motif-sized multisets). The compact scalar-vs-dispatched summary that
// rides BENCH_throughput.json is produced by table2_throughput ("
// simd_kernels" section); this binary is the detailed interactive view.
//
//   build/micro_kernels --benchmark_min_time=0.1
//
// Levels are forced via util::simd::SetActiveLevel per benchmark — the
// kernels are bit-identical across levels, so the numbers are directly
// comparable (and the differential suites enforce the identity).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace loom;
using util::simd::Level;

/// Registers a benchmark variant per supported level; `level` comes in via
/// the first range argument (index into SupportedLevels()).
Level LevelArg(const benchmark::State& state) {
  return util::simd::SupportedLevels()[static_cast<size_t>(state.range(0))];
}

void ApplyLevelCounters(benchmark::State& state) {
  state.SetLabel(util::simd::LevelName(LevelArg(state)));
}

void LevelArgs(benchmark::internal::Benchmark* b) {
  const size_t levels = util::simd::SupportedLevels().size();
  for (size_t i = 0; i < levels; ++i) {
    b->Arg(static_cast<int64_t>(i));
  }
}

// ------------------------------------------------------------- tallies

/// The LDG/Eq. 1 neighbour tally: gather partitions of a span, count per
/// partition. n = 8 is a typical vertex, n = 512 a hub. Input shapes come
/// from the fixture shared with table2_throughput's `simd_kernels` JSON
/// section, so the two stay comparable.
const loom::bench::SimdKernelFixture& Fixture() {
  static const loom::bench::SimdKernelFixture fx;
  return fx;
}

template <size_t kN>
void BM_TallyGather(benchmark::State& state) {
  const Level level = LevelArg(state);
  const auto& fx = Fixture();
  static_assert(kN <= 4096);
  uint32_t counts[loom::bench::SimdKernelFixture::kK];
  for (auto _ : state) {
    std::memset(counts, 0, sizeof(counts));
    util::simd::TallyGatherU32(level, fx.table.data(), fx.table.size(),
                               fx.idx.data(), kN,
                               loom::bench::SimdKernelFixture::kK, counts);
    benchmark::DoNotOptimize(counts[3]);
  }
  ApplyLevelCounters(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_TallyGather<8>)->Apply(LevelArgs);
BENCHMARK(BM_TallyGather<64>)->Apply(LevelArgs);
BENCHMARK(BM_TallyGather<512>)->Apply(LevelArgs);

// ---------------------------------------------------------- bid totals

/// Eq. 3 totals across k = 8 partitions for a 24-match cluster (fixture
/// shared with the `simd_kernels` JSON section).
void BM_BidTotals(benchmark::State& state) {
  const Level level = LevelArg(state);
  const auto& fx = Fixture();
  double totals[loom::bench::SimdKernelFixture::kK];
  for (auto _ : state) {
    util::simd::BidTotals(level, fx.overlap.data(),
                          loom::bench::SimdKernelFixture::kRows,
                          loom::bench::SimdKernelFixture::kK, fx.residual,
                          fx.support, fx.count, totals);
    benchmark::DoNotOptimize(totals[2]);
  }
  ApplyLevelCounters(state);
}
BENCHMARK(BM_BidTotals)->Apply(LevelArgs);

// ------------------------------------------------------------ residues

/// The per-attempt factor triple (matcher extend/join hot path).
void BM_EdgeAdditionFactors(benchmark::State& state) {
  const Level level = LevelArg(state);
  uint32_t out[3];
  uint32_t va = 1;
  for (auto _ : state) {
    util::simd::EdgeAdditionFactors(level, va, 17, 33, 3, 91, 2, 251, out);
    benchmark::DoNotOptimize(out[0]);
    va = va % 249 + 1;
  }
  ApplyLevelCounters(state);
}
BENCHMARK(BM_EdgeAdditionFactors)->Apply(LevelArgs);

/// Batched edge-factor residues (trie construction / full signatures).
void BM_ResidueDiffBatch(benchmark::State& state) {
  const Level level = LevelArg(state);
  util::Rng rng(0x0D1F);
  constexpr size_t kN = 64;
  uint16_t a[kN], b[kN], out[kN];
  for (size_t i = 0; i < kN; ++i) {
    a[i] = static_cast<uint16_t>(rng.Uniform(251));
    b[i] = static_cast<uint16_t>(rng.Uniform(251));
  }
  for (auto _ : state) {
    util::simd::ResidueDiffU16(level, a, b, kN, 251, out);
    benchmark::DoNotOptimize(out[7]);
  }
  ApplyLevelCounters(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_ResidueDiffBatch)->Apply(LevelArgs);

// ------------------------------------------------------------ multisets

/// Alg. 2's membership test at motif scale (n = 12 factors, 3-factor
/// delta) and at the segmented-formulation scale (n = 48).
template <size_t kBase>
void BM_MultisetExtends(benchmark::State& state) {
  const Level level = LevelArg(state);
  util::Rng rng(0x5E7);
  std::vector<uint32_t> base(kBase), delta = {17, 60, 131};
  for (auto& x : base) x = static_cast<uint32_t>(1 + rng.Uniform(250));
  std::sort(base.begin(), base.end());
  std::vector<uint32_t> grown;
  grown.insert(grown.end(), base.begin(), base.end());
  grown.insert(grown.end(), delta.begin(), delta.end());
  std::sort(grown.begin(), grown.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::simd::MultisetExtendsU32(
        level, base.data(), base.size(), delta.data(), delta.size(),
        grown.data(), grown.size()));
  }
  ApplyLevelCounters(state);
}
BENCHMARK(BM_MultisetExtends<12>)->Apply(LevelArgs);
BENCHMARK(BM_MultisetExtends<48>)->Apply(LevelArgs);

}  // namespace
