// Differential wall for the util::simd kernels: every SIMD level must be
// BYTE-identical to the scalar reference on every input — integers, booleans
// and doubles (compared through memcmp, so even a sign-of-zero or ulp drift
// fails). Legs:
//   - exhaustive small domains: all uint8 residue pairs mod 251 (and edge
//     primes 2/3/254/255), the full uint16 value range per prime, and every
//     vector-width tail length 0..2*lanes for each kernel;
//   - seeded property fuzz: random factor multisets (positive and mutated
//     negative cases) through the multiset-extension kernel, random bid
//     tables through BidTotals, random gather/tally inputs with
//     out-of-range indices and kNoPartition entries;
//   - degenerate shapes: empty inputs, all-ties bids, k at the compare-sweep
//     boundary and the 256-partition maximum.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace loom {
namespace util {
namespace simd {
namespace {

std::vector<Level> Levels() { return SupportedLevels(); }

/// Non-scalar levels (the ones that must match the scalar reference).
std::vector<Level> SimdLevels() {
  std::vector<Level> out;
  for (Level l : Levels()) {
    if (l != Level::kScalar) out.push_back(l);
  }
  return out;
}

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --------------------------------------------------------------- residues

TEST(SimdResidueTest, ExhaustiveAllUint8PairsMod251) {
  // Every (a, b) with a, b < p for the paper's prime — the full domain the
  // edge-factor kernel ever sees at p = 251.
  for (uint32_t p : {251u, 2u, 3u, 254u, 255u}) {
    std::vector<uint16_t> a, b;
    for (uint32_t x = 0; x < p; ++x) {
      for (uint32_t y = 0; y < p; ++y) {
        a.push_back(static_cast<uint16_t>(x));
        b.push_back(static_cast<uint16_t>(y));
      }
    }
    std::vector<uint16_t> want(a.size()), got(a.size());
    ResidueDiffU16(Level::kScalar, a.data(), b.data(), a.size(), p,
                   want.data());
    // Independent check of the scalar reference against the definition.
    for (size_t i = 0; i < a.size(); ++i) {
      int64_t r = (static_cast<int64_t>(a[i]) - b[i]) % static_cast<int64_t>(p);
      if (r < 0) r += p;
      ASSERT_EQ(want[i], r == 0 ? p : r) << "a=" << a[i] << " b=" << b[i];
    }
    for (Level level : SimdLevels()) {
      std::fill(got.begin(), got.end(), 0xABCD);
      ResidueDiffU16(level, a.data(), b.data(), a.size(), p, got.data());
      ASSERT_EQ(want, got) << "p=" << p << " level=" << LevelName(level);
    }
  }
}

TEST(SimdResidueTest, ExhaustiveFullUint16RangePerPrime) {
  for (uint32_t p : {251u, 2u, 3u, 128u, 254u, 255u}) {
    std::vector<uint16_t> v(65536);
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<uint16_t>(i);
    std::vector<uint16_t> want(v.size()), got(v.size());
    ResidueU16(Level::kScalar, v.data(), v.size(), p, want.data());
    for (size_t i = 0; i < v.size(); ++i) {
      const uint32_t r = static_cast<uint32_t>(v[i]) % p;
      ASSERT_EQ(want[i], r == 0 ? p : r);
    }
    for (Level level : SimdLevels()) {
      std::fill(got.begin(), got.end(), 0);
      ResidueU16(level, v.data(), v.size(), p, got.data());
      ASSERT_EQ(want, got) << "p=" << p << " level=" << LevelName(level);
    }
  }
}

TEST(SimdResidueTest, EveryTailLength) {
  // Kernel widths are 16 uint16 lanes (AVX2); cover 0..2*lanes for both
  // residue kernels so every partial-vector tail path runs.
  util::Rng rng(0x7A11);
  const uint32_t p = 251;
  for (size_t n = 0; n <= 32; ++n) {
    std::vector<uint16_t> a(n), b(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<uint16_t>(rng.Uniform(p));
      b[i] = static_cast<uint16_t>(rng.Uniform(p));
      v[i] = static_cast<uint16_t>(rng.Uniform(65536));
    }
    std::vector<uint16_t> want_d(n), want_v(n), got(n);
    ResidueDiffU16(Level::kScalar, a.data(), b.data(), n, p, want_d.data());
    ResidueU16(Level::kScalar, v.data(), n, p, want_v.data());
    for (Level level : SimdLevels()) {
      ResidueDiffU16(level, a.data(), b.data(), n, p, got.data());
      ASSERT_EQ(want_d, got) << "n=" << n << " " << LevelName(level);
      ResidueU16(level, v.data(), n, p, got.data());
      ASSERT_EQ(want_v, got) << "n=" << n << " " << LevelName(level);
    }
  }
}

TEST(SimdResidueTest, EdgeAdditionFactorsExhaustivePairsAndDegreeSweep) {
  const uint32_t p = 251;
  uint32_t want[3], got[3];
  // All value pairs at a fixed degree, then a degree sweep crossing the
  // one-subtract boundary and the uint32 extremes.
  for (uint32_t va = 0; va < p; ++va) {
    for (uint32_t vb = 0; vb < p; ++vb) {
      EdgeAdditionFactors(Level::kScalar, va, vb, va, 3, vb, 1, p, want);
      for (Level level : SimdLevels()) {
        EdgeAdditionFactors(level, va, vb, va, 3, vb, 1, p, got);
        ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
            << "va=" << va << " vb=" << vb << " " << LevelName(level);
      }
    }
  }
  for (uint32_t deg : {0u, 1u, 2u, 249u, 250u, 251u, 252u, 1000u, 65535u,
                       1u << 20, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    for (uint32_t value : {0u, 1u, 97u, 250u}) {
      EdgeAdditionFactors(Level::kScalar, value, 13, value, deg, 13, deg, p,
                          want);
      for (Level level : SimdLevels()) {
        EdgeAdditionFactors(level, value, 13, value, deg, 13, deg, p, got);
        ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
            << "value=" << value << " deg=" << deg << " " << LevelName(level);
      }
    }
  }
  // Primes outside the uint16 regime (internal fallback must stay exact).
  for (uint32_t big_p : {257u, 65521u, 0x7FFFFFFFu}) {
    util::Rng rng(big_p);
    for (int it = 0; it < 2000; ++it) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(big_p));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(big_p));
      const uint32_t d = static_cast<uint32_t>(rng.Uniform(1u << 31));
      EdgeAdditionFactors(Level::kScalar, a, b, a, d, b, d + 1, big_p, want);
      for (Level level : SimdLevels()) {
        EdgeAdditionFactors(level, a, b, a, d, b, d + 1, big_p, got);
        ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
            << "p=" << big_p << " " << LevelName(level);
      }
    }
  }
}

// ------------------------------------------------- ordered-array primitives

TEST(SimdOrderedTest, CountLessEqAndRangeEqualEveryTailLength) {
  util::Rng rng(0xC0DE);
  for (size_t n = 0; n <= 16; ++n) {
    for (int it = 0; it < 50; ++it) {
      std::vector<uint32_t> a(n), b(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<uint32_t>(rng.Uniform(64));
        b[i] = a[i];
      }
      // Half the iterations flip one element so inequality paths run.
      if (n > 0 && it % 2 == 1) b[rng.Uniform(n)] ^= 1u << rng.Uniform(31);
      const uint32_t v = static_cast<uint32_t>(rng.Uniform(64));
      const size_t want_c = CountLessEqU32(Level::kScalar, a.data(), n, v);
      const bool want_eq = RangeEqualU32(Level::kScalar, a.data(), b.data(), n);
      for (Level level : SimdLevels()) {
        ASSERT_EQ(want_c, CountLessEqU32(level, a.data(), n, v))
            << "n=" << n << " " << LevelName(level);
        ASSERT_EQ(want_eq, RangeEqualU32(level, a.data(), b.data(), n))
            << "n=" << n << " " << LevelName(level);
      }
    }
  }
  // Unsigned-compare boundary: values straddling the sign bit.
  const std::vector<uint32_t> edge = {0u, 1u, 0x7FFFFFFFu, 0x80000000u,
                                      0xFFFFFFFEu, 0xFFFFFFFFu};
  for (uint32_t v : edge) {
    const size_t want = CountLessEqU32(Level::kScalar, edge.data(),
                                       edge.size(), v);
    for (Level level : SimdLevels()) {
      ASSERT_EQ(want, CountLessEqU32(level, edge.data(), edge.size(), v))
          << "v=" << v << " " << LevelName(level);
    }
  }
}

TEST(SimdOrderedTest, MultisetExtendsFuzzPositiveAndMutated) {
  util::Rng rng(0x5EED);
  for (int it = 0; it < 4000; ++it) {
    // Random sorted base (sizes cross the small-m merge-walk cutoff), delta
    // of 0..4 factors, grown = sorted union — then possibly mutated.
    const size_t n = rng.Uniform(48);
    const size_t d = rng.Uniform(5);
    std::vector<uint32_t> base(n), delta(d);
    for (auto& x : base) x = static_cast<uint32_t>(1 + rng.Uniform(250));
    for (auto& x : delta) x = static_cast<uint32_t>(1 + rng.Uniform(250));
    std::sort(base.begin(), base.end());
    std::sort(delta.begin(), delta.end());
    std::vector<uint32_t> grown;
    grown.reserve(n + d);
    grown.insert(grown.end(), base.begin(), base.end());
    grown.insert(grown.end(), delta.begin(), delta.end());
    std::sort(grown.begin(), grown.end());
    switch (it % 4) {
      case 0:
        break;  // true extension
      case 1:  // corrupt one grown element
        if (!grown.empty()) {
          grown[rng.Uniform(grown.size())] += 1;
          std::sort(grown.begin(), grown.end());
        }
        break;
      case 2:  // wrong size
        grown.push_back(static_cast<uint32_t>(1 + rng.Uniform(250)));
        std::sort(grown.begin(), grown.end());
        break;
      case 3:  // unrelated multiset of the right size
        for (auto& x : grown) x = static_cast<uint32_t>(1 + rng.Uniform(250));
        std::sort(grown.begin(), grown.end());
        break;
    }
    const bool want =
        MultisetExtendsU32(Level::kScalar, base.data(), base.size(),
                           delta.data(), delta.size(), grown.data(),
                           grown.size());
    for (Level level : SimdLevels()) {
      ASSERT_EQ(want, MultisetExtendsU32(level, base.data(), base.size(),
                                         delta.data(), delta.size(),
                                         grown.data(), grown.size()))
          << "it=" << it << " " << LevelName(level);
    }
  }
}

TEST(SimdOrderedTest, MultisetExtendsDuplicateHeavyDomains) {
  // Tiny alphabets force duplicate runs across base/delta/grown — the tie
  // handling the insertion-point formulation must get right.
  util::Rng rng(0xD00D);
  for (int it = 0; it < 3000; ++it) {
    const size_t n = 32 + rng.Uniform(16);  // past the merge-walk cutoff
    const size_t d = rng.Uniform(4);
    std::vector<uint32_t> base(n), delta(d);
    for (auto& x : base) x = static_cast<uint32_t>(1 + rng.Uniform(3));
    for (auto& x : delta) x = static_cast<uint32_t>(1 + rng.Uniform(3));
    std::sort(base.begin(), base.end());
    std::sort(delta.begin(), delta.end());
    std::vector<uint32_t> grown;
    grown.insert(grown.end(), base.begin(), base.end());
    grown.insert(grown.end(), delta.begin(), delta.end());
    std::sort(grown.begin(), grown.end());
    if (it % 2 == 1 && !grown.empty()) {
      grown[rng.Uniform(grown.size())] = 1 + (grown[0] % 3);
      std::sort(grown.begin(), grown.end());
    }
    const bool want =
        MultisetExtendsU32(Level::kScalar, base.data(), base.size(),
                           delta.data(), delta.size(), grown.data(),
                           grown.size());
    for (Level level : SimdLevels()) {
      ASSERT_EQ(want, MultisetExtendsU32(level, base.data(), base.size(),
                                         delta.data(), delta.size(),
                                         grown.data(), grown.size()))
          << "it=" << it << " " << LevelName(level);
    }
  }
}

// ------------------------------------------------------- gather and tallies

TEST(SimdTallyTest, GatherTallyFuzzWithOutOfRangeAndNoPartition) {
  util::Rng rng(0x6A44);
  constexpr uint32_t kNoPartition = 0xFFFFFFFFu;
  for (int it = 0; it < 400; ++it) {
    const size_t table_n = 1 + rng.Uniform(500);
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(40));
    std::vector<uint32_t> table(table_n);
    for (auto& t : table) {
      // Mix of assigned partitions, kNoPartition holes, and stray values in
      // [k, 255] / above 255 (must be ignored, not merely saturated away).
      const uint64_t roll = rng.Uniform(10);
      if (roll < 6) {
        t = static_cast<uint32_t>(rng.Uniform(k));
      } else if (roll < 8) {
        t = kNoPartition;
      } else {
        t = k + static_cast<uint32_t>(rng.Uniform(1000));
      }
    }
    // Tail lengths around every chunk boundary: 0..2*32 plus larger.
    const size_t n = it % 2 == 0 ? rng.Uniform(65) : 64 + rng.Uniform(700);
    std::vector<uint32_t> idx(n);
    for (auto& i : idx) {
      // ~1/8 out of range (beyond table_n, incl. > INT32-ish patterns).
      i = rng.Uniform(8) == 0
              ? static_cast<uint32_t>(table_n + rng.Uniform(1u << 20))
              : static_cast<uint32_t>(rng.Uniform(table_n));
    }

    std::vector<uint32_t> want_g(n), got_g(n);
    GatherU32(Level::kScalar, table.data(), table_n, idx.data(), n, 777u,
              want_g.data());
    std::vector<uint32_t> want_c(k, 3), got_c(k, 3);  // accumulate, not clear
    TallyU32(Level::kScalar, want_g.data(), n, k, want_c.data());
    std::vector<uint32_t> want_f(k, 0), got_f(k, 0);
    TallyGatherU32(Level::kScalar, table.data(), table_n, idx.data(), n, k,
                   want_f.data());
    for (Level level : SimdLevels()) {
      std::fill(got_g.begin(), got_g.end(), 0);
      GatherU32(level, table.data(), table_n, idx.data(), n, 777u,
                got_g.data());
      ASSERT_EQ(want_g, got_g) << "it=" << it << " " << LevelName(level);
      std::fill(got_c.begin(), got_c.end(), 3);
      TallyU32(level, want_g.data(), n, k, got_c.data());
      ASSERT_EQ(want_c, got_c) << "it=" << it << " " << LevelName(level);
      std::fill(got_f.begin(), got_f.end(), 0);
      TallyGatherU32(level, table.data(), table_n, idx.data(), n, k,
                     got_f.data());
      ASSERT_EQ(want_f, got_f) << "it=" << it << " " << LevelName(level);
    }
    // The fused kernel must agree with gather-then-tally composition.
    std::vector<uint32_t> composed(k, 0);
    std::vector<uint32_t> pids(n);
    GatherU32(Level::kScalar, table.data(), table_n, idx.data(), n,
              kNoPartition, pids.data());
    TallyU32(Level::kScalar, pids.data(), n, k, composed.data());
    ASSERT_EQ(want_f, composed) << "it=" << it;
  }
}

TEST(SimdTallyTest, WideKAndMaxKBoundaries) {
  util::Rng rng(0xBEEF);
  // k at the compare-sweep boundary and the 256-partition engine maximum —
  // the sweep must hand off to the histogram without miscounting.
  for (uint32_t k : {31u, 32u, 33u, 255u, 256u}) {
    const size_t n = 513;
    std::vector<uint32_t> vals(n);
    for (auto& v : vals) {
      v = rng.Uniform(4) == 0 ? 0xFFFFFFFFu
                              : static_cast<uint32_t>(rng.Uniform(k + 3));
    }
    std::vector<uint32_t> want(k, 0), got(k, 0);
    TallyU32(Level::kScalar, vals.data(), n, k, want.data());
    for (Level level : SimdLevels()) {
      std::fill(got.begin(), got.end(), 0);
      TallyU32(level, vals.data(), n, k, got.data());
      ASSERT_EQ(want, got) << "k=" << k << " " << LevelName(level);
    }
  }
}

TEST(SimdTallyTest, AddAndAccumulateScaledBitIdentical) {
  util::Rng rng(0xACC);
  for (size_t n : {0u, 1u, 3u, 8u, 15u, 16u, 17u, 33u, 100u}) {
    std::vector<uint32_t> src(n), dst_a(n), dst_b(n);
    std::vector<double> acc_a(n), acc_b(n);
    for (size_t i = 0; i < n; ++i) {
      src[i] = static_cast<uint32_t>(rng.Uniform(1u << 31));
      dst_a[i] = dst_b[i] = static_cast<uint32_t>(rng.Uniform(1000));
      acc_a[i] = acc_b[i] = static_cast<double>(rng.Uniform(1000)) / 7.0;
    }
    const double w = 0.25 + static_cast<double>(rng.Uniform(100)) / 300.0;
    AddU32(Level::kScalar, dst_a.data(), src.data(), n);
    AccumulateScaledU32(Level::kScalar, acc_a.data(), src.data(), w, n);
    for (Level level : SimdLevels()) {
      std::vector<uint32_t> d = dst_b;
      std::vector<double> a = acc_b;
      AddU32(level, d.data(), src.data(), n);
      ASSERT_EQ(dst_a, d) << "n=" << n << " " << LevelName(level);
      AccumulateScaledU32(level, a.data(), src.data(), w, n);
      ASSERT_TRUE(BitsEqual(acc_a, a)) << "n=" << n << " " << LevelName(level);
    }
  }
}

// -------------------------------------------------------------- bid totals

TEST(SimdBidTotalsTest, FuzzAndDegenerateShapes) {
  util::Rng rng(0xB1D5);
  for (int it = 0; it < 1500; ++it) {
    // Shapes: empty cluster, single match, all-ties, k up to 64 and the
    // odd/even lane tails around the 2- and 4-wide chunks.
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(64));
    const size_t rows = it % 7 == 0 ? 0 : rng.Uniform(40);
    std::vector<double> overlap(rows * k, 0.0);
    std::vector<double> residual(k), support(rows);
    std::vector<uint32_t> count(k);
    const bool all_ties = it % 5 == 0;
    for (size_t i = 0; i < overlap.size(); ++i) {
      // Mostly zeros (the scalar skip path), some positives; occasionally
      // the same value everywhere so every tie-sensitive sum collides.
      if (all_ties) {
        overlap[i] = 2.0;
      } else {
        overlap[i] = rng.Uniform(3) == 0
                         ? static_cast<double>(rng.Uniform(5))
                         : 0.0;
      }
    }
    for (uint32_t si = 0; si < k; ++si) {
      residual[si] =
          all_ties ? 0.5 : static_cast<double>(rng.Uniform(1000)) / 999.0;
      count[si] = static_cast<uint32_t>(rng.Uniform(rows + 1));
    }
    for (size_t i = 0; i < rows; ++i) {
      support[i] =
          all_ties ? 0.25 : static_cast<double>(rng.Uniform(1000)) / 999.0;
    }
    std::vector<double> want(k), got(k);
    BidTotals(Level::kScalar, overlap.data(), rows, k, residual.data(),
              support.data(), count.data(), want.data());
    for (Level level : SimdLevels()) {
      std::fill(got.begin(), got.end(), -1.0);
      BidTotals(level, overlap.data(), rows, k, residual.data(),
                support.data(), count.data(), got.data());
      ASSERT_TRUE(BitsEqual(want, got))
          << "it=" << it << " k=" << k << " rows=" << rows << " "
          << LevelName(level);
    }
    // The inline small-shape wrapper must agree with the level API too.
    std::vector<double> via_wrapper(k, -2.0);
    const Level saved = ActiveLevel();
    for (Level level : Levels()) {
      SetActiveLevel(level);
      std::fill(via_wrapper.begin(), via_wrapper.end(), -2.0);
      BidTotals(overlap.data(), rows, k, residual.data(), support.data(),
                count.data(), via_wrapper.data());
      ASSERT_TRUE(BitsEqual(want, via_wrapper))
          << "wrapper level=" << LevelName(level);
    }
    SetActiveLevel(saved);
  }
}

// ---------------------------------------------------------------- dispatch

TEST(SimdDispatchTest, ParseAndNames) {
  Level level;
  EXPECT_TRUE(ParseLevel("scalar", &level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(ParseLevel("sse2", &level));
  EXPECT_EQ(level, Level::kSSE2);
  EXPECT_TRUE(ParseLevel("avx2", &level));
  EXPECT_EQ(level, Level::kAVX2);
  EXPECT_TRUE(ParseLevel("auto", &level));
  EXPECT_EQ(level, DetectCpuLevel());
  EXPECT_FALSE(ParseLevel("avx512", &level));
  EXPECT_FALSE(ParseLevel("", &level));
  for (Level l : SupportedLevels()) {
    Level parsed;
    ASSERT_TRUE(ParseLevel(LevelName(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
}

TEST(SimdDispatchTest, SetActiveLevelClampsAndConfigureSemantics) {
  const Level saved = ActiveLevel();
  // Requesting more than the CPU supports clamps (never errors).
  const Level installed = SetActiveLevel(Level::kAVX2);
  EXPECT_LE(static_cast<int>(installed), static_cast<int>(DetectCpuLevel()));
  EXPECT_EQ(installed, ActiveLevel());
  EXPECT_EQ(SetActiveLevel(Level::kScalar), Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  EXPECT_FALSE(Configure("bogus"));
  EXPECT_EQ(ActiveLevel(), Level::kScalar) << "failed Configure must not move";
  // "auto" never overrides a pinned level (it is the EngineOptions default,
  // applied on every registry Create — a reset here would clobber harnesses
  // that pin a level and then build backends).
  EXPECT_TRUE(Configure("auto"));
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  for (Level level : SupportedLevels()) {
    EXPECT_TRUE(Configure(LevelName(level)));
    EXPECT_EQ(ActiveLevel(), level);
  }
  SetActiveLevel(saved);
}

TEST(SimdDispatchTest, SupportedLevelsStartsWithScalar) {
  const std::vector<Level> levels = SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
}

}  // namespace
}  // namespace simd
}  // namespace util
}  // namespace loom
