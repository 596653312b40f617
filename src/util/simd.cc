#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#define LOOM_SIMD_X86 1
#include <immintrin.h>
#else
#define LOOM_SIMD_X86 0
#endif

namespace loom {
namespace util {
namespace simd {

// ===========================================================================
// Scalar reference implementations. Every other level must be bit-identical
// to these on every legal input (the differential suites enforce it).
// ===========================================================================

namespace {

using detail::kTallyCompareMaxK;

size_t CountLessEqScalar(const uint32_t* a, size_t n, uint32_t v) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += (a[i] <= v) ? 1 : 0;
  return count;
}

bool RangeEqualScalar(const uint32_t* a, const uint32_t* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(uint32_t)) == 0;
}

/// The original Signature::ExtendsBy merge walk — deliberately a different
/// algorithm from the SIMD levels' insertion-point formulation, so the
/// differential tests compare two independent derivations of "grown equals
/// base ∪ delta".
bool MultisetExtendsScalar(const uint32_t* base, size_t n,
                           const uint32_t* delta, size_t d,
                           const uint32_t* grown, size_t m) {
  if (m != n + d) return false;
  size_t i = 0, j = 0;
  for (size_t g = 0; g < m; ++g) {
    const uint32_t f = grown[g];
    if (i < n && base[i] == f) {
      ++i;
    } else if (j < d && delta[j] == f) {
      ++j;
    } else {
      return false;
    }
  }
  return i == n && j == d;
}

/// Residue in [1, p]: the paper replaces 0 with p so factors are never zero.
inline uint32_t NonZeroModI64(int64_t x, uint32_t p) {
  int64_t r = x % static_cast<int64_t>(p);
  if (r < 0) r += p;
  return r == 0 ? p : static_cast<uint32_t>(r);
}

void ResidueDiffScalar(const uint16_t* a, const uint16_t* b, size_t n,
                       uint32_t p, uint16_t* out) {
  for (size_t i = 0; i < n; ++i) {
    // a, b < p, so a - b is already the residue up to one wrap.
    const uint32_t t = a[i] + p - b[i];  // in (0, 2p)
    uint32_t r = t >= p ? t - p : t;
    out[i] = static_cast<uint16_t>(r == 0 ? p : r);
  }
}

void ResidueScalar(const uint16_t* v, size_t n, uint32_t p, uint16_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = v[i] % p;
    out[i] = static_cast<uint16_t>(r == 0 ? p : r);
  }
}

void EdgeAdditionFactorsScalar(uint32_t va, uint32_t vb, uint32_t vu,
                               uint32_t deg_u, uint32_t vv, uint32_t deg_v,
                               uint32_t p, uint32_t out[3]) {
  out[0] =
      NonZeroModI64(static_cast<int64_t>(va) - static_cast<int64_t>(vb), p);
  out[1] = NonZeroModI64(static_cast<int64_t>(vu) + deg_u, p);
  out[2] = NonZeroModI64(static_cast<int64_t>(vv) + deg_v, p);
}


void GatherScalar(const uint32_t* table, size_t table_n, const uint32_t* idx,
                  size_t n, uint32_t oob, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = idx[i] < table_n ? table[idx[i]] : oob;
  }
}

void TallyScalar(const uint32_t* vals, size_t n, uint32_t k,
                 uint32_t* counts) {
  for (size_t i = 0; i < n; ++i) {
    if (vals[i] < k) ++counts[vals[i]];
  }
}

void TallyGatherScalar(const uint32_t* table, size_t table_n,
                       const uint32_t* idx, size_t n, uint32_t k,
                       uint32_t* counts) {
  for (size_t i = 0; i < n; ++i) {
    if (idx[i] >= table_n) continue;
    const uint32_t v = table[idx[i]];
    if (v < k) ++counts[v];
  }
}

void AddScalar(uint32_t* dst, const uint32_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AccumulateScaledScalar(double* dst, const uint32_t* src, double weight,
                            size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] += weight * static_cast<double>(src[i]);
  }
}

void BidTotalsScalar(const double* overlap, size_t rows, uint32_t k,
                     const double* residual, const double* support,
                     const uint32_t* count, double* totals) {
  (void)rows;
  for (uint32_t si = 0; si < k; ++si) {
    double total = 0.0;
    const size_t c = count[si];
    assert(c <= rows);
    for (size_t i = 0; i < c; ++i) {
      const double ov = overlap[i * k + si];
      if (ov <= 0.0) continue;  // contributes exactly +0.0
      total += (ov * residual[si]) * support[i];
    }
    totals[si] = total;
  }
}

}  // namespace

// ===========================================================================
// x86 SIMD implementations.
// ===========================================================================

#if LOOM_SIMD_X86

namespace {

// ----------------------------------------------------------------- SSE2

size_t CountLessEqSSE2(const uint32_t* a, size_t n, uint32_t v) {
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i vq = _mm_xor_si128(_mm_set1_epi32(static_cast<int>(v)), bias);
  size_t i = 0;
  size_t gt = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i va = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)), bias);
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(va, vq)));
    gt += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  size_t count = i - gt;
  for (; i < n; ++i) count += (a[i] <= v) ? 1 : 0;
  return count;
}

bool RangeEqualSSE2(const uint32_t* a, const uint32_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(va, vb)) != 0xFFFF) return false;
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// r >= p via saturating subtraction (SSE2 has no unsigned u16 compare):
/// subs_epu16(r, p - 1) is nonzero exactly when r >= p.
inline __m128i LtMaskU16SSE2(__m128i r, __m128i pm1, __m128i zero) {
  return _mm_cmpeq_epi16(_mm_subs_epu16(r, pm1), zero);  // r < p
}

void ResidueDiffSSE2(const uint16_t* a, const uint16_t* b, size_t n,
                     uint32_t p, uint16_t* out) {
  const __m128i vp = _mm_set1_epi16(static_cast<short>(p));
  const __m128i pm1 = _mm_set1_epi16(static_cast<short>(p - 1));
  const __m128i zero = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    // t = a + (p - b) in (0, 2p); reduce by one conditional subtract.
    const __m128i t = _mm_add_epi16(va, _mm_sub_epi16(vp, vb));
    const __m128i lt = LtMaskU16SSE2(t, pm1, zero);
    __m128i r = _mm_sub_epi16(t, _mm_andnot_si128(lt, vp));
    // 0 -> p.
    const __m128i z = _mm_cmpeq_epi16(r, zero);
    r = _mm_or_si128(r, _mm_and_si128(z, vp));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), r);
  }
  if (i < n) ResidueDiffScalar(a + i, b + i, n - i, p, out + i);
}

void ResidueSSE2(const uint16_t* v, size_t n, uint32_t p, uint16_t* out) {
  // q = mulhi(v, floor(2^16 / p)) underestimates floor(v / p) by at most 2;
  // two conditional subtracts land the exact residue.
  const uint16_t magic = static_cast<uint16_t>(65536u / p);
  const __m128i vm = _mm_set1_epi16(static_cast<short>(magic));
  const __m128i vp = _mm_set1_epi16(static_cast<short>(p));
  const __m128i pm1 = _mm_set1_epi16(static_cast<short>(p - 1));
  const __m128i zero = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128i q = _mm_mulhi_epu16(x, vm);
    __m128i r = _mm_sub_epi16(x, _mm_mullo_epi16(q, vp));
    for (int round = 0; round < 2; ++round) {
      const __m128i lt = LtMaskU16SSE2(r, pm1, zero);
      r = _mm_sub_epi16(r, _mm_andnot_si128(lt, vp));
    }
    const __m128i z = _mm_cmpeq_epi16(r, zero);
    r = _mm_or_si128(r, _mm_and_si128(z, vp));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), r);
  }
  if (i < n) ResidueScalar(v + i, n - i, p, out + i);
}

void AddSSE2(uint32_t* dst, const uint32_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_add_epi32(d, s));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void AccumulateScaledSSE2(double* dst, const uint32_t* src, double weight,
                          size_t n) {
  const __m128d w = _mm_set1_pd(weight);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // src < 2^31 (kernel contract), so the signed epi32 conversion is exact.
    const __m128i s32 = _mm_set_epi32(0, 0, static_cast<int>(src[i + 1]),
                                      static_cast<int>(src[i]));
    const __m128d s = _mm_cvtepi32_pd(s32);
    const __m128d d = _mm_loadu_pd(dst + i);
    _mm_storeu_pd(dst + i, _mm_add_pd(d, _mm_mul_pd(w, s)));
  }
  for (; i < n; ++i) dst[i] += weight * static_cast<double>(src[i]);
}

void BidTotalsSSE2(const double* overlap, size_t rows, uint32_t k,
                   const double* residual, const double* support,
                   const uint32_t* count, double* totals) {
  const __m128d zero = _mm_setzero_pd();
  uint32_t si = 0;
  for (; si + 2 <= k; si += 2) {
    const __m128d resid = _mm_loadu_pd(residual + si);
    // count compared in double lanes (exact: count <= rows < 2^31).
    const __m128d cnt = _mm_set_pd(static_cast<double>(count[si + 1]),
                                   static_cast<double>(count[si]));
    const size_t maxc =
        count[si] > count[si + 1] ? count[si] : count[si + 1];
    assert(maxc <= rows);
    (void)rows;
    __m128d tot = zero;
    for (size_t i = 0; i < maxc; ++i) {
      const __m128d ov = _mm_loadu_pd(overlap + i * k + si);
      const __m128d live = _mm_and_pd(
          _mm_cmpgt_pd(cnt, _mm_set1_pd(static_cast<double>(i))),
          _mm_cmpgt_pd(ov, zero));
      const __m128d term = _mm_mul_pd(_mm_mul_pd(ov, resid),
                                      _mm_set1_pd(support[i]));
      tot = _mm_add_pd(tot, _mm_and_pd(term, live));
    }
    _mm_storeu_pd(totals + si, tot);
  }
  if (si < k) {
    // Odd trailing partition: scalar twin on the remaining columns.
    for (; si < k; ++si) {
      double total = 0.0;
      for (size_t i = 0; i < count[si]; ++i) {
        const double ov = overlap[i * k + si];
        if (ov <= 0.0) continue;
        total += (ov * residual[si]) * support[i];
      }
      totals[si] = total;
    }
  }
}

// ----------------------------------------------------------------- AVX2

__attribute__((target("avx2"))) size_t CountLessEqAVX2(const uint32_t* a,
                                                       size_t n, uint32_t v) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vq =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(v)), bias);
  size_t i = 0;
  size_t gt = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), bias);
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(va, vq)));
    gt += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  size_t count = i - gt;
  for (; i < n; ++i) count += (a[i] <= v) ? 1 : 0;
  return count;
}

__attribute__((target("avx2"))) bool RangeEqualAVX2(const uint32_t* a,
                                                    const uint32_t* b,
                                                    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(va, vb)) != -1) return false;
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) inline __m256i LtMaskU16AVX2(__m256i r,
                                                             __m256i pm1,
                                                             __m256i zero) {
  return _mm256_cmpeq_epi16(_mm256_subs_epu16(r, pm1), zero);  // r < p
}

__attribute__((target("avx2"))) void ResidueDiffAVX2(const uint16_t* a,
                                                     const uint16_t* b,
                                                     size_t n, uint32_t p,
                                                     uint16_t* out) {
  const __m256i vp = _mm256_set1_epi16(static_cast<short>(p));
  const __m256i pm1 = _mm256_set1_epi16(static_cast<short>(p - 1));
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i t = _mm256_add_epi16(va, _mm256_sub_epi16(vp, vb));
    const __m256i lt = LtMaskU16AVX2(t, pm1, zero);
    __m256i r = _mm256_sub_epi16(t, _mm256_andnot_si256(lt, vp));
    const __m256i z = _mm256_cmpeq_epi16(r, zero);
    r = _mm256_or_si256(r, _mm256_and_si256(z, vp));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  for (; i < n; ++i) {  // inline tail: no cross-target call from AVX2 code
    const uint32_t t = a[i] + p - b[i];
    const uint32_t r = t >= p ? t - p : t;
    out[i] = static_cast<uint16_t>(r == 0 ? p : r);
  }
}

__attribute__((target("avx2"))) void ResidueAVX2(const uint16_t* v, size_t n,
                                                 uint32_t p, uint16_t* out) {
  const uint16_t magic = static_cast<uint16_t>(65536u / p);
  const __m256i vm = _mm256_set1_epi16(static_cast<short>(magic));
  const __m256i vp = _mm256_set1_epi16(static_cast<short>(p));
  const __m256i pm1 = _mm256_set1_epi16(static_cast<short>(p - 1));
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i q = _mm256_mulhi_epu16(x, vm);
    __m256i r = _mm256_sub_epi16(x, _mm256_mullo_epi16(q, vp));
    for (int round = 0; round < 2; ++round) {
      const __m256i lt = LtMaskU16AVX2(r, pm1, zero);
      r = _mm256_sub_epi16(r, _mm256_andnot_si256(lt, vp));
    }
    const __m256i z = _mm256_cmpeq_epi16(r, zero);
    r = _mm256_or_si256(r, _mm256_and_si256(z, vp));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  for (; i < n; ++i) {  // inline tail: no cross-target call from AVX2 code
    const uint32_t r = v[i] % p;
    out[i] = static_cast<uint16_t>(r == 0 ? p : r);
  }
}

__attribute__((target("avx2"))) void GatherAVX2(const uint32_t* table,
                                                size_t table_n,
                                                const uint32_t* idx, size_t n,
                                                uint32_t oob, uint32_t* out) {
  assert(table_n <= static_cast<size_t>(INT32_MAX));
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vn = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(table_n))),
      bias);
  const __m256i voob = _mm256_set1_epi32(static_cast<int>(oob));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    // idx < table_n, unsigned (masked-off lanes never touch memory).
    const __m256i inb =
        _mm256_cmpgt_epi32(vn, _mm256_xor_si256(vidx, bias));
    const __m256i got = _mm256_mask_i32gather_epi32(
        voob, reinterpret_cast<const int*>(table), vidx, inb, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), got);
  }
  for (; i < n; ++i) out[i] = idx[i] < table_n ? table[idx[i]] : oob;
}

__attribute__((target("avx2"))) void TallyAVX2(const uint32_t* vals, size_t n,
                                               uint32_t k, uint32_t* counts) {
  // Below ~one pack-chunk per partition sweep — or for wide k — the plain
  // histogram wins (and most neighbour spans are tiny); the compare sweep
  // only pays off on hub-sized spans. Thresholds shared with the inline
  // wrapper gate in simd.h.
  if (k > kTallyCompareMaxK || n < detail::kSmallTally) {
    for (size_t j = 0; j < n; ++j) {
      if (vals[j] < k) ++counts[vals[j]];
    }
    return;
  }
  const __m256i m255 = _mm256_set1_epi32(255);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // Pack 32 values into uint8 lanes. min-with-255 first: ignored values
    // (>= k, incl. kNoPartition) stay >= k under unsigned saturation, and
    // packus sees only non-negative inputs. Lane order is permuted by the
    // in-lane packs — irrelevant for counting.
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i + 8));
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i + 16));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i + 24));
    const __m256i p01 = _mm256_packus_epi32(_mm256_min_epu32(a, m255),
                                            _mm256_min_epu32(b, m255));
    const __m256i p23 = _mm256_packus_epi32(_mm256_min_epu32(c, m255),
                                            _mm256_min_epu32(d, m255));
    const __m256i pk = _mm256_packus_epi16(p01, p23);
    for (uint32_t si = 0; si < k; ++si) {
      const __m256i eq =
          _mm256_cmpeq_epi8(pk, _mm256_set1_epi8(static_cast<char>(si)));
      counts[si] += static_cast<uint32_t>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_epi8(eq))));
    }
  }
  for (; i < n; ++i) {  // inline tail: no cross-target call from AVX2 code
    if (vals[i] < k) ++counts[vals[i]];
  }
}

__attribute__((target("avx2"))) void TallyGatherAVX2(const uint32_t* table,
                                                     size_t table_n,
                                                     const uint32_t* idx,
                                                     size_t n, uint32_t k,
                                                     uint32_t* counts) {
  // Most neighbour spans are a handful of vertices — the compare sweep
  // can't amortise there, so take the plain gather-histogram path and
  // reserve the vector machinery for hub-sized spans (thresholds shared
  // with the inline wrapper gate in simd.h).
  if (n < detail::kSmallTally || k > kTallyCompareMaxK) {
    for (size_t i = 0; i < n; ++i) {
      if (idx[i] >= table_n) continue;
      const uint32_t v = table[idx[i]];
      if (v < k) ++counts[v];
    }
    return;
  }
  // Chunked gather-then-tally keeps the staging buffer in L1.
  uint32_t buf[256];
  size_t i = 0;
  while (i < n) {
    const size_t c = n - i < 256 ? n - i : 256;
    GatherAVX2(table, table_n, idx + i, c, 0xFFFFFFFFu, buf);
    TallyAVX2(buf, c, k, counts);
    i += c;
  }
}

__attribute__((target("avx2"))) void AddAVX2(uint32_t* dst,
                                             const uint32_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi32(d, s));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) void AccumulateScaledAVX2(double* dst,
                                                          const uint32_t* src,
                                                          double weight,
                                                          size_t n) {
  const __m256d w = _mm256_set1_pd(weight);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i s32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256d s = _mm256_cvtepi32_pd(s32);  // exact: src < 2^31
    const __m256d d = _mm256_loadu_pd(dst + i);
    // Explicit mul + add (never fused): bit-identical to the scalar twin.
    _mm256_storeu_pd(dst + i, _mm256_add_pd(d, _mm256_mul_pd(w, s)));
  }
  for (; i < n; ++i) dst[i] += weight * static_cast<double>(src[i]);
}

__attribute__((target("avx2"))) void BidTotalsAVX2(
    const double* overlap, size_t rows, uint32_t k, const double* residual,
    const double* support, const uint32_t* count, double* totals) {
  const __m256d zero = _mm256_setzero_pd();
  uint32_t si = 0;
  for (; si + 4 <= k; si += 4) {
    const __m256d resid = _mm256_loadu_pd(residual + si);
    const __m256d cnt = _mm256_set_pd(
        static_cast<double>(count[si + 3]), static_cast<double>(count[si + 2]),
        static_cast<double>(count[si + 1]), static_cast<double>(count[si]));
    size_t maxc = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (count[si + lane] > maxc) maxc = count[si + lane];
    }
    assert(maxc <= rows);
    (void)rows;
    __m256d tot = zero;
    for (size_t i = 0; i < maxc; ++i) {
      const __m256d ov = _mm256_loadu_pd(overlap + i * k + si);
      // A lane is live while i < count[si] and its overlap is positive;
      // dead lanes contribute exactly +0.0 (same as the scalar skip).
      const __m256d live = _mm256_and_pd(
          _mm256_cmp_pd(cnt, _mm256_set1_pd(static_cast<double>(i)),
                        _CMP_GT_OQ),
          _mm256_cmp_pd(ov, zero, _CMP_GT_OQ));
      const __m256d term = _mm256_mul_pd(_mm256_mul_pd(ov, resid),
                                         _mm256_set1_pd(support[i]));
      tot = _mm256_add_pd(tot, _mm256_and_pd(term, live));
    }
    _mm256_storeu_pd(totals + si, tot);
  }
  for (; si < k; ++si) {
    double total = 0.0;
    for (size_t i = 0; i < count[si]; ++i) {
      const double ov = overlap[i * k + si];
      if (ov <= 0.0) continue;
      total += (ov * residual[si]) * support[i];
    }
    totals[si] = total;
  }
}

}  // namespace

#endif  // LOOM_SIMD_X86

// ===========================================================================
// Dispatch plumbing.
// ===========================================================================

namespace detail {
std::atomic<uint8_t> g_active_level{0xFF};
}  // namespace detail

namespace {

constexpr uint8_t kUnresolved = 0xFF;

Level ClampToCpu(Level requested) {
  const Level best = DetectCpuLevel();
  if (static_cast<uint8_t>(requested) <= static_cast<uint8_t>(best)) {
    return requested;
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "loom: LOOM_SIMD level '%s' unsupported on this CPU; "
                 "using '%s'\n",
                 LevelName(requested), LevelName(best));
  }
  return best;
}

Level EnvDefaultLevel() {
  const char* env = std::getenv("LOOM_SIMD");
  Level level;
  if (env != nullptr && ParseLevel(env, &level)) return ClampToCpu(level);
  if (env != nullptr && *env != '\0') {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "loom: ignoring unknown LOOM_SIMD value '%s' "
                   "(expected scalar|sse2|avx2|auto)\n",
                   env);
    }
  }
  return DetectCpuLevel();
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSSE2:
      return "sse2";
    case Level::kAVX2:
      return "avx2";
  }
  return "scalar";
}

bool ParseLevel(std::string_view text, Level* out) {
  if (text == "scalar") {
    *out = Level::kScalar;
  } else if (text == "sse2") {
    *out = Level::kSSE2;
  } else if (text == "avx2") {
    *out = Level::kAVX2;
  } else if (text == "auto") {
    *out = DetectCpuLevel();
  } else {
    return false;
  }
  return true;
}

Level DetectCpuLevel() {
#if LOOM_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
  return Level::kSSE2;  // x86-64 baseline
#else
  return Level::kScalar;
#endif
}

std::vector<Level> SupportedLevels() {
  std::vector<Level> out = {Level::kScalar};
  const Level best = DetectCpuLevel();
  if (static_cast<uint8_t>(best) >= static_cast<uint8_t>(Level::kSSE2)) {
    out.push_back(Level::kSSE2);
  }
  if (static_cast<uint8_t>(best) >= static_cast<uint8_t>(Level::kAVX2)) {
    out.push_back(Level::kAVX2);
  }
  return out;
}

Level detail::ResolveActiveLevel() {
  const Level resolved = EnvDefaultLevel();
  uint8_t expected = kUnresolved;
  detail::g_active_level.compare_exchange_strong(
      expected, static_cast<uint8_t>(resolved), std::memory_order_relaxed);
  return static_cast<Level>(
      detail::g_active_level.load(std::memory_order_relaxed));
}

Level SetActiveLevel(Level level) {
  const Level installed = ClampToCpu(level);
  detail::g_active_level.store(static_cast<uint8_t>(installed),
                               std::memory_order_relaxed);
  return installed;
}

bool Configure(std::string_view spec) {
  if (spec == "auto") {
    // No override: keep whatever is active (the environment default
    // resolves lazily on first kernel use). This is what lets a test
    // harness pin a level with SetActiveLevel and then build backends
    // with default options without being silently reset.
    return true;
  }
  Level level;
  if (!ParseLevel(spec, &level)) return false;
  SetActiveLevel(level);
  return true;
}

// ===========================================================================
// Kernel entry points: explicit-level switch + ActiveLevel wrappers. On
// non-x86 builds every level resolves to scalar.
// ===========================================================================

#if LOOM_SIMD_X86
#define LOOM_SIMD_DISPATCH(level, scalar_call, sse2_call, avx2_call) \
  switch (level) {                                                   \
    case Level::kScalar:                                             \
      return scalar_call;                                            \
    case Level::kSSE2:                                               \
      return sse2_call;                                              \
    case Level::kAVX2:                                               \
      return avx2_call;                                              \
  }                                                                  \
  return scalar_call
#else
#define LOOM_SIMD_DISPATCH(level, scalar_call, sse2_call, avx2_call) \
  (void)level;                                                       \
  return scalar_call
#endif

size_t CountLessEqU32(Level level, const uint32_t* a, size_t n, uint32_t v) {
  LOOM_SIMD_DISPATCH(level, CountLessEqScalar(a, n, v),
                     CountLessEqSSE2(a, n, v), CountLessEqAVX2(a, n, v));
}
size_t CountLessEqU32(const uint32_t* a, size_t n, uint32_t v) {
  return CountLessEqU32(ActiveLevel(), a, n, v);
}

bool RangeEqualU32(Level level, const uint32_t* a, const uint32_t* b,
                   size_t n) {
  LOOM_SIMD_DISPATCH(level, RangeEqualScalar(a, b, n), RangeEqualSSE2(a, b, n),
                     RangeEqualAVX2(a, b, n));
}
bool RangeEqualU32(const uint32_t* a, const uint32_t* b, size_t n) {
  return RangeEqualU32(ActiveLevel(), a, b, n);
}

bool MultisetExtendsU32(Level level, const uint32_t* base, size_t n,
                        const uint32_t* delta, size_t d, const uint32_t* grown,
                        size_t m) {
  // Below a couple of AVX2 widths the merge walk beats the segmented
  // formulation (measured ~1.6x the other way at m = 48), and at SSE2's
  // 4-lane width the segmented pass never pays at all — those cases run
  // the scalar definition, which is trivially bit-identical.
  if (level != Level::kAVX2 || m < 32) {
    return MultisetExtendsScalar(base, n, delta, d, grown, m);
  }
  if (m != n + d) return false;
  // grown must be base with each (ascending) delta element inserted after
  // its insertion point: check the segments between insertion points and
  // the inserted elements themselves.
  size_t bpos = 0, gpos = 0;
  for (size_t j = 0; j < d; ++j) {
    assert(j == 0 || delta[j - 1] <= delta[j]);
    const size_t c = CountLessEqU32(level, base, n, delta[j]);
    if (!RangeEqualU32(level, base + bpos, grown + gpos, c - bpos)) {
      return false;
    }
    gpos += c - bpos;
    bpos = c;
    if (grown[gpos] != delta[j]) return false;
    ++gpos;
  }
  return RangeEqualU32(level, base + bpos, grown + gpos, n - bpos);
}
bool MultisetExtendsU32(const uint32_t* base, size_t n, const uint32_t* delta,
                        size_t d, const uint32_t* grown, size_t m) {
  return MultisetExtendsU32(ActiveLevel(), base, n, delta, d, grown, m);
}

void ResidueDiffU16(Level level, const uint16_t* a, const uint16_t* b,
                    size_t n, uint32_t p, uint16_t* out) {
  assert(p >= 2 && p <= 255);
  LOOM_SIMD_DISPATCH(level, ResidueDiffScalar(a, b, n, p, out),
                     ResidueDiffSSE2(a, b, n, p, out),
                     ResidueDiffAVX2(a, b, n, p, out));
}
void ResidueDiffU16(const uint16_t* a, const uint16_t* b, size_t n, uint32_t p,
                    uint16_t* out) {
  ResidueDiffU16(ActiveLevel(), a, b, n, p, out);
}

void ResidueU16(Level level, const uint16_t* v, size_t n, uint32_t p,
                uint16_t* out) {
  assert(p >= 2 && p <= 255);
  LOOM_SIMD_DISPATCH(level, ResidueScalar(v, n, p, out),
                     ResidueSSE2(v, n, p, out), ResidueAVX2(v, n, p, out));
}
void ResidueU16(const uint16_t* v, size_t n, uint32_t p, uint16_t* out) {
  ResidueU16(ActiveLevel(), v, n, p, out);
}

void EdgeAdditionFactors(Level level, uint32_t va, uint32_t vb, uint32_t vu,
                         uint32_t deg_u, uint32_t vv, uint32_t deg_v,
                         uint32_t p, uint32_t out[3]) {
  if (level != Level::kScalar) {
    detail::EdgeAdditionFactorsFast(va, vb, vu, deg_u, vv, deg_v, p, out);
    return;
  }
  EdgeAdditionFactorsScalar(va, vb, vu, deg_u, vv, deg_v, p, out);
}

void GatherU32(Level level, const uint32_t* table, size_t table_n,
               const uint32_t* idx, size_t n, uint32_t oob, uint32_t* out) {
  // vpgatherdd indexes are signed 32-bit: tables beyond INT32_MAX entries
  // (possible — VertexId is uint32) must take the scalar path at every
  // level or the AVX2 bounds mask would wrap and break bit-identity.
  if (table_n > static_cast<size_t>(INT32_MAX)) {
    GatherScalar(table, table_n, idx, n, oob, out);
    return;
  }
  LOOM_SIMD_DISPATCH(level, GatherScalar(table, table_n, idx, n, oob, out),
                     GatherScalar(table, table_n, idx, n, oob, out),
                     GatherAVX2(table, table_n, idx, n, oob, out));
}
void GatherU32(const uint32_t* table, size_t table_n, const uint32_t* idx,
               size_t n, uint32_t oob, uint32_t* out) {
  GatherU32(ActiveLevel(), table, table_n, idx, n, oob, out);
}

void TallyU32(Level level, const uint32_t* vals, size_t n, uint32_t k,
              uint32_t* counts) {
  LOOM_SIMD_DISPATCH(level, TallyScalar(vals, n, k, counts),
                     TallyScalar(vals, n, k, counts),
                     TallyAVX2(vals, n, k, counts));
}
void TallyU32(const uint32_t* vals, size_t n, uint32_t k, uint32_t* counts) {
  TallyU32(ActiveLevel(), vals, n, k, counts);
}

void TallyGatherU32(Level level, const uint32_t* table, size_t table_n,
                    const uint32_t* idx, size_t n, uint32_t k,
                    uint32_t* counts) {
  if (table_n > static_cast<size_t>(INT32_MAX)) {  // see GatherU32
    TallyGatherScalar(table, table_n, idx, n, k, counts);
    return;
  }
  LOOM_SIMD_DISPATCH(level, TallyGatherScalar(table, table_n, idx, n, k, counts),
                     TallyGatherScalar(table, table_n, idx, n, k, counts),
                     TallyGatherAVX2(table, table_n, idx, n, k, counts));
}

void AddU32(Level level, uint32_t* dst, const uint32_t* src, size_t n) {
  LOOM_SIMD_DISPATCH(level, AddScalar(dst, src, n), AddSSE2(dst, src, n),
                     AddAVX2(dst, src, n));
}

void AccumulateScaledU32(Level level, double* dst, const uint32_t* src,
                         double weight, size_t n) {
  LOOM_SIMD_DISPATCH(level, AccumulateScaledScalar(dst, src, weight, n),
                     AccumulateScaledSSE2(dst, src, weight, n),
                     AccumulateScaledAVX2(dst, src, weight, n));
}

void BidTotals(Level level, const double* overlap, size_t rows, uint32_t k,
               const double* residual, const double* support,
               const uint32_t* count, double* totals) {
  LOOM_SIMD_DISPATCH(
      level, BidTotalsScalar(overlap, rows, k, residual, support, count, totals),
      BidTotalsSSE2(overlap, rows, k, residual, support, count, totals),
      BidTotalsAVX2(overlap, rows, k, residual, support, count, totals));
}

#undef LOOM_SIMD_DISPATCH

}  // namespace simd
}  // namespace util
}  // namespace loom
