// Kernel implementations. This translation unit is compiled with
// -ffp-contract=off (see common/CMakeLists.txt): a fused multiply-add
// rounds once where mul+add rounds twice, and the bit-exactness
// contract between the scalar and vector paths forbids that.
#include "common/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if !defined(ASDF_SIMD_DISABLED) && defined(__x86_64__)
#define ASDF_SIMD_X86 1
#include <immintrin.h>
#endif

namespace asdf::simd {
namespace {

constexpr double kSigmaFloor = 1e-12;

// --- scalar reference (the blocked reduction contract) ---------------

double sqDistanceScalar(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  double sum = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double l1DistanceScalar(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += std::fabs(a[i] - b[i]);
    acc1 += std::fabs(a[i + 1] - b[i + 1]);
    acc2 += std::fabs(a[i + 2] - b[i + 2]);
    acc3 += std::fabs(a[i + 3] - b[i + 3]);
  }
  double sum = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

// One metric's candidate score. Mirrors analysis::whiteBoxCriticalK's
// original per-metric body exactly: NaN diffs fail the <= test and
// fall through to the sigma branch.
inline double criticalCandidate(double mean, double median, double sigma,
                                double sentinel) {
  const double diff = std::fabs(mean - median);
  if (diff <= 1.0) return 0.0;
  return sigma > kSigmaFloor ? diff / sigma : sentinel;
}

double whiteBoxCriticalKScalar(const double* mean, const double* median,
                               const double* sigma, std::size_t n,
                               double sentinel) {
  // Comparison-select max with NaN-dropping semantics (a NaN candidate
  // never beats the accumulator); order-independent, so no lane
  // structure is needed here.
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double cand = criticalCandidate(mean[i], median[i], sigma[i],
                                          sentinel);
    if (acc < cand) acc = cand;
  }
  return acc;
}

void absDeviationsScalar(const double* x, double center, double* out,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(x[i] - center);
}

#ifdef ASDF_SIMD_X86

// --- SSE2 (baseline on x86-64): four lanes across two xmm registers -

__m128d abs2(__m128d x) {
  return _mm_andnot_pd(_mm_set1_pd(-0.0), x);
}

double sqDistanceSse2(const double* a, const double* b, std::size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d d01 = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    const __m128d d23 =
        _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
  }
  double lane[4];
  _mm_storeu_pd(lane, acc01);
  _mm_storeu_pd(lane + 2, acc23);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double l1DistanceSse2(const double* a, const double* b, std::size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = _mm_add_pd(
        acc01, abs2(_mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i))));
    acc23 = _mm_add_pd(
        acc23,
        abs2(_mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2))));
  }
  double lane[4];
  _mm_storeu_pd(lane, acc01);
  _mm_storeu_pd(lane + 2, acc23);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

// SSE2 has no blendv: select(mask, t, f) = (t & mask) | (f & ~mask).
__m128d select2(__m128d mask, __m128d t, __m128d f) {
  return _mm_or_pd(_mm_and_pd(mask, t), _mm_andnot_pd(mask, f));
}

double whiteBoxCriticalKSse2(const double* mean, const double* median,
                             const double* sigma, std::size_t n,
                             double sentinel) {
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d eps = _mm_set1_pd(kSigmaFloor);
  const __m128d sent = _mm_set1_pd(sentinel);
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d diff =
        abs2(_mm_sub_pd(_mm_loadu_pd(mean + i), _mm_loadu_pd(median + i)));
    const __m128d sig = _mm_loadu_pd(sigma + i);
    // !(diff <= 1): true for diff > 1 and for NaN, like the scalar
    // fall-through.
    const __m128d qual = _mm_cmpnle_pd(diff, one);
    const __m128d sigOk = _mm_cmpgt_pd(sig, eps);
    __m128d cand = select2(sigOk, _mm_div_pd(diff, sig), sent);
    cand = _mm_and_pd(cand, qual);  // unqualified lanes contribute +0.0
    // acc = (cand > acc) ? cand : acc — ordered compare drops NaNs.
    acc = select2(_mm_cmpgt_pd(cand, acc), cand, acc);
  }
  double lane[2];
  _mm_storeu_pd(lane, acc);
  double best = lane[0] < lane[1] ? lane[1] : lane[0];
  if (best < 0.0) best = 0.0;  // lanes start at +0.0; keep the floor
  for (; i < n; ++i) {
    const double cand = criticalCandidate(mean[i], median[i], sigma[i],
                                          sentinel);
    if (best < cand) best = cand;
  }
  return best;
}

void absDeviationsSse2(const double* x, double center, double* out,
                       std::size_t n) {
  const __m128d c = _mm_set1_pd(center);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, abs2(_mm_sub_pd(_mm_loadu_pd(x + i), c)));
  }
  for (; i < n; ++i) out[i] = std::fabs(x[i] - center);
}

// --- AVX2: the four lanes live in one ymm register -------------------

__attribute__((target("avx2"))) __m256d abs4(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

__attribute__((target("avx2"))) double sqDistanceAvx2(const double* a,
                                                      const double* b,
                                                      std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2"))) double l1DistanceAvx2(const double* a,
                                                      const double* b,
                                                      std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, abs4(_mm256_sub_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i))));
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

__attribute__((target("avx2"))) double whiteBoxCriticalKAvx2(
    const double* mean, const double* median, const double* sigma,
    std::size_t n, double sentinel) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d eps = _mm256_set1_pd(kSigmaFloor);
  const __m256d sent = _mm256_set1_pd(sentinel);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d diff = abs4(_mm256_sub_pd(_mm256_loadu_pd(mean + i),
                                            _mm256_loadu_pd(median + i)));
    const __m256d sig = _mm256_loadu_pd(sigma + i);
    const __m256d qual = _mm256_cmp_pd(diff, one, _CMP_NLE_UQ);
    const __m256d sigOk = _mm256_cmp_pd(sig, eps, _CMP_GT_OQ);
    __m256d cand = _mm256_blendv_pd(sent, _mm256_div_pd(diff, sig), sigOk);
    cand = _mm256_and_pd(cand, qual);
    acc = _mm256_blendv_pd(acc, cand, _mm256_cmp_pd(cand, acc, _CMP_GT_OQ));
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  double best = 0.0;
  for (int j = 0; j < 4; ++j) {
    if (best < lane[j]) best = lane[j];
  }
  for (; i < n; ++i) {
    const double cand = criticalCandidate(mean[i], median[i], sigma[i],
                                          sentinel);
    if (best < cand) best = cand;
  }
  return best;
}

__attribute__((target("avx2"))) void absDeviationsAvx2(const double* x,
                                                       double center,
                                                       double* out,
                                                       std::size_t n) {
  const __m256d c = _mm256_set1_pd(center);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, abs4(_mm256_sub_pd(_mm256_loadu_pd(x + i), c)));
  }
  for (; i < n; ++i) out[i] = std::fabs(x[i] - center);
}

#endif  // ASDF_SIMD_X86

Isa detectBest() {
#ifdef ASDF_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kSse2;  // baseline on x86-64
#else
  return Isa::kScalar;
#endif
}

Isa clampToSupported(Isa isa) {
  const Isa best = detectBest();
  return static_cast<int>(isa) <= static_cast<int>(best) ? isa : best;
}

Isa initialIsa() {
  const char* env = std::getenv("ASDF_SIMD");
  if (env != nullptr) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
        std::strcmp(env, "0") == 0) {
      return Isa::kScalar;
    }
    if (std::strcmp(env, "sse2") == 0) return clampToSupported(Isa::kSse2);
    if (std::strcmp(env, "avx2") == 0) return clampToSupported(Isa::kAvx2);
  }
  return detectBest();
}

// Relaxed atomic: kernels run on pool threads; forceIsa() is a test
// hook called while they are quiescent.
std::atomic<Isa> g_isa{initialIsa()};

// A NaN's sign and payload bits depend on which instruction produced
// it, and so on the ISA and on the optimizer (at -O0 SSE2 subtraction
// of NaN operands yields the negative default NaN, 0xfff8...). The
// scalar-result kernels therefore return one canonical quiet NaN, so
// the bit-exactness contract covers NaN results at every -O level.
inline double canonicalNan(double r) {
  return std::isnan(r) ? std::numeric_limits<double>::quiet_NaN() : r;
}

}  // namespace

Isa activeIsa() { return g_isa.load(std::memory_order_relaxed); }

Isa bestSupportedIsa() { return detectBest(); }

Isa forceIsa(Isa isa) {
  const Isa chosen = clampToSupported(isa);
  g_isa.store(chosen, std::memory_order_relaxed);
  return chosen;
}

const char* isaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

double sqDistance(const double* a, const double* b, std::size_t n) {
#ifdef ASDF_SIMD_X86
  switch (activeIsa()) {
    case Isa::kAvx2:
      return canonicalNan(sqDistanceAvx2(a, b, n));
    case Isa::kSse2:
      return canonicalNan(sqDistanceSse2(a, b, n));
    case Isa::kScalar:
      break;
  }
#endif
  return canonicalNan(sqDistanceScalar(a, b, n));
}

double l1Distance(const double* a, const double* b, std::size_t n) {
#ifdef ASDF_SIMD_X86
  switch (activeIsa()) {
    case Isa::kAvx2:
      return canonicalNan(l1DistanceAvx2(a, b, n));
    case Isa::kSse2:
      return canonicalNan(l1DistanceSse2(a, b, n));
    case Isa::kScalar:
      break;
  }
#endif
  return canonicalNan(l1DistanceScalar(a, b, n));
}

double whiteBoxCriticalK(const double* mean, const double* median,
                         const double* sigma, std::size_t n,
                         double sentinel) {
#ifdef ASDF_SIMD_X86
  switch (activeIsa()) {
    case Isa::kAvx2:
      return canonicalNan(
          whiteBoxCriticalKAvx2(mean, median, sigma, n, sentinel));
    case Isa::kSse2:
      return canonicalNan(
          whiteBoxCriticalKSse2(mean, median, sigma, n, sentinel));
    case Isa::kScalar:
      break;
  }
#endif
  return canonicalNan(
      whiteBoxCriticalKScalar(mean, median, sigma, n, sentinel));
}

void absDeviations(const double* x, double center, double* out,
                   std::size_t n) {
#ifdef ASDF_SIMD_X86
  switch (activeIsa()) {
    case Isa::kAvx2:
      absDeviationsAvx2(x, center, out, n);
      return;
    case Isa::kSse2:
      absDeviationsSse2(x, center, out, n);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  absDeviationsScalar(x, center, out, n);
}

}  // namespace asdf::simd
