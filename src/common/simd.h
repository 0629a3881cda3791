// Runtime-dispatched SIMD kernels for the analysis hot loops.
//
// Every kernel here has one scalar reference implementation and
// (when the build enables them) SSE2/AVX2 variants that are
// **bit-exact** against it on every input — including NaNs, signed
// zeros and denormals. The trick is a fixed *blocked reduction
// contract*: reductions accumulate into four independent lanes
// (lane j owns elements i with i % 4 == j over the blocked prefix),
// the four lane totals combine in the fixed order
// (lane0 + lane1) + (lane2 + lane3), and the tail (n % 4 elements)
// folds in sequentially afterwards. The scalar path follows the same
// order, AVX2 maps the four lanes onto one ymm register, and SSE2
// onto two xmm registers — same additions, same order, identical
// IEEE-754 results on every ISA (simd.cpp is compiled with
// -ffp-contract=off so no path fuses a*b+c into an FMA). That is
// what keeps alarms byte-identical between ASDF_SIMD=ON and OFF
// builds and across machines (DESIGN.md §15). A NaN's sign and
// payload are not fixed by that order (they depend on the instruction
// and the -O level), so the scalar-result kernels return one
// canonical quiet NaN whenever their result is NaN.
//
// Dispatch: the widest ISA the CPU supports is chosen once at first
// use. The ASDF_SIMD environment variable overrides it
// ("off"/"scalar", "sse2", "avx2" — clamped to what the CPU has),
// and building with -DASDF_SIMD=OFF compiles the vector paths out
// entirely. forceIsa() narrows the choice at runtime for tests.
#pragma once

#include <cstddef>

namespace asdf::simd {

enum class Isa {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// The ISA the kernels below currently run on.
Isa activeIsa();

/// Widest ISA this build + CPU can run (kScalar when ASDF_SIMD=OFF).
Isa bestSupportedIsa();

/// Test hook: pins dispatch to `isa` (clamped to bestSupportedIsa()).
/// Returns the level actually selected.
Isa forceIsa(Isa isa);

const char* isaName(Isa isa);

/// Sum of squared differences over a[0..n) / b[0..n) in the blocked
/// reduction order (kmeans distance kernel).
double sqDistance(const double* a, const double* b, std::size_t n);

/// Sum of absolute differences in the blocked reduction order (the
/// black-box L1 window compare).
double l1Distance(const double* a, const double* b, std::size_t n);

/// White-box critical k: max over metrics m of
///   !(|mean[m] - median[m]| <= 1)
///       ? (sigma[m] > 1e-12 ? |mean[m]-median[m]| / sigma[m]
///                           : sentinel)
///       : 0
/// with std::max's NaN-dropping semantics (a NaN candidate never
/// replaces the accumulator). Max is order-independent under that
/// rule, so this needs no lane contract — but the SIMD paths still
/// mirror the scalar comparison-select exactly.
double whiteBoxCriticalK(const double* mean, const double* median,
                         const double* sigma, std::size_t n,
                         double sentinel);

/// out[i] = |x[i] - center| (the MAD deviation pass). Elementwise, so
/// trivially bit-exact; vectorized for throughput.
void absDeviations(const double* x, double center, double* out,
                   std::size_t n);

}  // namespace asdf::simd
