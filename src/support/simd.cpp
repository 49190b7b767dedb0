#include "support/simd.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define OPTIPAR_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define OPTIPAR_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace optipar::simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These ARE the semantics: every vector body
// below must match them bit-for-bit (the differential test enforces it).
// ---------------------------------------------------------------------------

namespace {

void scatter_u32_scalar(std::uint32_t* table, const std::uint32_t* idx,
                        std::size_t n, std::uint32_t value) noexcept {
  for (std::size_t i = 0; i < n; ++i) table[idx[i]] = value;
}

void welford_step_u32_scalar(double* mean, double* m2, double* mn,
                             double* mx, const std::uint32_t* x,
                             std::size_t n, double count) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    const double delta = v - mean[i];
    mean[i] += delta / count;
    m2[i] += delta * (v - mean[i]);
    if (v < mn[i]) mn[i] = v;
    if (v > mx[i]) mx[i] = v;
  }
}

// ---------------------------------------------------------------------------
// AVX2 / AVX-512 bodies (x86 only). Function-level target attributes keep
// the rest of the translation unit at the baseline ISA.
// ---------------------------------------------------------------------------

#if defined(OPTIPAR_SIMD_X86)

__attribute__((target("avx512f"))) void scatter_u32_avx512(
    std::uint32_t* table, const std::uint32_t* idx, std::size_t n,
    std::uint32_t value) noexcept {
  const __m512i vval = _mm512_set1_epi32(static_cast<int>(value));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i vidx = _mm512_loadu_si512(idx + i);
    _mm512_i32scatter_epi32(table, vidx, vval, 4);
  }
  if (i < n) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512i vidx = _mm512_maskz_loadu_epi32(tail, idx + i);
    _mm512_mask_i32scatter_epi32(table, tail, vidx, vval, 4);
  }
}

// Welford: the element recurrence is div/sub/mul/add in the exact scalar
// order; min/max via minpd/maxpd (no NaNs or signed zeros here — inputs
// are small non-negative integers widened to double).
__attribute__((target("avx2"))) void welford_step_u32_avx2(
    double* mean, double* m2, double* mn, double* mx,
    const std::uint32_t* x, std::size_t n, double count) noexcept {
  const __m256d vcount = _mm256_set1_pd(count);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i xi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(x + i));
    const __m256d v = _mm256_cvtepi32_pd(xi);  // x < 2^31 precondition
    __m256d m = _mm256_loadu_pd(mean + i);
    const __m256d delta = _mm256_sub_pd(v, m);
    m = _mm256_add_pd(m, _mm256_div_pd(delta, vcount));
    const __m256d q = _mm256_loadu_pd(m2 + i);
    _mm256_storeu_pd(
        m2 + i, _mm256_add_pd(q, _mm256_mul_pd(delta, _mm256_sub_pd(v, m))));
    _mm256_storeu_pd(mean + i, m);
    _mm256_storeu_pd(mn + i, _mm256_min_pd(_mm256_loadu_pd(mn + i), v));
    _mm256_storeu_pd(mx + i, _mm256_max_pd(_mm256_loadu_pd(mx + i), v));
  }
  welford_step_u32_scalar(mean + i, m2 + i, mn + i, mx + i, x + i, n - i,
                          count);
}

__attribute__((target("avx512f"))) void welford_step_u32_avx512(
    double* mean, double* m2, double* mn, double* mx,
    const std::uint32_t* x, std::size_t n, double count) noexcept {
  const __m512d vcount = _mm512_set1_pd(count);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i xi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + i));
    const __m512d v = _mm512_maskz_cvtepu32_pd(0xFF, xi);
    __m512d m = _mm512_loadu_pd(mean + i);
    const __m512d delta = _mm512_sub_pd(v, m);
    m = _mm512_add_pd(m, _mm512_div_pd(delta, vcount));
    const __m512d q = _mm512_loadu_pd(m2 + i);
    _mm512_storeu_pd(
        m2 + i, _mm512_add_pd(q, _mm512_mul_pd(delta, _mm512_sub_pd(v, m))));
    _mm512_storeu_pd(mean + i, m);
    _mm512_storeu_pd(mn + i,
                     _mm512_maskz_min_pd(0xFF, _mm512_loadu_pd(mn + i), v));
    _mm512_storeu_pd(mx + i,
                     _mm512_maskz_max_pd(0xFF, _mm512_loadu_pd(mx + i), v));
  }
  welford_step_u32_scalar(mean + i, m2 + i, mn + i, mx + i, x + i, n - i,
                          count);
}

#endif  // OPTIPAR_SIMD_X86

// ---------------------------------------------------------------------------
// NEON bodies (aarch64; NEON is architecturally guaranteed there).
// ---------------------------------------------------------------------------

#if defined(OPTIPAR_SIMD_NEON)

void welford_step_u32_neon(double* mean, double* m2, double* mn, double* mx,
                           const std::uint32_t* x, std::size_t n,
                           double count) noexcept {
  const float64x2_t vcount = vdupq_n_f64(count);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v =
        vcvtq_f64_u64(vmovl_u32(vld1_u32(x + i)));
    float64x2_t m = vld1q_f64(mean + i);
    const float64x2_t delta = vsubq_f64(v, m);
    m = vaddq_f64(m, vdivq_f64(delta, vcount));
    const float64x2_t q = vld1q_f64(m2 + i);
    vst1q_f64(m2 + i, vaddq_f64(q, vmulq_f64(delta, vsubq_f64(v, m))));
    vst1q_f64(mean + i, m);
    vst1q_f64(mn + i, vminq_f64(vld1q_f64(mn + i), v));
    vst1q_f64(mx + i, vmaxq_f64(vld1q_f64(mx + i), v));
  }
  welford_step_u32_scalar(mean + i, m2 + i, mn + i, mx + i, x + i, n - i,
                          count);
}

#endif  // OPTIPAR_SIMD_NEON

Isa detect_isa() noexcept {
#if defined(OPTIPAR_SIMD_X86)
  __builtin_cpu_init();
  Isa best = Isa::kScalar;
  if (__builtin_cpu_supports("avx2")) best = Isa::kAvx2;
  if (best == Isa::kAvx2 && __builtin_cpu_supports("avx512f")) {
    best = Isa::kAvx512;
  }
  return best;
#elif defined(OPTIPAR_SIMD_NEON)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

bool host_supports(Isa isa) noexcept {
  if (isa == Isa::kScalar) return true;
  const Isa best = detect_isa();
  if (isa == best) return true;
  // AVX-512 hosts also run the AVX2 bodies.
  return isa == Isa::kAvx2 && best == Isa::kAvx512;
}

Isa resolve_active() noexcept {
  Isa isa = detect_isa();
  if (const char* env = std::getenv("OPTIPAR_SIMD")) {
    const auto want = [env](const char* name) {
      return std::strcmp(env, name) == 0;
    };
    if (want("scalar")) {
      isa = Isa::kScalar;
    } else if (want("avx2") && host_supports(Isa::kAvx2)) {
      isa = Isa::kAvx2;
    } else if (want("avx512") && host_supports(Isa::kAvx512)) {
      isa = Isa::kAvx512;
    } else if (want("neon") && host_supports(Isa::kNeon)) {
      isa = Isa::kNeon;
    }
  }
  return isa;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

Isa active_isa() noexcept {
  static const Isa cached = resolve_active();
  return cached;
}

std::vector<Isa> available_isas() {
  std::vector<Isa> out{Isa::kScalar};
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (host_supports(isa)) out.push_back(isa);
  }
  return out;
}

std::size_t lane_width_u32(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return 1;
    case Isa::kAvx2: return 8;
    case Isa::kAvx512: return 16;
    case Isa::kNeon: return 4;
  }
  return 1;
}

void scatter_u32(std::uint32_t* table, const std::uint32_t* idx,
                 std::size_t n, std::uint32_t value, Isa isa) noexcept {
#if defined(OPTIPAR_SIMD_X86)
  if (isa == Isa::kAvx512) {
    scatter_u32_avx512(table, idx, n, value);
    return;
  }
#endif
  (void)isa;  // AVX2/NEON have no scatter; the scalar loop is the path
  scatter_u32_scalar(table, idx, n, value);
}

void welford_step_u32(double* mean, double* m2, double* mn, double* mx,
                      const std::uint32_t* x, std::size_t n, double count,
                      Isa isa) noexcept {
#if defined(OPTIPAR_SIMD_X86)
  if (isa == Isa::kAvx512) {
    welford_step_u32_avx512(mean, m2, mn, mx, x, n, count);
    return;
  }
  if (isa == Isa::kAvx2) {
    welford_step_u32_avx2(mean, m2, mn, mx, x, n, count);
    return;
  }
#elif defined(OPTIPAR_SIMD_NEON)
  if (isa == Isa::kNeon) {
    welford_step_u32_neon(mean, m2, mn, mx, x, n, count);
    return;
  }
#endif
  (void)isa;
  welford_step_u32_scalar(mean, m2, mn, mx, x, n, count);
}

}  // namespace optipar::simd
