// Portable SIMD shim for the model/runtime hot loops (DESIGN.md §12).
//
// Design rules:
//  * Runtime dispatch, not compile-time: the library is built with the
//    baseline ISA only, and every vector body carries a function-level
//    target attribute — so one Release binary gets the AVX2/AVX-512 fast
//    path where the host has it and the scalar path everywhere else.
//  * Every kernel takes the ISA as an argument. Hot loops hoist
//    `active_isa()` out of the loop and pass it in; the differential
//    tests sweep `available_isas()` and require bit-identical results
//    against the scalar reference on random inputs.
//  * Float kernels must be BIT-identical to their scalar loop, not merely
//    close: the estimator's statistics feed golden-value tests and
//    checkpoint byte-identity. The repo compiles with -ffp-contract=off
//    (strict C++20, no extensions), so the Welford kernel below uses the
//    same div/sub/mul/add sequence per element as StreamingStats::add and
//    no FMA — vector and scalar round identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace optipar::simd {

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2,
                                kNeon = 3 };

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Best ISA this host supports, resolved once per process. Overridable
/// with OPTIPAR_SIMD=scalar|avx2|avx512|neon (clamped to what the host
/// actually has).
[[nodiscard]] Isa active_isa() noexcept;

/// Every ISA usable on this host, scalar first — the differential tests
/// sweep this list.
[[nodiscard]] std::vector<Isa> available_isas();

/// u32 elements per vector op (1 for scalar) — tests use it to build
/// inputs that exercise full blocks plus every remainder length.
[[nodiscard]] std::size_t lane_width_u32(Isa isa) noexcept;

/// table[idx[i]] = value for every i in [0, n). Duplicate indices are
/// fine (the stored value is uniform). Vectorized (vpscatterdd) only on
/// AVX-512 — AVX2/NEON have no scatter and fall back to the scalar loop.
void scatter_u32(std::uint32_t* table, const std::uint32_t* idx,
                 std::size_t n, std::uint32_t value, Isa isa) noexcept;

/// One Welford update across n INDEPENDENT accumulators sharing a sample
/// count: for each i, fold sample x[i] into (mean[i], m2[i], mn[i],
/// mx[i]) exactly as StreamingStats::add does, with `count` = the number
/// of samples INCLUDING this one. x values must be < 2^31 (they are
/// abort counts, bounded by the node count). Bit-identical to the scalar
/// recurrence — see the header comment.
void welford_step_u32(double* mean, double* m2, double* mn, double* mx,
                      const std::uint32_t* x, std::size_t n, double count,
                      Isa isa) noexcept;

}  // namespace optipar::simd
