/**
 * @file
 * Host-SIMD functional backend for the ISA layer.
 *
 * The VectorUnit facade decouples *what* an op computes (the
 * functional payload on host data) from *what it costs* (the timing
 * report to sim::Pipeline). This header is the seam between the two:
 * a table of plain function pointers, one per hot lane kernel, that
 * the facade calls for the functional half. Three implementations of
 * the table exist —
 *
 *   scalar  — the flat, branch-poor loops the facade always had;
 *             portable, and the reference model every other table is
 *             lockstep-tested against (tests/test_hostsimd.cpp)
 *   avx2    — 2 x 256-bit intrinsics for the arithmetic / compare /
 *             select kernels (count-type kernels stay scalar: AVX2
 *             has no lane popcount/lzcnt)
 *   avx512  — full-width 512-bit intrinsics for everything, including
 *             the matchBytes byte-run searches, per-lane ctz/clz via
 *             the popcount identity, and the CountALU XNOR +
 *             trailing-ones count (vpopcntq/vplzcntq)
 *
 * Selection is configure-time capped (the QZ_HOST_SIMD CMake option
 * decides which tables are even compiled), then restricted by the
 * QZ_HOST_SIMD environment variable, then resolved once per process
 * against CPUID (docs/SIMULATOR.md, "Host performance"). Timing
 * emission is untouched by construction: every kernel is a drop-in
 * replacement for the scalar loop, so simulated metrics are
 * byte-identical whichever table runs.
 *
 * Conventions: registers pass as pointers to their 8 x 64-bit word
 * arrays (VReg::words; unaligned on the host — kernels use unaligned
 * loads). Predicate masks pass as the raw 64-bit Pred::mask;
 * compare kernels return the full-width lane mask and the caller
 * applies the governing predicate and element-count clamp, which is
 * exactly what the scalar facade computed.
 */
#ifndef QUETZAL_ISA_HOSTSIMD_HPP
#define QUETZAL_ISA_HOSTSIMD_HPP

#include <cstdint>

namespace quetzal::isa {

/** One resolved backend: the functional lane kernels as a flat table. */
struct HostSimdOps
{
    using W = std::uint64_t; //!< 8-word (512-bit) register view

    const char *name; //!< "scalar" | "avx2" | "avx512"

    // ---- 64-bit bitwise / arithmetic (8 lanes) --------------------
    void (*and64)(const W *a, const W *b, W *out);
    void (*or64)(const W *a, const W *b, W *out);
    void (*xor64)(const W *a, const W *b, W *out);
    void (*xnor64)(const W *a, const W *b, W *out);
    void (*add64)(const W *a, const W *b, W *out);
    void (*sub64)(const W *a, const W *b, W *out);
    void (*min64)(const W *a, const W *b, W *out); //!< signed
    void (*max64)(const W *a, const W *b, W *out); //!< signed
    void (*addImm64)(const W *a, std::int64_t imm, W *out);
    /** Lanes where mask is set get a + imm, others keep a. */
    void (*addImmPred64)(const W *a, std::int64_t imm, std::uint64_t mask,
                         W *out);
    void (*addPred64)(const W *a, const W *b, std::uint64_t mask, W *out);
    /** mask ? a : b per 64-bit lane. */
    void (*sel64)(std::uint64_t mask, const W *a, const W *b, W *out);
    /** Logical shifts; shift >= 64 yields all-zero lanes. */
    void (*shr64)(const W *a, unsigned shift, W *out);
    void (*shl64)(const W *a, unsigned shift, W *out);
    /** Per-lane trailing / leading zero count (ctz(0) == clz(0) == 64). */
    void (*ctz64)(const W *a, W *out);
    void (*clz64)(const W *a, W *out);

    // ---- 32-bit arithmetic (16 elements) --------------------------
    void (*add32)(const W *a, const W *b, W *out);
    void (*sub32)(const W *a, const W *b, W *out);
    void (*min32)(const W *a, const W *b, W *out); //!< signed
    void (*max32)(const W *a, const W *b, W *out); //!< signed
    void (*addImm32)(const W *a, std::int32_t imm, W *out);
    void (*addImmPred32)(const W *a, std::int32_t imm, std::uint64_t mask,
                         W *out);
    void (*addPred32)(const W *a, const W *b, std::uint64_t mask, W *out);
    void (*sel32)(std::uint64_t mask, const W *a, const W *b, W *out);

    // ---- compares -> full-width lane masks ------------------------
    std::uint64_t (*cmpEq32)(const W *a, const W *b);
    std::uint64_t (*cmpNe32)(const W *a, const W *b);
    std::uint64_t (*cmpGt32)(const W *a, const W *b); //!< signed
    std::uint64_t (*cmpLt32)(const W *a, const W *b); //!< signed
    std::uint64_t (*cmpEq64)(const W *a, const W *b);
    std::uint64_t (*cmpNe64)(const W *a, const W *b);
    std::uint64_t (*cmpGt64)(const W *a, const W *b); //!< signed
    std::uint64_t (*cmpLt64)(const W *a, const W *b); //!< signed

    // ---- byte-run searches (SVE cmpeq.b + brkb + cntp idiom) ------
    /** Per 32-bit element: consecutive equal bytes from byte 0 (0..4). */
    void (*matchBytes32)(const W *a, const W *b, W *out);
    /** Same, counting down from byte 3 (reverse extension). */
    void (*matchBytes32Rev)(const W *a, const W *b, W *out);

    // ---- width conversion -----------------------------------------
    /**
     * Zero-extend @p n bytes (n <= 16, any alignment) into the first
     * n 32-bit elements; remaining elements are zero. Must not read
     * past src + n (the source may end at a mapping boundary).
     */
    void (*widen8to32)(const std::uint8_t *src, unsigned n, W *out);
    /** Sign-extend the low / high 8 int32 elements into 8 int64 lanes. */
    void (*widenLo32to64)(const W *v, W *out);
    void (*widenHi32to64)(const W *v, W *out);
    /** Truncate two 8-lane 64-bit vectors into 16 int32 elements. */
    void (*pack64to32)(const W *lo, const W *hi, W *out);

    // ---- CountALU (qzcount): XNOR + directional ones-run ----------
    /**
     * Per 64-bit lane: consecutive matching elements between a and b
     * counted from bit 0, i.e. countr_one(~(a ^ b)) >> shift where
     * shift = log2(element bits) (accel::CountAlu::count).
     */
    void (*qzcount)(const W *a, const W *b, unsigned shift, W *out);
    /** Reverse run: countl_one(~(a ^ b)) >> shift. */
    void (*qzcountRev)(const W *a, const W *b, unsigned shift, W *out);

    // ---- gather/scatter lane address math -------------------------
    /**
     * Compact element addresses for an indexed memory op: for each
     * set bit i of @p mask (lane order), append
     * base + (zero-extended 32-bit index i) << log2Scale to @p addrs.
     * Returns the number of addresses written. This is the
     * address-side half of a gather/scatter; the data side stays with
     * the caller.
     */
    unsigned (*compactAddrU32)(std::uint64_t base, const W *idx,
                               unsigned log2Scale, std::uint64_t mask,
                               std::uint64_t *addrs);
    /** Same with sign-extended 32-bit indices (byte-offset gathers). */
    unsigned (*compactAddrI32)(std::uint64_t base, const W *idx,
                               std::uint64_t mask, std::uint64_t *addrs);
    /** Same with 64-bit indices. */
    unsigned (*compactAddr64)(std::uint64_t base, const W *idx,
                              unsigned log2Scale, std::uint64_t mask,
                              std::uint64_t *addrs);
};

/**
 * The active backend, resolved once per process: configure-time cap
 * (QZ_HOST_SIMD CMake option) ∩ QZ_HOST_SIMD environment variable
 * ∩ CPUID. Never returns null — the scalar table always exists.
 */
const HostSimdOps &hostSimd();

/**
 * The backend hostSimd() resolves when the QZ_HOST_SIMD environment
 * variable is @p request (null or empty: auto). A value other than
 * auto, avx512, avx2 or scalar is a fatal() error naming it.
 */
const HostSimdOps &hostSimdFor(const char *request);

/** The scalar reference table (always available). */
const HostSimdOps &hostSimdScalarOps();

/** Compiled-in AVX2 table if this CPU supports it, else nullptr. */
const HostSimdOps *hostSimdAvx2Ops();

/** Compiled-in AVX-512 table if this CPU supports it, else nullptr. */
const HostSimdOps *hostSimdAvx512Ops();

/** Host compiler identification (for BENCH_hostperf.json records). */
const char *hostSimdCompiler();

/** Configure-time cap plus the compiled tables, e.g. "auto(avx512,avx2)". */
const char *hostSimdBuildFlags();

} // namespace quetzal::isa

#endif // QUETZAL_ISA_HOSTSIMD_HPP
