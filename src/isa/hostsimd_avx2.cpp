/**
 * @file
 * AVX2 HostSimdOps table: 2 x 256-bit kernels for the arithmetic,
 * compare, select, shift and width-conversion entries. The count-type
 * kernels (matchBytes, ctz/clz, qzcount) and the address compaction
 * stay on the scalar reference — AVX2 has no per-lane popcount/lzcnt
 * and no compress-store, and emulating them loses to the scalar loop.
 *
 * Predicated entries expand the bitmask into full-width lane masks
 * (all-ones / all-zero), so "add where active" becomes
 * a + (b AND lanemask) — bit-identical to the scalar select.
 */
#include "isa/hostsimd_tables.hpp"

#include <immintrin.h>

#include <cstring>

namespace quetzal::isa {

namespace {

using W = HostSimdOps::W;

inline __m256i
ld0(const W *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline __m256i
ld1(const W *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p + 4));
}

inline void
st(W *p, __m256i v0, __m256i v1)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v0);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + 4), v1);
}

/** Expand 8 mask bits into 8 all-ones/all-zero 32-bit lanes. */
inline __m256i
lanes32(std::uint64_t mask)
{
    const __m256i bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i vm =
        _mm256_set1_epi32(static_cast<int>(mask & 0xFFu));
    return _mm256_cmpeq_epi32(_mm256_and_si256(vm, bits), bits);
}

/** Expand 4 mask bits into 4 all-ones/all-zero 64-bit lanes. */
inline __m256i
lanes64(std::uint64_t mask)
{
    const __m256i bits = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i vm =
        _mm256_set1_epi64x(static_cast<long long>(mask & 0xFu));
    return _mm256_cmpeq_epi64(_mm256_and_si256(vm, bits), bits);
}

// ---- 64-bit lanes -------------------------------------------------

void
and64(const W *a, const W *b, W *out)
{
    st(out, _mm256_and_si256(ld0(a), ld0(b)),
       _mm256_and_si256(ld1(a), ld1(b)));
}

void
or64(const W *a, const W *b, W *out)
{
    st(out, _mm256_or_si256(ld0(a), ld0(b)),
       _mm256_or_si256(ld1(a), ld1(b)));
}

void
xor64(const W *a, const W *b, W *out)
{
    st(out, _mm256_xor_si256(ld0(a), ld0(b)),
       _mm256_xor_si256(ld1(a), ld1(b)));
}

void
xnor64(const W *a, const W *b, W *out)
{
    const __m256i ones = _mm256_set1_epi64x(-1);
    st(out,
       _mm256_xor_si256(_mm256_xor_si256(ld0(a), ld0(b)), ones),
       _mm256_xor_si256(_mm256_xor_si256(ld1(a), ld1(b)), ones));
}

void
add64(const W *a, const W *b, W *out)
{
    st(out, _mm256_add_epi64(ld0(a), ld0(b)),
       _mm256_add_epi64(ld1(a), ld1(b)));
}

void
sub64(const W *a, const W *b, W *out)
{
    st(out, _mm256_sub_epi64(ld0(a), ld0(b)),
       _mm256_sub_epi64(ld1(a), ld1(b)));
}

inline __m256i
min64h(__m256i a, __m256i b)
{
    // blendv picks b where the (signed >) mask is set.
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

inline __m256i
max64h(__m256i a, __m256i b)
{
    return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

void
min64(const W *a, const W *b, W *out)
{
    st(out, min64h(ld0(a), ld0(b)), min64h(ld1(a), ld1(b)));
}

void
max64(const W *a, const W *b, W *out)
{
    st(out, max64h(ld0(a), ld0(b)), max64h(ld1(a), ld1(b)));
}

void
addImm64(const W *a, std::int64_t imm, W *out)
{
    const __m256i vi = _mm256_set1_epi64x(imm);
    st(out, _mm256_add_epi64(ld0(a), vi), _mm256_add_epi64(ld1(a), vi));
}

void
addImmPred64(const W *a, std::int64_t imm, std::uint64_t mask, W *out)
{
    const __m256i vi = _mm256_set1_epi64x(imm);
    st(out,
       _mm256_add_epi64(ld0(a), _mm256_and_si256(vi, lanes64(mask))),
       _mm256_add_epi64(ld1(a),
                        _mm256_and_si256(vi, lanes64(mask >> 4))));
}

void
addPred64(const W *a, const W *b, std::uint64_t mask, W *out)
{
    st(out,
       _mm256_add_epi64(ld0(a),
                        _mm256_and_si256(ld0(b), lanes64(mask))),
       _mm256_add_epi64(ld1(a),
                        _mm256_and_si256(ld1(b), lanes64(mask >> 4))));
}

void
sel64(std::uint64_t mask, const W *a, const W *b, W *out)
{
    st(out, _mm256_blendv_epi8(ld0(b), ld0(a), lanes64(mask)),
       _mm256_blendv_epi8(ld1(b), ld1(a), lanes64(mask >> 4)));
}

void
shr64(const W *a, unsigned shift, W *out)
{
    // vpsrlq with count >= 64 yields zero, matching the scalar guard.
    const __m128i c = _mm_cvtsi32_si128(static_cast<int>(shift));
    st(out, _mm256_srl_epi64(ld0(a), c), _mm256_srl_epi64(ld1(a), c));
}

void
shl64(const W *a, unsigned shift, W *out)
{
    const __m128i c = _mm_cvtsi32_si128(static_cast<int>(shift));
    st(out, _mm256_sll_epi64(ld0(a), c), _mm256_sll_epi64(ld1(a), c));
}

// ---- 32-bit elements ----------------------------------------------

void
add32(const W *a, const W *b, W *out)
{
    st(out, _mm256_add_epi32(ld0(a), ld0(b)),
       _mm256_add_epi32(ld1(a), ld1(b)));
}

void
sub32(const W *a, const W *b, W *out)
{
    st(out, _mm256_sub_epi32(ld0(a), ld0(b)),
       _mm256_sub_epi32(ld1(a), ld1(b)));
}

void
min32(const W *a, const W *b, W *out)
{
    st(out, _mm256_min_epi32(ld0(a), ld0(b)),
       _mm256_min_epi32(ld1(a), ld1(b)));
}

void
max32(const W *a, const W *b, W *out)
{
    st(out, _mm256_max_epi32(ld0(a), ld0(b)),
       _mm256_max_epi32(ld1(a), ld1(b)));
}

void
addImm32(const W *a, std::int32_t imm, W *out)
{
    const __m256i vi = _mm256_set1_epi32(imm);
    st(out, _mm256_add_epi32(ld0(a), vi), _mm256_add_epi32(ld1(a), vi));
}

void
addImmPred32(const W *a, std::int32_t imm, std::uint64_t mask, W *out)
{
    const __m256i vi = _mm256_set1_epi32(imm);
    st(out,
       _mm256_add_epi32(ld0(a), _mm256_and_si256(vi, lanes32(mask))),
       _mm256_add_epi32(ld1(a),
                        _mm256_and_si256(vi, lanes32(mask >> 8))));
}

void
addPred32(const W *a, const W *b, std::uint64_t mask, W *out)
{
    st(out,
       _mm256_add_epi32(ld0(a),
                        _mm256_and_si256(ld0(b), lanes32(mask))),
       _mm256_add_epi32(ld1(a),
                        _mm256_and_si256(ld1(b), lanes32(mask >> 8))));
}

void
sel32(std::uint64_t mask, const W *a, const W *b, W *out)
{
    st(out, _mm256_blendv_epi8(ld0(b), ld0(a), lanes32(mask)),
       _mm256_blendv_epi8(ld1(b), ld1(a), lanes32(mask >> 8)));
}

// ---- compares -----------------------------------------------------

inline std::uint64_t
bits32(__m256i c0, __m256i c1)
{
    const auto lo = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(c0)));
    const auto hi = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(c1)));
    return lo | (hi << 8);
}

inline std::uint64_t
bits64(__m256i c0, __m256i c1)
{
    const auto lo = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(c0)));
    const auto hi = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(c1)));
    return lo | (hi << 4);
}

std::uint64_t
cmpEq32(const W *a, const W *b)
{
    return bits32(_mm256_cmpeq_epi32(ld0(a), ld0(b)),
                  _mm256_cmpeq_epi32(ld1(a), ld1(b)));
}

std::uint64_t
cmpNe32(const W *a, const W *b)
{
    return ~cmpEq32(a, b) & 0xFFFFu;
}

std::uint64_t
cmpGt32(const W *a, const W *b)
{
    return bits32(_mm256_cmpgt_epi32(ld0(a), ld0(b)),
                  _mm256_cmpgt_epi32(ld1(a), ld1(b)));
}

std::uint64_t
cmpLt32(const W *a, const W *b)
{
    return cmpGt32(b, a);
}

std::uint64_t
cmpEq64(const W *a, const W *b)
{
    return bits64(_mm256_cmpeq_epi64(ld0(a), ld0(b)),
                  _mm256_cmpeq_epi64(ld1(a), ld1(b)));
}

std::uint64_t
cmpNe64(const W *a, const W *b)
{
    return ~cmpEq64(a, b) & 0xFFu;
}

std::uint64_t
cmpGt64(const W *a, const W *b)
{
    return bits64(_mm256_cmpgt_epi64(ld0(a), ld0(b)),
                  _mm256_cmpgt_epi64(ld1(a), ld1(b)));
}

std::uint64_t
cmpLt64(const W *a, const W *b)
{
    return cmpGt64(b, a);
}

// ---- width conversion ---------------------------------------------

void
widen8to32(const std::uint8_t *src, unsigned n, W *out)
{
    // Stage through a zeroed local buffer: keeps the load footprint
    // exactly [src, src + n) like the scalar loop.
    // n == 0 may come with a null src, which memcpy must not see.
    alignas(16) std::uint8_t buf[16] = {};
    if (n > 0) {
        std::memcpy(buf, src, n);
    }
    const __m128i bytes =
        _mm_load_si128(reinterpret_cast<const __m128i *>(buf));
    st(out, _mm256_cvtepu8_epi32(bytes),
       _mm256_cvtepu8_epi32(_mm_srli_si128(bytes, 8)));
}

void
widenLo32to64(const W *v, W *out)
{
    const __m256i x = ld0(v);
    st(out, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(x)),
       _mm256_cvtepi32_epi64(_mm256_extracti128_si256(x, 1)));
}

void
widenHi32to64(const W *v, W *out)
{
    const __m256i x = ld1(v);
    st(out, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(x)),
       _mm256_cvtepi32_epi64(_mm256_extracti128_si256(x, 1)));
}

/** Even dwords of a 4 x i64 vector, packed into the low 128 bits. */
inline __m128i
trunc64to32(__m256i v)
{
    const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, idx));
}

void
pack64to32(const W *lo, const W *hi, W *out)
{
    const __m256i v0 = _mm256_inserti128_si256(
        _mm256_castsi128_si256(trunc64to32(ld0(lo))),
        trunc64to32(ld1(lo)), 1);
    const __m256i v1 = _mm256_inserti128_si256(
        _mm256_castsi128_si256(trunc64to32(ld0(hi))),
        trunc64to32(ld1(hi)), 1);
    st(out, v0, v1);
}

} // namespace

const HostSimdOps &
hostSimdAvx2Table()
{
    static const HostSimdOps ops = [] {
        HostSimdOps t = hostSimdScalarOps();
        t.name = "avx2";
        t.and64 = and64;
        t.or64 = or64;
        t.xor64 = xor64;
        t.xnor64 = xnor64;
        t.add64 = add64;
        t.sub64 = sub64;
        t.min64 = min64;
        t.max64 = max64;
        t.addImm64 = addImm64;
        t.addImmPred64 = addImmPred64;
        t.addPred64 = addPred64;
        t.sel64 = sel64;
        t.shr64 = shr64;
        t.shl64 = shl64;
        t.add32 = add32;
        t.sub32 = sub32;
        t.min32 = min32;
        t.max32 = max32;
        t.addImm32 = addImm32;
        t.addImmPred32 = addImmPred32;
        t.addPred32 = addPred32;
        t.sel32 = sel32;
        t.cmpEq32 = cmpEq32;
        t.cmpNe32 = cmpNe32;
        t.cmpGt32 = cmpGt32;
        t.cmpLt32 = cmpLt32;
        t.cmpEq64 = cmpEq64;
        t.cmpNe64 = cmpNe64;
        t.cmpGt64 = cmpGt64;
        t.cmpLt64 = cmpLt64;
        t.widen8to32 = widen8to32;
        t.widenLo32to64 = widenLo32to64;
        t.widenHi32to64 = widenHi32to64;
        t.pack64to32 = pack64to32;
        return t;
    }();
    return ops;
}

} // namespace quetzal::isa
