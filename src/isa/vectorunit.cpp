#include "isa/vectorunit.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace quetzal::isa {

using sim::Addr;
using sim::OpClass;

namespace {

/** Branch-mispredict redirect bubble on loop exits (A64FX ~ 8). */
constexpr unsigned kMispredictBubble = 12;

Addr
toAddr(const void *ptr)
{
    return reinterpret_cast<Addr>(ptr);
}

} // namespace

VReg
VectorUnit::binOp(BinKernel op, const VReg &a, const VReg &b)
{
    VReg out;
    op(a.words.data(), b.words.data(), out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag, b.tag});
    return out;
}

Pred
VectorUnit::compareOp(CmpKernel cmp, const VReg &a, const VReg &b,
                      const Pred &p, unsigned lim)
{
    const std::uint64_t bits = cmp(a.words.data(), b.words.data());
    Pred out;
    out.mask = bits & lowMask(lim) & p.mask;
    out.tag = pipeline_.executeOp(OpClass::VecCmp,
                                  {a.tag, b.tag, p.tag});
    return out;
}

VReg
VectorUnit::dup32(std::int32_t value)
{
    const std::uint32_t lane = static_cast<std::uint32_t>(value);
    VReg out;
    out.words.fill((std::uint64_t{lane} << 32) | lane);
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {});
    return out;
}

VReg
VectorUnit::dup64(std::uint64_t value)
{
    VReg out;
    out.words.fill(value);
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {});
    return out;
}

VReg
VectorUnit::index32(std::int32_t start, std::int32_t step)
{
    VReg::LanesI32 rs;
    for (unsigned i = 0; i < kLanes32; ++i)
        rs[i] = start + static_cast<std::int32_t>(i) * step;
    VReg out;
    out.setLanes(rs);
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {});
    return out;
}

VReg
VectorUnit::load(SiteId site, const void *ptr, unsigned bytes,
                 sim::Tag dep)
{
    panic_if_not(bytes <= 64, "vector load of {} bytes", bytes);
    VReg out;
    std::memcpy(out.words.data(), ptr, bytes);
    out.tag = pipeline_.executeMem(OpClass::VecLoad, site, toAddr(ptr),
                                   bytes, {dep});
    return out;
}

VReg
VectorUnit::load8to32(SiteId site, const void *ptr, unsigned n,
                      sim::Tag dep)
{
    panic_if_not(n <= kLanes32, "widening load of {} bytes", n);
    VReg out;
    simd_.widen8to32(static_cast<const std::uint8_t *>(ptr), n,
                     out.words.data());
    out.tag = pipeline_.executeMem(OpClass::VecLoad, site, toAddr(ptr), n,
                                   {dep});
    return out;
}

sim::Tag
VectorUnit::store(SiteId site, void *ptr, const VReg &value,
                  unsigned bytes)
{
    panic_if_not(bytes <= 64, "vector store of {} bytes", bytes);
    std::memcpy(ptr, value.words.data(), bytes);
    return pipeline_.executeMem(OpClass::VecStore, site, toAddr(ptr),
                                bytes, {value.tag});
}

VReg
VectorUnit::gather8(SiteId site, const void *base, const VReg &idx,
                    const Pred &p, unsigned n)
{
    panic_if_not(n <= kLanes32, "gather8 over {} elements", n);
    const auto *bytes = static_cast<const std::uint8_t *>(base);
    const std::uint64_t active = p.mask & lowMask(n);
    const std::size_t count = simd_.compactAddrU32(
        toAddr(base), idx.words.data(), 0, active, addrScratch_.data());
    const VReg::Lanes32 is = idx.lanesU32();
    VReg::Lanes32 rs{};
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        rs[i] = bytes[is[i]];
    }
    VReg out;
    out.setLanes(rs);
    out.tag = pipeline_.executeIndexed(
        OpClass::VecGather, site, {addrScratch_.data(), count}, 1,
        {idx.tag, p.tag});
    return out;
}

VReg
VectorUnit::gather32(SiteId site, const std::int32_t *base,
                     const VReg &idx, const Pred &p, unsigned n)
{
    panic_if_not(n <= kLanes32, "gather32 over {} elements", n);
    const std::uint64_t active = p.mask & lowMask(n);
    const std::size_t count = simd_.compactAddrU32(
        toAddr(base), idx.words.data(), 2, active, addrScratch_.data());
    const VReg::Lanes32 is = idx.lanesU32();
    VReg::LanesI32 rs{};
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        rs[i] = base[is[i]];
    }
    VReg out;
    out.setLanes(rs);
    out.tag = pipeline_.executeIndexed(
        OpClass::VecGather, site, {addrScratch_.data(), count}, 4,
        {idx.tag, p.tag});
    return out;
}

VReg
VectorUnit::gatherU32(SiteId site, const void *base, const VReg &idx,
                      const Pred &p, unsigned n)
{
    panic_if_not(n <= kLanes32, "gatherU32 over {} elements", n);
    const auto *bytes = static_cast<const std::uint8_t *>(base);
    const std::uint64_t active = p.mask & lowMask(n);
    const std::size_t count = simd_.compactAddrI32(
        toAddr(base), idx.words.data(), active, addrScratch_.data());
    const VReg::LanesI32 is = idx.lanesI32();
    VReg::Lanes32 rs{};
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        std::uint32_t word = 0;
        std::memcpy(&word, bytes + is[i], 4);
        rs[i] = word;
    }
    VReg out;
    out.setLanes(rs);
    out.tag = pipeline_.executeIndexed(
        OpClass::VecGather, site, {addrScratch_.data(), count}, 4,
        {idx.tag, p.tag});
    return out;
}

VReg
VectorUnit::gather64(SiteId site, const std::uint64_t *base,
                     const VReg &idx, const Pred &p, unsigned n)
{
    panic_if_not(n <= kLanes64, "gather64 over {} lanes", n);
    const std::uint64_t active = p.mask & lowMask(n);
    const std::size_t count = simd_.compactAddr64(
        toAddr(base), idx.words.data(), 3, active, addrScratch_.data());
    VReg out;
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        out.words[i] = base[idx.words[i]];
    }
    out.tag = pipeline_.executeIndexed(
        OpClass::VecGather, site, {addrScratch_.data(), count}, 8,
        {idx.tag, p.tag});
    return out;
}

void
VectorUnit::scatter32(SiteId site, std::int32_t *base, const VReg &idx,
                      const VReg &value, const Pred &p, unsigned n)
{
    panic_if_not(n <= kLanes32, "scatter32 over {} elements", n);
    const std::uint64_t active = p.mask & lowMask(n);
    const std::size_t count = simd_.compactAddrU32(
        toAddr(base), idx.words.data(), 2, active, addrScratch_.data());
    const VReg::Lanes32 is = idx.lanesU32();
    const VReg::LanesI32 vs = value.lanesI32();
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        base[is[i]] = vs[i];
    }
    pipeline_.executeIndexed(OpClass::VecScatter, site,
                             {addrScratch_.data(), count}, 4,
                             {idx.tag, value.tag, p.tag});
}

void
VectorUnit::scatter64(SiteId site, std::uint64_t *base, const VReg &idx,
                      const VReg &value, const Pred &p, unsigned n)
{
    panic_if_not(n <= kLanes64, "scatter64 over {} lanes", n);
    const std::uint64_t active = p.mask & lowMask(n);
    const std::size_t count = simd_.compactAddr64(
        toAddr(base), idx.words.data(), 3, active, addrScratch_.data());
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        base[idx.words[i]] = value.words[i];
    }
    pipeline_.executeIndexed(OpClass::VecScatter, site,
                             {addrScratch_.data(), count}, 8,
                             {idx.tag, value.tag, p.tag});
}

VReg
VectorUnit::add32(const VReg &a, const VReg &b)
{
    return binOp(simd_.add32, a, b);
}

VReg
VectorUnit::add32i(const VReg &a, std::int32_t imm)
{
    VReg out;
    simd_.addImm32(a.words.data(), imm, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag});
    return out;
}

VReg
VectorUnit::sub32(const VReg &a, const VReg &b)
{
    return binOp(simd_.sub32, a, b);
}

VReg
VectorUnit::max32(const VReg &a, const VReg &b)
{
    return binOp(simd_.max32, a, b);
}

VReg
VectorUnit::min32(const VReg &a, const VReg &b)
{
    return binOp(simd_.min32, a, b);
}

VReg
VectorUnit::addUnderPred32(const VReg &a, std::int32_t imm, const Pred &p)
{
    VReg out;
    simd_.addImmPred32(a.words.data(), imm, p.mask, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag, p.tag});
    return out;
}

VReg
VectorUnit::addvUnderPred32(const VReg &a, const VReg &b, const Pred &p)
{
    VReg out;
    simd_.addPred32(a.words.data(), b.words.data(), p.mask, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu,
                                  {a.tag, b.tag, p.tag});
    return out;
}

VReg
VectorUnit::sel32(const Pred &p, const VReg &a, const VReg &b)
{
    VReg out;
    simd_.sel32(p.mask, a.words.data(), b.words.data(), out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu,
                                  {a.tag, b.tag, p.tag});
    return out;
}

VReg
VectorUnit::sub64(const VReg &a, const VReg &b)
{
    return binOp(simd_.sub64, a, b);
}

VReg
VectorUnit::min64(const VReg &a, const VReg &b)
{
    return binOp(simd_.min64, a, b);
}

VReg
VectorUnit::max64(const VReg &a, const VReg &b)
{
    return binOp(simd_.max64, a, b);
}

VReg
VectorUnit::add64i(const VReg &a, std::int64_t imm)
{
    VReg out;
    simd_.addImm64(a.words.data(), imm, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag});
    return out;
}

VReg
VectorUnit::addUnderPred64(const VReg &a, std::int64_t imm, const Pred &p)
{
    VReg out;
    simd_.addImmPred64(a.words.data(), imm, p.mask, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag, p.tag});
    return out;
}

VReg
VectorUnit::addvUnderPred64(const VReg &a, const VReg &b, const Pred &p)
{
    VReg out;
    simd_.addPred64(a.words.data(), b.words.data(), p.mask, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu,
                                  {a.tag, b.tag, p.tag});
    return out;
}

VReg
VectorUnit::sel64(const Pred &p, const VReg &a, const VReg &b)
{
    VReg out;
    simd_.sel64(p.mask, a.words.data(), b.words.data(), out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu,
                                  {a.tag, b.tag, p.tag});
    return out;
}

Pred
VectorUnit::cmpeq64(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpEq64, a, b, p, std::min(n, kLanes64));
}

Pred
VectorUnit::cmpne64(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpNe64, a, b, p, std::min(n, kLanes64));
}

Pred
VectorUnit::cmplt64(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpLt64, a, b, p, std::min(n, kLanes64));
}

Pred
VectorUnit::cmpgt64(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpGt64, a, b, p, std::min(n, kLanes64));
}

VReg
VectorUnit::widenLo32to64(const VReg &v)
{
    VReg out;
    simd_.widenLo32to64(v.words.data(), out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {v.tag});
    return out;
}

VReg
VectorUnit::widenHi32to64(const VReg &v)
{
    VReg out;
    simd_.widenHi32to64(v.words.data(), out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {v.tag});
    return out;
}

VReg
VectorUnit::pack64to32(const VReg &lo, const VReg &hi)
{
    VReg out;
    simd_.pack64to32(lo.words.data(), hi.words.data(), out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {lo.tag, hi.tag});
    return out;
}

Pred
VectorUnit::punpkLo(const Pred &p)
{
    Pred out;
    out.mask = p.mask & 0xFF;
    out.tag = pipeline_.executeOp(OpClass::VecPred, {p.tag});
    return out;
}

Pred
VectorUnit::punpkHi(const Pred &p)
{
    Pred out;
    out.mask = (p.mask >> 8) & 0xFF;
    out.tag = pipeline_.executeOp(OpClass::VecPred, {p.tag});
    return out;
}

VReg
VectorUnit::narrow64to32(const VReg &v)
{
    VReg::LanesI32 rs{};
    for (unsigned i = 0; i < kLanes64; ++i)
        rs[i] = static_cast<std::int32_t>(v.words[i]);
    VReg out;
    out.setLanes(rs);
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {v.tag});
    return out;
}

std::int64_t
VectorUnit::reduceMax64(const VReg &v, const Pred &p, unsigned n)
{
    pipeline_.executeOp(OpClass::VecReduce, {v.tag, p.tag});
    std::int64_t best = std::numeric_limits<std::int64_t>::min();
    const unsigned lim = std::min(n, kLanes64);
    for (unsigned i = 0; i < lim; ++i)
        if ((p.mask >> i) & 1)
            best = std::max(best,
                            static_cast<std::int64_t>(v.words[i]));
    return best;
}

VReg
VectorUnit::matchBytes32(const VReg &a, const VReg &b)
{
    VReg out;
    simd_.matchBytes32(a.words.data(), b.words.data(), out.words.data());
    // Two dependent instructions: byte compare + break/count.
    const sim::Tag mid =
        pipeline_.executeOp(OpClass::VecCmp, {a.tag, b.tag});
    out.tag = pipeline_.executeOp(OpClass::VecPred, {mid});
    return out;
}

VReg
VectorUnit::matchBytes32Rev(const VReg &a, const VReg &b)
{
    VReg out;
    simd_.matchBytes32Rev(a.words.data(), b.words.data(), out.words.data());
    const sim::Tag mid =
        pipeline_.executeOp(OpClass::VecCmp, {a.tag, b.tag});
    out.tag = pipeline_.executeOp(OpClass::VecPred, {mid});
    return out;
}

VReg
VectorUnit::ctz64(const VReg &a)
{
    VReg out;
    simd_.ctz64(a.words.data(), out.words.data());
    // rbit + clz on SVE: two instructions.
    const sim::Tag mid = pipeline_.executeOp(OpClass::VecAlu, {a.tag});
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {mid});
    return out;
}

VReg
VectorUnit::clz64(const VReg &a)
{
    VReg out;
    simd_.clz64(a.words.data(), out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag});
    return out;
}

VReg
VectorUnit::and64(const VReg &a, const VReg &b)
{
    return binOp(simd_.and64, a, b);
}

VReg
VectorUnit::or64(const VReg &a, const VReg &b)
{
    return binOp(simd_.or64, a, b);
}

VReg
VectorUnit::xor64(const VReg &a, const VReg &b)
{
    return binOp(simd_.xor64, a, b);
}

VReg
VectorUnit::xnor64(const VReg &a, const VReg &b)
{
    return binOp(simd_.xnor64, a, b);
}

VReg
VectorUnit::shr64i(const VReg &a, unsigned shift)
{
    VReg out;
    simd_.shr64(a.words.data(), shift, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag});
    return out;
}

VReg
VectorUnit::shl64i(const VReg &a, unsigned shift)
{
    VReg out;
    simd_.shl64(a.words.data(), shift, out.words.data());
    out.tag = pipeline_.executeOp(OpClass::VecAlu, {a.tag});
    return out;
}

VReg
VectorUnit::add64(const VReg &a, const VReg &b)
{
    return binOp(simd_.add64, a, b);
}

Pred
VectorUnit::cmpeq32(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpEq32, a, b, p, std::min(n, kLanes32));
}

Pred
VectorUnit::cmpne32(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpNe32, a, b, p, std::min(n, kLanes32));
}

Pred
VectorUnit::cmpgt32(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpGt32, a, b, p, std::min(n, kLanes32));
}

Pred
VectorUnit::cmplt32(const VReg &a, const VReg &b, const Pred &p,
                    unsigned n)
{
    return compareOp(simd_.cmpLt32, a, b, p, std::min(n, kLanes32));
}

Pred
VectorUnit::pTrue(unsigned n)
{
    panic_if_not(n <= 64, "predicate width {} too large", n);
    Pred out;
    out.mask = lowMask(n);
    out.tag = pipeline_.executeOp(OpClass::VecPred, {});
    return out;
}

Pred
VectorUnit::whilelt(std::int64_t i, std::int64_t n, unsigned elems)
{
    panic_if_not(elems <= 64, "predicate width {} too large", elems);
    // Active elements are exactly those with i + e < n: a prefix of
    // length clamp(n - i, 0, elems), so the mask is pure arithmetic.
    const std::int64_t remaining = n - i;
    const std::int64_t active = std::clamp<std::int64_t>(
        remaining, 0, static_cast<std::int64_t>(elems));
    Pred out;
    out.mask = lowMask(static_cast<unsigned>(active));
    out.tag = pipeline_.executeOp(OpClass::VecPred, {});
    return out;
}

Pred
VectorUnit::pAnd(const Pred &a, const Pred &b)
{
    Pred out;
    out.mask = a.mask & b.mask;
    out.tag = pipeline_.executeOp(OpClass::VecPred, {a.tag, b.tag});
    return out;
}

Pred
VectorUnit::pOr(const Pred &a, const Pred &b)
{
    Pred out;
    out.mask = a.mask | b.mask;
    out.tag = pipeline_.executeOp(OpClass::VecPred, {a.tag, b.tag});
    return out;
}

Pred
VectorUnit::pBic(const Pred &a, const Pred &b)
{
    Pred out;
    out.mask = a.mask & ~b.mask;
    out.tag = pipeline_.executeOp(OpClass::VecPred, {a.tag, b.tag});
    return out;
}

bool
VectorUnit::anyActive(const Pred &p)
{
    pipeline_.executeOp(OpClass::Branch, {p.tag});
    const bool any = !p.none();
    if (!any) {
        // Loop-exit misprediction: the core speculated another
        // iteration and must redirect.
        pipeline_.bubble(kMispredictBubble, sim::StallKind::Frontend);
    }
    return any;
}

unsigned
VectorUnit::countActive(const Pred &p)
{
    pipeline_.executeOp(OpClass::VecPred, {p.tag});
    return p.count();
}

std::int32_t
VectorUnit::reduceMax32(const VReg &v, const Pred &p, unsigned n)
{
    pipeline_.executeOp(OpClass::VecReduce, {v.tag, p.tag});
    const VReg::LanesI32 xs = v.lanesI32();
    std::int32_t best = std::numeric_limits<std::int32_t>::min();
    const unsigned lim = std::min(n, kLanes32);
    for (unsigned i = 0; i < lim; ++i)
        if ((p.mask >> i) & 1)
            best = std::max(best, xs[i]);
    return best;
}

std::int32_t
VectorUnit::reduceMin32(const VReg &v, const Pred &p, unsigned n)
{
    pipeline_.executeOp(OpClass::VecReduce, {v.tag, p.tag});
    const VReg::LanesI32 xs = v.lanesI32();
    std::int32_t best = std::numeric_limits<std::int32_t>::max();
    const unsigned lim = std::min(n, kLanes32);
    for (unsigned i = 0; i < lim; ++i)
        if ((p.mask >> i) & 1)
            best = std::min(best, xs[i]);
    return best;
}

std::int64_t
VectorUnit::reduceAdd32(const VReg &v, const Pred &p, unsigned n)
{
    pipeline_.executeOp(OpClass::VecReduce, {v.tag, p.tag});
    const VReg::LanesI32 xs = v.lanesI32();
    std::int64_t sum = 0;
    const unsigned lim = std::min(n, kLanes32);
    for (unsigned i = 0; i < lim; ++i)
        sum += ((p.mask >> i) & 1) ? xs[i] : 0;
    return sum;
}

std::uint64_t
VectorUnit::scalarLoad(SiteId site, const void *ptr, unsigned bytes)
{
    std::uint64_t value = 0;
    std::memcpy(&value, ptr, std::min(bytes, 8u));
    pipeline_.executeMem(OpClass::ScalarLoad, site, toAddr(ptr), bytes,
                         {});
    return value;
}

void
VectorUnit::scalarStore(SiteId site, void *ptr, unsigned bytes)
{
    pipeline_.executeMem(OpClass::ScalarStore, site, toAddr(ptr), bytes,
                         {});
}

} // namespace quetzal::isa
