/**
 * @file
 * The SVE-like vector ISA facade.
 *
 * Every method performs the operation functionally on host data AND
 * reports one dynamic instruction to the pipeline timing model; the
 * returned VReg/Pred carries the result's readiness tag so dependency
 * chains (e.g. gather -> compare -> predicated add -> next gather in
 * WFA's extend loop) are timed correctly.
 *
 * Memory-touching methods take a SiteId: a stable per-call-site token
 * standing in for the program counter, which the stride prefetcher
 * uses for training.
 *
 * Host-performance rules for this layer (docs/SIMULATOR.md, "Host
 * performance"): the functional payload of every hot op is delegated
 * to the process-wide host-SIMD kernel table (isa/hostsimd.hpp —
 * AVX-512 / AVX2 / scalar reference, resolved once at startup), and
 * hot paths never allocate — indexed memory ops collect their element
 * addresses into the reusable addrScratch_ member instead of a
 * per-call std::vector. Timing emission is identical whichever
 * backend runs; the kernels are functional drop-ins.
 */
#ifndef QUETZAL_ISA_VECTORUNIT_HPP
#define QUETZAL_ISA_VECTORUNIT_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "isa/hostsimd.hpp"
#include "isa/vreg.hpp"
#include "sim/pipeline.hpp"

namespace quetzal::isa {

/** Static instruction-site identifier (prefetcher PC proxy). */
using SiteId = std::uint64_t;

/** The vector datapath facade. */
class VectorUnit
{
  public:
    explicit VectorUnit(sim::Pipeline &pipeline)
        : pipeline_(pipeline), simd_(hostSimd())
    {
    }

    /** 32-bit elements per vector (512-bit SVE: 16). */
    static constexpr unsigned lanes32() { return kLanes32; }
    /** 64-bit lanes per vector (8). */
    static constexpr unsigned lanes64() { return kLanes64; }

    // ---- register initialization ---------------------------------
    /** Broadcast a 32-bit immediate (svdup). */
    VReg dup32(std::int32_t value);
    /** Broadcast a 64-bit immediate. */
    VReg dup64(std::uint64_t value);
    /** Element i = start + i*step over 32-bit elements (svindex). */
    VReg index32(std::int32_t start, std::int32_t step);

    // ---- contiguous memory ----------------------------------------
    /**
     * Contiguous vector load of @p bytes (<= 64) from @p ptr.
     * @param dep extra dependency (e.g. a store whose data this load
     *        forwards from; pre-bias its ready cycle to model a
     *        store-to-load forwarding penalty).
     */
    VReg load(SiteId site, const void *ptr, unsigned bytes = 64,
              sim::Tag dep = {});
    /**
     * Widening byte load (SVE ld1b -> 32-bit elements): reads @p n
     * bytes and zero-extends each into a 32-bit element.
     */
    VReg load8to32(SiteId site, const void *ptr, unsigned n,
                   sim::Tag dep = {});
    /** Contiguous vector store of @p bytes (<= 64); returns its tag. */
    sim::Tag store(SiteId site, void *ptr, const VReg &value,
                   unsigned bytes = 64);

    // ---- batched contiguous memory --------------------------------
    /**
     * Charging half of a run of contiguous vector memory ops that all
     * consume the same @p dep: one pipeline call, op i's readiness tag
     * in @p tags[i], byte-identical to per-op load()/store() charging
     * in array order. Pair each tag with lanes() below to rebuild the
     * registers load() would have returned. (The DP fills charge whole
     * blocks through sim::Pipeline::executeBlockRun instead.)
     */
    void
    chargeMemRun(std::span<const sim::MemOp> ops, sim::Tag dep,
                 std::span<sim::Tag> tags)
    {
        pipeline_.executeMemRun(ops, dep, tags);
    }

    /** Functional payload of load(): @p bytes (<= 64) copied into a
     *  fresh register carrying @p tag. */
    static VReg
    lanes(const void *ptr, unsigned bytes, sim::Tag tag)
    {
        VReg out;
        std::memcpy(out.words.data(), ptr, bytes);
        out.tag = tag;
        return out;
    }

    // ---- indexed memory (scatter/gather) --------------------------
    /**
     * Gather bytes: result 32-bit element i = base[idx.u32(i)],
     * zero-extended, for the first @p n elements where @p p is active.
     */
    VReg gather8(SiteId site, const void *base, const VReg &idx,
                 const Pred &p, unsigned n);
    /** Gather 32-bit words: element i = base[idx.u32(i)]. */
    VReg gather32(SiteId site, const std::int32_t *base, const VReg &idx,
                  const Pred &p, unsigned n);
    /**
     * Byte-addressed unaligned 32-bit gather: element i is the 4-byte
     * little-endian word at base + idx.i32(i). Used by the word-wise
     * extend kernels that compare four residues per lane per step.
     */
    VReg gatherU32(SiteId site, const void *base, const VReg &idx,
                   const Pred &p, unsigned n);
    /** Gather 64-bit words via 64-bit lane indices. */
    VReg gather64(SiteId site, const std::uint64_t *base, const VReg &idx,
                  const Pred &p, unsigned n);
    /** Scatter 32-bit elements to base[idx.u32(i)]. */
    void scatter32(SiteId site, std::int32_t *base, const VReg &idx,
                   const VReg &value, const Pred &p, unsigned n);
    /** Scatter 64-bit lanes to base[idx.u64(i)]. */
    void scatter64(SiteId site, std::uint64_t *base, const VReg &idx,
                   const VReg &value, const Pred &p, unsigned n);

    // ---- 32-bit integer arithmetic --------------------------------
    VReg add32(const VReg &a, const VReg &b);
    VReg add32i(const VReg &a, std::int32_t imm);
    VReg sub32(const VReg &a, const VReg &b);
    VReg max32(const VReg &a, const VReg &b);
    VReg min32(const VReg &a, const VReg &b);
    /** a + imm where p active, else a (predicated add). */
    VReg addUnderPred32(const VReg &a, std::int32_t imm, const Pred &p);
    /** a + b where p active, else a. */
    VReg addvUnderPred32(const VReg &a, const VReg &b, const Pred &p);
    /** p ? a : b per 32-bit element (svsel). */
    VReg sel32(const Pred &p, const VReg &a, const VReg &b);

    // ---- 64-bit integer arithmetic (8 lanes) -----------------------
    VReg sub64(const VReg &a, const VReg &b);
    VReg min64(const VReg &a, const VReg &b); //!< signed
    VReg max64(const VReg &a, const VReg &b); //!< signed
    VReg add64i(const VReg &a, std::int64_t imm);
    /** a + imm on lanes where p is active, else a. */
    VReg addUnderPred64(const VReg &a, std::int64_t imm, const Pred &p);
    /** a + b on lanes where p is active, else a. */
    VReg addvUnderPred64(const VReg &a, const VReg &b, const Pred &p);
    /** p ? a : b per 64-bit lane. */
    VReg sel64(const Pred &p, const VReg &a, const VReg &b);

    // ---- 64-bit comparisons -> predicate ---------------------------
    Pred cmpeq64(const VReg &a, const VReg &b, const Pred &p, unsigned n);
    Pred cmpne64(const VReg &a, const VReg &b, const Pred &p, unsigned n);
    Pred cmplt64(const VReg &a, const VReg &b, const Pred &p, unsigned n);
    Pred cmpgt64(const VReg &a, const VReg &b, const Pred &p, unsigned n);

    // ---- width conversion ------------------------------------------
    /** Sign-extend the low 8 int32 elements into 8 int64 lanes. */
    VReg widenLo32to64(const VReg &v);
    /** Sign-extend the high 8 int32 elements (sunpkhi). */
    VReg widenHi32to64(const VReg &v);
    /** Truncate 8 int64 lanes into the low 8 int32 elements. */
    VReg narrow64to32(const VReg &v);
    /** Pack two 8-lane 64-bit vectors into 16 int32 elements (uzp1). */
    VReg pack64to32(const VReg &lo, const VReg &hi);

    /** Unpack the low 8 predicate elements (punpklo). */
    Pred punpkLo(const Pred &p);
    /** Unpack the high 8 predicate elements (punpkhi). */
    Pred punpkHi(const Pred &p);

    // ---- 64-bit reductions ------------------------------------------
    /** Max across active 64-bit lanes. */
    std::int64_t reduceMax64(const VReg &v, const Pred &p, unsigned n);

    // ---- byte-run helpers (SVE cmpeq.b + brkb + cntp idiom) --------
    /**
     * Per 32-bit element: number of consecutive equal bytes between
     * @p a and @p b counted from byte 0 (0..4). Charged as the 2-op
     * SVE byte-compare/break sequence it stands for.
     */
    VReg matchBytes32(const VReg &a, const VReg &b);
    /** Same, counting from byte 3 downwards (reverse extension). */
    VReg matchBytes32Rev(const VReg &a, const VReg &b);

    /** Per 64-bit lane: count of trailing zero bits (SVE rbit+clz). */
    VReg ctz64(const VReg &a);
    /** Per 64-bit lane: count of leading zero bits (SVE clz). */
    VReg clz64(const VReg &a);

    // ---- 64-bit bitwise -------------------------------------------
    VReg and64(const VReg &a, const VReg &b);
    VReg or64(const VReg &a, const VReg &b);
    VReg xor64(const VReg &a, const VReg &b);
    VReg xnor64(const VReg &a, const VReg &b);
    VReg shr64i(const VReg &a, unsigned shift);
    VReg shl64i(const VReg &a, unsigned shift);
    VReg add64(const VReg &a, const VReg &b);

    // ---- comparisons -> predicate ---------------------------------
    /** 32-bit element equality under governing predicate. */
    Pred cmpeq32(const VReg &a, const VReg &b, const Pred &p, unsigned n);
    Pred cmpne32(const VReg &a, const VReg &b, const Pred &p, unsigned n);
    Pred cmpgt32(const VReg &a, const VReg &b, const Pred &p, unsigned n);
    Pred cmplt32(const VReg &a, const VReg &b, const Pred &p, unsigned n);

    // ---- predicate manipulation -----------------------------------
    /** All-active predicate over @p n elements (svptrue). */
    Pred pTrue(unsigned n);
    /** Predicate active while i+elem < n (svwhilelt). */
    Pred whilelt(std::int64_t i, std::int64_t n, unsigned elems);
    Pred pAnd(const Pred &a, const Pred &b);
    Pred pOr(const Pred &a, const Pred &b);
    /** a AND NOT b (svbic). */
    Pred pBic(const Pred &a, const Pred &b);

    /**
     * Test for any active element and branch (svptest + b.any). The
     * branch is modeled as predicted; a taken-exit misprediction
     * bubble is charged when the loop terminates.
     */
    bool anyActive(const Pred &p);
    /** Count active elements (svcntp); scalar result. */
    unsigned countActive(const Pred &p);

    // ---- reductions ------------------------------------------------
    /** Max across active 32-bit elements (svmaxv). */
    std::int32_t reduceMax32(const VReg &v, const Pred &p, unsigned n);
    /** Min across active 32-bit elements (svminv). */
    std::int32_t reduceMin32(const VReg &v, const Pred &p, unsigned n);
    /** Sum across active 32-bit elements (svaddv). */
    std::int64_t reduceAdd32(const VReg &v, const Pred &p, unsigned n);

    // ---- scalar-side bookkeeping ----------------------------------
    /** Charge @p count scalar ALU ops (address math, loop counters). */
    void scalarOps(unsigned count) { pipeline_.chargeScalarOps(count); }
    /** Charge one scalar load (pointer-chasing etc.). */
    std::uint64_t scalarLoad(SiteId site, const void *ptr,
                             unsigned bytes);
    /** Charge one scalar store. */
    void scalarStore(SiteId site, void *ptr, unsigned bytes);

    sim::Pipeline &pipeline() { return pipeline_; }

  private:
    using KernelW = HostSimdOps::W;
    using BinKernel = void (*)(const KernelW *, const KernelW *,
                               KernelW *);
    using CmpKernel = std::uint64_t (*)(const KernelW *, const KernelW *);

    /** Elementwise binary op through a backend kernel (32- or 64-bit). */
    VReg binOp(BinKernel op, const VReg &a, const VReg &b);

    /**
     * Comparison through a backend kernel: the kernel's full-width
     * lane mask clamped to the first @p lim elements and the governing
     * predicate — exactly the bits the old per-lane loop produced.
     */
    Pred compareOp(CmpKernel cmp, const VReg &a, const VReg &b,
                   const Pred &p, unsigned lim);

    sim::Pipeline &pipeline_;

    /** Process-wide host-SIMD kernel table (isa/hostsimd.hpp). */
    const HostSimdOps &simd_;

    /** Reusable element-address buffer for gathers/scatters, so the
     *  per-instruction hot path never allocates (kLanes32 is the
     *  widest element count any indexed op can produce). */
    std::array<sim::Addr, kLanes32> addrScratch_{};
};

} // namespace quetzal::isa

#endif // QUETZAL_ISA_VECTORUNIT_HPP
