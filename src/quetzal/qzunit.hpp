/**
 * @file
 * QzUnit: the programmer-visible QUETZAL instruction set
 * (paper Section III-A), layered on the vector ISA facade.
 *
 * Implements qzconf, qzencode, qzstore, qzload, qzmhm<OPN>, qzmm<OPN>,
 * and qzcount against two QBUFFER instances, the data encoder, and the
 * count ALUs. Every instruction reports its timing to the pipeline:
 * QBUFFER reads cost ceil(lanes/ports)+1 cycles instead of a trip
 * through the cache hierarchy, and QBUFFER writes execute at commit
 * (non-speculatively, Section IV-E).
 */
#ifndef QUETZAL_QUETZAL_QZUNIT_HPP
#define QUETZAL_QUETZAL_QZUNIT_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "isa/vectorunit.hpp"
#include "quetzal/countalu.hpp"
#include "quetzal/encoder.hpp"
#include "quetzal/qbuffer.hpp"

namespace quetzal::accel {

/** Operation selector for qzmhm<OPN> / qzmm<OPN>. */
enum class QzOpn : std::uint8_t
{
    Add,
    Sub,
    Mul,
    Max,
    Min,
    CmpEq,    //!< 1 when equal, else 0
    Count,    //!< count-ALU: consecutive matches, forward window
    CountRev, //!< count-ALU: consecutive matches, reverse window
    XorWin,   //!< raw XOR of forward 64-bit windows (no count ALU)
    XorWinRev, //!< raw XOR of reverse 64-bit windows
};

/** QBUFFER selector. */
enum class QzSel : std::uint8_t
{
    Buf0 = 0, //!< by convention: the pattern buffer
    Buf1 = 1, //!< by convention: the text buffer
};

/** The QUETZAL accelerator attached to one core's VPU. */
class QzUnit
{
  public:
    /**
     * @param vpu the core's vector facade (shared pipeline).
     * @param params accelerator configuration (ports, sizes).
     */
    QzUnit(isa::VectorUnit &vpu, const sim::QuetzalParams &params);

    // ---- qzconf ----------------------------------------------------
    /**
     * Configure element counts of each buffer and the element size
     * (0: 2-bit encoded, 1: 8-bit chars, 2: 64-bit elements).
     */
    void qzconf(std::uint64_t eb0, std::uint64_t eb1, ElementSize esiz);

    // ---- qzencode --------------------------------------------------
    /**
     * Encode the 64 chars in @p val to 2-bit codes and store them as a
     * 128-bit vector at word pair @p wordIdx of buffer @p sel.
     * Executes at commit.
     */
    void qzencode(QzSel sel, const isa::VReg &val, std::uint64_t wordIdx);

    // ---- qzstore ---------------------------------------------------
    /**
     * Direct-mode indexed store: element idx.u64(i) of buffer @p sel
     * gets val.u64(i), for the first @p n lanes active in @p p.
     * Bank conflicts serialize; executes at commit.
     */
    void qzstore(const isa::VReg &val, const isa::VReg &idx, QzSel sel,
                 const isa::Pred &p, unsigned n = isa::kLanes64);

    // ---- qzload ----------------------------------------------------
    /**
     * Indexed load: lane i of the result is the element at idx.u64(i)
     * of buffer @p sel, zero-extended to 64 bits.
     */
    isa::VReg qzload(const isa::VReg &idx, QzSel sel, const isa::Pred &p,
                     unsigned n = isa::kLanes64);

    // ---- qzmhm<OPN> -------------------------------------------------
    /**
     * Dual-buffer indexed compute: lane i reads buffer 0 at idx0.u64(i)
     * and buffer 1 at idx1.u64(i) and applies @p opn. For
     * QzOpn::Count the reads are full 64-bit windows starting at the
     * element index (unaligned read path) and the count ALU counts
     * consecutive matching elements.
     */
    isa::VReg qzmhm(QzOpn opn, const isa::VReg &idx0,
                    const isa::VReg &idx1, const isa::Pred &p,
                    unsigned n = isa::kLanes64);

    // ---- qzmm<OPN> --------------------------------------------------
    /**
     * Mixed compute: lane i reads buffer @p sel at idx.u64(i) and
     * combines it with val.u64(i) using @p opn.
     */
    isa::VReg qzmm(QzOpn opn, const isa::VReg &val, const isa::VReg &idx,
                   QzSel sel, const isa::Pred &p,
                   unsigned n = isa::kLanes64);

    // ---- qzcount ---------------------------------------------------
    /**
     * Standalone count: lane i counts consecutive matching elements
     * between the 64-bit segments val0.u64(i) and val1.u64(i).
     */
    isa::VReg qzcount(const isa::VReg &val0, const isa::VReg &val1);

    // ---- software helpers (sequence staging) -----------------------
    /**
     * Stage a nucleotide sequence into buffer @p sel via vector loads +
     * qzencode; charges the full staging time (the paper includes it
     * in every measurement). Leaves element size responsibility with
     * the caller's qzconf.
     */
    void stageSequence2bit(QzSel sel, std::string_view seq);

    /** Stage raw 8-bit characters (protein mode). */
    void stageSequence8bit(QzSel sel, std::string_view seq);

    /** Stage 64-bit words (DP rows, histogram tables). */
    void stageWords64(QzSel sel, std::span<const std::uint64_t> words);

    /** Direct functional access for verification in tests. */
    const QBuffer &buffer(QzSel sel) const;
    QBuffer &buffer(QzSel sel);

    ElementSize elementSize() const { return esiz_; }
    std::uint64_t elementCount(QzSel sel) const
    {
        return sel == QzSel::Buf0 ? eb0_ : eb1_;
    }

    isa::VectorUnit &vpu() { return vpu_; }

  private:
    /** Apply a non-count QzOpn to two 64-bit operands. */
    static std::uint64_t apply(QzOpn opn, std::uint64_t a,
                               std::uint64_t b);

    /** Bounds-check an element index against the qzconf'd count. */
    void checkIndex(QzSel sel, std::uint64_t elemIdx,
                    bool window) const;

    /** Bytes one staging step loads: 64 characters. */
    static constexpr std::size_t kStagingBlockBytes = 64;

    /** Where the staging helpers assemble buffer @p sel's next 64
     *  characters before the vector load. */
    char *
    stagingBlock(QzSel sel)
    {
        return staging_.data() + kStagingBlockBytes / 2 *
                                     static_cast<std::size_t>(sel);
    }

    /** Readiness tag of the most recent write to buffer @p sel. */
    sim::Tag &writeTag(QzSel sel)
    {
        return sel == QzSel::Buf0 ? write0_ : write1_;
    }

    isa::VectorUnit &vpu_;
    QBuffer buf0_;
    QBuffer buf1_;
    sim::Tag write0_{}; //!< store->load dependency through QBUFFER 0
    sim::Tag write1_{}; //!< store->load dependency through QBUFFER 1
    std::uint64_t eb0_ = 0;
    std::uint64_t eb1_ = 0;
    ElementSize esiz_ = ElementSize::Bits2;
    /**
     * Host memory the staging loads read from. First-touch address
     * translation keys on host paragraphs, so this layout is part of
     * every QUETZAL cycle count; owning it (rather than a stack
     * array) keeps the count independent of the compiler's frame
     * layout and inlining. Buf1's block starts half-way into Buf0's,
     * sharing two of its four paragraphs: the layout the golden
     * snapshots were recorded with.
     */
    alignas(16) std::array<char, kStagingBlockBytes * 3 / 2> staging_{};
};

} // namespace quetzal::accel

#endif // QUETZAL_QUETZAL_QZUNIT_HPP
