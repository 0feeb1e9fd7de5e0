/**
 * @file
 * Unit tests for the QUETZAL accelerator model: QBUFFER geometry and
 * read/write logic (incl. unaligned windows), the data encoder, the
 * count ALU, the QzUnit instruction semantics, and the Table III
 * area/power model.
 */
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hpp"
#include "genomics/encoding.hpp"
#include "isa/vectorunit.hpp"
#include "quetzal/area_model.hpp"
#include "quetzal/countalu.hpp"
#include "quetzal/encoder.hpp"
#include "quetzal/qbuffer.hpp"
#include "quetzal/qzunit.hpp"
#include "sim/context.hpp"

namespace quetzal::accel {
namespace {

using genomics::ElementSize;
using isa::Pred;
using isa::VReg;

sim::QuetzalParams
params8P()
{
    sim::QuetzalParams params;
    params.present = true;
    params.readPorts = 8;
    return params;
}

// ====================================================================
// QBUFFER
// ====================================================================

TEST(QBuffer, CapacityMatchesPaperSizing)
{
    QBuffer buf(params8P());
    EXPECT_EQ(buf.words(), 1024u); // 8 KB of 64-bit words
    // Section VI: with 2-bit encoding one QBUFFER holds up to ~32.7 kbp.
    EXPECT_EQ(buf.capacityElements(ElementSize::Bits2), 32768u);
    EXPECT_EQ(buf.capacityElements(ElementSize::Bits8), 8192u);
    EXPECT_EQ(buf.capacityElements(ElementSize::Bits64), 1024u);
}

TEST(QBuffer, ReadLatencyFollowsPortFormula)
{
    for (unsigned ports : {1u, 2u, 4u, 8u}) {
        sim::QuetzalParams params = params8P();
        params.readPorts = ports;
        QBuffer buf(params);
        // Section IV-C1: 8/(num ports) + 1 cycles for 8 requests.
        EXPECT_EQ(buf.vectorReadCycles(8), 8 / ports + 1)
            << ports << " ports";
    }
}

TEST(QBuffer, EncodedPairWriteAndElementReads)
{
    QBuffer buf(params8P());
    const std::string seq = "ACGTTGCAACGTTGCAACGTTGCAACGTTGCA"
                            "GGGGCCCCTTTTAAAACGCGCGCGATATATAT";
    const auto packed = genomics::pack2bit(seq);
    ASSERT_EQ(packed.size(), 2u);
    EXPECT_EQ(buf.writeEncodedPair(0, packed[0], packed[1]), 1u);
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(buf.readElement(i, ElementSize::Bits2),
                  genomics::encodeBase2(seq[i]));
}

TEST(QBuffer, DirectWriteBankConflictsSerialize)
{
    QBuffer buf(params8P());
    // Eight 64-bit elements, one per bank: single cycle.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spread;
    for (std::uint64_t i = 0; i < 8; ++i)
        spread.emplace_back(i, 100 + i);
    EXPECT_EQ(buf.writeDirect(spread, ElementSize::Bits64), 1u);
    // Eight elements in the same bank (stride 8): eight cycles.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> clash;
    for (std::uint64_t i = 0; i < 8; ++i)
        clash.emplace_back(i * 8, 200 + i);
    EXPECT_EQ(buf.writeDirect(clash, ElementSize::Bits64), 8u);
    EXPECT_EQ(buf.readElement(16, ElementSize::Bits64), 202u);
}

TEST(QBuffer, UnalignedWindowReadCrossesWords)
{
    QBuffer buf(params8P());
    const std::string seq(64, 'A');
    std::string varied = seq;
    for (std::size_t i = 0; i < varied.size(); ++i)
        varied[i] = "ACGT"[i % 4];
    const auto packed = genomics::pack2bit(varied);
    buf.writeEncodedPair(0, packed[0], packed[1]);
    // Window starting at element 5 spans SRAM words 0 and 1; check it
    // equals manual repacking.
    const std::uint64_t window =
        buf.readWindow64(5, ElementSize::Bits2);
    for (unsigned e = 0; e < 32; ++e) {
        const auto expect = genomics::encodeBase2(varied[5 + e]);
        EXPECT_EQ((window >> (2 * e)) & 0x3, expect) << "element " << e;
    }
}

TEST(QBuffer, ReverseWindowEndsAtElement)
{
    QBuffer buf(params8P());
    std::string varied(64, 'A');
    for (std::size_t i = 0; i < varied.size(); ++i)
        varied[i] = "ACGT"[(i * 7) % 4];
    const auto packed = genomics::pack2bit(varied);
    buf.writeEncodedPair(0, packed[0], packed[1]);
    const std::size_t end = 40;
    const std::uint64_t window =
        buf.readWindow64Ending(end, ElementSize::Bits2);
    // Top element slot (bits 62..63) must be element `end`.
    for (unsigned e = 0; e < 32; ++e) {
        const auto expect =
            genomics::encodeBase2(varied[end - 31 + e]);
        EXPECT_EQ((window >> (2 * e)) & 0x3, expect) << "slot " << e;
    }
}

TEST(QBuffer, ReverseWindowPadsBelowStart)
{
    QBuffer buf(params8P());
    const auto packed = genomics::pack2bit(std::string(32, 'G'));
    buf.writeEncodedPair(0, packed[0],
                         packed.size() > 1 ? packed[1] : 0);
    // Window ending at element 3: only 4 real elements; the bottom
    // 28 slots pad with zero.
    const std::uint64_t window =
        buf.readWindow64Ending(3, ElementSize::Bits2);
    EXPECT_EQ(window >> 56,
              0x3u * 0x55u & 0xFFu); // top 4 G codes (11 each)
    EXPECT_EQ(window & 0xFFFFFF, 0u);
}

TEST(QBuffer, ReverseWindowAtElementZeroKeepsOnlyTopSlot)
{
    QBuffer buf(params8P());
    // Element 0 is 0b10 (C); a window *ending* at element 0 has 31
    // zero-padded slots below it and element 0 in the top slot.
    const auto packed = genomics::pack2bit("CAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
    buf.writeEncodedPair(0, packed[0], packed.size() > 1 ? packed[1] : 0);
    const std::uint64_t window =
        buf.readWindow64Ending(0, ElementSize::Bits2);
    EXPECT_EQ(window >> 62, genomics::encodeBase2('C'));
    EXPECT_EQ(window & ~(0x3ULL << 62), 0u);
}

TEST(QBuffer, ReverseWindowUnderrunPadsFor8BitElements)
{
    QBuffer buf(params8P());
    buf.writeWord(0, 0x1122334455667788ULL);
    // Window ending at 8-bit element 2: three real bytes at the top,
    // five zero bytes of padding below.
    const std::uint64_t window =
        buf.readWindow64Ending(2, ElementSize::Bits8);
    EXPECT_EQ(window, 0x6677880000000000ULL);
}

TEST(QBuffer, EncodedPairWriteAcceptsLastValidPair)
{
    QBuffer buf(params8P());
    // words() - 2 is the last wordIdx whose pair fits; one past it
    // must panic (covered in OutOfRangePanics).
    const std::size_t last = buf.words() - 2;
    EXPECT_EQ(buf.writeEncodedPair(last, 0xAAAA, 0xBBBB), 1u);
    EXPECT_EQ(buf.readWord(last), 0xAAAAu);
    EXPECT_EQ(buf.readWord(last + 1), 0xBBBBu);
}

TEST(QBuffer, SaveRestoreArchitecturalState)
{
    QBuffer buf(params8P());
    buf.writeWord(7, 0xDEADBEEF);
    const auto snapshot = buf.save();
    buf.clear();
    EXPECT_EQ(buf.readWord(7), 0u);
    buf.restore(snapshot);
    EXPECT_EQ(buf.readWord(7), 0xDEADBEEFu);
}

TEST(QBuffer, OutOfRangePanics)
{
    QBuffer buf(params8P());
    EXPECT_THROW(buf.writeWord(1024, 1), PanicError);
    EXPECT_THROW(buf.readWord(2048), PanicError);
    EXPECT_THROW(buf.writeEncodedPair(1023, 0, 0), PanicError);
}

// ====================================================================
// Data encoder
// ====================================================================

TEST(DataEncoder, MatchesSoftwarePacking)
{
    std::string seq(64, 'A');
    for (std::size_t i = 0; i < 64; ++i)
        seq[i] = "ACGT"[(i * 5) % 4];
    VReg chars;
    for (unsigned i = 0; i < 64; ++i)
        chars.setU8(i, static_cast<std::uint8_t>(seq[i]));
    const auto [segA, segB] = DataEncoder::encode(chars);
    const auto packed = genomics::pack2bit(seq);
    EXPECT_EQ(segA, packed[0]);
    EXPECT_EQ(segB, packed[1]);
}

// ====================================================================
// Count ALU
// ====================================================================

TEST(CountAlu, CountsMatchingPrefix2bit)
{
    const std::string a = "ACGTACGTACGTACGTACGTACGTACGTACGT";
    std::string b = a;
    b[5] = b[5] == 'A' ? 'C' : 'A';
    const std::uint64_t wa = genomics::pack2bit(a)[0];
    const std::uint64_t wb = genomics::pack2bit(b)[0];
    EXPECT_EQ(CountAlu::count(wa, wa, ElementSize::Bits2), 32u);
    EXPECT_EQ(CountAlu::count(wa, wb, ElementSize::Bits2), 5u);
}

TEST(CountAlu, PartialBitMatchDoesNotCountElement)
{
    // Codes 01 and 11 share bit 0: one matching bit is only half an
    // element, so the shift truncates it away.
    const std::uint64_t a = 0b01; // C
    const std::uint64_t b = 0b11; // G
    EXPECT_EQ(CountAlu::count(a, b, ElementSize::Bits2), 0u);
}

TEST(CountAlu, CountsMatchingPrefix8bit)
{
    const std::uint64_t a = genomics::pack8bit("ABCDEFGH")[0];
    const std::uint64_t b = genomics::pack8bit("ABCXEFGH")[0];
    EXPECT_EQ(CountAlu::count(a, a, ElementSize::Bits8), 8u);
    EXPECT_EQ(CountAlu::count(a, b, ElementSize::Bits8), 3u);
}

TEST(CountAlu, Count64BitElements)
{
    EXPECT_EQ(CountAlu::count(5, 5, ElementSize::Bits64), 1u);
    EXPECT_EQ(CountAlu::count(5, 6, ElementSize::Bits64), 0u);
}

TEST(CountAlu, ReverseCountsFromTop)
{
    const std::string a = "ACGTACGTACGTACGTACGTACGTACGTACGT";
    std::string b = a;
    b[29] = b[29] == 'A' ? 'C' : 'A'; // mismatch near the top
    const std::uint64_t wa = genomics::pack2bit(a)[0];
    const std::uint64_t wb = genomics::pack2bit(b)[0];
    EXPECT_EQ(CountAlu::countReverse(wa, wa, ElementSize::Bits2), 32u);
    EXPECT_EQ(CountAlu::countReverse(wa, wb, ElementSize::Bits2), 2u);
}

TEST(CountAlu, ElementsPerSegment)
{
    EXPECT_EQ(CountAlu::elementsPerSegment(ElementSize::Bits2), 32u);
    EXPECT_EQ(CountAlu::elementsPerSegment(ElementSize::Bits8), 8u);
    EXPECT_EQ(CountAlu::elementsPerSegment(ElementSize::Bits64), 1u);
}

// ====================================================================
// QzUnit (instruction semantics)
// ====================================================================

class QzUnitTest : public ::testing::Test
{
  protected:
    QzUnitTest()
        : ctx(sim::SystemParams::withQuetzal()), vpu(ctx.pipeline()),
          qz(vpu, ctx.params().quetzal)
    {}

    sim::SimContext ctx;
    isa::VectorUnit vpu;
    QzUnit qz;
};

TEST_F(QzUnitTest, RequiresQuetzalHardware)
{
    sim::SimContext plain;
    isa::VectorUnit v(plain.pipeline());
    sim::QuetzalParams absent;
    EXPECT_THROW(QzUnit(v, absent), FatalError);
}

TEST_F(QzUnitTest, StageAndLoad2bit)
{
    const std::string seq = "ACGTTGCATTTTGGGGACGTACGTACGTTGCA";
    qz.qzconf(seq.size(), seq.size(), ElementSize::Bits2);
    qz.stageSequence2bit(QzSel::Buf0, seq);
    VReg idx;
    for (unsigned l = 0; l < 8; ++l)
        idx.setU64(l, 4 * l);
    const VReg got = qz.qzload(idx, QzSel::Buf0, vpu.pTrue(8), 8);
    for (unsigned l = 0; l < 8; ++l)
        EXPECT_EQ(got.u64(l), genomics::encodeBase2(seq[4 * l]));
}

TEST_F(QzUnitTest, StageAndLoad8bit)
{
    const std::string seq = "MKVLAARWQEHNIGHTPROTEINSEQVVNCEE";
    qz.qzconf(seq.size(), seq.size(), ElementSize::Bits8);
    qz.stageSequence8bit(QzSel::Buf1, seq);
    VReg idx;
    for (unsigned l = 0; l < 8; ++l)
        idx.setU64(l, 3 * l);
    const VReg got = qz.qzload(idx, QzSel::Buf1, vpu.pTrue(8), 8);
    for (unsigned l = 0; l < 8; ++l)
        EXPECT_EQ(got.u64(l),
                  static_cast<std::uint64_t>(seq[3 * l]));
}

TEST_F(QzUnitTest, QzStoreDirectMode64)
{
    qz.qzconf(64, 64, ElementSize::Bits64);
    VReg idx, val;
    for (unsigned l = 0; l < 8; ++l) {
        idx.setU64(l, 8 * l); // all in bank 0: serialized write
        val.setU64(l, 1000 + l);
    }
    qz.qzstore(val, idx, QzSel::Buf0, vpu.pTrue(8), 8);
    const VReg got = qz.qzload(idx, QzSel::Buf0, vpu.pTrue(8), 8);
    for (unsigned l = 0; l < 8; ++l)
        EXPECT_EQ(got.u64(l), 1000 + l);
}

TEST_F(QzUnitTest, QzMhmCmpEqAndArith)
{
    const std::string a = "ACGTACGTACGTACGTACGTACGTACGTACGT";
    const std::string b = "ACGAACGTACGTACGTACGTACGTACGTACGT";
    qz.qzconf(a.size(), b.size(), ElementSize::Bits2);
    qz.stageSequence2bit(QzSel::Buf0, a);
    qz.stageSequence2bit(QzSel::Buf1, b);
    VReg idx;
    for (unsigned l = 0; l < 8; ++l)
        idx.setU64(l, l);
    const VReg eq =
        qz.qzmhm(QzOpn::CmpEq, idx, idx, vpu.pTrue(8), 8);
    EXPECT_EQ(eq.u64(0), 1u);
    EXPECT_EQ(eq.u64(3), 0u); // a[3]='T' vs b[3]='A'
    const VReg add = qz.qzmhm(QzOpn::Add, idx, idx, vpu.pTrue(8), 8);
    EXPECT_EQ(add.u64(1),
              2u * genomics::encodeBase2('C'));
}

TEST_F(QzUnitTest, QzMhmCountMatchesScalarRun)
{
    std::string a(128, 'A'), b(128, 'A');
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = b[i] = "ACGT"[(i * 3) % 4];
    b[40] = b[40] == 'A' ? 'C' : 'A';
    qz.qzconf(a.size(), b.size(), ElementSize::Bits2);
    qz.stageSequence2bit(QzSel::Buf0, a);
    qz.stageSequence2bit(QzSel::Buf1, b);
    VReg idx;
    idx.setU64(0, 10);
    idx.setU64(1, 39);
    idx.setU64(2, 41);
    const Pred p = vpu.whilelt(0, 3, 8);
    const VReg counts = qz.qzmhm(QzOpn::Count, idx, idx, p, 8);
    EXPECT_EQ(counts.u64(0), 30u); // elements 10..39 match, 40 differs
    EXPECT_EQ(counts.u64(1), 1u);
    EXPECT_EQ(counts.u64(2), 32u); // full window beyond the mismatch
}

TEST_F(QzUnitTest, QzMmCombinesRegisterAndBuffer)
{
    qz.qzconf(64, 64, ElementSize::Bits64);
    std::vector<std::uint64_t> words(16);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 10 * i;
    qz.stageWords64(QzSel::Buf0, words);
    VReg idx, val;
    for (unsigned l = 0; l < 8; ++l) {
        idx.setU64(l, l);
        val.setU64(l, 7);
    }
    const VReg sum =
        qz.qzmm(QzOpn::Add, val, idx, QzSel::Buf0, vpu.pTrue(8), 8);
    EXPECT_EQ(sum.u64(3), 37u);
    const VReg mx =
        qz.qzmm(QzOpn::Max, val, idx, QzSel::Buf0, vpu.pTrue(8), 8);
    EXPECT_EQ(mx.u64(0), 7u);
    EXPECT_EQ(mx.u64(2), 20u);
}

TEST_F(QzUnitTest, QzCountStandalone)
{
    qz.qzconf(32, 32, ElementSize::Bits2);
    const std::uint64_t wa =
        genomics::pack2bit("ACGTACGTACGTACGTACGTACGTACGTACGT")[0];
    const std::uint64_t wb =
        genomics::pack2bit("ACGTACCTACGTACGTACGTACGTACGTACGT")[0];
    VReg a = vpu.dup64(wa);
    VReg b = vpu.dup64(wb);
    const VReg counts = qz.qzcount(a, b);
    for (unsigned l = 0; l < 8; ++l)
        EXPECT_EQ(counts.u64(l), 6u);
}

TEST_F(QzUnitTest, IndexBeyondConfiguredCountPanics)
{
    qz.qzconf(8, 8, ElementSize::Bits64);
    VReg idx;
    idx.setU64(0, 8);
    EXPECT_THROW(qz.qzload(idx, QzSel::Buf0, vpu.pTrue(1), 1),
                 PanicError);
}

TEST_F(QzUnitTest, QzConfRejectsOversizedCounts)
{
    EXPECT_THROW(qz.qzconf(40000, 8, ElementSize::Bits2), FatalError);
    EXPECT_THROW(qz.qzconf(8, 9000, ElementSize::Bits8), FatalError);
}

TEST_F(QzUnitTest, ReadsDependOnPriorWrites)
{
    // Timing property: a qzload issued right after staging cannot be
    // ready before the staging writes completed.
    const std::string seq(64, 'A');
    qz.qzconf(seq.size(), seq.size(), ElementSize::Bits2);
    qz.stageSequence2bit(QzSel::Buf0, seq);
    VReg idx;
    const VReg got = qz.qzload(idx, QzSel::Buf0, vpu.pTrue(1), 1);
    EXPECT_GT(got.tag.ready, 0u);
}

/** Stage @p seq from under a 4 KB stack frame, far below where the
 *  caller's own locals sit. */
[[gnu::noinline]] void
stageFromDeepFrame(QzUnit &qz, QzSel sel, std::string_view seq)
{
    volatile char pad[4096];
    pad[0] = 0;
    qz.stageSequence2bit(sel, seq);
    pad[1] = pad[0];
}

TEST(QzStaging, FootprintDoesNotDependOnTheCallersStack)
{
    // Staging loads are simulated accesses, and translation hands out
    // simulated paragraphs in first-touch order. If the staged bytes
    // sat in the caller's stack frame, how many paragraphs staging
    // takes, and so where every later allocation lands in simulated
    // space, would follow the compiler's frame layout: build types
    // would disagree on every QUETZAL cell.
    const std::string a(200, 'C'), b(200, 'G');
    const std::vector<char> later(64, 'T');
    const auto laterAddr = [&](bool deep) {
        sim::SimContext ctx(sim::SystemParams::withQuetzal());
        isa::VectorUnit vpu(ctx.pipeline());
        QzUnit qz(vpu, ctx.params().quetzal);
        qz.qzconf(a.size(), b.size(), ElementSize::Bits2);
        qz.stageSequence2bit(QzSel::Buf0, a);
        if (deep)
            stageFromDeepFrame(qz, QzSel::Buf1, b);
        else
            qz.stageSequence2bit(QzSel::Buf1, b);
        return ctx.mem().translate(
            reinterpret_cast<sim::Addr>(later.data()));
    };
    EXPECT_EQ(laterAddr(false), laterAddr(true));
}

TEST_F(QzUnitTest, QzMhmCountRevCountsBackward)
{
    std::string a(96, 'A'), b(96, 'A');
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = b[i] = "ACGT"[(i * 5) % 4];
    b[40] = b[40] == 'A' ? 'C' : 'A';
    qz.qzconf(a.size(), b.size(), ElementSize::Bits2);
    qz.stageSequence2bit(QzSel::Buf0, a);
    qz.stageSequence2bit(QzSel::Buf1, b);
    VReg idx;
    idx.setU64(0, 60); // counting down from 60: mismatch at 40
    idx.setU64(1, 39); // all 32 below 39 match
    const Pred p = vpu.whilelt(0, 2, 8);
    const VReg counts =
        qz.qzmhm(QzOpn::CountRev, idx, idx, p, 8);
    EXPECT_EQ(counts.u64(0), 20u);
    EXPECT_EQ(counts.u64(1), 32u);
}

TEST_F(QzUnitTest, QzMhmXorWindowsMatchCountSemantics)
{
    std::string a(64, 'G'), b = a;
    b[10] = 'C';
    qz.qzconf(a.size(), b.size(), ElementSize::Bits2);
    qz.stageSequence2bit(QzSel::Buf0, a);
    qz.stageSequence2bit(QzSel::Buf1, b);
    VReg idx;
    idx.setU64(0, 2);
    const Pred p = vpu.whilelt(0, 1, 8);
    const VReg x = qz.qzmhm(QzOpn::XorWin, idx, idx, p, 8);
    // ctz(xor) >> 1 must equal the count ALU's answer (8 matches
    // from element 2 up to the mismatch at 10).
    EXPECT_EQ(std::countr_zero(x.u64(0)) >> 1, 8);
    const VReg counts = qz.qzmhm(QzOpn::Count, idx, idx, p, 8);
    EXPECT_EQ(counts.u64(0), 8u);
    const VReg xr = qz.qzmhm(QzOpn::XorWinRev, idx, idx, p, 8);
    EXPECT_EQ(static_cast<unsigned>(std::countl_zero(xr.u64(0))) >> 1,
              qz.qzmhm(QzOpn::CountRev, idx, idx, p, 8).u64(0));
}

TEST_F(QzUnitTest, QzMmMultiplyForSpmv)
{
    qz.qzconf(16, 0, ElementSize::Bits64);
    std::vector<std::uint64_t> xs(16);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = 3 + i;
    qz.stageWords64(QzSel::Buf0, xs);
    VReg idx, val;
    for (unsigned l = 0; l < 8; ++l) {
        idx.setU64(l, 2 * l);
        val.setU64(l, 10);
    }
    const VReg prod =
        qz.qzmm(QzOpn::Mul, val, idx, QzSel::Buf0, vpu.pTrue(8), 8);
    EXPECT_EQ(prod.u64(0), 30u);
    EXPECT_EQ(prod.u64(3), 90u);
}

TEST_F(QzUnitTest, ReadLatencyScalesWithActiveLanes)
{
    sim::QuetzalParams p2;
    p2.present = true;
    p2.readPorts = 2;
    QBuffer buf(p2);
    EXPECT_EQ(buf.vectorReadCycles(0), 1u);
    EXPECT_EQ(buf.vectorReadCycles(2), 2u);
    EXPECT_EQ(buf.vectorReadCycles(8), 5u);
}

TEST_F(QzUnitTest, ArchitecturalStateRoundTripsThroughQzUnit)
{
    qz.qzconf(8, 8, ElementSize::Bits64);
    VReg idx, val;
    for (unsigned l = 0; l < 8; ++l) {
        idx.setU64(l, l);
        val.setU64(l, 0xA0 + l);
    }
    qz.qzstore(val, idx, QzSel::Buf0, vpu.pTrue(8), 8);
    const auto snapshot = qz.buffer(QzSel::Buf0).save();
    qz.buffer(QzSel::Buf0).clear();
    qz.buffer(QzSel::Buf0).restore(snapshot);
    const VReg got = qz.qzload(idx, QzSel::Buf0, vpu.pTrue(8), 8);
    EXPECT_EQ(got.u64(5), 0xA5u);
}

// ====================================================================
// Area / power model (Table III)
// ====================================================================

TEST(AreaModel, MatchesTableIIIAnchors)
{
    const auto configs = tableIiiConfigs();
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(configs[0].config, "QZ_1P");
    EXPECT_NEAR(configs[0].areaMm2, 0.013, 0.002);
    EXPECT_EQ(configs[3].config, "QZ_8P");
    EXPECT_NEAR(configs[3].areaMm2, 0.097, 0.002);
    EXPECT_NEAR(configs[3].powerMw, 0.746, 0.02);
    // Paper headline: <= 1.41% SoC overhead at 8 ports.
    EXPECT_NEAR(configs[3].socPercent, 1.41, 0.1);
    EXPECT_EQ(configs[0].readLatency, 9u);
    EXPECT_EQ(configs[1].readLatency, 5u);
    EXPECT_EQ(configs[3].readLatency, 2u);
}

TEST(AreaModel, AreaGrowsWithPorts)
{
    double prev = 0;
    for (unsigned ports : {1u, 2u, 4u, 8u}) {
        const auto est = estimateAreaPower(ports);
        EXPECT_GT(est.areaMm2, prev);
        prev = est.areaMm2;
    }
    EXPECT_THROW(estimateAreaPower(0), FatalError);
    EXPECT_THROW(estimateAreaPower(16), FatalError);
}

TEST(AreaModel, GcupsAccounting)
{
    // 1e9 cells in 2e9 cycles at 2 GHz = 1 second -> 1 GCUPS.
    EXPECT_NEAR(gcups(1000000000ull, 2000000000ull, 2.0), 1.0, 1e-9);
    EXPECT_EQ(gcups(100, 0, 2.0), 0.0);
    EXPECT_EQ(dpCellsClassic(100, 200), 20000u);
}

TEST(AreaModel, PublishedAcceleratorRows)
{
    const auto rows = publishedAccelerators();
    ASSERT_GE(rows.size(), 5u);
    for (const auto &row : rows) {
        EXPECT_GT(row.areaMm2, 0.0);
        EXPECT_GT(row.pgcupsPerMm2(), 0.0);
    }
}

} // namespace
} // namespace quetzal::accel
