#include "quetzal/qzunit.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "isa/hostsimd.hpp"

namespace quetzal::accel {

using isa::Pred;
using isa::VReg;
using sim::OpClass;

QzUnit::QzUnit(isa::VectorUnit &vpu, const sim::QuetzalParams &params)
    : vpu_(vpu), buf0_(params), buf1_(params)
{
    fatal_if(!params.present,
             "constructing a QzUnit on a system without QUETZAL "
             "hardware; use SystemParams::withQuetzal()");
}

const QBuffer &
QzUnit::buffer(QzSel sel) const
{
    return sel == QzSel::Buf0 ? buf0_ : buf1_;
}

QBuffer &
QzUnit::buffer(QzSel sel)
{
    return sel == QzSel::Buf0 ? buf0_ : buf1_;
}

void
QzUnit::qzconf(std::uint64_t eb0, std::uint64_t eb1, ElementSize esiz)
{
    fatal_if(eb0 > buf0_.capacityElements(esiz),
             "qzconf: {} elements exceed QBUFFER0 capacity {}", eb0,
             buf0_.capacityElements(esiz));
    fatal_if(eb1 > buf1_.capacityElements(esiz),
             "qzconf: {} elements exceed QBUFFER1 capacity {}", eb1,
             buf1_.capacityElements(esiz));
    eb0_ = eb0;
    eb1_ = eb1;
    esiz_ = esiz;
    vpu_.pipeline().executeQz(OpClass::QzConf, 1, {});
}

void
QzUnit::checkIndex(QzSel sel, std::uint64_t elemIdx, bool window) const
{
    const std::uint64_t count = sel == QzSel::Buf0 ? eb0_ : eb1_;
    // Window reads may legitimately extend past the configured element
    // count (the algorithm clamps the count result), but the starting
    // element must be in range.
    (void)window;
    panic_if_not(elemIdx < count,
                 "QBUFFER{} access at element {} >= configured count {}",
                 static_cast<int>(sel), elemIdx, count);
}

void
QzUnit::qzencode(QzSel sel, const VReg &val, std::uint64_t wordIdx)
{
    const auto [segA, segB] = DataEncoder::encode(val);
    QBuffer &buf = buffer(sel);
    const unsigned cycles = buf.writeEncodedPair(wordIdx, segA, segB);
    writeTag(sel) = vpu_.pipeline().executeQz(
        OpClass::QzEncode, cycles, {val.tag, writeTag(sel)},
        /*commitSerialized=*/true);
}

void
QzUnit::qzstore(const VReg &val, const VReg &idx, QzSel sel,
                const Pred &p, unsigned n)
{
    panic_if_not(n <= isa::kLanes64, "qzstore over {} lanes", n);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> elems;
    elems.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        if (!p.active(i))
            continue;
        checkIndex(sel, idx.u64(i), false);
        elems.emplace_back(idx.u64(i), val.u64(i));
    }
    QBuffer &buf = buffer(sel);
    const unsigned cycles = buf.writeDirect(elems, esiz_);
    writeTag(sel) = vpu_.pipeline().executeQz(
        OpClass::QzStore, cycles, {val.tag, idx.tag, p.tag,
                                   writeTag(sel)},
        /*commitSerialized=*/true);
}

VReg
QzUnit::qzload(const VReg &idx, QzSel sel, const Pred &p, unsigned n)
{
    panic_if_not(n <= isa::kLanes64, "qzload over {} lanes", n);
    const QBuffer &buf = buffer(sel);
    VReg out;
    unsigned requests = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (!p.active(i))
            continue;
        checkIndex(sel, idx.u64(i), false);
        out.setU64(i, buf.readElement(idx.u64(i), esiz_));
        ++requests;
    }
    const unsigned latency = buf.vectorReadCycles(requests);
    out.tag = vpu_.pipeline().executeQz(OpClass::QzLoad, latency,
                                        {idx.tag, p.tag,
                                         writeTag(sel)});
    return out;
}

std::uint64_t
QzUnit::apply(QzOpn opn, std::uint64_t a, std::uint64_t b)
{
    switch (opn) {
      case QzOpn::Add:
        return a + b;
      case QzOpn::Sub:
        return a - b;
      case QzOpn::Mul:
        return a * b;
      case QzOpn::Max:
        return std::max<std::int64_t>(static_cast<std::int64_t>(a),
                                      static_cast<std::int64_t>(b));
      case QzOpn::Min:
        return std::min<std::int64_t>(static_cast<std::int64_t>(a),
                                      static_cast<std::int64_t>(b));
      case QzOpn::CmpEq:
        return a == b ? 1 : 0;
      default:
        panic("apply: count opcodes take the count-ALU path");
    }
}

VReg
QzUnit::qzmhm(QzOpn opn, const VReg &idx0, const VReg &idx1,
              const Pred &p, unsigned n)
{
    panic_if_not(n <= isa::kLanes64, "qzmhm over {} lanes", n);
    VReg out;
    unsigned requests = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (!p.active(i))
            continue;
        const bool counting =
            opn == QzOpn::Count || opn == QzOpn::CountRev ||
            opn == QzOpn::XorWin || opn == QzOpn::XorWinRev;
        checkIndex(QzSel::Buf0, idx0.u64(i), counting);
        checkIndex(QzSel::Buf1, idx1.u64(i), counting);
        if (opn == QzOpn::XorWin) {
            const std::uint64_t w0 =
                buf0_.readWindow64(idx0.u64(i), esiz_);
            const std::uint64_t w1 =
                buf1_.readWindow64(idx1.u64(i), esiz_);
            out.setU64(i, w0 ^ w1);
        } else if (opn == QzOpn::XorWinRev) {
            const std::uint64_t w0 =
                buf0_.readWindow64Ending(idx0.u64(i), esiz_);
            const std::uint64_t w1 =
                buf1_.readWindow64Ending(idx1.u64(i), esiz_);
            out.setU64(i, w0 ^ w1);
        } else if (opn == QzOpn::Count) {
            const std::uint64_t w0 =
                buf0_.readWindow64(idx0.u64(i), esiz_);
            const std::uint64_t w1 =
                buf1_.readWindow64(idx1.u64(i), esiz_);
            out.setU64(i, CountAlu::count(w0, w1, esiz_));
        } else if (opn == QzOpn::CountRev) {
            const std::uint64_t w0 =
                buf0_.readWindow64Ending(idx0.u64(i), esiz_);
            const std::uint64_t w1 =
                buf1_.readWindow64Ending(idx1.u64(i), esiz_);
            out.setU64(i, CountAlu::countReverse(w0, w1, esiz_));
        } else {
            const std::uint64_t a = buf0_.readElement(idx0.u64(i), esiz_);
            const std::uint64_t b = buf1_.readElement(idx1.u64(i), esiz_);
            out.setU64(i, apply(opn, a, b));
        }
        ++requests;
    }
    const unsigned readLat = std::max(buf0_.vectorReadCycles(requests),
                                      buf1_.vectorReadCycles(requests));
    const unsigned aluLat =
        (opn == QzOpn::Count || opn == QzOpn::CountRev)
            ? CountAlu::kPipelineDepth : 1;
    out.tag = vpu_.pipeline().executeQz(
        OpClass::QzMhm, readLat + aluLat,
        {idx0.tag, idx1.tag, p.tag, write0_, write1_});
    return out;
}

VReg
QzUnit::qzmm(QzOpn opn, const VReg &val, const VReg &idx, QzSel sel,
             const Pred &p, unsigned n)
{
    panic_if_not(n <= isa::kLanes64, "qzmm over {} lanes", n);
    const QBuffer &buf = buffer(sel);
    VReg out;
    unsigned requests = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (!p.active(i))
            continue;
        checkIndex(sel, idx.u64(i),
                   opn == QzOpn::Count || opn == QzOpn::CountRev);
        if (opn == QzOpn::Count) {
            const std::uint64_t w = buf.readWindow64(idx.u64(i), esiz_);
            out.setU64(i, CountAlu::count(w, val.u64(i), esiz_));
        } else if (opn == QzOpn::CountRev) {
            const std::uint64_t w =
                buf.readWindow64Ending(idx.u64(i), esiz_);
            out.setU64(i, CountAlu::countReverse(w, val.u64(i), esiz_));
        } else {
            const std::uint64_t b = buf.readElement(idx.u64(i), esiz_);
            out.setU64(i, apply(opn, val.u64(i), b));
        }
        ++requests;
    }
    const unsigned readLat = buf.vectorReadCycles(requests);
    const unsigned aluLat =
        (opn == QzOpn::Count || opn == QzOpn::CountRev)
            ? CountAlu::kPipelineDepth : 1;
    out.tag = vpu_.pipeline().executeQz(
        OpClass::QzMm, readLat + aluLat,
        {val.tag, idx.tag, p.tag, writeTag(sel)});
    return out;
}

VReg
QzUnit::qzcount(const VReg &val0, const VReg &val1)
{
    VReg out;
    isa::hostSimd().qzcount(val0.words.data(), val1.words.data(),
                            CountAlu::shiftFor(esiz_), out.words.data());
    out.tag = vpu_.pipeline().executeQz(OpClass::QzCount,
                                        CountAlu::kPipelineDepth,
                                        {val0.tag, val1.tag});
    return out;
}

void
QzUnit::stageSequence2bit(QzSel sel, std::string_view seq)
{
    QBuffer &buf = buffer(sel);
    fatal_if(seq.size() > buf.capacityElements(ElementSize::Bits2),
             "sequence of {} bases exceeds QBUFFER 2-bit capacity {}",
             seq.size(), buf.capacityElements(ElementSize::Bits2));
    // 64 chars per iteration: one contiguous vector load feeds one
    // qzencode, filling two consecutive 64-bit SRAM words.
    char *block = stagingBlock(sel);
    for (std::size_t off = 0, word = 0; off < seq.size();
         off += 64, word += 2) {
        const std::size_t chunk = std::min<std::size_t>(64,
                                                        seq.size() - off);
        std::memset(block, 'A', kStagingBlockBytes);
        std::memcpy(block, seq.data() + off, chunk);
        const VReg chars =
            vpu_.load(/*site=*/0x9100 + static_cast<int>(sel), block, 64);
        qzencode(sel, chars, word);
    }
}

void
QzUnit::stageSequence8bit(QzSel sel, std::string_view seq)
{
    QBuffer &buf = buffer(sel);
    fatal_if(seq.size() > buf.capacityElements(ElementSize::Bits8),
             "sequence of {} chars exceeds QBUFFER 8-bit capacity {}",
             seq.size(), buf.capacityElements(ElementSize::Bits8));
    // 64 chars per iteration: vector load + direct-mode write of eight
    // consecutive words (one per bank: single-cycle, conflict-free).
    char *block = stagingBlock(sel);
    for (std::size_t off = 0; off < seq.size(); off += 64) {
        const std::size_t chunk = std::min<std::size_t>(64,
                                                        seq.size() - off);
        std::memset(block, 0, kStagingBlockBytes);
        std::memcpy(block, seq.data() + off, chunk);
        const VReg chars =
            vpu_.load(/*site=*/0x9200 + static_cast<int>(sel), block, 64);
        for (unsigned w = 0; w < 8; ++w)
            buf.writeWord(off / 8 + w, chars.u64(w));
        writeTag(sel) = vpu_.pipeline().executeQz(
            OpClass::QzStore, 1, {chars.tag, writeTag(sel)},
            /*commitSerialized=*/true);
    }
}

void
QzUnit::stageWords64(QzSel sel, std::span<const std::uint64_t> words)
{
    QBuffer &buf = buffer(sel);
    fatal_if(words.size() > buf.words(),
             "{} words exceed QBUFFER word capacity {}", words.size(),
             buf.words());
    for (std::size_t off = 0; off < words.size(); off += 8) {
        const std::size_t chunk = std::min<std::size_t>(8,
                                                        words.size() - off);
        const VReg data = vpu_.load(
            /*site=*/0x9300 + static_cast<int>(sel), words.data() + off,
            static_cast<unsigned>(chunk * 8));
        for (std::size_t w = 0; w < chunk; ++w)
            buf.writeWord(off + w, data.u64(static_cast<unsigned>(w)));
        writeTag(sel) = vpu_.pipeline().executeQz(
            OpClass::QzStore, 1, {data.tag, writeTag(sel)},
            /*commitSerialized=*/true);
    }
}

} // namespace quetzal::accel
