#include "algos/nw.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "algos/vector_blocks.hpp"
#include "common/logging.hpp"

namespace quetzal::algos {

using isa::addrOf;
using isa::VReg;

namespace {

enum Site : std::uint64_t
{
    kSiteA = 0x300,   //!< (i, j-1) diagonal load
    kSiteB = 0x301,   //!< (i-1, j) diagonal load
    kSiteC = 0x302,   //!< (i-1, j-1) diagonal load
    kSiteP = 0x303,   //!< pattern chars
    kSiteT = 0x304,   //!< reversed-text chars
    kSiteV = 0x305,   //!< value store
    kSiteTb = 0x306,  //!< traceback reads
};

/**
 * Misaligned store-to-load forwarding penalty: the diagonal loads read
 * data stored one diagonal earlier at a one-element offset, which
 * defeats the forwarding network (see DESIGN.md).
 */
constexpr sim::Cycle kForwardPenalty = 6;

/** Diagonal-linearized (m+1) x (n+1) DP table. */
class DiagTable
{
  public:
    DiagTable(std::int64_t m, std::int64_t n) : m_(m), n_(n)
    {
        off_.resize(static_cast<std::size_t>(m + n + 2), 0);
        std::int64_t total = 0;
        for (std::int64_t d = 0; d <= m + n; ++d) {
            off_[static_cast<std::size_t>(d)] = total;
            total += iHi(d) - iLo(d) + 1;
        }
        off_[static_cast<std::size_t>(m + n + 1)] = total;
        v_.assign(static_cast<std::size_t>(total) + 32, 0);
    }

    std::int64_t iLo(std::int64_t d) const { return std::max<std::int64_t>(0, d - n_); }
    std::int64_t iHi(std::int64_t d) const { return std::min(m_, d); }

    /** Cell (i, j). */
    std::int32_t
    at(std::int64_t i, std::int64_t j) const
    {
        return v_[index(i, j)];
    }

    void
    set(std::int64_t i, std::int64_t j, std::int32_t value)
    {
        v_[index(i, j)] = value;
    }

    /** Host pointer for the run starting at (i, d - i). */
    std::int32_t *
    ptr(std::int64_t d, std::int64_t i)
    {
        return v_.data() + off_[static_cast<std::size_t>(d)] +
               (i - iLo(d));
    }

    const std::int32_t *
    ptr(std::int64_t d, std::int64_t i) const
    {
        return v_.data() + off_[static_cast<std::size_t>(d)] +
               (i - iLo(d));
    }

  private:
    std::size_t
    index(std::int64_t i, std::int64_t j) const
    {
        const std::int64_t d = i + j;
        panic_if_not(i >= iLo(d) && i <= iHi(d),
                     "NW table access ({}, {}) out of range", i, j);
        return static_cast<std::size_t>(
            off_[static_cast<std::size_t>(d)] + (i - iLo(d)));
    }

    std::int64_t m_, n_;
    std::vector<std::int64_t> off_;
    std::vector<std::int32_t> v_;
};

/** Fill boundary cells of diagonal @p d (i = 0 and j = 0 edges). */
void
fillBoundary(DiagTable &tab, std::int64_t d, std::int64_t m,
             std::int64_t n)
{
    if (d <= n)
        tab.set(0, d, static_cast<std::int32_t>(d));
    if (d <= m && d > 0)
        tab.set(d, 0, static_cast<std::int32_t>(d));
}

/** Shared traceback over the completed table. */
Cigar
nwTraceback(const DiagTable &tab, std::string_view p, std::string_view t,
            isa::VectorUnit *vpu)
{
    const auto m = static_cast<std::int64_t>(p.size());
    const auto n = static_cast<std::int64_t>(t.size());
    Cigar rev;
    std::int64_t i = m, j = n;
    while (i > 0 || j > 0) {
        if (vpu) {
            vpu->scalarLoad(kSiteTb, tab.ptr(i + j, i), 4);
            vpu->scalarOps(3);
        }
        if (i == 0) {
            rev.append('I');
            --j;
            continue;
        }
        if (j == 0) {
            rev.append('D');
            --i;
            continue;
        }
        const std::int32_t here = tab.at(i, j);
        const bool match = p[static_cast<std::size_t>(i - 1)] ==
                           t[static_cast<std::size_t>(j - 1)];
        if (here == tab.at(i - 1, j - 1) + (match ? 0 : 1)) {
            rev.append(match ? 'M' : 'X');
            --i;
            --j;
        } else if (here == tab.at(i, j - 1) + 1) {
            rev.append('I');
            --j;
        } else {
            panic_if_not(here == tab.at(i - 1, j) + 1,
                         "NW traceback: inconsistent cell ({}, {})", i,
                         j);
            rev.append('D');
            --i;
        }
    }
    std::reverse(rev.ops.begin(), rev.ops.end());
    return rev;
}

/**
 * Interior cells lo..hi of diagonal @p d: the recurrence every variant
 * computes. Diagonal-major layout makes all three operand runs and the
 * output run contiguous: r1[k] is (i-1, j), r1[k+1] is (i, j-1), r2[k]
 * is (i-1, j-1), with k = i - lo.
 */
void
fillDiagonal(DiagTable &tab, std::string_view p, std::string_view t,
             std::int64_t d, std::int64_t lo, std::int64_t hi)
{
    const std::int32_t *r1 = tab.ptr(d - 1, lo - 1);
    const std::int32_t *r2 = tab.ptr(d - 2, lo - 1);
    std::int32_t *outRow = tab.ptr(d, lo);
    for (std::int64_t i = lo; i <= hi; ++i) {
        const std::int64_t j = d - i;
        const std::int64_t k = i - lo;
        const std::int32_t ins = r1[k + 1] + 1;
        const std::int32_t del = r1[k] + 1;
        const std::int32_t sub =
            r2[k] + (p[static_cast<std::size_t>(i - 1)] ==
                             t[static_cast<std::size_t>(j - 1)]
                         ? 0
                         : 1);
        outRow[k] = std::min(ins, std::min(del, sub));
    }
}

/** Reference / Base scalar fill. */
void
fillScalar(DiagTable &tab, std::string_view p, std::string_view t,
           isa::BaseUnit *bu)
{
    const auto m = static_cast<std::int64_t>(p.size());
    const auto n = static_cast<std::int64_t>(t.size());
    tab.set(0, 0, 0);
    for (std::int64_t d = 1; d <= m + n; ++d) {
        fillBoundary(tab, d, m, n);
        const std::int64_t lo = std::max<std::int64_t>(1, d - n);
        const std::int64_t hi = std::min(m, d - 1);
        if (lo > hi)
            continue;
        fillDiagonal(tab, p, t, d, lo, hi);
        // Charge the diagonal as one cell run: cell k loads (i, j-1),
        // (i-1, j), (i-1, j-1), p[i-1] and t[j-1] (the text walks
        // backwards along a diagonal), runs a 4-op ALU chain, and
        // stores (i, j).
        if (bu) {
            const std::int32_t *r1 = tab.ptr(d - 1, lo - 1);
            const std::array<sim::CellStream, 5> loads{{
                {kSiteA, addrOf(r1 + 1), 4, 4},
                {kSiteB, addrOf(r1), 4, 4},
                {kSiteC, addrOf(tab.ptr(d - 2, lo - 1)), 4, 4},
                {kSiteP, addrOf(p.data() + (lo - 1)), 1, 1},
                {kSiteT, addrOf(t.data() + (d - lo - 1)), -1, 1},
            }};
            const std::array<sim::CellStream, 1> stores{{
                {kSiteV, addrOf(tab.ptr(d, lo)), 4, 4},
            }};
            bu->cells(loads, 4, stores,
                      static_cast<std::uint64_t>(hi - lo + 1));
        }
    }
}

/**
 * Vec / Qz vector fill along anti-diagonals.
 *
 * The Vec path loads the previous two diagonals from the cache
 * hierarchy, paying the misaligned store-to-load forwarding penalty
 * on the diagonal-to-diagonal chain. The Qz path follows Fig. 7: the
 * rolling diagonals live in the QBUFFERs (double-buffered by parity;
 * the current diagonal overwrites the d-2 generation behind its last
 * reader), served by 2-cycle qzload reads. The full table is written
 * to memory either way — the traceback needs it.
 */
void
fillVector(DiagTable &tab, std::string_view p, std::string_view t,
           isa::VectorUnit &vpu, accel::QzUnit *qz)
{
    constexpr unsigned L = isa::kLanes32;
    const auto m = static_cast<std::int64_t>(p.size());
    const auto n = static_cast<std::int64_t>(t.size());

    // Reversed text so both residue streams are contiguous along a
    // diagonal; building it is charged like the real implementations.
    std::string trev(t.rbegin(), t.rend());
    for (std::size_t c = 0; c < trev.size(); c += 64) {
        const unsigned bytes =
            static_cast<unsigned>(std::min<std::size_t>(64,
                                                        trev.size() - c));
        const VReg chunk = vpu.load(kSiteT, trev.data() + c, bytes);
        vpu.store(kSiteT, trev.data() + c, chunk, bytes);
    }

    const std::size_t diagCap =
        qz ? qz->buffer(accel::QzSel::Buf0)
                 .capacityElements(genomics::ElementSize::Bits64)
           : 0;
    const bool useQz =
        qz && static_cast<std::size_t>(std::min(m, n) + 2) <= diagCap;
    if (qz) {
        fatal_if(!useQz,
                 "NW diagonals of {} cells exceed the QBUFFER 64-bit "
                 "capacity {}; cap the sequence length",
                 std::min(m, n) + 1, diagCap);
        qz->qzconf(diagCap, diagCap, genomics::ElementSize::Bits64);
    }
    auto bufOf = [](std::int64_t d) {
        return (d & 1) ? accel::QzSel::Buf1 : accel::QzSel::Buf0;
    };

    sim::Tag qzDep{};
    // Rows are stored packed: one 64-bit QBUFFER element holds two
    // int32 cells, so a 16-cell row moves in ONE qzload / qzstore
    // (8 lanes). Odd 32-bit offsets add one vector ext to realign.
    auto qzReadRow = [&](std::int64_t d, std::int64_t slot,
                         unsigned cnt) {
        const accel::QzSel sel = bufOf(d);
        const unsigned lanes =
            std::min(8u, (static_cast<unsigned>(slot & 1) + cnt + 1) / 2);
        const isa::Pred p = vpu.whilelt(0, lanes, 8);
        VReg idx;
        for (unsigned l = 0; l < 8; ++l)
            idx.words[l] = static_cast<std::uint64_t>(slot / 2 + l);
        idx.tag = qzDep;
        VReg row = qz->qzload(idx, sel, p, 8);
        if (slot & 1)
            row = vpu.shr64i(row, 32); // ext: realign odd offsets
        return row.tag;
    };
    auto qzWriteRow = [&](std::int64_t d, std::int64_t slot,
                          const VReg &row, unsigned cnt) {
        const accel::QzSel sel = bufOf(d);
        const unsigned lanes = std::min(8u, (cnt + 1) / 2);
        VReg idx;
        for (unsigned l = 0; l < 8; ++l)
            idx.words[l] = static_cast<std::uint64_t>(slot / 2 + l);
        idx.tag = row.tag;
        qz->qzstore(row, idx, sel, vpu.whilelt(0, lanes, 8), 8);
        qzDep = row.tag;
    };

    // Each diagonal's values come from the scalar recurrence; its
    // 16-lane blocks are charged as one block run of the per-block
    // program (algos/vector_blocks.hpp).
    namespace nb = blocks::nw;
    sim::Pipeline &pipe = vpu.pipeline();
    const sim::Tag one = vpu.dup32(1).tag;
    tab.set(0, 0, 0);
    sim::Tag prevStore{};
    for (std::int64_t d = 1; d <= m + n; ++d) {
        fillBoundary(tab, d, m, n);
        vpu.scalarOps(2);
        const std::int64_t lo = std::max<std::int64_t>(1, d - n);
        const std::int64_t hi = std::min(m, d - 1);
        if (lo > hi) {
            prevStore = sim::Tag{};
            continue;
        }
        fillDiagonal(tab, p, t, d, lo, hi);
        // Forwarding conflicts (and the QBUFFER remedy) only matter
        // on narrow diagonals, where the previous diagonal's store is
        // still in flight when this one loads it; wide diagonals are
        // throughput-bound streaming.
        const bool narrow = hi - lo + 1 <= 2 * static_cast<int>(L);
        std::array<sim::Tag, nb::kSlots> slots{};
        slots[nb::kOne] = one;
        const auto streams = [&](std::int64_t i0) {
            return std::array<sim::CellStream, nb::kStreams>{{
                {kSiteA, addrOf(tab.ptr(d - 1, i0)), 4, 4},
                {kSiteB, addrOf(tab.ptr(d - 1, i0 - 1)), 4, 4},
                {kSiteC, addrOf(tab.ptr(d - 2, i0 - 1)), 4, 4},
                {kSiteP, addrOf(p.data() + (i0 - 1)), 1, 1},
                {kSiteT, addrOf(trev.data() + (n - d + i0)), 1, 1},
                {kSiteV, addrOf(tab.ptr(d, i0)), 4, 4},
            }};
        };
        if (!(useQz && narrow)) {
            // On narrow diagonals the previous diagonal was stored
            // moments ago at a one-element offset: forwarding
            // conflict. Wide diagonals stream without conflicts.
            slots[nb::kFwd] =
                narrow ? sim::Tag{prevStore.ready + kForwardPenalty,
                                  prevStore.mem}
                       : sim::Tag{};
            pipe.executeBlockRun<nb::kProgram>(
                streams(lo), slots, static_cast<std::uint64_t>(hi - lo + 1),
                L);
            prevStore = slots[nb::kStored];
            continue;
        }
        // Fig. 7: A, B and C come from the QBUFFERs, and each block's
        // row goes back to them before its store.
        for (std::int64_t i0 = lo; i0 <= hi;
             i0 += static_cast<std::int64_t>(L)) {
            const unsigned cnt = static_cast<unsigned>(
                std::min<std::int64_t>(L, hi - i0 + 1));
            slots[nb::kA] = qzReadRow(d - 1, i0 - tab.iLo(d - 1), cnt);
            slots[nb::kB] = qzReadRow(d - 1, i0 - 1 - tab.iLo(d - 1), cnt);
            slots[nb::kC] = qzReadRow(d - 2, i0 - 1 - tab.iLo(d - 2), cnt);
            const auto blockStreams = streams(i0);
            pipe.executeBlockRun<nb::kProgram, nb::kOpP, nb::kOpStore>(
                blockStreams, slots, cnt, L);
            qzWriteRow(d, i0 - tab.iLo(d),
                       isa::VectorUnit::lanes(tab.ptr(d, i0), cnt * 4,
                                              slots[nb::kValue]),
                       cnt);
            pipe.executeBlockRun<nb::kProgram, nb::kOpStore>(
                blockStreams, slots, cnt, L);
        }
        prevStore = slots[nb::kStored];
    }
}

} // namespace

AlignResult
nwAlign(Variant variant, std::string_view pattern, std::string_view text,
        isa::VectorUnit *vpu, accel::QzUnit *qz, bool traceback)
{
    AlignResult result;
    if (pattern.empty() || text.empty()) {
        if (pattern.empty() && !text.empty()) {
            result.score = static_cast<std::int64_t>(text.size());
            if (traceback)
                result.cigar.append('I', text.size());
        } else if (!pattern.empty()) {
            result.score = static_cast<std::int64_t>(pattern.size());
            if (traceback)
                result.cigar.append('D', pattern.size());
        }
        return result;
    }

    const auto m = static_cast<std::int64_t>(pattern.size());
    const auto n = static_cast<std::int64_t>(text.size());
    DiagTable tab(m, n);

    switch (variant) {
      case Variant::Ref:
        fillScalar(tab, pattern, text, nullptr);
        break;
      case Variant::Base: {
        panic_if_not(vpu != nullptr, "Base NW needs a VectorUnit");
        isa::BaseUnit bu(vpu->pipeline());
        fillScalar(tab, pattern, text, &bu);
        break;
      }
      case Variant::Vec:
        panic_if_not(vpu != nullptr, "Vec NW needs a VectorUnit");
        fillVector(tab, pattern, text, *vpu, nullptr);
        break;
      case Variant::Qz:
      case Variant::QzC:
        panic_if_not(vpu != nullptr && qz != nullptr,
                     "Qz NW needs a VectorUnit and a QzUnit");
        fillVector(tab, pattern, text, *vpu, qz);
        break;
    }

    result.score = tab.at(m, n);
    if (traceback)
        result.cigar = nwTraceback(
            tab, pattern, text,
            variant == Variant::Ref ? nullptr : vpu);
    return result;
}

} // namespace quetzal::algos
