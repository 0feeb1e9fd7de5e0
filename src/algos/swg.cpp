#include "algos/swg.hpp"

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
    kSiteH1 = 0x400, //!< H previous diagonal (for E)
    kSiteH1b = 0x401, //!< H previous diagonal shifted (for F)
    kSiteE1 = 0x402,
    kSiteF1 = 0x403,
    kSiteH2 = 0x404,
    kSiteP = 0x405,
    kSiteT = 0x406,
    kSiteHS = 0x407, //!< stores
    kSiteTb = 0x408,
};

constexpr std::int32_t kNegInf =
    std::numeric_limits<std::int32_t>::min() / 4;
constexpr sim::Cycle kForwardPenalty = 6;

/** Banded, diagonal-major storage for one matrix (H, E, or F). */
class BandTable
{
  public:
    static constexpr int kPad = 4;

    BandTable(std::int64_t m, std::int64_t n, int bandHalf)
        : m_(m), n_(n), half_(bandHalf),
          stride_(2 * bandHalf + 1 + 2 * kPad)
    {
        data_.assign(static_cast<std::size_t>((m + n + 1) * stride_),
                     kNegInf);
    }

    std::int64_t center(std::int64_t d) const
    {
        if (!centers_.empty())
            return centers_[static_cast<std::size_t>(
                std::clamp<std::int64_t>(d, 0, m_ + n_))];
        return d * m_ / (m_ + n_);
    }

    /** Switch to adaptive banding: centers start on the static line. */
    void
    enableAdaptiveCenters()
    {
        centers_.resize(static_cast<std::size_t>(m_ + n_ + 1));
        for (std::int64_t d = 0; d <= m_ + n_; ++d)
            centers_[static_cast<std::size_t>(d)] = d * m_ / (m_ + n_);
    }

    /** Recenter diagonal @p d on row @p c (monotonic, clamped). */
    void
    recenter(std::int64_t d, std::int64_t c)
    {
        if (centers_.empty() || d > m_ + n_)
            return;
        const std::int64_t prev =
            centers_[static_cast<std::size_t>(d - 1)];
        // The band may shift by at most one row per diagonal (cells
        // only depend on the previous two diagonals).
        centers_[static_cast<std::size_t>(d)] =
            std::clamp<std::int64_t>(c, prev, prev + 1);
    }
    std::int64_t iMin(std::int64_t d) const
    {
        return std::max<std::int64_t>(0, d - n_);
    }
    std::int64_t iMax(std::int64_t d) const { return std::min(m_, d); }
    std::int64_t bandLo(std::int64_t d) const
    {
        return std::max(iMin(d), center(d) - half_);
    }
    std::int64_t bandHi(std::int64_t d) const
    {
        return std::min(iMax(d), center(d) + half_);
    }

    /** Value at (i, j); sentinel outside the padded band. */
    std::int32_t
    at(std::int64_t i, std::int64_t j) const
    {
        const std::int64_t d = i + j;
        if (d < 0 || d > m_ + n_)
            return kNegInf;
        const std::int64_t slot = i - bandLo(d) + kPad;
        if (slot < 0 || slot >= stride_)
            return kNegInf;
        return data_[static_cast<std::size_t>(d * stride_ + slot)];
    }

    void
    set(std::int64_t i, std::int64_t j, std::int32_t value)
    {
        const std::int64_t d = i + j;
        const std::int64_t slot = i - bandLo(d) + kPad;
        panic_if_not(slot >= 0 && slot < stride_,
                     "SWG band write outside storage at ({}, {})", i, j);
        data_[static_cast<std::size_t>(d * stride_ + slot)] = value;
    }

    /** Host pointer for diagonal @p d at row @p i (within padding). */
    std::int32_t *
    ptr(std::int64_t d, std::int64_t i)
    {
        const std::int64_t slot = i - bandLo(d) + kPad;
        panic_if_not(slot >= 0 && slot < stride_,
                     "SWG band pointer outside storage (d={}, i={})", d,
                     i);
        return data_.data() + d * stride_ + slot;
    }

    /**
     * Contiguous @p cnt -cell run starting at (i, d - i), or nullptr
     * when the diagonal or any slot of the run falls outside storage —
     * those reads must keep going through at()'s sentinel. In-storage
     * pad slots always hold kNegInf (set() only ever writes in-band
     * cells), so reading a run through this pointer is bit-identical
     * to cnt at() calls.
     */
    const std::int32_t *
    rowIfValid(std::int64_t d, std::int64_t i, std::int64_t cnt) const
    {
        if (d < 0 || d > m_ + n_)
            return nullptr;
        const std::int64_t slot = i - bandLo(d) + kPad;
        if (slot < 0 || slot + cnt > stride_)
            return nullptr;
        return data_.data() + d * stride_ + slot;
    }

    /** Mutable @p cnt -cell run; panics outside storage like set(). */
    std::int32_t *
    row(std::int64_t d, std::int64_t i, std::int64_t cnt)
    {
        const std::int64_t slot = i - bandLo(d) + kPad;
        panic_if_not(d >= 0 && d <= m_ + n_ && slot >= 0 &&
                         slot + cnt <= stride_,
                     "SWG band run outside storage (d={}, i={}, cnt={})",
                     d, i, cnt);
        return data_.data() + d * stride_ + slot;
    }

  private:
    std::int64_t m_, n_;
    int half_;
    std::int64_t stride_;
    std::vector<std::int32_t> data_;
    std::vector<std::int64_t> centers_; //!< adaptive band centers
};

struct Tables
{
    BandTable h, e, f;
    Tables(std::int64_t m, std::int64_t n, int half, bool adaptive)
        : h(m, n, half), e(m, n, half), f(m, n, half)
    {
        if (adaptive) {
            h.enableAdaptiveCenters();
            e.enableAdaptiveCenters();
            f.enableAdaptiveCenters();
        }
    }

    void
    recenter(std::int64_t d, std::int64_t c)
    {
        h.recenter(d, c);
        e.recenter(d, c);
        f.recenter(d, c);
    }
};

/**
 * Adaptive-band steering (the Suzuki-Kasahara rule): compare the
 * scores at the two band edges of diagonal @p d and shift the next
 * band one row toward the better edge (+1 means towards larger i).
 */
std::int64_t
steerBand(const BandTable &h, std::int64_t d, std::int64_t lo,
          std::int64_t hi)
{
    const std::int32_t top = h.at(hi, d - hi);
    const std::int32_t bot = h.at(lo, d - lo);
    return top > bot ? 1 : 0;
}

/** Set the boundary cells (i = 0 / j = 0) of diagonal @p d. */
void
fillBoundary(Tables &tab, const SwgParams &sp, std::int64_t d,
             std::int64_t m, std::int64_t n)
{
    const std::int32_t open = sp.gapOpen + sp.gapExtend;
    if (d == 0) {
        tab.h.set(0, 0, 0);
        return;
    }
    // (0, d): leading gap along the text.
    if (d <= n && tab.h.bandLo(d) <= 0) {
        const auto g = static_cast<std::int32_t>(
            -(sp.gapOpen + sp.gapExtend * d));
        tab.h.set(0, d, g);
        tab.e.set(0, d, g);
    }
    // (d, 0): leading gap along the pattern.
    if (d <= m && tab.h.bandHi(d) >= d) {
        const auto g = static_cast<std::int32_t>(
            -(sp.gapOpen + sp.gapExtend * d));
        tab.h.set(d, 0, g);
        tab.f.set(d, 0, g);
    }
    (void)open;
}

/** Functional interior recurrence (golden model for every variant). */
void
swgCell(Tables &tab, const SwgParams &sp, std::string_view p,
        std::string_view t, std::int64_t i, std::int64_t j,
        std::int32_t &hOut, std::int32_t &eOut, std::int32_t &fOut)
{
    const std::int32_t open = sp.gapOpen + sp.gapExtend;
    const std::int32_t e = std::max(tab.h.at(i, j - 1) - open,
                                    tab.e.at(i, j - 1) - sp.gapExtend);
    const std::int32_t f = std::max(tab.h.at(i - 1, j) - open,
                                    tab.f.at(i - 1, j) - sp.gapExtend);
    const bool match = p[static_cast<std::size_t>(i - 1)] ==
                       t[static_cast<std::size_t>(j - 1)];
    const std::int32_t sub = tab.h.at(i - 1, j - 1) +
                             (match ? sp.match : sp.mismatch);
    hOut = std::max(sub, std::max(e, f));
    eOut = e;
    fOut = f;
}

/**
 * Interior cells lo..hi of diagonal @p d: the recurrence every variant
 * computes. Diagonal-major banding keeps each operand a contiguous run
 * on a previous diagonal. When every run lies inside storage, index
 * with k = i - lo instead of re-deriving band offsets per cell; any
 * run that leaves storage (band edge) drops the whole slice back to
 * the sentinel-checked at() recurrence.
 */
void
fillDiagonal(Tables &tab, const SwgParams &sp, std::string_view p,
             std::string_view t, std::int64_t d, std::int64_t lo,
             std::int64_t hi)
{
    const std::int64_t w = hi - lo + 1;
    if (w <= 0)
        return;
    const std::int32_t *h1 = tab.h.rowIfValid(d - 1, lo - 1, w + 1);
    const std::int32_t *e1 = tab.e.rowIfValid(d - 1, lo, w);
    const std::int32_t *f1 = tab.f.rowIfValid(d - 1, lo - 1, w);
    const std::int32_t *h2 = tab.h.rowIfValid(d - 2, lo - 1, w);
    std::int32_t *hRow = tab.h.row(d, lo, w);
    std::int32_t *eRow = tab.e.row(d, lo, w);
    std::int32_t *fRow = tab.f.row(d, lo, w);
    const bool fast = h1 && e1 && f1 && h2;
    const std::int32_t open = sp.gapOpen + sp.gapExtend;
    for (std::int64_t i = lo; i <= hi; ++i) {
        const std::int64_t j = d - i;
        const std::int64_t k = i - lo;
        std::int32_t hv, ev, fv;
        if (fast) {
            const std::int32_t e =
                std::max(h1[k + 1] - open, e1[k] - sp.gapExtend);
            const std::int32_t f =
                std::max(h1[k] - open, f1[k] - sp.gapExtend);
            const bool match = p[static_cast<std::size_t>(i - 1)] ==
                               t[static_cast<std::size_t>(j - 1)];
            const std::int32_t sub =
                h2[k] + (match ? sp.match : sp.mismatch);
            hv = std::max(sub, std::max(e, f));
            ev = e;
            fv = f;
        } else {
            swgCell(tab, sp, p, t, i, j, hv, ev, fv);
        }
        hRow[k] = hv;
        eRow[k] = ev;
        fRow[k] = fv;
    }
}

/**
 * The @p w -cell band run of diagonal @p diag starting at row @p i as
 * a stream of 4-byte cells. A run's band slots are linear in i, so
 * ptr()'s storage check at both ends covers every cell of the run.
 */
sim::CellStream
bandStream(std::uint64_t site, BandTable &tb, std::int64_t diag,
           std::int64_t i, std::int64_t w)
{
    (void)tb.ptr(diag, i + w - 1);
    return sim::CellStream{site, addrOf(tb.ptr(diag, i)), 4, 4};
}

/** Scalar fill (Ref untimed / Base timed). */
void
fillScalar(Tables &tab, const SwgParams &sp, std::string_view p,
           std::string_view t, isa::BaseUnit *bu)
{
    const auto m = static_cast<std::int64_t>(p.size());
    const auto n = static_cast<std::int64_t>(t.size());
    for (std::int64_t d = 0; d <= m + n; ++d) {
        fillBoundary(tab, sp, d, m, n);
        const std::int64_t lo =
            std::max<std::int64_t>(tab.h.bandLo(d),
                                   std::max<std::int64_t>(1, d - n));
        const std::int64_t hi =
            std::min<std::int64_t>(tab.h.bandHi(d), d - 1);
        const std::int64_t w = hi - lo + 1;
        fillDiagonal(tab, sp, p, t, d, lo, hi);
        // Charge the slice as one cell run: cell k = i - lo loads
        // H(i, j-1), H(i-1, j), E(i, j-1), F(i-1, j), H(i-1, j-1),
        // p[i-1] and t[j-1], runs an 8-op ALU chain, and stores its
        // H, E and F cells.
        if (bu && w > 0) {
            const auto band = [w](std::uint64_t site, BandTable &tb,
                                  std::int64_t diag, std::int64_t i0) {
                return bandStream(site, tb, diag, i0, w);
            };
            const std::array<sim::CellStream, 7> loads{{
                band(kSiteH1, tab.h, d - 1, lo),
                band(kSiteH1b, tab.h, d - 1, lo - 1),
                band(kSiteE1, tab.e, d - 1, lo),
                band(kSiteF1, tab.f, d - 1, lo - 1),
                band(kSiteH2, tab.h, d - 2, lo - 1),
                {kSiteP, addrOf(p.data() + (lo - 1)), 1, 1},
                {kSiteT, addrOf(t.data() + (d - lo - 1)), -1, 1},
            }};
            const std::array<sim::CellStream, 3> stores{{
                {kSiteHS, addrOf(tab.h.ptr(d, lo)), 4, 4},
                {kSiteHS, addrOf(tab.e.ptr(d, lo)), 4, 4},
                {kSiteHS, addrOf(tab.f.ptr(d, lo)), 4, 4},
            }};
            bu->cells(loads, 8, stores, static_cast<std::uint64_t>(w));
        }
        if (lo <= hi) {
            tab.recenter(d + 1, tab.h.center(d) +
                                    steerBand(tab.h, d, lo, hi));
            if (bu) {
                bu->loadInt(kSiteHS, tab.h.ptr(d, lo));
                bu->loadInt(kSiteHS, tab.h.ptr(d, hi));
                bu->alu(2);
            }
        }
    }
}

/**
 * Vector fill (Vec / Qz).
 *
 * The Vec path loads the previous two diagonals from the L1, paying
 * the misaligned store-to-load forwarding penalty on the diagonal-to-
 * diagonal critical chain. The Qz path implements Fig. 7: the rolling
 * H/E/F band rows live in the QBUFFERs (they fit comfortably: the
 * band is 31 cells), so the chain sees 2-cycle qzload reads instead.
 * The full tables are still written to memory for the traceback.
 */
void
fillVector(Tables &tab, const SwgParams &sp, std::string_view p,
           std::string_view t, isa::VectorUnit &vpu, accel::QzUnit *qz)
{
    constexpr unsigned L = isa::kLanes32;
    const auto m = static_cast<std::int64_t>(p.size());
    const auto n = static_cast<std::int64_t>(t.size());

    std::string trev(t.rbegin(), t.rend());
    for (std::size_t c = 0; c < trev.size(); c += 64) {
        const unsigned bytes =
            static_cast<unsigned>(std::min<std::size_t>(64,
                                                        trev.size() - c));
        const VReg chunk = vpu.load(kSiteT, trev.data() + c, bytes);
        vpu.store(kSiteT, trev.data() + c, chunk, bytes);
    }

    // QBUFFER layout (64-bit elements): two generations of each band
    // row, 64 slots apart; buffer 0 holds H, buffer 1 holds E and F.
    constexpr std::uint64_t kGenStride = 64;
    constexpr std::uint64_t kFBase = 128;
    auto genBase = [](std::int64_t d) {
        return static_cast<std::uint64_t>(d & 1) * kGenStride;
    };
    if (qz)
        qz->qzconf(2 * kGenStride, kFBase + 2 * kGenStride,
                   genomics::ElementSize::Bits64);

    // Band rows are addressed by slot = i - bandLo(d) + pad; slot 0
    // maps to QBUFFER element genBase(d) + 0.
    // Packed rows: one 64-bit element holds two int32 band cells, so
    // a whole 16-cell slice moves in one qzload / qzstore.
    auto qzReadRow = [&](accel::QzSel sel, std::uint64_t base,
                         std::int64_t slot, unsigned cnt,
                         sim::Tag &dep) {
        const unsigned lanes =
            std::min(8u, (static_cast<unsigned>(slot & 1) + cnt + 1) / 2);
        const isa::Pred p = vpu.whilelt(0, lanes, 8);
        VReg idx;
        for (unsigned l = 0; l < 8; ++l)
            idx.words[l] = base / 2 + static_cast<std::uint64_t>(
                                          slot / 2 + l);
        idx.tag = dep;
        VReg row = qz->qzload(idx, sel, p, 8);
        if (slot & 1)
            row = vpu.shr64i(row, 32); // ext: realign odd offsets
        return row.tag;
    };
    auto qzWriteRow = [&](accel::QzSel sel, std::uint64_t base,
                          const VReg &row, unsigned cnt) {
        const unsigned lanes = std::min(8u, (cnt + 1) / 2);
        VReg idx;
        for (unsigned l = 0; l < 8; ++l)
            idx.words[l] = base / 2 + l;
        idx.tag = row.tag;
        qz->qzstore(row, idx, sel, vpu.whilelt(0, lanes, 8), 8);
    };

    // Each diagonal's values come from the scalar recurrence; its
    // 16-lane blocks are charged as one block run of the per-block
    // program (algos/vector_blocks.hpp).
    namespace sb = blocks::swg;
    sim::Pipeline &pipe = vpu.pipeline();
    const sim::Tag match = vpu.dup32(sp.match).tag;
    const sim::Tag mismatch = vpu.dup32(sp.mismatch).tag;
    sim::Tag prevStore{};
    sim::Tag qzDep{};
    for (std::int64_t d = 0; d <= m + n; ++d) {
        fillBoundary(tab, sp, d, m, n);
        vpu.scalarOps(2);
        const std::int64_t lo =
            std::max<std::int64_t>(tab.h.bandLo(d),
                                   std::max<std::int64_t>(1, d - n));
        const std::int64_t hi =
            std::min<std::int64_t>(tab.h.bandHi(d), d - 1);
        if (lo > hi) {
            prevStore = sim::Tag{};
            continue;
        }
        fillDiagonal(tab, sp, p, t, d, lo, hi);
        std::array<sim::Tag, sb::kSlots> slots{};
        slots[sb::kMatch] = match;
        slots[sb::kMismatch] = mismatch;
        const auto streams = [&](std::int64_t i0, std::int64_t w) {
            return std::array<sim::CellStream, sb::kStreams>{{
                bandStream(kSiteH1, tab.h, d - 1, i0, w),
                bandStream(kSiteH1b, tab.h, d - 1, i0 - 1, w),
                bandStream(kSiteE1, tab.e, d - 1, i0, w),
                bandStream(kSiteF1, tab.f, d - 1, i0 - 1, w),
                bandStream(kSiteH2, tab.h, d - 2, i0 - 1, w),
                {kSiteP, addrOf(p.data() + (i0 - 1)), 1, 1},
                {kSiteT, addrOf(trev.data() + (n - d + i0)), 1, 1},
                bandStream(kSiteHS, tab.e, d, i0, w),
                bandStream(kSiteHS, tab.f, d, i0, w),
                bandStream(kSiteHS, tab.h, d, i0, w),
            }};
        };
        if (!qz) {
            slots[sb::kFwd] = sim::Tag{prevStore.ready + kForwardPenalty,
                                       prevStore.mem};
            pipe.executeBlockRun<sb::kProgram>(
                streams(lo, hi - lo + 1), slots,
                static_cast<std::uint64_t>(hi - lo + 1), L);
        }
        for (std::int64_t i0 = lo; qz != nullptr && i0 <= hi;
             i0 += static_cast<std::int64_t>(L)) {
            const unsigned cnt = static_cast<unsigned>(
                std::min<std::int64_t>(L, hi - i0 + 1));
            // Fig. 7: the previous two generations come from the
            // QBUFFERs in 2-cycle reads.
            const std::int64_t s1 =
                i0 - tab.h.bandLo(d - 1) + BandTable::kPad;
            const std::int64_t s2 =
                i0 - 1 - tab.h.bandLo(d - 2) + BandTable::kPad;
            const std::uint64_t gen1 = genBase(d - 1);
            slots[sb::kH1] = qzReadRow(accel::QzSel::Buf0, gen1, s1, cnt,
                                       qzDep);
            slots[sb::kH1b] = qzReadRow(accel::QzSel::Buf0, gen1, s1 - 1,
                                        cnt, qzDep);
            slots[sb::kH2] = qzReadRow(accel::QzSel::Buf0, genBase(d - 2),
                                       s2, cnt, qzDep);
            slots[sb::kE1] = qzReadRow(accel::QzSel::Buf1, gen1, s1, cnt,
                                       qzDep);
            slots[sb::kF1] = qzReadRow(accel::QzSel::Buf1, kFBase + gen1,
                                       s1 - 1, cnt, qzDep);
            const auto blockStreams = streams(i0, cnt);
            pipe.executeBlockRun<sb::kProgram, sb::kOpP, sb::kOpStores>(
                blockStreams, slots, cnt, L);
            // Rolling band rows go back into the QBUFFERs; the full
            // tables are written to memory for traceback (plain
            // streaming stores, no reload).
            const auto row = [&](BandTable &tb, sb::Slot slot) {
                return isa::VectorUnit::lanes(tb.row(d, i0, cnt), cnt * 4,
                                              slots[slot]);
            };
            qzWriteRow(accel::QzSel::Buf0, genBase(d), row(tab.h, sb::kH),
                       cnt);
            qzWriteRow(accel::QzSel::Buf1, genBase(d), row(tab.e, sb::kE),
                       cnt);
            qzWriteRow(accel::QzSel::Buf1, kFBase + genBase(d),
                       row(tab.f, sb::kF), cnt);
            qzDep = slots[sb::kH];
            pipe.executeBlockRun<sb::kProgram, sb::kOpStores>(
                blockStreams, slots, cnt, L);
        }
        tab.recenter(d + 1,
                     tab.h.center(d) + steerBand(tab.h, d, lo, hi));
        vpu.scalarLoad(kSiteHS, tab.h.ptr(d, lo), 4);
        vpu.scalarLoad(kSiteHS, tab.h.ptr(d, hi), 4);
        vpu.scalarOps(2);
        prevStore = slots[sb::kStoredH];
    }
}

/** Shared affine traceback over the banded tables. */
Cigar
swgTraceback(Tables &tab, const SwgParams &sp, std::string_view p,
             std::string_view t, isa::VectorUnit *vpu)
{
    const auto m = static_cast<std::int64_t>(p.size());
    const auto n = static_cast<std::int64_t>(t.size());
    const std::int32_t open = sp.gapOpen + sp.gapExtend;
    Cigar rev;
    std::int64_t i = m, j = n;
    enum class St { H, E, F } st = St::H;
    while (i > 0 || j > 0) {
        if (vpu) {
            vpu->scalarLoad(kSiteTb, tab.h.ptr(i + j, std::max<std::int64_t>(
                                       i, tab.h.bandLo(i + j))), 4);
            vpu->scalarOps(3);
        }
        if (st == St::H) {
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
            const std::int32_t here = tab.h.at(i, j);
            const bool match = p[static_cast<std::size_t>(i - 1)] ==
                               t[static_cast<std::size_t>(j - 1)];
            const std::int32_t sub =
                tab.h.at(i - 1, j - 1) +
                (match ? sp.match : sp.mismatch);
            if (here == sub) {
                rev.append(match ? 'M' : 'X');
                --i;
                --j;
            } else if (here == tab.e.at(i, j)) {
                st = St::E;
            } else if (here == tab.f.at(i, j)) {
                st = St::F;
            } else {
                panic("SWG traceback: inconsistent H cell ({}, {})", i,
                      j);
            }
        } else if (st == St::E) {
            const std::int32_t here = tab.e.at(i, j);
            rev.append('I');
            if (here == tab.h.at(i, j - 1) - open)
                st = St::H;
            else
                panic_if_not(here == tab.e.at(i, j - 1) - sp.gapExtend,
                             "SWG traceback: inconsistent E cell "
                             "({}, {})", i, j);
            --j;
        } else {
            const std::int32_t here = tab.f.at(i, j);
            rev.append('D');
            if (here == tab.h.at(i - 1, j) - open)
                st = St::H;
            else
                panic_if_not(here == tab.f.at(i - 1, j) - sp.gapExtend,
                             "SWG traceback: inconsistent F cell "
                             "({}, {})", i, j);
            --i;
        }
    }
    std::reverse(rev.ops.begin(), rev.ops.end());
    return rev;
}

} // namespace

SwgResult
swgAlign(Variant variant, std::string_view pattern, std::string_view text,
         const SwgParams &params, isa::VectorUnit *vpu,
         accel::QzUnit *qz, bool traceback)
{
    SwgResult result;
    if (pattern.empty() || text.empty()) {
        const auto gaps = static_cast<std::int64_t>(
            std::max(pattern.size(), text.size()));
        if (gaps > 0) {
            result.score = -(params.gapOpen + params.gapExtend * gaps);
            if (traceback)
                result.cigar.append(pattern.empty() ? 'I' : 'D',
                                    static_cast<std::size_t>(gaps));
        }
        return result;
    }

    const auto m = static_cast<std::int64_t>(pattern.size());
    const auto n = static_cast<std::int64_t>(text.size());
    Tables tab(m, n, params.bandHalf, params.adaptiveBand);

    switch (variant) {
      case Variant::Ref:
        fillScalar(tab, params, pattern, text, nullptr);
        break;
      case Variant::Base: {
        panic_if_not(vpu != nullptr, "Base SWG needs a VectorUnit");
        isa::BaseUnit bu(vpu->pipeline());
        fillScalar(tab, params, pattern, text, &bu);
        break;
      }
      case Variant::Vec:
        panic_if_not(vpu != nullptr, "Vec SWG needs a VectorUnit");
        fillVector(tab, params, pattern, text, *vpu, nullptr);
        break;
      case Variant::Qz:
      case Variant::QzC:
        panic_if_not(vpu != nullptr && qz != nullptr,
                     "Qz SWG needs a VectorUnit and a QzUnit");
        fillVector(tab, params, pattern, text, *vpu,
                   params.qbufferRows ? qz : nullptr);
        break;
    }

    result.score = tab.h.at(m, n);
    if (traceback)
        result.cigar = swgTraceback(tab, params, pattern, text,
                                    variant == Variant::Ref ? nullptr
                                                            : vpu);
    return result;
}

} // namespace quetzal::algos
