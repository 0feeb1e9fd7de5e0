#include "algos/swg.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/logging.hpp"

namespace quetzal::algos {

using isa::addrOf;
using isa::Pred;
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
        // Diagonal-major banding keeps each operand a contiguous run
        // on a previous diagonal. When every run lies inside storage,
        // index with k = i - lo instead of re-deriving band offsets
        // per cell; any run that leaves storage (band edge) drops the
        // whole slice back to the sentinel-checked at() recurrence.
        const std::int32_t *h1 = nullptr, *e1 = nullptr, *f1 = nullptr,
                           *h2 = nullptr;
        std::int32_t *hRow = nullptr, *eRow = nullptr, *fRow = nullptr;
        if (w > 0) {
            h1 = tab.h.rowIfValid(d - 1, lo - 1, w + 1);
            e1 = tab.e.rowIfValid(d - 1, lo, w);
            f1 = tab.f.rowIfValid(d - 1, lo - 1, w);
            h2 = tab.h.rowIfValid(d - 2, lo - 1, w);
            hRow = tab.h.row(d, lo, w);
            eRow = tab.e.row(d, lo, w);
            fRow = tab.f.row(d, lo, w);
        }
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
        // Charge the slice as one cell run: cell k = i - lo loads
        // H(i, j-1), H(i-1, j), E(i, j-1), F(i-1, j), H(i-1, j-1),
        // p[i-1] and t[j-1], runs an 8-op ALU chain, and stores its
        // H, E and F cells.
        if (bu && w > 0) {
            // A run's band slots are linear in i, so ptr()'s storage
            // check at both ends covers every cell of the run.
            const auto band = [w](std::uint64_t site, BandTable &tb,
                                  std::int64_t diag, std::int64_t i0) {
                (void)tb.ptr(diag, i0 + w - 1);
                return sim::CellStream{site, addrOf(tb.ptr(diag, i0)), 4,
                                       4};
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
                {kSiteHS, addrOf(hRow), 4, 4},
                {kSiteHS, addrOf(eRow), 4, 4},
                {kSiteHS, addrOf(fRow), 4, 4},
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
    const std::int32_t open = sp.gapOpen + sp.gapExtend;

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
    sim::Tag qzRowDep{};
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
        return row;
    };
    auto qzWriteRow = [&](accel::QzSel sel, std::uint64_t base,
                          const VReg &row, unsigned cnt) {
        const unsigned lanes = std::min(8u, (cnt + 1) / 2);
        VReg idx;
        for (unsigned l = 0; l < 8; ++l)
            idx.words[l] = base / 2 + l;
        idx.tag = row.tag;
        qz->qzstore(row, idx, sel, vpu.whilelt(0, lanes, 8), 8);
        qzRowDep = row.tag;
    };
    (void)qzRowDep;

    const VReg vmatch = vpu.dup32(sp.match);
    const VReg vmis = vpu.dup32(sp.mismatch);
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
        sim::Tag diagStore{};
        for (std::int64_t i0 = lo; i0 <= hi;
             i0 += static_cast<std::int64_t>(L)) {
            const unsigned cnt = static_cast<unsigned>(
                std::min<std::int64_t>(L, hi - i0 + 1));
            const unsigned bytes = cnt * 4;
            using VU = isa::VectorUnit;
            VReg h1a, h1b, e1, f1, h2, pcv, tcv;
            if (qz) {
                // Fig. 7: the previous two generations come from the
                // QBUFFERs in 2-cycle reads. Functional values still
                // come from the golden band tables below.
                const std::int64_t s1 =
                    i0 - tab.h.bandLo(d - 1) + BandTable::kPad;
                const std::int64_t s2 =
                    i0 - 1 - tab.h.bandLo(d - 2) + BandTable::kPad;
                h1a = qzReadRow(accel::QzSel::Buf0, genBase(d - 1), s1,
                                cnt, qzDep);
                h1b = qzReadRow(accel::QzSel::Buf0, genBase(d - 1),
                                s1 - 1, cnt, qzDep);
                h2 = qzReadRow(accel::QzSel::Buf0, genBase(d - 2), s2,
                               cnt, qzDep);
                e1 = qzReadRow(accel::QzSel::Buf1, genBase(d - 1), s1,
                               cnt, qzDep);
                f1 = qzReadRow(accel::QzSel::Buf1,
                               kFBase + genBase(d - 1), s1 - 1, cnt,
                               qzDep);
                // The model reads stale QBUFFER contents; substitute
                // the functional values (identical once warm). Each
                // operand is a contiguous band run — bulk-copy into
                // the low cnt elements when the run lies in storage,
                // fall back to the sentinel-checked at() otherwise.
                auto fill = [cnt, bytes](VReg &dst, const BandTable &bt,
                                         std::int64_t rd,
                                         std::int64_t ri) {
                    if (const std::int32_t *run =
                            bt.rowIfValid(rd, ri, cnt)) {
                        std::memcpy(dst.words.data(), run, bytes);
                        return;
                    }
                    for (unsigned l = 0; l < cnt; ++l)
                        dst.setI32(l, bt.at(ri + l, rd - (ri + l)));
                };
                fill(h1a, tab.h, d - 1, i0);
                fill(h1b, tab.h, d - 1, i0 - 1);
                fill(h2, tab.h, d - 2, i0 - 1);
                fill(e1, tab.e, d - 1, i0);
                fill(f1, tab.f, d - 1, i0 - 1);
                pcv = vpu.load8to32(kSiteP, p.data() + (i0 - 1), cnt);
                tcv = vpu.load8to32(kSiteT,
                                    trev.data() + (n - d + i0), cnt);
            } else {
                const sim::Tag fwd{prevStore.ready + kForwardPenalty,
                                   prevStore.mem};
                // Two charge runs per slice (the forwarding-gated
                // band loads, then the conflict-free ones), each
                // register rebuilt from its own tag — byte-identical
                // to the per-op load()/load8to32() sequence.
                const sim::MemOp fwdLoads[] = {
                    {sim::OpClass::VecLoad, kSiteH1,
                     addrOf(tab.h.ptr(d - 1, i0)), bytes},
                    {sim::OpClass::VecLoad, kSiteH1b,
                     addrOf(tab.h.ptr(d - 1, i0 - 1)), bytes},
                    {sim::OpClass::VecLoad, kSiteE1,
                     addrOf(tab.e.ptr(d - 1, i0)), bytes},
                    {sim::OpClass::VecLoad, kSiteF1,
                     addrOf(tab.f.ptr(d - 1, i0 - 1)), bytes},
                };
                sim::Tag ft[4];
                vpu.chargeMemRun(fwdLoads, fwd, ft);
                h1a = VU::lanes(tab.h.ptr(d - 1, i0), bytes, ft[0]);
                h1b = VU::lanes(tab.h.ptr(d - 1, i0 - 1), bytes,
                                ft[1]);
                e1 = VU::lanes(tab.e.ptr(d - 1, i0), bytes, ft[2]);
                f1 = VU::lanes(tab.f.ptr(d - 1, i0 - 1), bytes, ft[3]);

                const sim::MemOp freeLoads[] = {
                    {sim::OpClass::VecLoad, kSiteH2,
                     addrOf(tab.h.ptr(d - 2, i0 - 1)), bytes},
                    {sim::OpClass::VecLoad, kSiteP,
                     addrOf(p.data() + (i0 - 1)), cnt},
                    {sim::OpClass::VecLoad, kSiteT,
                     addrOf(trev.data() + (n - d + i0)), cnt},
                };
                sim::Tag rt[3];
                vpu.chargeMemRun(freeLoads, sim::Tag{}, rt);
                h2 = VU::lanes(tab.h.ptr(d - 2, i0 - 1), bytes, rt[0]);
                pcv = vpu.widenLanes8to32(p.data() + (i0 - 1), cnt,
                                          rt[1]);
                tcv = vpu.widenLanes8to32(
                    trev.data() + (n - d + i0), cnt, rt[2]);
            }

            // Substitution scores from the contiguous residue loads.
            const VReg &pc = pcv;
            const VReg &tc = tcv;
            const Pred lanes = vpu.whilelt(0, cnt, L);
            const Pred eqp = vpu.cmpeq32(pc, tc, lanes, L);
            const VReg subst = vpu.sel32(eqp, vmatch, vmis);

            const VReg ev = vpu.max32(vpu.add32i(h1a, -open),
                                      vpu.add32i(e1, -sp.gapExtend));
            const VReg fv = vpu.max32(vpu.add32i(h1b, -open),
                                      vpu.add32i(f1, -sp.gapExtend));
            const VReg hv =
                vpu.max32(vpu.add32(h2, subst), vpu.max32(ev, fv));

            // The cnt result cells are one contiguous in-band run on
            // diagonal d (row() keeps set()'s out-of-storage panic).
            std::memcpy(tab.h.row(d, i0, cnt), hv.words.data(), bytes);
            std::memcpy(tab.e.row(d, i0, cnt), ev.words.data(), bytes);
            std::memcpy(tab.f.row(d, i0, cnt), fv.words.data(), bytes);
            if (qz) {
                // Rolling band rows go back into the QBUFFERs; the
                // full tables are written to memory for traceback
                // (plain streaming stores, no reload).
                qzWriteRow(accel::QzSel::Buf0, genBase(d), hv, cnt);
                qzWriteRow(accel::QzSel::Buf1, genBase(d), ev, cnt);
                qzWriteRow(accel::QzSel::Buf1, kFBase + genBase(d), fv,
                           cnt);
                qzDep = hv.tag;
            }
            vpu.store(kSiteHS, tab.e.ptr(d, i0), ev, bytes);
            vpu.store(kSiteHS, tab.f.ptr(d, i0), fv, bytes);
            diagStore = vpu.store(kSiteHS, tab.h.ptr(d, i0), hv, bytes);
        }
        if (lo <= hi) {
            tab.recenter(d + 1, tab.h.center(d) +
                                    steerBand(tab.h, d, lo, hi));
            vpu.scalarLoad(kSiteHS, tab.h.ptr(d, lo), 4);
            vpu.scalarLoad(kSiteHS, tab.h.ptr(d, hi), 4);
            vpu.scalarOps(2);
        }
        prevStore = diagStore;
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
