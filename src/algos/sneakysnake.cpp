#include "algos/sneakysnake.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace quetzal::algos {

using genomics::ElementSize;
using isa::Pred;
using isa::VReg;

namespace {

enum Site : std::uint64_t
{
    kSitePat = 0x200, //!< pattern residue access
    kSiteTxt = 0x201, //!< text residue access
};

} // namespace

void
SsEngine::begin(std::string_view pattern, std::string_view text,
                ElementSize esize)
{
    fatal_if(pattern.empty() || text.empty(),
             "SneakySnake requires non-empty sequences");
    paddedP_.assign(kSeqPad, '\x01');
    paddedP_.append(pattern);
    paddedP_.append(kSeqPad, '\x01');
    paddedT_.assign(kSeqPad, '\x02');
    paddedT_.append(text);
    paddedT_.append(kSeqPad, '\x02');
    p_ = std::string_view(paddedP_).substr(kSeqPad, pattern.size());
    t_ = std::string_view(paddedT_).substr(kSeqPad, text.size());
    onBegin(esize);
}

std::int32_t
SsEngine::runLength(std::int64_t pi, std::int64_t ti) const
{
    const auto m = static_cast<std::int64_t>(p_.size());
    const auto n = static_cast<std::int64_t>(t_.size());
    std::int32_t run = 0;
    while (pi < m && ti >= 0 && ti < n &&
           p_[static_cast<std::size_t>(pi)] ==
               t_[static_cast<std::size_t>(ti)]) {
        ++run;
        ++pi;
        ++ti;
    }
    return run;
}

namespace {

// ====================================================================
// Reference kernel: functional only.
// ====================================================================

class RefSsEngine final : public SsEngine
{
  public:
    std::int32_t
    bestRun(std::int64_t pi, std::int64_t tiBase, int kLo, int kHi,
            int &bestK) override
    {
        std::int32_t best = 0;
        bestK = kLo;
        for (int k = kLo; k <= kHi; ++k) {
            const std::int32_t run = runLength(pi, tiBase + k);
            if (run > best) {
                best = run;
                bestK = k;
            }
        }
        return best;
    }
};

// ====================================================================
// Base kernel: timed scalar diagonal walks.
// ====================================================================

class BaseSsEngine final : public SsEngine
{
  public:
    explicit BaseSsEngine(isa::VectorUnit &vpu) : bu_(vpu.pipeline()) {}

    std::int32_t
    bestRun(std::int64_t pi, std::int64_t tiBase, int kLo, int kHi,
            int &bestK) override
    {
        const auto m = static_cast<std::int64_t>(p_.size());
        const auto n = static_cast<std::int64_t>(t_.size());
        std::int32_t best = 0;
        bestK = kLo;
        for (int k = kLo; k <= kHi; ++k) {
            std::int64_t i = pi;
            std::int64_t j = tiBase + k;
            std::int32_t run = 0;
            bu_.alu(2); // j = base + k; run = 0
            while (i < m && j >= 0 && j < n) {
                const char pc = static_cast<char>(bu_.loadChar(
                    kSitePat, &p_[static_cast<std::size_t>(i)]));
                const char tc = static_cast<char>(bu_.loadChar(
                    kSiteTxt, &t_[static_cast<std::size_t>(j)]));
                bu_.alu();
                if (pc != tc)
                    break;
                bu_.alu(2); // run++/i++/j++ plus bounds recompute
                bu_.branch(); // residue match
                bu_.branch(); // bounds
                ++run;
                ++i;
                ++j;
            }
            bu_.branchMiss();
            bu_.alu(); // best update
            if (run > best) {
                best = run;
                bestK = k;
            }
        }
        return best;
    }

  private:
    isa::BaseUnit bu_;
};

// ====================================================================
// Vec kernel: lanes are diagonals, residues come via scatter/gather
// (paper Fig. 2b).
// ====================================================================

class VecSsEngine final : public SsEngine
{
  public:
    explicit VecSsEngine(isa::VectorUnit &vpu) : vpu_(vpu) {}

    std::int32_t
    bestRun(std::int64_t pi, std::int64_t tiBase, int kLo, int kHi,
            int &bestK) override
    {
        constexpr unsigned L = isa::kLanes32;
        const auto m = static_cast<std::int32_t>(p_.size());
        const auto n = static_cast<std::int32_t>(t_.size());
        const VReg vm = vpu_.dup32(m);
        const VReg vn = vpu_.dup32(n);
        const VReg vneg = vpu_.dup32(-1);

        std::int32_t best = 0;
        bestK = kLo;
        for (int k0 = kLo; k0 <= kHi; k0 += static_cast<int>(L)) {
            const unsigned cnt =
                std::min<long>(L, static_cast<long>(kHi) - k0 + 1);
            VReg pv = vpu_.dup32(static_cast<std::int32_t>(pi));
            const VReg kv = vpu_.index32(k0, 1);
            VReg tv = vpu_.add32(
                vpu_.dup32(static_cast<std::int32_t>(tiBase)), kv);
            VReg runs = vpu_.dup32(0);
            Pred act = vpu_.whilelt(0, cnt, L);

            for (;;) {
                const Pred bi = vpu_.cmplt32(pv, vm, act, L);
                const Pred bj = vpu_.cmplt32(tv, vn, act, L);
                const Pred bj0 = vpu_.cmpgt32(tv, vneg, act, L);
                act = vpu_.pAnd(vpu_.pAnd(bi, bj), bj0);
                if (!vpu_.anyActive(act))
                    break;
                const VReg pc =
                    vpu_.gather8(kSitePat, patData(), pv, act, L);
                const VReg tc =
                    vpu_.gather8(kSiteTxt, txtData(), tv, act, L);
                const Pred eq = vpu_.cmpeq32(pc, tc, act, L);
                runs = vpu_.addUnderPred32(runs, 1, eq);
                pv = vpu_.addUnderPred32(pv, 1, eq);
                tv = vpu_.addUnderPred32(tv, 1, eq);
                act = eq;
            }

            const Pred lanes = vpu_.whilelt(0, cnt, L);
            const std::int32_t batchMax =
                vpu_.reduceMax32(runs, lanes, L);
            vpu_.scalarOps(2); // compare/update best and its diagonal
            if (batchMax > best) {
                best = batchMax;
                for (unsigned l = 0; l < cnt; ++l) {
                    if (runs.i32(l) == batchMax) {
                        bestK = k0 + static_cast<int>(l);
                        break;
                    }
                }
            }
        }
        return best;
    }

  private:
    isa::VectorUnit &vpu_;
};

// ====================================================================
// Qz / QzC kernels: residues come from the QBUFFERs.
// ====================================================================

class QzSsEngineBase : public SsEngine
{
  public:
    QzSsEngineBase(isa::VectorUnit &vpu, accel::QzUnit &qz)
        : vpu_(vpu), qz_(qz)
    {}

  protected:
    void
    onBegin(ElementSize esize) override
    {
        esize_ = esize;
        qz_.qzconf(p_.size(), t_.size(), esize);
        if (esize == ElementSize::Bits2) {
            qz_.stageSequence2bit(accel::QzSel::Buf0, p_);
            qz_.stageSequence2bit(accel::QzSel::Buf1, t_);
        } else {
            qz_.stageSequence8bit(accel::QzSel::Buf0, p_);
            qz_.stageSequence8bit(accel::QzSel::Buf1, t_);
        }
    }

    isa::VectorUnit &vpu_;
    accel::QzUnit &qz_;
    ElementSize esize_ = ElementSize::Bits2;
};

/**
 * Shared 16-diagonal window kernel for the Qz / QzC SS engines: one
 * pair of qzmhm window reads per step covers 16 diagonals; only the
 * count source differs (software rbit+clz vs the count ALU).
 */
template <bool kUseCountAlu>
class QzSsKernel : public QzSsEngineBase
{
  public:
    using QzSsEngineBase::QzSsEngineBase;

    std::int32_t
    bestRun(std::int64_t pi, std::int64_t tiBase, int kLo, int kHi,
            int &bestK) override
    {
        constexpr unsigned L = isa::kLanes32;
        const auto m = static_cast<std::int32_t>(p_.size());
        const auto n = static_cast<std::int32_t>(t_.size());
        const auto window = static_cast<std::int32_t>(
            accel::CountAlu::elementsPerSegment(esize_));
        const unsigned shift = accel::CountAlu::shiftFor(esize_);
        const VReg vm = vpu_.dup32(m);
        const VReg vn = vpu_.dup32(n);
        const VReg vzero = vpu_.dup32(0);
        const VReg vneg = vpu_.dup32(-1);
        const VReg vwin = vpu_.dup32(window);
        const accel::QzOpn opn = kUseCountAlu ? accel::QzOpn::Count
                                              : accel::QzOpn::XorWin;

        std::int32_t best = 0;
        bestK = kLo;
        for (int k0 = kLo; k0 <= kHi; k0 += static_cast<int>(L)) {
            const unsigned cnt =
                std::min<long>(L, static_cast<long>(kHi) - k0 + 1);
            VReg pv = vpu_.dup32(static_cast<std::int32_t>(pi));
            const VReg kv = vpu_.index32(k0, 1);
            VReg tv = vpu_.add32(
                vpu_.dup32(static_cast<std::int32_t>(tiBase)), kv);
            VReg runs = vpu_.dup32(0);
            Pred act = vpu_.whilelt(0, cnt, L);
            const Pred bj0 = vpu_.cmpgt32(tv, vneg, act, L);
            act = vpu_.pAnd(act, bj0);
            const VReg tRem = vpu_.sub32(vn, tv);
            VReg rem = vpu_.min32(vpu_.sub32(vm, pv), tRem);
            act = vpu_.pAnd(act, vpu_.cmpgt32(rem, vzero, act, L));

            while (vpu_.anyActive(act)) {
                const Pred pLo = vpu_.punpkLo(act);
                const Pred pHi = vpu_.punpkHi(act);
                const VReg tLo = vpu_.widenLo32to64(tv);
                const VReg rLo = qz_.qzmhm(opn, vpu_.widenLo32to64(pv),
                                           tLo, pLo, isa::kLanes64);
                const VReg tHi = vpu_.widenHi32to64(tv);
                const VReg rHi = qz_.qzmhm(opn, vpu_.widenHi32to64(pv),
                                           tHi, pHi, isa::kLanes64);
                VReg counts;
                if constexpr (kUseCountAlu) {
                    counts = vpu_.pack64to32(rLo, rHi);
                } else {
                    auto count64 = [&](const VReg &x) {
                        return vpu_.shr64i(vpu_.ctz64(x), shift);
                    };
                    const VReg cHi = count64(rHi);
                    counts = vpu_.pack64to32(count64(rLo), cHi);
                }
                const VReg adv = vpu_.min32(counts, rem);
                runs = vpu_.addvUnderPred32(runs, adv, act);
                pv = vpu_.addvUnderPred32(pv, adv, act);
                tv = vpu_.addvUnderPred32(tv, adv, act);
                rem = vpu_.addvUnderPred32(rem, vpu_.sub32(vzero, adv),
                                           act);
                const Pred full = vpu_.cmpeq32(counts, vwin, act, L);
                const Pred more = vpu_.cmpgt32(rem, vzero, act, L);
                act = vpu_.pAnd(full, more);
            }

            const Pred lanes = vpu_.whilelt(0, cnt, L);
            const std::int32_t batchMax =
                vpu_.reduceMax32(runs, lanes, L);
            vpu_.scalarOps(2);
            if (batchMax > best) {
                best = batchMax;
                for (unsigned l = 0; l < cnt; ++l) {
                    if (runs.i32(l) == batchMax) {
                        bestK = k0 + static_cast<int>(l);
                        break;
                    }
                }
            }
        }
        return best;
    }
};

using QzSsEngine = QzSsKernel<false>;
using QzCSsEngine = QzSsKernel<true>;

} // namespace

std::int64_t
defaultSsThreshold(std::size_t length, double errorRate)
{
    return std::max<std::int64_t>(
        2, static_cast<std::int64_t>(
               std::ceil(static_cast<double>(length) * errorRate * 1.5)));
}

SsResult
sneakySnake(SsEngine &engine, std::string_view pattern,
            std::string_view text, const SsConfig &config,
            ElementSize esize)
{
    engine.begin(pattern, text, esize);

    const auto m = static_cast<std::int64_t>(pattern.size());
    fatal_if(config.editThreshold <= 0,
             "SneakySnake needs a positive edit threshold");
    const std::int64_t totalE = config.editThreshold;

    // Segment the pattern (grid decomposition for long reads).
    const auto segLen =
        static_cast<std::int64_t>(std::max<std::size_t>(
            64, config.segmentLength));
    const bool segmented = m > 2 * segLen;
    const std::int64_t nSegs = segmented ? (m + segLen - 1) / segLen : 1;

    std::int64_t edits = 0;
    std::int64_t tbase = 0; // text index aligned with the segment start
    for (std::int64_t g = 0; g < nSegs; ++g) {
        const std::int64_t segStart = segmented ? g * segLen : 0;
        const std::int64_t segEnd =
            segmented ? std::min(m, segStart + segLen) : m;
        // Local diagonal freedom: proportional share of the budget
        // with 2x slack for indel drift within the segment.
        const std::int64_t segE =
            segmented
                ? std::max<std::int64_t>(
                      4, 2 * totalE * (segEnd - segStart) / m)
                : totalE;

        std::int64_t pos = segStart;
        int endK = 0;
        while (pos < segEnd) {
            int bestK = 0;
            const std::int32_t best = engine.bestRun(
                pos, tbase + (pos - segStart), -static_cast<int>(segE),
                static_cast<int>(segE), bestK);
            const std::int64_t adv =
                std::min<std::int64_t>(best, segEnd - pos);
            if (adv > 0)
                endK = bestK;
            pos += adv;
            if (pos < segEnd) {
                ++pos;
                ++edits;
                if (edits > totalE)
                    return SsResult{false, edits}; // early rejection
            }
        }
        tbase += (segEnd - segStart) + endK;
    }
    return SsResult{edits <= totalE, edits};
}

std::unique_ptr<SsEngine>
makeSsEngine(Variant variant, isa::VectorUnit *vpu, accel::QzUnit *qz)
{
    switch (variant) {
      case Variant::Ref:
        return std::make_unique<RefSsEngine>();
      case Variant::Base:
        panic_if_not(vpu != nullptr, "Base engine needs a VectorUnit");
        return std::make_unique<BaseSsEngine>(*vpu);
      case Variant::Vec:
        panic_if_not(vpu != nullptr, "Vec engine needs a VectorUnit");
        return std::make_unique<VecSsEngine>(*vpu);
      case Variant::Qz:
        panic_if_not(vpu != nullptr && qz != nullptr,
                     "Qz engine needs a VectorUnit and a QzUnit");
        return std::make_unique<QzSsEngine>(*vpu, *qz);
      case Variant::QzC:
        panic_if_not(vpu != nullptr && qz != nullptr,
                     "QzC engine needs a VectorUnit and a QzUnit");
        return std::make_unique<QzCSsEngine>(*vpu, *qz);
    }
    panic("unknown Variant {}", static_cast<int>(variant));
}

} // namespace quetzal::algos
