#include "algos/wfa_engine.hpp"

#include <algorithm>

#include "algos/vector_blocks.hpp"
#include "common/logging.hpp"

namespace quetzal::algos {

using genomics::ElementSize;
using isa::addrOf;
using isa::Pred;
using isa::VReg;

namespace {

// Static instruction-site ids for the prefetcher (PC proxies).
enum Site : std::uint64_t
{
    kSiteExtOff = 0x100,   //!< extend: wave offset load
    kSiteExtPat = 0x101,   //!< extend: pattern access
    kSiteExtTxt = 0x102,   //!< extend: text access
    kSiteExtSto = 0x103,   //!< extend: wave offset store
    kSiteNwIns = 0x110,    //!< nextWave: k-1 load
    kSiteNwSub = 0x111,    //!< nextWave: k load
    kSiteNwDel = 0x112,    //!< nextWave: k+1 load
    kSiteNwSto = 0x113,    //!< nextWave: store
    kSiteTbHop = 0x120,    //!< traceback candidate reads
    kSiteOvF = 0x130,      //!< overlap scan, forward wave
    kSiteOvR = 0x131,      //!< overlap scan, reverse wave
};

} // namespace

void
WfaEngine::begin(std::string_view pattern, std::string_view text,
                 ElementSize esize)
{
    fatal_if(pattern.empty() || text.empty(),
             "WFA requires non-empty sequences");
    // Engine-local padded copies: word-wise kernels may read a few
    // bytes past either end; distinct sentinels stop every run.
    paddedP_.assign(kSeqPad, '\x01');
    paddedP_.append(pattern);
    paddedP_.append(kSeqPad, '\x01');
    paddedT_.assign(kSeqPad, '\x02');
    paddedT_.append(text);
    paddedT_.append(kSeqPad, '\x02');
    p_ = std::string_view(paddedP_).substr(kSeqPad, pattern.size());
    t_ = std::string_view(paddedT_).substr(kSeqPad, text.size());
    stepsUsed_ = 0;
    waveBytesUsed_ = 0;
    onBegin(esize);
}

void
WfaEngine::onBegin(ElementSize)
{
}

// ====================================================================
// Reference engine: functional only, no timing.
// ====================================================================

namespace {

class RefWfaEngine final : public WfaEngine
{
  public:
    void
    extend(Wave &wave, Dir dir) override
    {
        const auto m = static_cast<std::int64_t>(p_.size());
        const auto n = static_cast<std::int64_t>(t_.size());
        for (int k = wave.lo(); k <= wave.hi(); ++k) {
            std::int32_t j = wave.at(k);
            if (j == kOffNone)
                continue;
            std::int64_t i = static_cast<std::int64_t>(j) - k;
            while (i < m && j < n &&
                   pat(dir, static_cast<std::size_t>(i)) ==
                       txt(dir, static_cast<std::size_t>(j))) {
                ++i;
                ++j;
            }
            wave.set(k, j);
        }
    }

    void
    nextWave(const Wave &prev, Wave &next) override
    {
        for (int k = next.lo(); k <= next.hi(); ++k)
            next.set(k, nextValue(prev, k));
    }

    void
    combineWave(std::span<const WaveTerm> terms, Wave &dst) override
    {
        for (int k = dst.lo(); k <= dst.hi(); ++k)
            dst.set(k, combineValue(terms, k));
    }

    void chargeTracebackHop(const std::int32_t *, const std::int32_t *,
                            const std::int32_t *) override
    {
    }
    void chargeTracebackRun(std::size_t) override {}
    void chargeOverlapCheck(const Wave &, const Wave &, int,
                            int) override
    {
    }
};

// ====================================================================
// Base engine: timed scalar (the auto-vectorized-baseline proxy).
// ====================================================================

class BaseWfaEngine final : public WfaEngine
{
  public:
    explicit BaseWfaEngine(isa::VectorUnit &vpu) : bu_(vpu.pipeline()) {}

    void
    extend(Wave &wave, Dir dir) override
    {
        const auto m = static_cast<std::int64_t>(p_.size());
        const auto n = static_cast<std::int64_t>(t_.size());
        const auto mlast = p_.size() - 1;
        const auto nlast = t_.size() - 1;
        for (int k = wave.lo(); k <= wave.hi(); ++k) {
            std::int32_t j = bu_.loadInt(kSiteExtOff, wave.ptr(k));
            if (j == kOffNone) {
                bu_.branch();
                continue;
            }
            std::int64_t i = static_cast<std::int64_t>(j) - k;
            bu_.alu(); // i = j - k
            while (i < m && j < n) {
                const std::size_t ri =
                    dir == Dir::Fwd ? static_cast<std::size_t>(i)
                                    : mlast - static_cast<std::size_t>(i);
                const std::size_t rj =
                    dir == Dir::Fwd ? static_cast<std::size_t>(j)
                                    : nlast - static_cast<std::size_t>(j);
                const sim::MemOp chLoads[] = {
                    {sim::OpClass::ScalarLoad, kSiteExtPat,
                     addrOf(&p_[ri]), 1},
                    {sim::OpClass::ScalarLoad, kSiteExtTxt,
                     addrOf(&t_[rj]), 1},
                };
                bu_.loads(chLoads);
                const char pc = p_[ri];
                const char tc = t_[rj];
                bu_.alu(); // compare
                if (pc != tc)
                    break;
                bu_.alu(2); // i++, j++ and the bounds recompute the
                            // auto-vectorized loop carries
                bu_.branch(); // residue match
                bu_.branch(); // bounds
                ++i;
                ++j;
            }
            bu_.branchMiss(); // data-dependent run exit
            wave.set(k, static_cast<std::int32_t>(j));
            bu_.storeInt(kSiteExtSto, wave.ptr(k),
                         static_cast<std::int32_t>(j));
        }
    }

    void
    nextWave(const Wave &prev, Wave &next) override
    {
        for (int k = next.lo(); k <= next.hi(); ++k) {
            const sim::MemOp waveLoads[] = {
                {sim::OpClass::ScalarLoad, kSiteNwIns,
                 addrOf(prev.ptr(k - 1)), 4},
                {sim::OpClass::ScalarLoad, kSiteNwSub,
                 addrOf(prev.ptr(k)), 4},
                {sim::OpClass::ScalarLoad, kSiteNwDel,
                 addrOf(prev.ptr(k + 1)), 4},
            };
            bu_.loads(waveLoads);
            bu_.alu(3); // two adds + two-level max fold
            bu_.alu();  // clamp
            const std::int32_t value = nextValue(prev, k);
            next.set(k, value);
            bu_.storeInt(kSiteNwSto, next.ptr(k), value);
        }
    }

    void
    combineWave(std::span<const WaveTerm> terms, Wave &dst) override
    {
        for (int k = dst.lo(); k <= dst.hi(); ++k) {
            for (const WaveTerm &term : terms) {
                if (!term.src)
                    continue;
                const int sk = k + term.kShift;
                if (sk < term.src->lo() - 1 ||
                    sk > term.src->hi() + 1)
                    continue;
                bu_.loadInt(kSiteNwSub, term.src->ptr(sk));
                bu_.alu();
            }
            bu_.alu(2); // fold + clamp
            const std::int32_t value = combineValue(terms, k);
            dst.set(k, value);
            bu_.storeInt(kSiteNwSto, dst.ptr(k), value);
        }
    }

    void
    chargeTracebackHop(const std::int32_t *ins, const std::int32_t *sub,
                       const std::int32_t *del) override
    {
        const sim::MemOp hopLoads[] = {
            {sim::OpClass::ScalarLoad, kSiteTbHop, addrOf(ins), 4},
            {sim::OpClass::ScalarLoad, kSiteTbHop, addrOf(sub), 4},
            {sim::OpClass::ScalarLoad, kSiteTbHop, addrOf(del), 4},
        };
        bu_.loads(hopLoads);
        bu_.alu(3);
        bu_.branch();
    }

    void
    chargeTracebackRun(std::size_t matchColumns) override
    {
        // Emitting an RLE match run is O(1) plus a copy the compiler
        // turns into word stores.
        bu_.alu(1 + static_cast<unsigned>(matchColumns / 8));
    }

    void
    chargeOverlapCheck(const Wave &f, const Wave &r, int lo,
                       int hi) override
    {
        const int nm = static_cast<int>(t_.size()) -
                       static_cast<int>(p_.size());
        for (int k = lo; k <= hi; ++k) {
            const sim::MemOp ovLoads[] = {
                {sim::OpClass::ScalarLoad, kSiteOvF, addrOf(f.ptr(k)), 4},
                {sim::OpClass::ScalarLoad, kSiteOvR,
                 addrOf(r.ptr(nm - k)), 4},
            };
            bu_.loads(ovLoads);
            bu_.alu(2);
            bu_.branch();
        }
    }

  private:
    isa::BaseUnit bu_;
};

// ====================================================================
// Shared vectorized kernels (nextWave / traceback / overlap) used by
// the Vec, Qz, and QzC engines — QUETZAL leaves the unit-stride wave
// update on the regular vector datapath (Section III-C).
// ====================================================================

class VecKernels
{
  public:
    explicit VecKernels(isa::VectorUnit &vpu) : vpu_(vpu) {}

    /**
     * The wave values come from the scalar recurrence (nextValue);
     * the wave's 16-lane blocks are charged as one block run of the
     * per-block program (algos/vector_blocks.hpp).
     */
    void
    nextWave(const WfaEngine &eng, const Wave &prev, Wave &next,
             std::size_t m, std::size_t n)
    {
        namespace wb = blocks::wave;
        std::array<sim::Tag, wb::kSlots> slots{};
        slots[wb::kM] = vpu_.dup32(static_cast<std::int32_t>(m)).tag;
        slots[wb::kN] = vpu_.dup32(static_cast<std::int32_t>(n)).tag;
        slots[wb::kInvalid] = vpu_.dup32(kOffNone).tag;
        slots[wb::kZero] = vpu_.dup32(0).tag;
        if (next.lo() > next.hi())
            return;
        for (int k = next.lo(); k <= next.hi(); ++k)
            next.set(k, eng.nextValue(prev, k));
        const auto row = [](std::uint64_t site, const Wave &w, int k) {
            return sim::CellStream{site, addrOf(w.ptr(k)), 4, 4};
        };
        const int lo = next.lo();
        const std::array<sim::CellStream, wb::kStreams> streams{{
            row(kSiteNwIns, prev, lo - 1),
            row(kSiteNwSub, prev, lo),
            row(kSiteNwDel, prev, lo + 1),
            row(kSiteNwSto, next, lo),
        }};
        vpu_.pipeline().executeBlockRun<wb::kProgram>(
            streams, slots, static_cast<std::uint64_t>(next.hi() - lo + 1),
            isa::kLanes32);
    }

    void
    combineWave(const WfaEngine &eng,
                std::span<const WfaEngine::WaveTerm> terms, Wave &dst,
                std::size_t m, std::size_t n)
    {
        constexpr unsigned L = isa::kLanes32;
        const VReg vm = vpu_.dup32(static_cast<std::int32_t>(m));
        const VReg vn = vpu_.dup32(static_cast<std::int32_t>(n));
        const VReg vnone = vpu_.dup32(kOffNone);
        const VReg vzero = vpu_.dup32(0);
        for (int k0 = dst.lo(); k0 <= dst.hi();
             k0 += static_cast<int>(L)) {
            const unsigned cnt = std::min<long>(
                L, static_cast<long>(dst.hi()) - k0 + 1);
            const unsigned bytes = cnt * 4;
            VReg acc = vnone;
            for (const auto &term : terms) {
                if (!term.src)
                    continue;
                const int sk = k0 + term.kShift;
                // Only rows reachable within the source padding are
                // vector-loaded; the rest contribute nothing.
                if (sk < term.src->lo() - Wave::kPad + 2 ||
                    sk + static_cast<int>(cnt) >
                        term.src->hi() + Wave::kPad - 2)
                    continue;
                const VReg v =
                    vpu_.load(kSiteNwSub, term.src->ptr(sk), bytes);
                acc = vpu_.max32(acc, vpu_.add32i(v, term.addend));
            }
            const VReg kv = vpu_.index32(k0, 1);
            const VReg jmax = vpu_.min32(vn, vpu_.add32(kv, vm));
            const Pred lanes = vpu_.whilelt(0, cnt, L);
            const Pred neg = vpu_.cmplt32(acc, vzero, lanes, L);
            const Pred bad =
                vpu_.pOr(vpu_.cmpgt32(acc, jmax, lanes, L), neg);
            VReg out = vpu_.sel32(bad, vnone, acc);
            // Authoritative functional values (identical to the
            // vector math wherever the source rows were loadable).
            for (unsigned l = 0; l < cnt; ++l) {
                const std::int32_t value =
                    eng.combineValue(terms, k0 + static_cast<int>(l));
                out.setI32(l, value);
                dst.set(k0 + static_cast<int>(l), value);
            }
            vpu_.store(kSiteNwSto, dst.ptr(k0), out, bytes);
        }
    }

    void
    tracebackHop(const std::int32_t *ins, const std::int32_t *sub,
                 const std::int32_t *del)
    {
        vpu_.scalarLoad(kSiteTbHop, ins, 4);
        vpu_.scalarLoad(kSiteTbHop, sub, 4);
        vpu_.scalarLoad(kSiteTbHop, del, 4);
        vpu_.scalarOps(3);
    }

    void
    tracebackRun(std::size_t matchColumns)
    {
        vpu_.scalarOps(1 + static_cast<unsigned>(matchColumns / 8));
    }

    void
    overlapCheck(const Wave &f, const Wave &r, int lo, int hi, int nm)
    {
        constexpr unsigned L = isa::kLanes32;
        for (int k0 = lo; k0 <= hi; k0 += static_cast<int>(L)) {
            const unsigned cnt =
                std::min<long>(L, static_cast<long>(hi) - k0 + 1);
            const unsigned bytes = cnt * 4;
            // Reverse wave is read back-to-front: contiguous load at
            // the mirrored position plus a vector reverse (SVE rev).
            const int rk = nm - (k0 + static_cast<int>(cnt) - 1);
            const sim::MemOp ovLoads[] = {
                {sim::OpClass::VecLoad, kSiteOvF, addrOf(f.ptr(k0)),
                 bytes},
                {sim::OpClass::VecLoad, kSiteOvR, addrOf(r.ptr(rk)),
                 bytes},
            };
            sim::Tag ot[2];
            vpu_.chargeMemRun(ovLoads, sim::Tag{}, ot);
            using VU = isa::VectorUnit;
            const VReg fv = VU::lanes(f.ptr(k0), bytes, ot[0]);
            const VReg rv = VU::lanes(r.ptr(rk), bytes, ot[1]);
            vpu_.scalarOps(1); // rev
            const VReg sum = vpu_.add32(fv, rv);
            const Pred lanes = vpu_.whilelt(0, cnt, L);
            const VReg vn =
                vpu_.dup32(static_cast<std::int32_t>(0));
            (void)vn;
            vpu_.cmpgt32(sum, vpu_.dup32(0), lanes, L);
            vpu_.scalarOps(1); // fold/branch
        }
    }

    isa::VectorUnit &vpu() { return vpu_; }

  private:
    isa::VectorUnit &vpu_;
};

// ====================================================================
// Vec engine: the in-house SVE implementation (Fig. 2a), extend via
// scatter/gather through the cache hierarchy.
// ====================================================================

class VecWfaEngine final : public WfaEngine
{
  public:
    explicit VecWfaEngine(isa::VectorUnit &vpu) : k_(vpu) {}

    void
    extend(Wave &wave, Dir dir) override
    {
        // The paper's in-house VEC extension (Fig. 2a): each lane owns
        // one diagonal; every step gathers ONE pattern and ONE text
        // residue per lane through the cache hierarchy, compares, and
        // deactivates mismatching lanes.
        isa::VectorUnit &vpu = k_.vpu();
        constexpr unsigned L = isa::kLanes32;
        const auto m = static_cast<std::int32_t>(p_.size());
        const auto n = static_cast<std::int32_t>(t_.size());
        const VReg vm = vpu.dup32(m);
        const VReg vn = vpu.dup32(n);
        const VReg vm1 = vpu.dup32(m - 1);
        const VReg vn1 = vpu.dup32(n - 1);
        const VReg vnone = vpu.dup32(kOffNone);

        for (int k0 = wave.lo(); k0 <= wave.hi();
             k0 += static_cast<int>(L)) {
            const unsigned cnt = std::min<long>(
                L, static_cast<long>(wave.hi()) - k0 + 1);
            const unsigned bytes = cnt * 4;
            VReg jv = vpu.load(kSiteExtOff, wave.ptr(k0), bytes);
            const VReg kv = vpu.index32(k0, 1);
            const Pred lanes = vpu.whilelt(0, cnt, L);
            Pred act = vpu.cmpne32(jv, vnone, lanes, L);
            VReg iv = vpu.sub32(jv, kv);

            for (;;) {
                const Pred bi = vpu.cmplt32(iv, vm, act, L);
                const Pred bj = vpu.cmplt32(jv, vn, act, L);
                act = vpu.pAnd(act, vpu.pAnd(bi, bj));
                if (!vpu.anyActive(act))
                    break;
                const VReg pidx =
                    dir == Dir::Fwd ? iv : vpu.sub32(vm1, iv);
                const VReg tidx =
                    dir == Dir::Fwd ? jv : vpu.sub32(vn1, jv);
                const VReg pc =
                    vpu.gather8(kSiteExtPat, patData(), pidx, act, L);
                const VReg tc =
                    vpu.gather8(kSiteExtTxt, txtData(), tidx, act, L);
                const Pred eq = vpu.cmpeq32(pc, tc, act, L);
                iv = vpu.addUnderPred32(iv, 1, eq);
                jv = vpu.addUnderPred32(jv, 1, eq);
                act = eq;
            }
            vpu.store(kSiteExtSto, wave.ptr(k0), jv, bytes);
        }
    }

    void
    nextWave(const Wave &prev, Wave &next) override
    {
        k_.nextWave(*this, prev, next, p_.size(), t_.size());
    }

    void
    combineWave(std::span<const WaveTerm> terms, Wave &dst) override
    {
        k_.combineWave(*this, terms, dst, p_.size(), t_.size());
    }

    void
    chargeTracebackHop(const std::int32_t *ins, const std::int32_t *sub,
                       const std::int32_t *del) override
    {
        k_.tracebackHop(ins, sub, del);
    }

    void
    chargeTracebackRun(std::size_t matchColumns) override
    {
        k_.tracebackRun(matchColumns);
    }

    void
    chargeOverlapCheck(const Wave &f, const Wave &r, int lo,
                       int hi) override
    {
        k_.overlapCheck(f, r, lo, hi,
                        static_cast<int>(t_.size()) -
                            static_cast<int>(p_.size()));
    }

  private:
    VecKernels k_;
};

// ====================================================================
// Qz / QzC engines: extend via QBUFFERs (Fig. 6a). Qz compares one
// element per lane with qzmhm<cmpeq>; QzC counts whole 64-bit windows
// with qzmhm<qzcount>.
// ====================================================================

class QzWfaEngineBase : public WfaEngine
{
  public:
    QzWfaEngineBase(isa::VectorUnit &vpu, accel::QzUnit &qz)
        : k_(vpu), qz_(qz)
    {}

    void
    nextWave(const Wave &prev, Wave &next) override
    {
        k_.nextWave(*this, prev, next, p_.size(), t_.size());
    }

    void
    combineWave(std::span<const WaveTerm> terms, Wave &dst) override
    {
        k_.combineWave(*this, terms, dst, p_.size(), t_.size());
    }

    void
    chargeTracebackHop(const std::int32_t *ins, const std::int32_t *sub,
                       const std::int32_t *del) override
    {
        k_.tracebackHop(ins, sub, del);
    }

    void
    chargeTracebackRun(std::size_t matchColumns) override
    {
        k_.tracebackRun(matchColumns);
    }

    void
    chargeOverlapCheck(const Wave &f, const Wave &r, int lo,
                       int hi) override
    {
        k_.overlapCheck(f, r, lo, hi,
                        static_cast<int>(t_.size()) -
                            static_cast<int>(p_.size()));
    }

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

    VecKernels k_;
    accel::QzUnit &qz_;
    ElementSize esize_ = ElementSize::Bits2;
};

class QzWfaEngine final : public QzWfaEngineBase
{
  public:
    using QzWfaEngineBase::QzWfaEngineBase;

    void
    extend(Wave &wave, Dir dir) override
    {
        // QBUFFERs without the count ALU: qzmhm<xor> fetches whole
        // 64-bit windows (32 bases at 2-bit encoding) in 2 cycles;
        // the regular vector datapath counts the matching prefix with
        // the rbit+clz idiom (Fig. 6a minus the count hardware).
        isa::VectorUnit &vpu = k_.vpu();
        constexpr unsigned L = isa::kLanes32;
        const auto m = static_cast<std::int32_t>(p_.size());
        const auto n = static_cast<std::int32_t>(t_.size());
        const auto window = static_cast<std::int32_t>(
            accel::CountAlu::elementsPerSegment(esize_));
        const unsigned shift = accel::CountAlu::shiftFor(esize_);
        const VReg vm = vpu.dup32(m);
        const VReg vn = vpu.dup32(n);
        const VReg vm1 = vpu.dup32(m - 1);
        const VReg vn1 = vpu.dup32(n - 1);
        const VReg vzero = vpu.dup32(0);
        const VReg vnone = vpu.dup32(kOffNone);
        const VReg vwin = vpu.dup32(window);
        const accel::QzOpn opn = dir == Dir::Fwd
                                     ? accel::QzOpn::XorWin
                                     : accel::QzOpn::XorWinRev;

        for (int k0 = wave.lo(); k0 <= wave.hi();
             k0 += static_cast<int>(L)) {
            const unsigned cnt = std::min<long>(
                L, static_cast<long>(wave.hi()) - k0 + 1);
            const unsigned bytes = cnt * 4;
            VReg jv = vpu.load(kSiteExtOff, wave.ptr(k0), bytes);
            const VReg kv = vpu.index32(k0, 1);
            const Pred lanes = vpu.whilelt(0, cnt, L);
            Pred act = vpu.cmpne32(jv, vnone, lanes, L);
            const VReg iv = vpu.sub32(jv, kv);
            const VReg jRem = vpu.sub32(vn, jv);
            VReg rem = vpu.min32(vpu.sub32(vm, iv), jRem);
            act = vpu.pAnd(act, vpu.cmpgt32(rem, vzero, act, L));
            VReg ip = dir == Dir::Fwd ? iv : vpu.sub32(vm1, iv);
            VReg it = dir == Dir::Fwd ? jv : vpu.sub32(vn1, jv);

            while (vpu.anyActive(act)) {
                const Pred pLo = vpu.punpkLo(act);
                const Pred pHi = vpu.punpkHi(act);
                const VReg tLo = vpu.widenLo32to64(it);
                const VReg xLo = qz_.qzmhm(opn, vpu.widenLo32to64(ip),
                                           tLo, pLo, isa::kLanes64);
                const VReg tHi = vpu.widenHi32to64(it);
                const VReg xHi = qz_.qzmhm(opn, vpu.widenHi32to64(ip),
                                           tHi, pHi, isa::kLanes64);
                // Count matched elements from each xor window, then
                // pack the two halves back into 16 x 32-bit counts.
                auto count64 = [&](const VReg &x) {
                    const VReg tz = dir == Dir::Fwd ? vpu.ctz64(x)
                                                    : vpu.clz64(x);
                    return vpu.shr64i(tz, shift);
                };
                const VReg countHi = count64(xHi);
                const VReg counts = vpu.pack64to32(count64(xLo), countHi);
                const VReg adv = vpu.min32(counts, rem);
                const VReg sadv = dir == Dir::Fwd
                                      ? adv
                                      : vpu.sub32(vzero, adv);
                ip = vpu.addvUnderPred32(ip, sadv, act);
                it = vpu.addvUnderPred32(it, sadv, act);
                rem = vpu.addvUnderPred32(rem, vpu.sub32(vzero, adv),
                                          act);
                const Pred full = vpu.cmpeq32(counts, vwin, act, L);
                const Pred more = vpu.cmpgt32(rem, vzero, act, L);
                act = vpu.pAnd(full, more);
            }
            const VReg jOut =
                dir == Dir::Fwd ? it : vpu.sub32(vn1, it);
            vpu.store(kSiteExtSto, wave.ptr(k0), jOut, bytes);
        }
    }
};

class QzCWfaEngine final : public QzWfaEngineBase
{
  public:
    using QzWfaEngineBase::QzWfaEngineBase;

    void
    extend(Wave &wave, Dir dir) override
    {
        // The full Fig. 6a flow: qzmhm<qzcount> reads both QBUFFER
        // windows and counts consecutive matches in one instruction,
        // leaving only the minimal advance/continue sequence — the
        // instruction-count reduction the paper claims.
        isa::VectorUnit &vpu = k_.vpu();
        constexpr unsigned L = isa::kLanes32;
        const auto m = static_cast<std::int32_t>(p_.size());
        const auto n = static_cast<std::int32_t>(t_.size());
        const auto window = static_cast<std::int32_t>(
            accel::CountAlu::elementsPerSegment(esize_));
        const VReg vm = vpu.dup32(m);
        const VReg vn = vpu.dup32(n);
        const VReg vm1 = vpu.dup32(m - 1);
        const VReg vn1 = vpu.dup32(n - 1);
        const VReg vzero = vpu.dup32(0);
        const VReg vnone = vpu.dup32(kOffNone);
        const VReg vwin = vpu.dup32(window);
        const accel::QzOpn opn = dir == Dir::Fwd
                                     ? accel::QzOpn::Count
                                     : accel::QzOpn::CountRev;

        for (int k0 = wave.lo(); k0 <= wave.hi();
             k0 += static_cast<int>(L)) {
            const unsigned cnt = std::min<long>(
                L, static_cast<long>(wave.hi()) - k0 + 1);
            const unsigned bytes = cnt * 4;
            VReg jv = vpu.load(kSiteExtOff, wave.ptr(k0), bytes);
            const VReg kv = vpu.index32(k0, 1);
            const Pred lanes = vpu.whilelt(0, cnt, L);
            Pred act = vpu.cmpne32(jv, vnone, lanes, L);
            const VReg iv = vpu.sub32(jv, kv);
            const VReg jRem = vpu.sub32(vn, jv);
            VReg rem = vpu.min32(vpu.sub32(vm, iv), jRem);
            act = vpu.pAnd(act, vpu.cmpgt32(rem, vzero, act, L));
            VReg ip = dir == Dir::Fwd ? iv : vpu.sub32(vm1, iv);
            VReg it = dir == Dir::Fwd ? jv : vpu.sub32(vn1, jv);

            while (vpu.anyActive(act)) {
                const Pred pLo = vpu.punpkLo(act);
                const Pred pHi = vpu.punpkHi(act);
                const VReg tLo = vpu.widenLo32to64(it);
                const VReg cLo = qz_.qzmhm(opn, vpu.widenLo32to64(ip),
                                           tLo, pLo, isa::kLanes64);
                const VReg tHi = vpu.widenHi32to64(it);
                const VReg cHi = qz_.qzmhm(opn, vpu.widenHi32to64(ip),
                                           tHi, pHi, isa::kLanes64);
                const VReg counts = vpu.pack64to32(cLo, cHi);
                const VReg adv = vpu.min32(counts, rem);
                const VReg sadv = dir == Dir::Fwd
                                      ? adv
                                      : vpu.sub32(vzero, adv);
                ip = vpu.addvUnderPred32(ip, sadv, act);
                it = vpu.addvUnderPred32(it, sadv, act);
                rem = vpu.addvUnderPred32(rem, vpu.sub32(vzero, adv),
                                          act);
                const Pred full = vpu.cmpeq32(counts, vwin, act, L);
                const Pred more = vpu.cmpgt32(rem, vzero, act, L);
                act = vpu.pAnd(full, more);
            }
            const VReg jOut =
                dir == Dir::Fwd ? it : vpu.sub32(vn1, it);
            vpu.store(kSiteExtSto, wave.ptr(k0), jOut, bytes);
        }
    }
};

} // namespace

std::unique_ptr<WfaEngine>
makeWfaEngine(Variant variant, isa::VectorUnit *vpu, accel::QzUnit *qz)
{
    switch (variant) {
      case Variant::Ref:
        return std::make_unique<RefWfaEngine>();
      case Variant::Base:
        panic_if_not(vpu != nullptr, "Base engine needs a VectorUnit");
        return std::make_unique<BaseWfaEngine>(*vpu);
      case Variant::Vec:
        panic_if_not(vpu != nullptr, "Vec engine needs a VectorUnit");
        return std::make_unique<VecWfaEngine>(*vpu);
      case Variant::Qz:
        panic_if_not(vpu != nullptr && qz != nullptr,
                     "Qz engine needs a VectorUnit and a QzUnit");
        return std::make_unique<QzWfaEngine>(*vpu, *qz);
      case Variant::QzC:
        panic_if_not(vpu != nullptr && qz != nullptr,
                     "QzC engine needs a VectorUnit and a QzUnit");
        return std::make_unique<QzCWfaEngine>(*vpu, *qz);
    }
    panic("unknown Variant {}", static_cast<int>(variant));
}

} // namespace quetzal::algos
