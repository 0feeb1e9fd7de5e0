/**
 * @file
 * Per-variant execution engines for the wavefront algorithms.
 *
 * WFA and BiWFA share their control structure (wave bookkeeping,
 * termination, traceback); what differs between the paper's evaluation
 * bars is how the two hot kernels execute:
 *
 *  - extend(): walk every diagonal's match run (55-90% of runtime);
 *  - nextWave(): compute wave s+1 from wave s.
 *
 * Engines implement those kernels per variant: Ref (untimed golden
 * model), Base (timed scalar), Vec (SVE intrinsics with scatter/gather,
 * Fig. 2a), Qz (QBUFFER qzmhm<cmpeq>, Fig. 6a without the count unit),
 * and QzC (qzmhm<qzcount>, the full Fig. 6a). Every engine computes
 * bit-identical offsets; only the charged timing differs.
 */
#ifndef QUETZAL_ALGOS_WFA_ENGINE_HPP
#define QUETZAL_ALGOS_WFA_ENGINE_HPP

#include <memory>
#include <span>
#include <string_view>

#include "algos/variant.hpp"
#include "algos/wavefront.hpp"
#include "genomics/encoding.hpp"
#include "isa/scalarunit.hpp"
#include "isa/vectorunit.hpp"
#include "quetzal/qzunit.hpp"

namespace quetzal::algos {

/** Direction of a wavefront pass (BiWFA runs both). */
enum class Dir
{
    Fwd, //!< align pattern/text left to right
    Rev, //!< align the reversed pair (indices mapped, no copy)
};

/**
 * Per-alignment resource ceilings for the wavefront control loops.
 *
 * Adversarial pairs (high divergence, ultralong reads) make the WFA
 * wavefront table grow as O(s^2); the budget turns that unbounded
 * growth into graceful degradation. Both ceilings apply per begin()
 * scope (one alignment problem; BiWFA sub-problems each get a fresh
 * scope). A zero ceiling means unlimited. On the first breach the
 * aligner restarts the pair with the adaptive-pruning heuristic
 * (maxLag = fallbackLag) and flags the result as degraded; if the
 * pruned retry breaches again, a ResourceError is raised and the
 * batch layer records a Resource failure (docs/ROBUSTNESS.md).
 */
struct ResourceBudget
{
    std::uint64_t maxWaveBytes = 0; //!< retained wavefront storage cap
    std::uint64_t maxSteps = 0;     //!< score-loop iteration cap
    std::int32_t fallbackLag = 64;  //!< pruning lag of the degraded retry

    bool
    enabled() const
    {
        return maxWaveBytes != 0 || maxSteps != 0;
    }
};

/** Abstract per-variant kernel executor. */
class WfaEngine
{
  public:
    virtual ~WfaEngine() = default;

    /**
     * Prepare for one pattern/text pair. QUETZAL engines stage the
     * sequences into the QBUFFERs here (the paper includes staging
     * time in every measurement).
     *
     * @param esize Bits2 for DNA/RNA, Bits8 for protein alphabets.
     */
    void begin(std::string_view pattern, std::string_view text,
               genomics::ElementSize esize = genomics::ElementSize::Bits2);

    /** Extend every valid offset of @p wave along its diagonal. */
    virtual void extend(Wave &wave, Dir dir) = 0;

    /** Compute @p next (range pre-set by the caller) from @p prev. */
    virtual void nextWave(const Wave &prev, Wave &next) = 0;

    /**
     * One term of a generic wavefront combination:
     * dst[k] = max over terms of src[k + kShift] + addend.
     * Used by the gap-affine wavefront recurrences (I/D/M components).
     */
    struct WaveTerm
    {
        const Wave *src;     //!< nullptr terms are skipped
        int kShift;
        std::int32_t addend;
    };

    /**
     * Predicated elementwise max of shifted source rows into @p dst
     * (range pre-set by the caller), clamped to valid offsets like
     * nextWave. Timed per variant like a wave update.
     */
    virtual void combineWave(std::span<const WaveTerm> terms,
                             Wave &dst) = 0;

    /**
     * Charge one traceback hop: reading the three candidate
     * predecessor cells (real wave-table addresses, so the cache
     * model sees the traceback's working set).
     */
    virtual void chargeTracebackHop(const std::int32_t *ins,
                                    const std::int32_t *sub,
                                    const std::int32_t *del) = 0;

    /** Charge emitting a run of @p matchColumns 'M' columns. */
    virtual void chargeTracebackRun(std::size_t matchColumns) = 0;

    /**
     * Charge BiWFA's overlap scan of forward wave @p f against
     * reverse wave @p r over forward diagonals [lo, hi].
     */
    virtual void chargeOverlapCheck(const Wave &f, const Wave &r, int lo,
                                    int hi) = 0;

    std::size_t patternLength() const { return p_.size(); }
    std::size_t textLength() const { return t_.size(); }

    /** Install @p budget; applies to every subsequent alignment. */
    void setBudget(const ResourceBudget &budget) { budget_ = budget; }
    const ResourceBudget &budget() const { return budget_; }

    /**
     * Watchdog accounting, driven by the control loops (wfa.cpp /
     * biwfa.cpp): one step per score iteration, one alloc note per
     * retained wavefront row. begin() resets both counters.
     */
    void noteStep() { ++stepsUsed_; }
    void noteWaveAlloc(std::size_t elems)
    {
        waveBytesUsed_ += elems * sizeof(std::int32_t);
    }

    /** Drop usage accounting for rows released back to the pool. */
    void noteWaveFree(std::size_t elems)
    {
        const std::uint64_t bytes = elems * sizeof(std::int32_t);
        waveBytesUsed_ -= std::min(waveBytesUsed_, bytes);
    }

    std::uint64_t stepsUsed() const { return stepsUsed_; }
    std::uint64_t waveBytesUsed() const { return waveBytesUsed_; }

    /** True when either ceiling has been breached. */
    bool
    budgetExceeded() const
    {
        return (budget_.maxSteps != 0 &&
                stepsUsed_ > budget_.maxSteps) ||
               (budget_.maxWaveBytes != 0 &&
                waveBytesUsed_ > budget_.maxWaveBytes);
    }

    /** Clamp a combined offset to the valid range for diagonal k. */
    std::int32_t
    clampOffset(std::int32_t best, int k) const
    {
        const std::int64_t m = static_cast<std::int64_t>(p_.size());
        const std::int64_t n = static_cast<std::int64_t>(t_.size());
        const std::int64_t jmax = std::min<std::int64_t>(n, m + k);
        if (best < 0 || best > jmax)
            return kOffNone;
        return best;
    }

    /** Functional combineWave value (golden model for all engines). */
    std::int32_t
    combineValue(std::span<const WaveTerm> terms, int k) const
    {
        std::int32_t best = kOffNone;
        for (const WaveTerm &term : terms) {
            if (!term.src)
                continue;
            const int sk = k + term.kShift;
            if (sk < term.src->lo() - 1 || sk > term.src->hi() + 1)
                continue;
            const std::int32_t v = term.src->at(sk);
            if (v == kOffNone)
                continue;
            best = std::max(best, v + term.addend);
        }
        if (best == kOffNone)
            return kOffNone;
        return clampOffset(best, k);
    }

    /**
     * Functional next-wave value for diagonal @p k: the classic
     * max(ins, sub, del) with range clamping. Shared by every engine
     * so results are bit-identical by construction.
     */
    std::int32_t
    nextValue(const Wave &prev, int k) const
    {
        const std::int32_t ins = prev.at(k - 1) + 1;
        const std::int32_t sub = prev.at(k) + 1;
        const std::int32_t del = prev.at(k + 1);
        std::int32_t best = std::max(ins, std::max(sub, del));
        const std::int64_t m = static_cast<std::int64_t>(p_.size());
        const std::int64_t n = static_cast<std::int64_t>(t_.size());
        const std::int64_t jmax = std::min<std::int64_t>(n, m + k);
        if (best < 0 || best > jmax)
            best = kOffNone;
        return best;
    }

  protected:
    /** Pattern residue at virtual index @p i under @p dir. */
    char
    pat(Dir dir, std::size_t i) const
    {
        return dir == Dir::Fwd ? p_[i] : p_[p_.size() - 1 - i];
    }

    /** Text residue at virtual index @p j under @p dir. */
    char
    txt(Dir dir, std::size_t j) const
    {
        return dir == Dir::Fwd ? t_[j] : t_[t_.size() - 1 - j];
    }

    /** Hook for variant-specific per-pair setup (QBUFFER staging). */
    virtual void onBegin(genomics::ElementSize esize);

    /**
     * Sentinel padding around the engine-local sequence copies: the
     * word-wise kernels read up to 8 bytes past either end. Pattern
     * and text use distinct non-residue sentinels so runs can never
     * extend across a boundary.
     */
    static constexpr std::size_t kSeqPad = 8;

    /** Base pointer of the padded pattern (real residue 0). */
    const char *patData() const { return p_.data(); }
    /** Base pointer of the padded text (real residue 0). */
    const char *txtData() const { return t_.data(); }

    std::string_view p_; //!< view of the real residues (padded store)
    std::string_view t_;

  private:
    std::string paddedP_;
    std::string paddedT_;
    ResourceBudget budget_;
    std::uint64_t stepsUsed_ = 0;
    std::uint64_t waveBytesUsed_ = 0;
};

/**
 * Internal signal: a budget ceiling was hit mid-alignment. The
 * control loops in wfa.cpp/biwfa.cpp catch it and degrade to the
 * pruned variant; it never escapes the public alignment entry points.
 */
struct WfaBudgetExceeded
{
    std::uint64_t steps;
    std::uint64_t waveBytes;
};

/**
 * Create the engine for @p variant.
 *
 * @param vpu required for Base/Vec/Qz/QzC (timing); ignored for Ref.
 * @param qz required for Qz/QzC.
 */
std::unique_ptr<WfaEngine> makeWfaEngine(Variant variant,
                                         isa::VectorUnit *vpu,
                                         accel::QzUnit *qz);

} // namespace quetzal::algos

#endif // QUETZAL_ALGOS_WFA_ENGINE_HPP
