#include "algos/runner.hpp"

#include <algorithm>
#include <memory>

#include "algos/biwfa.hpp"
#include "algos/nw.hpp"
#include "algos/sneakysnake.hpp"
#include "algos/swg.hpp"
#include "algos/wfa.hpp"
#include "algos/wfa_engine.hpp"
#include "algos/workload.hpp"
#include "common/logging.hpp"
#include "genomics/datasets.hpp"
#include "genomics/pairsource.hpp"

namespace quetzal::algos {

using genomics::ElementSize;
using genomics::PairDataset;

namespace {

ElementSize
esizeFor(genomics::AlphabetKind alphabet)
{
    return alphabet == genomics::AlphabetKind::Protein
               ? ElementSize::Bits8
               : ElementSize::Bits2;
}

/**
 * Shared pair-loop of the genomics workloads: fresh core, per-pair
 * memory epochs, maxLen truncation, and the final counter harvest are
 * identical across algorithms; only runPair() differs.
 */
class GenomicsWorkload : public Workload
{
  public:
    explicit GenomicsWorkload(const char *name) : name_(name) {}

    std::string_view name() const override { return name_; }

    std::vector<std::string>
    datasetNames() const override
    {
        std::vector<std::string> names;
        for (const auto &spec : genomics::datasetCatalog())
            names.push_back(spec.name);
        return names;
    }

    PairDataset
    makeDataset(std::string_view dataset, double scale) const override
    {
        return genomics::makeDataset(dataset, scale);
    }

    RunResult
    run(const PairDataset &dataset,
        const RunOptions &options) const override
    {
        // The streaming loop is the one implementation; a dataset is
        // just a zero-copy source over its vector.
        genomics::DatasetPairSource source(dataset);
        return runStream(source, options);
    }

    RunResult
    runStream(genomics::PairSource &source,
              const RunOptions &options) const override
    {
        RunResult out;
        out.algo = name_;
        out.variant = std::string(variantName(options.variant));
        out.dataset = source.info().name;

        fatal_if(options.variant == Variant::Ref,
                 "workloads measure timed variants; Ref is the golden "
                 "model they verify against");

        PairRig rig(source.info(), options);
        const std::size_t limit =
            std::min<std::size_t>(options.maxPairs, source.size());
        source.rewind();
        genomics::PairBatch batch;
        while (out.pairs < limit && source.next(batch) > 0) {
            for (const genomics::PairView &pair : batch.views()) {
                if (out.pairs >= limit)
                    break;
                // Pairs are independent work items; remap recycled
                // host memory so cycle counts don't depend on
                // allocator state.
                rig.core.ctx.mem().newEpoch();
                std::string_view pattern = pair.pattern;
                std::string_view text = pair.text;
                if (pattern.size() > options.maxLen)
                    pattern = pattern.substr(0, options.maxLen);
                if (text.size() > options.maxLen)
                    text = text.substr(0, options.maxLen);
                ++out.pairs;
                runPair(rig, pattern, text, options, out);
            }
        }

        harvestCore(out, rig.core);
        return out;
    }

  protected:
    /** Per-run simulated core plus the engines every algorithm shares. */
    struct PairRig
    {
        WorkloadCore core;
        ElementSize esize;
        std::unique_ptr<WfaEngine> engine;    //!< timed, budgeted
        std::unique_ptr<WfaEngine> refEngine; //!< untimed golden model
        std::unique_ptr<SsEngine> ssEngine;
        std::unique_ptr<SsEngine> ssRef;
        SsConfig ssConfig;

        PairRig(const genomics::SourceInfo &info,
                const RunOptions &options)
            : core(systemFor(options)),
              esize(esizeFor(options.alphabet))
        {
            // Variant under test and untimed golden model. Only the
            // timed engine gets the resource budget: the golden model
            // must stay exact so degraded pairs can still be
            // sanity-checked.
            engine = makeWfaEngine(options.variant, &core.vpu,
                                   core.qzPtr());
            engine->setBudget(options.budget);
            refEngine = makeWfaEngine(Variant::Ref, nullptr, nullptr);
            ssEngine = makeSsEngine(options.variant, &core.vpu,
                                    core.qzPtr());
            ssRef = makeSsEngine(Variant::Ref, nullptr, nullptr);
            ssConfig.editThreshold =
                options.ssThreshold > 0
                    ? options.ssThreshold
                    : defaultSsThreshold(info.readLength,
                                         info.errorRate);
        }
    };

    virtual void runPair(PairRig &rig, std::string_view pattern,
                         std::string_view text,
                         const RunOptions &options,
                         RunResult &out) const = 0;

  private:
    const char *name_;
};

class WfaWorkload final : public GenomicsWorkload
{
  public:
    WfaWorkload() : GenomicsWorkload("WFA") {}

  protected:
    void
    runPair(PairRig &rig, std::string_view pattern,
            std::string_view text, const RunOptions &options,
            RunResult &out) const override
    {
        const AlignResult got = wfaAlign(*rig.engine, pattern, text,
                                         options.traceback, rig.esize);
        out.totalScore += got.score;
        out.dpCells += wfaCellCount(got.score);
        out.degradedPairs += got.degraded ? 1 : 0;
        if (options.verify && !got.degraded) {
            const AlignResult want = wfaAlign(*rig.refEngine, pattern,
                                              text, options.traceback);
            out.outputsMatch &= got.score == want.score;
            if (options.traceback) {
                out.outputsMatch &=
                    got.cigar.ops == want.cigar.ops &&
                    validateCigar(pattern, text, got.cigar);
            }
        } else if (options.verify && options.traceback) {
            // Degraded pairs: the score is no longer guaranteed
            // optimal, but the CIGAR must still replay cleanly.
            out.outputsMatch &= validateCigar(pattern, text, got.cigar);
        }
    }
};

class BiWfaWorkload final : public GenomicsWorkload
{
  public:
    BiWfaWorkload() : GenomicsWorkload("BiWFA") {}

  protected:
    void
    runPair(PairRig &rig, std::string_view pattern,
            std::string_view text, const RunOptions &options,
            RunResult &out) const override
    {
        const AlignResult got = biwfaAlign(*rig.engine, pattern, text,
                                           options.traceback, rig.esize);
        out.totalScore += got.score;
        out.dpCells += wfaCellCount(got.score);
        out.degradedPairs += got.degraded ? 1 : 0;
        if (options.verify && !got.degraded) {
            const std::int64_t want =
                wfaScore(*rig.refEngine, pattern, text);
            out.outputsMatch &= got.score == want;
            if (options.traceback) {
                out.outputsMatch &=
                    got.cigar.edits() == want &&
                    validateCigar(pattern, text, got.cigar);
            }
        } else if (options.verify && options.traceback) {
            out.outputsMatch &= validateCigar(pattern, text, got.cigar);
        }
    }
};

class SneakySnakeWorkload final : public GenomicsWorkload
{
  public:
    SneakySnakeWorkload() : GenomicsWorkload("SS") {}

  protected:
    void
    runPair(PairRig &rig, std::string_view pattern,
            std::string_view text, const RunOptions &options,
            RunResult &out) const override
    {
        const SsResult got = sneakySnake(*rig.ssEngine, pattern, text,
                                         rig.ssConfig, rig.esize);
        out.totalScore += got.editBound;
        out.accepted += got.accepted ? 1 : 0;
        if (options.verify) {
            const SsResult want =
                sneakySnake(*rig.ssRef, pattern, text, rig.ssConfig);
            out.outputsMatch &= got.accepted == want.accepted &&
                                got.editBound == want.editBound;
        }
    }
};

class NwWorkload final : public GenomicsWorkload
{
  public:
    NwWorkload() : GenomicsWorkload("NW") {}

  protected:
    void
    runPair(PairRig &rig, std::string_view pattern,
            std::string_view text, const RunOptions &options,
            RunResult &out) const override
    {
        const AlignResult got =
            nwAlign(options.variant, pattern, text, &rig.core.vpu,
                    rig.core.qzPtr(), options.traceback);
        out.totalScore += got.score;
        out.dpCells +=
            static_cast<std::uint64_t>(pattern.size()) * text.size();
        if (options.verify) {
            const AlignResult want =
                nwAlign(Variant::Ref, pattern, text, nullptr, nullptr,
                        options.traceback);
            out.outputsMatch &= got.score == want.score;
            if (options.traceback)
                out.outputsMatch &= got.cigar.ops == want.cigar.ops;
        }
    }
};

class SwgWorkload final : public GenomicsWorkload
{
  public:
    SwgWorkload() : GenomicsWorkload("SW") {}

  protected:
    void
    runPair(PairRig &rig, std::string_view pattern,
            std::string_view text, const RunOptions &options,
            RunResult &out) const override
    {
        const SwgResult got =
            swgAlign(options.variant, pattern, text, SwgParams{},
                     &rig.core.vpu, rig.core.qzPtr(),
                     options.traceback);
        out.totalScore += got.score;
        out.dpCells +=
            static_cast<std::uint64_t>(pattern.size() + text.size()) *
            31;
        if (options.verify) {
            const SwgResult want =
                swgAlign(Variant::Ref, pattern, text, SwgParams{},
                         nullptr, nullptr, options.traceback);
            out.outputsMatch &= got.score == want.score;
            if (options.traceback)
                out.outputsMatch &= got.cigar.ops == want.cigar.ops;
        }
    }
};

class SsWfaWorkload final : public GenomicsWorkload
{
  public:
    SsWfaWorkload() : GenomicsWorkload("SS+WFA") {}

  protected:
    void
    runPair(PairRig &rig, std::string_view pattern,
            std::string_view text, const RunOptions &options,
            RunResult &out) const override
    {
        const SsResult filter = sneakySnake(*rig.ssEngine, pattern,
                                            text, rig.ssConfig,
                                            rig.esize);
        if (options.verify) {
            const SsResult want =
                sneakySnake(*rig.ssRef, pattern, text, rig.ssConfig);
            out.outputsMatch &= filter.accepted == want.accepted;
        }
        if (filter.accepted) {
            ++out.accepted;
            const AlignResult got = wfaAlign(
                *rig.engine, pattern, text, options.traceback,
                rig.esize);
            out.totalScore += got.score;
            out.dpCells += wfaCellCount(got.score);
            out.degradedPairs += got.degraded ? 1 : 0;
            if (options.verify && !got.degraded) {
                const AlignResult want = wfaAlign(
                    *rig.refEngine, pattern, text, options.traceback);
                out.outputsMatch &= got.score == want.score;
            }
        }
    }
};

const WorkloadRegistrar genomicsRegistrars[] = {
    WorkloadRegistrar{std::make_unique<WfaWorkload>()},
    WorkloadRegistrar{std::make_unique<BiWfaWorkload>()},
    WorkloadRegistrar{std::make_unique<SneakySnakeWorkload>()},
    WorkloadRegistrar{std::make_unique<NwWorkload>()},
    WorkloadRegistrar{std::make_unique<SwgWorkload>()},
    WorkloadRegistrar{std::make_unique<SsWfaWorkload>()},
};

} // namespace

namespace detail {

void
anchorAlgoWorkloads()
{
}

} // namespace detail

PairDataset
mixWithDecoys(const PairDataset &dataset)
{
    PairDataset mixed = dataset;
    const std::size_t count = mixed.pairs.size();
    for (std::size_t i = 1; i < count; i += 2) {
        // Swap in the next pair's text: unrelated to this pattern.
        mixed.pairs[i].text = dataset.pairs[(i + 1) % count].text;
        mixed.pairs[i].trueEdits = -1;
    }
    return mixed;
}

} // namespace quetzal::algos
