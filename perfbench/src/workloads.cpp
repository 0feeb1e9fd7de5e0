#include "workloads.hpp"

#include <algorithm>
#include <map>

#include <sys/resource.h>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "closedloop.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "genomics/store.hpp"
#include "hostspeed.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "serve/protocol.hpp"
#include "tools/perf_matrix.hpp"

namespace qzbench {

using namespace quetzal;
using algos::RunOptions;
using algos::RunResult;
using algos::Variant;
using genomics::PairSource;

namespace {

// ---- sizes -----------------------------------------------------------
// Chosen so every timed quantity is compute-dominated and each run
// spans many host contention phases (README.md, "Noise").

/** fig13a dataset scale. The long-read sets keep their one-pair
 *  minimum, so at 0.4 those 40 pairs are under 1% of a sweep's pairs
 *  and the p99 falls in the BASE NW 250 bp cluster (README.md). */
constexpr double kFig13aScale = 0.4;
/** store-stream / serve-closed store: 150 bp reads. */
constexpr std::size_t kStorePairs = 100000;
/** store-stream request: one source batch of 64 pairs (about 1 ms),
 *  so every pass resolves its own p99 (stats.hpp). */
/** Pairs the store-stream warm-up streams before timing. */
constexpr std::size_t kStreamWarmupPairs = 4096;
/** serve-closed pool and load. */
constexpr unsigned kServeWorkers = 2;
constexpr unsigned kServeClients = 2;
/** Requests per timed serve block: a multiple of the 30-request
 *  class x heavy-kind cycle, so every block has the same mix. */
constexpr std::uint64_t kServeBlock = 300;
/** Requests of each class the traced run re-runs in-process. */
constexpr std::size_t kComputeSamples = 9;

double
msSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e6;
}

double
rusageMib(int who)
{
    rusage usage{};
    if (getrusage(who, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
lower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** Metric key of a variant: base | vec | qz | qzc. */
std::string
variantKey(Variant v)
{
    switch (v) {
      case Variant::Base:
        return "base";
      case Variant::Vec:
        return "vec";
      case Variant::Qz:
        return "qz";
      default:
        return "qzc";
    }
}

/** Metric key of a dataset: 100bp | 250bp | 10kbp | 30kbp | protein. */
std::string
datasetKey(std::string_view name)
{
    const std::string key = lower(name);
    const auto cut = key.find('_');
    return cut == std::string::npos ? key : key.substr(0, cut);
}

/**
 * Latency samples of a stream: one request per batch, timed from
 * handing the batch out to handing out the next one, i.e. simulating
 * the batch plus fetching the next. With onePair, every batch holds one
 * pair (copied out of a one-pair inner batch). Simulated metrics do not
 * depend on batch boundaries, so neither setting changes what the cell
 * computes.
 */
class TimedSource final : public PairSource
{
  public:
    TimedSource(std::unique_ptr<PairSource> inner,
                std::vector<Latency> &samples, bool onePair)
        : inner_(std::move(inner)), samples_(samples), onePair_(onePair)
    {
    }

    /** The runner stops calling next() once it has all its pairs, so
     *  the last request closes when the stream is dropped. */
    ~TimedSource() override { close(nowNs()); }

    const genomics::SourceInfo &info() const override { return inner_->info(); }
    std::size_t size() const override { return inner_->size(); }

    std::size_t
    next(genomics::PairBatch &batch) override
    {
        std::size_t n = 0;
        if (onePair_) {
            batch.clear();
            n = inner_->next(one_);
            if (n != 0) {
                const genomics::PairView &v = one_.views().front();
                genomics::SequencePair pair;
                pair.pattern = v.pattern;
                pair.text = v.text;
                pair.alphabet = v.alphabet;
                pair.trueEdits = v.trueEdits;
                batch.pushOwned(std::move(pair));
            }
        } else {
            n = inner_->next(batch);
        }
        close(nowNs());
        if (n != 0) {
            // Between requests: the kernel stays out of the sample.
            hostSpeed().tick();
            start_ = nowNs();
            open_ = true;
        }
        return n;
    }

    void
    rewind() override
    {
        inner_->rewind();
        open_ = false;
    }

    std::unique_ptr<PairSource>
    slice(std::size_t from, std::size_t to) const override
    {
        return std::make_unique<TimedSource>(inner_->slice(from, to),
                                             samples_, onePair_);
    }

  private:
    /** Record the open request, if any. */
    void
    close(std::int64_t now)
    {
        if (open_)
            samples_.push_back({start_, static_cast<double>(now - start_) / 1e6});
        open_ = false;
    }

    std::unique_ptr<PairSource> inner_;
    std::vector<Latency> &samples_;
    bool onePair_;
    genomics::PairBatch one_{1};
    std::int64_t start_ = 0;
    bool open_ = false; //!< a batch is out and not yet timed
};

// ---------------------------------------------------------------------
// fig13a: the Fig. 13a matrix through BatchRunner, one thread.

class Fig13a final : public Bench
{
  public:
    explicit Fig13a(std::uint64_t seed) : seed_(seed)
    {
        runner_.setShard(std::nullopt);
        runner_.setFaultInjection(std::nullopt);
        runner_.setHostPerf(false);
        // setUp() re-lists perf::addPerfMatrix's cells because that
        // function takes no seed; its cell count guards against drift.
        algos::BatchRunner matrix(1);
        matrixCells_ = perf::addPerfMatrix(matrix, kFig13aScale, false);
    }

    void
    setUp() override
    {
        const std::int64_t start = nowNs();
        cells_.clear();
        const std::size_t classicCap = 1000;
        using DatasetPtr = std::shared_ptr<const genomics::PairDataset>;
        auto add = [&](const char *algo, const DatasetPtr &dataset,
                       std::size_t maxLen, genomics::AlphabetKind alphabet) {
            for (const Variant v : {Variant::Base, Variant::Vec, Variant::Qz,
                                    Variant::QzC}) {
                Cell cell;
                cell.workload = &algos::workloadByName(algo);
                cell.source = std::make_shared<const TimedSource>(
                    std::make_unique<genomics::DatasetPairSource>(dataset),
                    pairMs_, true);
                cell.plain = std::make_shared<genomics::DatasetPairSource>(dataset);
                cell.options = perf::perfCellOptions(v, maxLen, alphabet);
                cell.algoKey = algo == std::string_view("SS") ? "ss"
                                                              : lower(algo);
                cell.variantKey = variantKey(v);
                cell.datasetKey = datasetKey(dataset->name);
                cell.label = qformat("{}/{}/{}", algo, cell.variantKey,
                                     dataset->name);
                cells_.push_back(std::move(cell));
            }
        };
        for (const auto &spec : genomics::datasetCatalog()) {
            const auto dataset = std::make_shared<const genomics::PairDataset>(
                catalogDataset(spec, kFig13aScale, seed_));
            for (const char *algo : {"WFA", "BiWFA", "SS", "SW"})
                add(algo, dataset, ~std::size_t{0},
                    genomics::AlphabetKind::Dna);
            add("NW", dataset, classicCap, genomics::AlphabetKind::Dna);
        }
        const auto protein = std::make_shared<const genomics::PairDataset>(
            proteinDataset(kFig13aScale, seed_));
        add("WFA", protein, ~std::size_t{0}, genomics::AlphabetKind::Protein);
        add("SS", protein, ~std::size_t{0}, genomics::AlphabetKind::Protein);
        generateMs_.push_back(msSince(start));
        fatal_if(cells_.size() != matrixCells_,
                 "fig13a: {} cells, but perf::addPerfMatrix queues {}",
                 cells_.size(), matrixCells_);

        // Warm-up: every cell on its first pair, cut to 1000 bases,
        // pays lazy init, page faults and host-SIMD dispatch before
        // timing starts. One cell at a time, so the host-speed kernel
        // samples the set-up between cells.
        for (const Cell &cell : cells_) {
            hostSpeed().tick();
            RunOptions options = cell.options;
            options.maxPairs = 1;
            options.maxLen = std::min<std::size_t>(options.maxLen, 1000);
            runner_.add(*cell.workload, cell.plain, options);
            fatal_if(!runner_.run().ok(), "fig13a warm-up of {} failed",
                     cell.label);
        }
        reset();
    }

    PassWork
    pass(Tracer &tracer) override
    {
        PassWork work;
        std::vector<Outcome> results;
        results.reserve(cells_.size());
        for (const Cell &cell : cells_) {
            hostSpeed().tick();
            const auto span = tracer.span("algos.cell", cell.label);
            runner_.add(*cell.workload, cell.source, cell.options);
            algos::BatchOutcome outcome = runner_.run();
            work.pairs += outcome.results.front().pairs;
            results.push_back(Outcome{std::move(outcome.results.front()),
                                      outcome.ok()});
        }
        work.requests = work.pairs;
        passes_.push_back(std::move(results));
        return work;
    }

    std::vector<Latency> latencies() const override { return pairMs_; }

    void
    reset() override
    {
        passes_.clear();
        pairMs_.clear();
    }

    Ops
    verify() override
    {
        Ops ops;
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            const Cell &cell = cells_[c];
            const auto source = cell.plain->fork();
            const Expected want = referenceRun(cell.workload->name(),
                                               *source, cell.options);
            for (const auto &pass : passes_) {
                const Outcome &got = pass[c];
                const bool ok = got.ok && want.matches(got.result) &&
                                algos::toJson(got.result) ==
                                    algos::toJson(passes_.front()[c].result);
                if (!ok)
                    warn("fig13a: cell {} failed its check", cell.label);
                ops.record(ok);
            }
        }
        return ops;
    }

    SimTotals
    sim() const override
    {
        SimTotals totals;
        if (!passes_.empty())
            for (const Outcome &o : passes_.front())
                totals.add(o.result);
        return totals;
    }

    void
    layers(const Tracer &tracer, Metrics &out) override
    {
        // Per-cell span durations, in cell order, pass by pass.
        const std::vector<double> spans = tracer.durations("algos.cell");
        const std::size_t passes = spans.size() / cells_.size();
        std::map<std::string, std::vector<double>> byKey;
        std::map<std::string, double> passSum;
        std::map<std::string, double> nsSum, instrSum, memSum;
        for (std::size_t p = 0; p < passes; ++p) {
            passSum.clear();
            for (std::size_t c = 0; c < cells_.size(); ++c) {
                const Cell &cell = cells_[c];
                const double ms = spans[p * cells_.size() + c];
                passSum["algos." + cell.algoKey + "." + cell.variantKey] += ms;
                passSum["algos." + cell.datasetKey] += ms;
                const RunResult &r = passes_.front()[c].result;
                nsSum[cell.variantKey] += ms * 1e6;
                instrSum[cell.variantKey] +=
                    static_cast<double>(r.instructions);
                memSum[cell.variantKey] += static_cast<double>(r.memRequests);
            }
            for (const auto &[key, ms] : passSum)
                byKey[key].push_back(ms);
        }
        for (const char *algo : {"wfa", "biwfa", "ss", "sw", "nw"})
            for (const char *v : {"base", "vec", "qz", "qzc"}) {
                const std::string key = qformat("algos.{}.{}", algo, v);
                out.push_back({key + ".host_ms", median(byKey[key]), "ms"});
            }
        for (const char *ds : {"100bp", "250bp", "10kbp", "30kbp", "protein"}) {
            const std::string key = qformat("algos.{}", ds);
            out.push_back({key + ".host_ms", median(byKey[key]), "ms"});
        }
        for (const char *v : {"base", "vec", "qz", "qzc"})
            out.push_back({qformat("sim.{}.ns_per_instr", v),
                           nsSum[v] / std::max(1.0, instrSum[v]), "ns"});
        out.push_back({"sim.base.ns_per_mem_req",
                       nsSum["base"] / std::max(1.0, memSum["base"]), "ns"});
        out.push_back({"genomics.generate_ms", median(generateMs_), "ms"});
    }

  private:
    struct Cell
    {
        const algos::Workload *workload = nullptr;
        std::shared_ptr<const PairSource> source; //!< timed, one pair per batch
        std::shared_ptr<const PairSource> plain;  //!< same pairs, untimed
        RunOptions options;
        std::string label, algoKey, variantKey, datasetKey;
    };
    struct Outcome
    {
        RunResult result;
        bool ok = false;
    };

    std::uint64_t seed_;
    algos::BatchRunner runner_{1};
    std::vector<Cell> cells_;
    std::size_t matrixCells_ = 0;
    std::vector<std::vector<Outcome>> passes_;
    std::vector<Latency> pairMs_; //!< per-pair latency samples
    std::vector<double> generateMs_;
};

// ---------------------------------------------------------------------
// Store helpers shared by store-stream and serve-closed.

StoreShape
storeShape()
{
    StoreShape shape;
    shape.pairs = kStorePairs;
    return shape;
}

/** Set-up timings common to the two store workloads. */
struct StoreSetup
{
    std::vector<double> writeMs;
    std::vector<double> openMs;
    std::uint64_t bytes = 0;

    /** Write the store, then open and verify it; returns the handle. */
    std::shared_ptr<const genomics::ReadStore>
    run(const std::string &path, std::uint64_t seed)
    {
        std::int64_t start = nowNs();
        bytes = writeStore(path, storeShape(), seed);
        writeMs.push_back(msSince(start));
        hostSpeed().tick();
        start = nowNs();
        auto store = genomics::ReadStore::open(path);
        openMs.push_back(msSince(start));
        return store;
    }

    void
    layers(Metrics &out) const
    {
        out.push_back({"genomics.store_write_ms", median(writeMs), "ms"});
        out.push_back({"genomics.store_open_ms", median(openMs), "ms"});
    }
};

// ---------------------------------------------------------------------
// store-stream: one QUETZAL+C SS+WFA cell streaming the whole store.

class StoreStream final : public Bench
{
  public:
    StoreStream(std::uint64_t seed, const std::string &workdir)
        : seed_(seed), path_(workdir + "/stream.qzs"),
          workload_(algos::workloadByName("SS+WFA")),
          options_(perf::perfCellOptions(Variant::QzC))
    {
    }

    void
    setUp() override
    {
        store_.reset();
        store_ = setup_.run(path_, seed_);
        genomics::StorePairSource warm(store_, 0, kStreamWarmupPairs);
        (void)workload_.runStream(warm, options_);
        reset();
    }

    PassWork
    pass(Tracer &tracer) override
    {
        const std::size_t before = chunkMs_.size();
        RunResult result;
        {
            const auto span = tracer.span("algos.ss_wfa.qzc", path_);
            TimedSource timed(
                std::make_unique<genomics::StorePairSource>(store_), chunkMs_,
                false);
            result = workload_.runStream(timed, options_);
        }
        PassWork work{result.pairs, chunkMs_.size() - before};
        results_.push_back(std::move(result));
        return work;
    }

    std::vector<Latency> latencies() const override { return chunkMs_; }

    void
    reset() override
    {
        results_.clear();
        chunkMs_.clear();
    }

    Ops
    verify() override
    {
        genomics::StorePairSource source(store_);
        const Expected want =
            referenceRun(workload_.name(), source, options_);
        Ops ops;
        for (const RunResult &r : results_) {
            const bool ok = want.matches(r) && r.pairs == store_->size() &&
                            algos::toJson(r) == algos::toJson(results_.front());
            if (!ok)
                warn("store-stream: a pass failed its check");
            ops.record(ok);
        }
        return ops;
    }

    SimTotals
    sim() const override
    {
        SimTotals totals;
        if (!results_.empty())
            totals.add(results_.front());
        return totals;
    }

    void
    layers(const Tracer &tracer, Metrics &out) override
    {
        out.push_back({"algos.ss_wfa.qzc.host_ms",
                       median(tracer.durations("algos.ss_wfa.qzc")), "ms"});
        const RunResult &r = results_.front();
        out.push_back({"algos.ss.accept_ratio",
                       static_cast<double>(r.accepted) /
                           static_cast<double>(std::max<std::uint64_t>(1, r.pairs)),
                       "ratio"});
        setup_.layers(out);

        // Decode-only pass: the store layer's share of a stream.
        genomics::StorePairSource source(store_);
        genomics::PairBatch batch;
        std::uint64_t pairs = 0, bytes = 0;
        const std::int64_t start = nowNs();
        while (source.next(batch) > 0)
            for (const auto &view : batch.views()) {
                ++pairs;
                bytes += view.pattern.size() + view.text.size();
            }
        const double ns = static_cast<double>(nowNs() - start);
        fatal_if(pairs != store_->size() || bytes == 0,
                 "store-stream: decode pass saw {} of {} pairs", pairs,
                 store_->size());
        out.push_back({"genomics.store_decode_ns_per_pair",
                       ns / static_cast<double>(pairs), "ns"});

        // Generation alone (no encode, no write) of the store's pairs.
        const StoreShape shape = storeShape();
        const std::int64_t genStart = nowNs();
        BimodalReads reads = storeReads(shape, seed_);
        std::size_t sink = 0;
        for (std::size_t i = 0; i < shape.pairs; ++i)
            sink += reads.next().pattern.size();
        out.push_back({"genomics.generate_ms", msSince(genStart), "ms"});
        fatal_if(sink == 0, "store-stream: empty generated pairs");
    }

    double
    storeMib() const override
    {
        return static_cast<double>(setup_.bytes) / (1024.0 * 1024.0);
    }

  private:
    std::uint64_t seed_;
    std::string path_;
    const algos::Workload &workload_;
    RunOptions options_;
    StoreSetup setup_;
    std::shared_ptr<const genomics::ReadStore> store_;
    std::vector<RunResult> results_;
    std::vector<Latency> chunkMs_;
};

// ---------------------------------------------------------------------
// serve-closed: a closed loop over a two-worker AlignService.

class ServeClosed final : public Bench
{
  public:
    ServeClosed(std::uint64_t seed, const std::string &workdir)
        : seed_(seed), path_(workdir + "/serve.qzs")
    {
    }

    void
    setUp() override
    {
        loop_.reset(); // reaps the previous set-up's workers
        // Open and verify like a client would, then drop the handle:
        // the workers open the store themselves, per request.
        setup_.run(path_, seed_).reset();

        std::int64_t start = nowNs();
        mix_ = std::make_unique<RequestMix>(seed_, path_, kStorePairs);
        generateMs_.push_back(msSince(start));

        start = nowNs();
        serve::ServeConfig config;
        config.workers = kServeWorkers;
        loop_ = std::make_unique<ClosedLoop>(
            config, kServeClients,
            [this](std::uint64_t i) { return mix_->request(i); },
            &RequestMix::classOf,
            [this](const LatencyBook::Sample &s,
                   const serve::ServeResponse &r) { onClose(s, r); });
        spawnMs_.push_back(msSince(start));

        // Warm-up: one full class cycle per worker.
        loop_->runBlock(10 * kServeWorkers);
        reset();
    }

    PassWork
    pass(Tracer &tracer) override
    {
        tracer_ = &tracer;
        const std::uint64_t first = loop_->submitted();
        {
            const auto span = tracer.span("serve.block");
            loop_->runBlock(kServeBlock);
        }
        tracer_ = nullptr;
        PassWork work;
        for (std::uint64_t i = first; i < loop_->submitted(); ++i)
            work.pairs += mix_->pairsOf(i);
        work.requests = loop_->submitted() - first;
        return work;
    }

    std::vector<Latency>
    latencies() const override
    {
        std::vector<Latency> out;
        for (const auto &s : samples())
            out.push_back({s.submitNs, s.ms});
        return out;
    }

    void
    reset() override
    {
        firstSample_ = loop_->book().samples().size();
        firstTimedId_ = loop_->submitted() + 1;
        simTotals_ = SimTotals{};
    }

    void
    finish() override
    {
        stats_ = loop_->stats();
        loop_->shutdown();
    }

    Ops
    verify() override
    {
        // Served results carry outputsMatch: every worker runs with
        // RunOptions::verify on, comparing each pair to the Ref model.
        return loop_->book().ops(firstSample_);
    }

    SimTotals sim() const override { return simTotals_; }

    void
    layers(const Tracer &tracer, Metrics &out) override
    {
        std::vector<double> byClass[kRequestClasses];
        for (const auto &r : tracer.records())
            if (r.name == "serve.request")
                byClass[RequestMix::classOf(r.rid - 1)].push_back(r.ms());

        std::map<std::string, std::vector<double>> kernelMs;
        for (int c = 0; c < kRequestClasses; ++c) {
            // Re-run the first timed requests of the class in-process
            // (the worker's work without pool, pipes or codec), and
            // time the codec round trip of request and response.
            std::vector<double> computeMs, codecUs;
            for (std::uint64_t i = firstTimedId_ - 1;
                 computeMs.size() < kComputeSamples; ++i) {
                if (RequestMix::classOf(i) != c)
                    continue;
                const serve::ServeRequest request = mix_->request(i);
                std::int64_t start = nowNs();
                serve::ServeResponse response;
                response.id = request.id;
                response.result = serve::runRequestInProcess(request);
                const double ms = msSince(start);
                computeMs.push_back(ms);
                if (c == kHeavy && request.dataset == request.workload)
                    kernelMs[request.workload].push_back(ms);

                start = nowNs();
                const auto reqJson = parseJson(serve::toJson(request));
                const auto back = reqJson ? serve::requestFromJson(*reqJson)
                                          : std::nullopt;
                const auto respJson = parseJson(serve::toJson(response));
                const auto backResp =
                    respJson ? serve::responseFromJson(*respJson) : std::nullopt;
                codecUs.push_back(static_cast<double>(nowNs() - start) / 1e3);
                fatal_if(!back || !backResp, "serve codec round trip failed");
            }
            const std::string prefix = qformat("serve.{}", className(c));
            const double p50 = median(byClass[c]);
            out.push_back({prefix + ".latency_p50_ms", p50, "ms"});
            out.push_back({prefix + ".compute_ms", median(computeMs), "ms"});
            out.push_back({prefix + ".overhead_ms", p50 - median(computeMs), "ms"});
            out.push_back({prefix + ".codec_us", median(codecUs), "us"});
        }
        out.push_back({"serve.spawn_ms", median(spawnMs_), "ms"});
        out.push_back({"genomics.generate_ms", median(generateMs_), "ms"});
        setup_.layers(out);
        for (const char *k : {"histogram", "spmv"})
            out.push_back({qformat("kernels.{}.host_ms", k),
                           median(kernelMs[k]), "ms"});
    }

    double
    peakRssMib() const override
    {
        return std::max(selfPeakRssMib(), rusageMib(RUSAGE_CHILDREN));
    }

    double
    storeMib() const override
    {
        return static_cast<double>(setup_.bytes) / (1024.0 * 1024.0);
    }

    std::vector<double>
    serveCounts() const override
    {
        return {static_cast<double>(stats_.errors),
                static_cast<double>(stats_.redispatches),
                static_cast<double>(stats_.respawns)};
    }

  private:
    std::vector<LatencyBook::Sample>
    samples() const
    {
        const auto &all = loop_->book().samples();
        return {all.begin() + static_cast<std::ptrdiff_t>(firstSample_),
                all.end()};
    }

    void
    onClose(const LatencyBook::Sample &s, const serve::ServeResponse &r)
    {
        hostSpeed().tick(); // before this client's next submit()
        if (tracer_)
            tracer_->interval("serve.request", className(s.requestClass),
                              s.submitNs, s.endNs, s.id);
        // The first timed block's ids are the same for every run of a
        // seed, so their simulated totals must repeat exactly.
        if (r.result && s.id >= firstTimedId_ &&
            s.id < firstTimedId_ + kServeBlock)
            simTotals_.add(*r.result);
    }

    std::uint64_t seed_;
    std::string path_;
    StoreSetup setup_;
    std::unique_ptr<RequestMix> mix_;
    std::unique_ptr<ClosedLoop> loop_;
    std::vector<double> generateMs_, spawnMs_;
    std::size_t firstSample_ = 0;
    std::uint64_t firstTimedId_ = 1;
    SimTotals simTotals_;
    serve::ServeStats stats_;
    Tracer *tracer_ = nullptr;
};

} // namespace

double
Bench::peakRssMib() const
{
    return selfPeakRssMib();
}

double
selfPeakRssMib()
{
    return rusageMib(RUSAGE_SELF);
}

const std::vector<std::string> &
benchNames()
{
    static const std::vector<std::string> names = {"fig13a", "store-stream",
                                                   "serve-closed"};
    return names;
}

std::unique_ptr<Bench>
makeBench(const std::string &name, std::uint64_t seed,
          const std::string &workdir)
{
    if (name == "fig13a")
        return std::make_unique<Fig13a>(seed);
    if (name == "store-stream")
        return std::make_unique<StoreStream>(seed, workdir);
    if (name == "serve-closed")
        return std::make_unique<ServeClosed>(seed, workdir);
    return nullptr;
}

} // namespace qzbench
