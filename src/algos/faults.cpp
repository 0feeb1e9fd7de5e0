#include "algos/faults.hpp"

#include <bit>
#include <cstdlib>

#include "common/logging.hpp"
#include "genomics/pairsource.hpp"

namespace quetzal::algos {

std::string_view
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Fatal:
        return "fatal";
      case FailureKind::Panic:
        return "panic";
      case FailureKind::Transient:
        return "transient";
      case FailureKind::Resource:
        return "resource";
      case FailureKind::Unknown:
        return "unknown";
    }
    return "?";
}

std::optional<FailureKind>
failureKindFromName(std::string_view name)
{
    for (FailureKind kind :
         {FailureKind::Fatal, FailureKind::Panic, FailureKind::Transient,
          FailureKind::Resource, FailureKind::Unknown})
        if (name == failureKindName(kind))
            return kind;
    return std::nullopt;
}

FailureKind
classifyException(std::exception_ptr error)
{
    if (!error)
        return FailureKind::Unknown;
    try {
        std::rethrow_exception(error);
    } catch (const TransientError &) {
        return FailureKind::Transient;
    } catch (const ResourceError &) {
        // Before FatalError: ResourceError derives from it.
        return FailureKind::Resource;
    } catch (const FatalError &) {
        return FailureKind::Fatal;
    } catch (const PanicError &) {
        return FailureKind::Panic;
    } catch (...) {
        return FailureKind::Unknown;
    }
}

std::string
exceptionMessage(std::exception_ptr error)
{
    if (!error)
        return "(no exception)";
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "(non-standard exception)";
    }
}

std::string_view
faultActionName(FaultAction action)
{
    switch (action) {
      case FaultAction::Throw:
        return "throw";
      case FaultAction::Crash:
        return "crash";
      case FaultAction::Hang:
        return "hang";
    }
    return "?";
}

std::optional<FaultInjection>
parseFaultSpec(std::string_view spec)
{
    if (spec.empty())
        return std::nullopt;

    auto nextField = [&spec]() -> std::string_view {
        const std::size_t colon = spec.find(':');
        std::string_view field = spec.substr(0, colon);
        spec = colon == std::string_view::npos
                   ? std::string_view{}
                   : spec.substr(colon + 1);
        return field;
    };

    const std::string cellField(nextField());
    const std::string kindField(nextField());
    const std::string timesField(nextField());
    fatal_if(!spec.empty(),
             "fault spec has trailing fields after ':{}' "
             "(want CELL:KIND[:TIMES])",
             timesField);

    char *end = nullptr;
    const unsigned long long cell =
        std::strtoull(cellField.c_str(), &end, 10);
    fatal_if(cellField.empty() || *end != '\0',
             "fault spec cell '{}' is not a non-negative integer",
             cellField);

    // "crash" and "hang" are worker-process-level kinds: they pick a
    // FaultAction rather than an exception type. The FailureKind they
    // carry is what the service reports when recovery is exhausted
    // (Panic for repeated deaths, Resource for repeated timeouts).
    FaultAction action = FaultAction::Throw;
    std::optional<FailureKind> kind;
    if (kindField == "crash") {
        action = FaultAction::Crash;
        kind = FailureKind::Panic;
    } else if (kindField == "hang") {
        action = FaultAction::Hang;
        kind = FailureKind::Resource;
    } else {
        kind = failureKindFromName(kindField);
    }
    fatal_if(!kind,
             "fault spec kind '{}' unknown (want "
             "fatal|panic|transient|resource|unknown|crash|hang)",
             kindField);

    unsigned long long times = 1;
    if (!timesField.empty()) {
        times = std::strtoull(timesField.c_str(), &end, 10);
        fatal_if(*end != '\0' || times == 0,
                 "fault spec times '{}' is not a positive integer",
                 timesField);
    }

    FaultInjection inject;
    inject.cell = static_cast<std::size_t>(cell);
    inject.kind = *kind;
    inject.times = static_cast<unsigned>(times);
    inject.action = action;
    return inject;
}

std::optional<FaultInjection>
faultInjectionFromEnv()
{
    const char *env = std::getenv("QZ_FAULT_INJECT");
    if (!env || !*env)
        return std::nullopt;
    return parseFaultSpec(env);
}

void
throwInjectedFault(const FaultInjection &inject)
{
    const std::string msg =
        qformat("injected {} fault (cell {})",
                failureKindName(inject.kind), inject.cell);
    switch (inject.kind) {
      case FailureKind::Fatal:
        throw FatalError(msg);
      case FailureKind::Panic:
        throw PanicError(msg);
      case FailureKind::Transient:
        throw TransientError(msg);
      case FailureKind::Resource:
        throw ResourceError(msg);
      case FailureKind::Unknown:
        throw std::runtime_error(msg);
    }
    throw std::runtime_error(msg); // unreachable
}

namespace {

/** FNV-1a 64-bit streaming hasher. */
class Fnv
{
  public:
    void
    mix(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (byte * 8)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    mix(std::string_view text)
    {
        mix(static_cast<std::uint64_t>(text.size()));
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
    }

    void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
mixSystem(Fnv &fnv, const sim::SystemParams &sys)
{
    fnv.mix(sys.clockGhz);
    fnv.mix(std::uint64_t{sys.cores});
    for (const auto *cache : {&sys.l1d, &sys.l2}) {
        fnv.mix(cache->sizeBytes);
        fnv.mix(std::uint64_t{cache->associativity});
        fnv.mix(std::uint64_t{cache->lineBytes});
        fnv.mix(std::uint64_t{cache->loadToUse});
    }
    fnv.mix(std::uint64_t{sys.prefetcher.enabled});
    fnv.mix(std::uint64_t{sys.prefetcher.tableEntries});
    fnv.mix(std::uint64_t{sys.prefetcher.degree});
    fnv.mix(std::uint64_t{sys.prefetcher.trainThreshold});
    fnv.mix(std::uint64_t{sys.dram.latencyCycles});
    fnv.mix(sys.dram.peakBytesPerCycle);
    const auto &core = sys.core;
    for (const unsigned field :
         {core.issueWidth, core.vectorPipes, core.scalarPipes,
          core.agus, core.robEntries, core.lsqEntries, core.vlenBits,
          core.scalarAluLatency, core.vectorAluLatency,
          core.vectorCmpLatency, core.predOpLatency,
          core.reduceLatency, core.branchLatency,
          core.gatherMinLatency})
        fnv.mix(std::uint64_t{field});
    fnv.mix(std::uint64_t{sys.quetzal.present});
    fnv.mix(std::uint64_t{sys.quetzal.readPorts});
    fnv.mix(sys.quetzal.bufferBytes);
    fnv.mix(std::uint64_t{sys.quetzal.banks});
}

std::string
hexDigest(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

/**
 * Shared key builder: the dataset and PairSource overloads must stay
 * byte-identical (checkpoints interoperate across intake modes), so
 * both delegate here.
 */
std::string
cellKeyImpl(std::string_view workload, std::string_view dataset,
            std::size_t pairCount,
            const std::vector<std::pair<std::string, std::uint64_t>>
                &params,
            const RunOptions &options)
{
    std::string key = qformat(
        "{}/{}/{}#pairs={};maxPairs={};maxLen={};alphabet={};"
        "ssThreshold={};traceback={};verify={};budget={},{},{}",
        workload, variantName(options.variant), dataset, pairCount,
        options.maxPairs, options.maxLen,
        genomics::name(options.alphabet), options.ssThreshold,
        options.traceback ? 1 : 0, options.verify ? 1 : 0,
        options.budget.maxWaveBytes, options.budget.maxSteps,
        options.budget.fallbackLag);
    if (!params.empty()) {
        key += ";params=";
        bool first = true;
        for (const auto &[name, value] : params) {
            key += qformat(first ? "{}:{}" : ",{}:{}", name, value);
            first = false;
        }
    }
    return key;
}

} // namespace

std::string
cellKey(std::string_view workload, const genomics::PairDataset &dataset,
        const RunOptions &options)
{
    return cellKeyImpl(workload, dataset.name, dataset.pairs.size(),
                       dataset.params, options);
}

std::string
cellKey(std::string_view workload,
        const genomics::PairSource &source, const RunOptions &options)
{
    const genomics::SourceInfo &info = source.info();
    return cellKeyImpl(workload, info.name, source.size(),
                       info.params, options);
}

std::string
cellHash(std::string_view workload, const genomics::PairDataset &dataset,
         const RunOptions &options)
{
    Fnv fnv;
    fnv.mix(cellKey(workload, dataset, options));
    // Dataset content: the key only names it, but resumed results are
    // only valid when the actual pairs are unchanged too. (Kernel
    // datasets carry no pairs; their content is fully determined by
    // the params already in the key.)
    fnv.mix(dataset.readLength);
    fnv.mix(dataset.errorRate);
    for (const auto &pair : dataset.pairs) {
        fnv.mix(pair.pattern);
        fnv.mix(pair.text);
        fnv.mix(static_cast<std::uint64_t>(pair.trueEdits));
    }
    mixSystem(fnv, options.system);
    return hexDigest(fnv.value());
}

std::string
cellHash(std::string_view workload,
         const genomics::PairSource &source, const RunOptions &options)
{
    Fnv fnv;
    fnv.mix(cellKey(workload, source, options));
    // Same mixing order as the dataset overload, but the pairs are
    // streamed through the digest at bounded memory.
    const genomics::SourceInfo &info = source.info();
    fnv.mix(info.readLength);
    fnv.mix(info.errorRate);
    auto cursor = source.fork();
    genomics::PairBatch batch;
    while (cursor->next(batch) > 0)
        for (const genomics::PairView &pair : batch.views()) {
            fnv.mix(pair.pattern);
            fnv.mix(pair.text);
            fnv.mix(static_cast<std::uint64_t>(pair.trueEdits));
        }
    mixSystem(fnv, options.system);
    return hexDigest(fnv.value());
}

} // namespace quetzal::algos
