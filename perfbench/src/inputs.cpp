#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <functional>

#include "common/rng.hpp"
#include "genomics/protein.hpp"
#include "genomics/store.hpp"

namespace qzbench {

using quetzal::genomics::AlphabetKind;
using quetzal::genomics::PairDataset;
using quetzal::genomics::SequencePair;

namespace {

// serve-closed request sizes. Inline requests carry their pairs in the
// request frame; heavy requests cost roughly ten inline requests, so
// the p99 falls inside the heavy class (README.md, "serve-closed").
constexpr std::size_t kStoreRangePairs = 200;
constexpr std::size_t kInlinePairs = 48;
constexpr std::size_t kInlineLength = 250;
constexpr std::size_t kInlinePayloads = 8;
constexpr std::size_t kNwPairs = 8;
constexpr std::size_t kNwLength = 250;
constexpr std::size_t kNwPayloads = 4;
constexpr double kHistogramScale = 25.0;
constexpr double kSpmvScale = 33.0;

std::uint64_t
next(std::uint64_t &state)
{
    return quetzal::splitMix64(state);
}

std::uint64_t
below(std::uint64_t &state, std::uint64_t bound)
{
    return next(state) % bound;
}

} // namespace

std::uint64_t
subSeed(std::uint64_t seed, std::string_view name)
{
    std::uint64_t state = seed ^ std::hash<std::string_view>{}(name);
    return next(state);
}

BimodalReads::BimodalReads(std::size_t readLength, double lowRate,
                           double highRate, std::uint64_t seed,
                           AlphabetKind alphabet)
    : low_([&] {
          quetzal::genomics::ReadSimConfig config;
          config.readLength = readLength;
          config.errorRate = lowRate;
          config.alphabet = alphabet;
          config.seed = seed;
          return config;
      }()),
      high_([&] {
          quetzal::genomics::ReadSimConfig config = low_.config();
          config.errorRate = highRate;
          config.seed = subSeed(seed, "high");
          return config;
      }())
{
}

SequencePair
BimodalReads::next()
{
    auto &sim = count_++ % 2 == 0 ? low_ : high_;
    return std::move(sim.generatePairs(1).front());
}

PairDataset
catalogDataset(const quetzal::genomics::DatasetSpec &spec, double scale,
               std::uint64_t seed)
{
    PairDataset ds;
    ds.name = spec.name;
    ds.readLength = spec.readLength;
    ds.errorRate = spec.errorRate;
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(spec.defaultPairs) * scale));
    BimodalReads reads(spec.readLength, spec.errorRate, spec.highErrorRate,
                       subSeed(seed, spec.name));
    for (std::size_t i = 0; i < count; ++i)
        ds.pairs.push_back(reads.next());
    return ds;
}

PairDataset
proteinDataset(double scale, std::uint64_t seed)
{
    quetzal::genomics::ProteinFamilyConfig config;
    config.familyCount =
        std::max<std::size_t>(1, static_cast<std::size_t>(2 * scale));
    config.membersPerFamily = 4;
    config.ancestorLength = 400;
    config.seed = subSeed(seed, "protein");
    PairDataset ds;
    ds.name = "protein";
    ds.readLength = config.ancestorLength;
    ds.errorRate = config.divergence;
    ds.pairs = quetzal::genomics::proteinPairWorkload(config);
    return ds;
}

BimodalReads
storeReads(const StoreShape &shape, std::uint64_t seed)
{
    return BimodalReads(shape.readLength, shape.lowRate, shape.highRate,
                        subSeed(seed, "store"));
}

std::uint64_t
writeStore(const std::string &path, const StoreShape &shape,
           std::uint64_t seed)
{
    quetzal::genomics::StoreProvenance provenance;
    provenance.name = "stream";
    provenance.seed = seed;
    provenance.readLength = shape.readLength;
    provenance.errorRate = shape.lowRate;
    quetzal::genomics::StoreWriter writer(path, provenance);
    BimodalReads reads = storeReads(shape, seed);
    for (std::size_t i = 0; i < shape.pairs; ++i)
        writer.add(reads.next());
    writer.finish();
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return static_cast<std::uint64_t>(in.tellg());
}

const char *
className(int requestClass)
{
    switch (requestClass) {
      case kInline:
        return "inline";
      case kStore:
        return "store";
      default:
        return "heavy";
    }
}

RequestMix::RequestMix(std::uint64_t seed, std::string storePath,
                       std::size_t storePairs)
    : seed_(seed), storePath_(std::move(storePath)),
      storePairs_(storePairs)
{
    BimodalReads inlineReads(kInlineLength, 0.03, 0.12,
                             subSeed(seed, "serve-inline"));
    for (std::size_t p = 0; p < kInlinePayloads; ++p) {
        std::vector<SequencePair> pairs;
        for (std::size_t i = 0; i < kInlinePairs; ++i)
            pairs.push_back(inlineReads.next());
        inline_.push_back(std::move(pairs));
    }
    quetzal::genomics::ReadSimConfig nw;
    nw.readLength = kNwLength;
    nw.errorRate = 0.05;
    nw.seed = subSeed(seed, "serve-nw");
    quetzal::genomics::ReadSimulator nwReads(nw);
    for (std::size_t p = 0; p < kNwPayloads; ++p)
        nw_.push_back(nwReads.generatePairs(kNwPairs));
}

int
RequestMix::classOf(std::uint64_t index)
{
    // 6 store, 3 inline, 1 heavy per ten requests, interleaved.
    static constexpr int kCycle[10] = {kStore, kInline, kStore, kStore,
                                       kInline, kStore, kHeavy, kStore,
                                       kInline, kStore};
    return kCycle[index % 10];
}

quetzal::serve::ServeRequest
RequestMix::request(std::uint64_t index) const
{
    quetzal::serve::ServeRequest request;
    request.id = index + 1;
    const std::uint64_t round = index / 10;
    switch (classOf(index)) {
      case kStore: {
        std::uint64_t state = seed_ ^ (index * 0x9e3779b97f4a7c15ULL);
        const std::size_t span = storePairs_ - kStoreRangePairs;
        request.store = storePath_;
        request.storeFrom = static_cast<std::size_t>(below(state, span));
        request.storeTo = request.storeFrom + kStoreRangePairs;
        request.workload = index % 2 == 0 ? "WFA" : "SS+WFA";
        request.variant = "qzc";
        break;
      }
      case kInline:
        request.workload = index % 2 == 0 ? "WFA" : "BiWFA";
        request.variant = "vec";
        request.pairs = inline_[index % inline_.size()];
        break;
      default:
        switch (round % 3) {
          case 0:
            request.workload = "NW";
            request.variant = "base";
            request.pairs = nw_[round % nw_.size()];
            break;
          case 1:
            request.workload = "histogram";
            request.dataset = "histogram";
            request.scale = kHistogramScale;
            request.variant = "vec";
            break;
          default:
            request.workload = "spmv";
            request.dataset = "spmv";
            request.scale = kSpmvScale;
            request.variant = "vec";
            break;
        }
        break;
    }
    return request;
}

std::uint64_t
RequestMix::pairsOf(std::uint64_t index) const
{
    switch (classOf(index)) {
      case kStore:
        return kStoreRangePairs;
      case kInline:
        return kInlinePairs;
      default:
        return (index / 10) % 3 == 0 ? kNwPairs : 1;
    }
}

} // namespace qzbench
