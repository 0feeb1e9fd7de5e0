/**
 * @file
 * Seeded input generation. Everything the program receives is made
 * here from the benchmark's --seed: the same seed gives byte-identical
 * inputs, another seed gives inputs of the same shape and cost.
 */
#ifndef QZBENCH_INPUTS_HPP
#define QZBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/datasets.hpp"
#include "genomics/readsim.hpp"
#include "genomics/sequence.hpp"
#include "serve/protocol.hpp"

namespace qzbench {

/** Independent sub-seed for the stream called @p name. */
std::uint64_t subSeed(std::uint64_t seed, std::string_view name);

/**
 * Seeded bimodal read pairs from the program's read simulator: even
 * pairs come from a well-matched simulator, odd pairs from a divergent
 * one, each advancing only its own RNG — GeneratorPairSource's catalog
 * interleave, with seeds derived from the benchmark's seed.
 */
class BimodalReads
{
  public:
    BimodalReads(std::size_t readLength, double lowRate, double highRate,
                 std::uint64_t seed,
                 quetzal::genomics::AlphabetKind alphabet =
                     quetzal::genomics::AlphabetKind::Dna);

    quetzal::genomics::SequencePair next();

  private:
    quetzal::genomics::ReadSimulator low_;
    quetzal::genomics::ReadSimulator high_;
    std::size_t count_ = 0;
};

/**
 * Catalog dataset @p spec at @p scale, generated from @p seed:
 * max(1, defaultPairs * scale) BimodalReads pairs at the spec's
 * well-matched and divergent edit rates (the catalog's bimodal mix).
 */
quetzal::genomics::PairDataset
catalogDataset(const quetzal::genomics::DatasetSpec &spec, double scale,
               std::uint64_t seed);

/**
 * The Fig. 13a protein use case: perf::perfProteinDataset's shape with
 * the family seed taken from @p seed (perfProteinDataset has no seed).
 */
quetzal::genomics::PairDataset proteinDataset(double scale,
                                              std::uint64_t seed);

/** Shape of the on-disk store shared by store-stream and serve-closed. */
struct StoreShape
{
    std::size_t pairs = 0;
    std::size_t readLength = 150;
    double lowRate = 0.03;  //!< well-matched half (SS accepts)
    double highRate = 0.15; //!< divergent half (SS rejects)
};

/** The store's pairs, in write order, generated from @p seed. */
BimodalReads storeReads(const StoreShape &shape, std::uint64_t seed);

/** Write the seeded store to @p path; returns its size in bytes. */
std::uint64_t writeStore(const std::string &path, const StoreShape &shape,
                         std::uint64_t seed);

/** serve-closed request classes, in percentile order of their cost. */
enum RequestClass : int
{
    kInline = 0,
    kStore = 1,
    kHeavy = 2,
};
constexpr int kRequestClasses = 3;
const char *className(int requestClass);

/**
 * The deterministic serve-closed request mix: request @p index (0-based
 * submission order) is fully determined by (@p index, @p seed), so the
 * same seed submits the same sequence whatever the timing. Ten-slot
 * cycle: 6 store, 3 inline, 1 heavy.
 */
class RequestMix
{
  public:
    RequestMix(std::uint64_t seed, std::string storePath,
               std::size_t storePairs);

    /** Request number @p index with id @p index + 1. */
    quetzal::serve::ServeRequest request(std::uint64_t index) const;

    static int classOf(std::uint64_t index);

    /** Pairs a request of @p index simulates (for pairs/s). */
    std::uint64_t pairsOf(std::uint64_t index) const;

  private:
    std::uint64_t seed_;
    std::string storePath_;
    std::size_t storePairs_;
    /** Pre-generated inline payloads (cycled through). */
    std::vector<std::vector<quetzal::genomics::SequencePair>> inline_;
    std::vector<std::vector<quetzal::genomics::SequencePair>> nw_;
};

} // namespace qzbench

#endif // QZBENCH_INPUTS_HPP
