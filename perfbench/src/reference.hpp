/**
 * @file
 * Ref-variant ground truth for the benchmark's correctness check: the
 * untimed golden models run over the same pairs a timed cell saw, with
 * the same length cap and filter threshold. Runs outside every timed
 * region.
 */
#ifndef QZBENCH_REFERENCE_HPP
#define QZBENCH_REFERENCE_HPP

#include <cstdint>
#include <string_view>

#include "algos/runner.hpp"
#include "genomics/pairsource.hpp"

namespace qzbench {

/** The outputs a cell's RunResult must reproduce. */
struct Expected
{
    std::int64_t totalScore = 0;
    std::uint64_t accepted = 0; //!< SneakySnake / SS+WFA only
    std::uint64_t pairs = 0;

    bool
    matches(const quetzal::algos::RunResult &result) const
    {
        return result.totalScore == totalScore &&
               result.accepted == accepted && result.pairs == pairs;
    }
};

/**
 * Ref-variant totals of workload @p workload ("WFA", "BiWFA", "SS",
 * "NW", "SW" or "SS+WFA") over every pair of @p source under
 * @p options (maxLen, ssThreshold).
 */
Expected referenceRun(std::string_view workload,
                      quetzal::genomics::PairSource &source,
                      const quetzal::algos::RunOptions &options);

} // namespace qzbench

#endif // QZBENCH_REFERENCE_HPP
