/**
 * @file
 * Experiment runner types: the knobs (RunOptions) and the report
 * (RunResult) of one (workload, variant, dataset) cell of the paper's
 * evaluation matrix — cycles, instruction counts, stall breakdown,
 * memory traffic, and functional agreement with the untimed
 * reference. A cell runs through its registry workload
 * (algos/workload.hpp): workloadByName(name).run(dataset, options).
 */
#ifndef QUETZAL_ALGOS_RUNNER_HPP
#define QUETZAL_ALGOS_RUNNER_HPP

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "algos/variant.hpp"
#include "algos/wfa_engine.hpp"
#include "genomics/datasets.hpp"
#include "genomics/sequence.hpp"
#include "sim/context.hpp"

namespace quetzal::algos {

/** Runner knobs. */
struct RunOptions
{
    Variant variant = Variant::Base;
    sim::SystemParams system = sim::SystemParams::baseline();
    bool traceback = true;
    std::size_t maxPairs = ~std::size_t{0};
    /** Length cap for the full-table classic DP (paper-style dataset
     *  constraint to keep simulations tractable). */
    std::size_t maxLen = ~std::size_t{0};
    genomics::AlphabetKind alphabet = genomics::AlphabetKind::Dna;
    std::int64_t ssThreshold = 0; //!< 0 derives from the dataset
    bool verify = true;           //!< compare against the Ref variant

    /**
     * Per-pair resource ceilings for the wavefront engines (zero =
     * unlimited). A breach degrades the pair to the pruned variant
     * and counts it in RunResult::degradedPairs; the Ref golden model
     * always runs unbudgeted.
     */
    ResourceBudget budget;
};

/** One cell of the evaluation matrix. */
struct RunResult
{
    std::string algo;
    std::string variant;
    std::string dataset;

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memRequests = 0; //!< demand requests to the L1
    std::uint64_t dramBytes = 0;
    std::uint64_t pairs = 0;
    std::uint64_t accepted = 0;   //!< SS: pairs passing the filter
    std::int64_t totalScore = 0;
    std::uint64_t dpCells = 0;    //!< for GCUPS accounting
    bool outputsMatch = true;     //!< bitwise agreement with Ref

    /**
     * Pairs where a resource budget forced the pruned fallback.
     * Degraded pairs are excluded from the outputsMatch comparison
     * (their score is valid but not guaranteed optimal).
     */
    std::uint64_t degradedPairs = 0;

    /**
     * Host wall-clock spent simulating this cell, in nanoseconds.
     * Recorded only when QZ_BENCH_HOSTPERF=1 (see BatchRunner) and
     * serialized ("host_ns") only when nonzero, so default reports
     * stay byte-identical across machines, thread counts, and shard
     * merges — host timing is observability, never a simulated metric.
     */
    std::uint64_t hostNanos = 0;

    /** Simulated instructions per host second (0 when untimed). */
    double
    hostInstructionRate() const
    {
        return hostNanos == 0
                   ? 0.0
                   : static_cast<double>(instructions) * 1e9 /
                         static_cast<double>(hostNanos);
    }

    /** Simulated memory accesses per host second (0 when untimed). */
    double
    hostAccessRate() const
    {
        return hostNanos == 0
                   ? 0.0
                   : static_cast<double>(memRequests) * 1e9 /
                         static_cast<double>(hostNanos);
    }

    /** Stall cycles, indexed by sim::StallKind. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(sim::StallKind::NumKinds)>
        stalls{};

    /** Stall cycles attributed to @p kind. */
    std::uint64_t
    stallCycles(sim::StallKind kind) const
    {
        return stalls[static_cast<std::size_t>(kind)];
    }

    sim::CoreDemand
    demand() const
    {
        return sim::CoreDemand{cycles, dramBytes};
    }

    /** Fraction of cycles attributed to cache accesses. */
    double
    cacheFraction() const
    {
        return cycles == 0
                   ? 0.0
                   : static_cast<double>(
                         stallCycles(sim::StallKind::Cache)) /
                         static_cast<double>(cycles);
    }
};

/**
 * Replace the text of every second pair with an unrelated window so
 * the SneakySnake filter has something to reject (SS+WFA pipeline
 * workload).
 */
genomics::PairDataset
mixWithDecoys(const genomics::PairDataset &dataset);

/**
 * Speedup of @p test over @p baseline in simulated cycles.
 *
 * A zero-cycle test run has no defined speedup; returning 0.0 here
 * used to masquerade as "infinitely slow", so the undefined case now
 * yields NaN, which the bench tables render as "n/a"
 * (TextTable::num).
 */
inline double
speedup(const RunResult &baseline, const RunResult &test)
{
    return test.cycles == 0
               ? std::numeric_limits<double>::quiet_NaN()
               : static_cast<double>(baseline.cycles) /
                     static_cast<double>(test.cycles);
}

} // namespace quetzal::algos

#endif // QUETZAL_ALGOS_RUNNER_HPP
