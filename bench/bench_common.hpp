/**
 * @file
 * Shared plumbing for the per-figure/per-table bench binaries.
 *
 * Each binary regenerates one table or figure of the paper: it builds
 * the workload, queues the relevant (algorithm, variant, dataset)
 * cells on the batch engine, and prints the same rows/series the
 * paper reports.
 *
 * Environment knobs (an unset or empty variable takes its default):
 *  - QZ_BENCH_SCALE   dataset scale (default 1.0; 0.2 quick, 4 long)
 *  - QZ_BENCH_THREADS harness workers (default hardware_concurrency)
 *  - QZ_BENCH_JSON    dump the RunResult rows as JSON: a path, or "-"
 *                     for stdout after the table
 *  - QZ_BENCH_CHECKPOINT  append completed cells to this file and skip
 *                     cells already in it on restart (resumable sweeps)
 *  - QZ_FAULT_INJECT  deterministic fault injection, CELL:KIND[:TIMES]
 *                     (docs/ROBUSTNESS.md)
 *  - QZ_BENCH_SHARD   run as shard K/N of a multi-process sweep: only
 *                     cells with index % N == K-1 execute, and the
 *                     JSON report carries their global indices so
 *                     qz-merge can reassemble the unsharded output
 *                     byte-identically (docs/SIMULATOR.md)
 *  - QZ_BENCH_LIST    =1: print every registered workload with its
 *                     variants/datasets and exit
 *  - QZ_BENCH_HOSTPERF =1: record host wall-clock per cell into the
 *                     JSON report ("host_ns" on each result). Off by
 *                     default so reports stay byte-identical across
 *                     machines and serial/parallel/sharded runs
 *                     (docs/SIMULATOR.md, "Host performance")
 *
 * QZ_BENCH_SCALE and QZ_BENCH_THREADS are parsed strictly: the whole
 * value must be a finite number > 0 (a positive integer for threads),
 * so "abc", "2x", "0", "-1" or "inf" is a fatal() naming the variable
 * and the value. A malformed QZ_BENCH_SHARD is fatal too. Every bench
 * main() runs under guardedMain() (common/logging.hpp), so a fatal()
 * exits 1 and a panic() exits 2, each after its single
 * "fatal:"/"panic:" line, never an abort.
 */
#ifndef QUETZAL_BENCH_BENCH_COMMON_HPP
#define QUETZAL_BENCH_BENCH_COMMON_HPP

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "../tools/perf_matrix.hpp"
#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/runner.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/threadpool.hpp"
#include "genomics/datasets.hpp"

namespace quetzal::bench {

/**
 * The value of environment variable @p name as a finite number > 0
 * (a whole one that fits an unsigned when @p integral), or
 * @p fallback when it is unset or empty. Anything else, including
 * trailing garbage, is a fatal() naming the variable and the value.
 */
inline double
envNumber(const char *name, double fallback, bool integral)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(env, &end);
    const bool ok =
        end != env && *end == '\0' && std::isfinite(value) &&
        value > 0 &&
        (!integral ||
         (value == std::floor(value) &&
          value <= std::numeric_limits<unsigned>::max()));
    fatal_if(!ok, "{}='{}' is not a positive {}", name, env,
             integral ? "integer" : "number");
    return value;
}

/** Dataset scale factor from QZ_BENCH_SCALE (default 1.0). */
inline double
benchScale()
{
    return envNumber("QZ_BENCH_SCALE", 1.0, false);
}

/** Harness worker count from QZ_BENCH_THREADS (default: all cores). */
inline unsigned
benchThreads()
{
    return static_cast<unsigned>(envNumber(
        "QZ_BENCH_THREADS", ThreadPool::hardwareThreads(), true));
}

/** Print the experiment banner with the Table I system summary. */
inline void
banner(const std::string &title)
{
    if (const char *env = std::getenv("QZ_BENCH_LIST"); env && *env &&
                                                        std::string_view(env) != "0") {
        std::cout << algos::workloadListing();
        std::exit(0);
    }
    // Parse the knobs before printing so a bad value leaves no
    // half-written banner behind.
    const double scale = benchScale();
    const unsigned threads = benchThreads();
    std::cout << "==================================================\n"
              << title << "\n"
              << "Simulated system (Table I): 2.0 GHz A64FX-like, "
                 "512-bit SVE,\n"
              << "  L1D 64KB/8w lt=4, L2 8MB/16w lt=37, HBM2; "
                 "QUETZAL 2x8KB QBUFFERs\n"
              << "Dataset scale: " << scale
              << " (QZ_BENCH_SCALE), harness threads: " << threads
              << " (QZ_BENCH_THREADS)\n"
              << "==================================================\n";
}

/** Shared-ownership dataset handle for batch cells. */
using DatasetPtr = std::shared_ptr<const genomics::PairDataset>;

/** Materialize a catalog dataset behind a shared handle. */
inline DatasetPtr
makeDatasetPtr(std::string_view name, double scale = benchScale())
{
    return std::make_shared<const genomics::PairDataset>(
        genomics::makeDataset(name, scale));
}

/**
 * The bench binaries' front end to algos::BatchRunner: queue every
 * cell of the figure first, then run() once across QZ_BENCH_THREADS
 * workers and read results back by the indices add() returned.
 * Results are deterministic and bitwise identical to a serial run.
 */
class CellBatch
{
  public:
    CellBatch() : runner_(benchThreads())
    {
        if (const char *env = std::getenv("QZ_BENCH_CHECKPOINT");
            env && *env)
            runner_.setCheckpoint(env);
    }

    /**
     * Queue a cell of the registry workload named @p workload with
     * perf::perfCellOptions(); @return its index into results().
     */
    std::size_t
    add(std::string_view workload, DatasetPtr dataset,
        algos::Variant variant, std::size_t maxLen = ~std::size_t{0},
        genomics::AlphabetKind alphabet = genomics::AlphabetKind::Dna,
        unsigned qzPorts = 8)
    {
        return add(workload, std::move(dataset),
                   perf::perfCellOptions(variant, maxLen, alphabet,
                                         qzPorts));
    }

    /** Queue a cell with fully custom options. */
    std::size_t
    add(std::string_view workload, DatasetPtr dataset,
        const algos::RunOptions &options)
    {
        return runner_.add(algos::workloadByName(workload),
                           std::move(dataset), options);
    }

    /** Run all queued cells; callable once per fill. */
    void
    run()
    {
        outcome_ = runner_.run();
        if (outcome_.shard)
            std::cout << "shard " << algos::shardName(*outcome_.shard)
                      << ": ran " << outcome_.ownedCells.size()
                      << " of " << outcome_.results.size()
                      << " cell(s)\n";
        if (outcome_.resumedCells > 0)
            std::cout << "resumed " << outcome_.resumedCells
                      << " cell(s) from checkpoint\n";
        for (const auto &failure : outcome_.failures)
            warn("cell {} [{}] failed after {} attempt(s): {} ({})",
                 failure.cell, failure.key, failure.attempts,
                 failure.message,
                 algos::failureKindName(failure.kind));
    }

    /**
     * Result slot for a cell. A failed cell's slot holds zeroed
     * metrics; tables render it as a zero row (check outcome()).
     */
    const algos::RunResult &
    operator[](std::size_t index) const
    {
        return outcome_.results.at(index);
    }

    const std::vector<algos::RunResult> &results() const
    {
        return outcome_.results;
    }

    const algos::BatchOutcome &outcome() const { return outcome_; }

  private:
    algos::BatchRunner runner_;
    algos::BatchOutcome outcome_;
};

/**
 * Machine-readable results emission: when QZ_BENCH_JSON is set, dump
 * the sweep's BenchReport JSON to that path ("-" = stdout). Called by
 * each bench binary after its human-readable table. Sharded runs emit
 * only the owned cells plus their global indices; qz-merge reassembles
 * the shard files into output byte-identical to an unsharded run
 * (both paths share the algos::toJson(BenchReport) serializer).
 */
inline void
maybeWriteJson(const std::string &benchName,
               const algos::BatchOutcome &outcome)
{
    const char *env = std::getenv("QZ_BENCH_JSON");
    if (!env || !*env)
        return;
    const algos::BenchReport report = algos::makeBenchReport(
        benchName, benchScale(), benchThreads(), outcome);
    const std::string json = algos::toJson(report);
    if (std::string_view(env) == "-") {
        std::cout << json << "\n";
        return;
    }
    std::ofstream out(env);
    if (!out) {
        warn("cannot open QZ_BENCH_JSON path '{}' for writing", env);
        return;
    }
    out << json << "\n";
    std::cout << "wrote JSON results to " << env << "\n";
}

} // namespace quetzal::bench

#endif // QUETZAL_BENCH_BENCH_COMMON_HPP
