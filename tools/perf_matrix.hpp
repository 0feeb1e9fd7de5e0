/**
 * @file
 * The evaluation matrix the host-performance tooling sweeps, shared by
 * the qz-perf harness, the Fig. 13a bench binary
 * (bench/bench_fig13a_singlecore.cpp), the golden-metrics regression
 * test (tests/test_golden.cpp), and the CI perf-smoke job so all of
 * them agree on exactly which cells are measured. It is also the one
 * definition of a bench cell's options (perfCellOptions) and of the
 * protein use-case dataset.
 *
 * Two sizes:
 *  - full: the Fig. 13a single-core matrix (every Table II dataset x
 *    {WFA, BiWFA, SneakySnake, SWG, NW} x {BASE, VEC, QUETZAL,
 *    QUETZAL+C}, plus the protein use case) — the sweep the host
 *    wall-clock speedup claims are measured on;
 *  - tiny: a fixed 12-cell short-read subset at a pinned scale, small
 *    enough for unit tests and CI, whose simulated metrics are
 *    snapshotted in tests/data/golden_cells.json.
 *
 * Deliberately self-contained on long-stable APIs (registry BatchRunner
 * add(), RunOptions, dataset catalog) so the same file can be built
 * against older revisions when baselining a host-side optimization.
 */
#ifndef QUETZAL_TOOLS_PERF_MATRIX_HPP
#define QUETZAL_TOOLS_PERF_MATRIX_HPP

#include <memory>
#include <string_view>
#include <vector>

#include "algos/batch.hpp"
#include "algos/workload.hpp"
#include "genomics/datasets.hpp"
#include "genomics/protein.hpp"

namespace quetzal::perf {

/** Pinned scale of the tiny matrix (golden metrics depend on it). */
constexpr double kTinyScale = 0.1;

/** NW's length cap in Fig. 13a (full-table DP; the paper likewise
 *  constrained datasets for simulation time). */
constexpr std::size_t kClassicCap = 1000;

/** The variants every Fig. 13a row sweeps, in cell order. */
constexpr algos::Variant kFig13aVariants[] = {
    algos::Variant::Base, algos::Variant::Vec, algos::Variant::Qz,
    algos::Variant::QzC};

/** Bench cell options: no verification, QUETZAL hw as needed. */
inline algos::RunOptions
perfCellOptions(algos::Variant variant,
                std::size_t maxLen = ~std::size_t{0},
                genomics::AlphabetKind alphabet =
                    genomics::AlphabetKind::Dna,
                unsigned qzPorts = 8)
{
    algos::RunOptions options;
    options.variant = variant;
    options.maxLen = maxLen;
    options.alphabet = alphabet;
    options.verify = false; // the test suite covers correctness
    if (algos::needsQuetzal(variant))
        options.system = sim::SystemParams::withQuetzal(qzPorts);
    return options;
}

/** The protein use case (use case 4, BAliBase-style families). */
inline genomics::PairDataset
perfProteinDataset(double scale)
{
    genomics::ProteinFamilyConfig config;
    config.familyCount =
        std::max<std::size_t>(1, static_cast<std::size_t>(2 * scale));
    config.membersPerFamily = 4;
    config.ancestorLength = 400;
    genomics::PairDataset ds;
    ds.name = "protein";
    ds.readLength = config.ancestorLength;
    ds.errorRate = config.divergence;
    ds.pairs = genomics::proteinPairWorkload(config);
    return ds;
}

/** One Fig. 13a row: a workload on a dataset, over kFig13aVariants. */
struct Fig13aRow
{
    std::string_view workload; //!< registry name
    std::shared_ptr<const genomics::PairDataset> dataset;
    std::size_t maxLen;
    genomics::AlphabetKind alphabet;
};

/** The Fig. 13a rows at @p scale, in cell order. */
inline std::vector<Fig13aRow>
fig13aRows(double scale)
{
    constexpr std::size_t uncapped = ~std::size_t{0};
    const auto dna = genomics::AlphabetKind::Dna;
    std::vector<Fig13aRow> rows;
    for (const auto &spec : genomics::datasetCatalog()) {
        const auto ds = std::make_shared<const genomics::PairDataset>(
            genomics::makeDataset(spec.name, scale));
        for (const char *name : {"WFA", "BiWFA", "SS", "SW"})
            rows.push_back({name, ds, uncapped, dna});
        rows.push_back({"NW", ds, kClassicCap, dna});
    }
    const auto protein = std::make_shared<const genomics::PairDataset>(
        perfProteinDataset(scale));
    for (const char *name : {"WFA", "SS"})
        rows.push_back(
            {name, protein, uncapped, genomics::AlphabetKind::Protein});
    return rows;
}

/**
 * Queue the host-performance evaluation matrix on @p runner.
 * @param scale dataset scale for the full matrix (the tiny matrix is
 *              pinned at kTinyScale regardless, so its golden metrics
 *              never depend on caller configuration).
 * @param tiny  queue the 12-cell golden subset instead of Fig. 13a.
 * @return the number of cells queued.
 */
inline std::size_t
addPerfMatrix(algos::BatchRunner &runner, double scale, bool tiny)
{
    using algos::Variant;

    std::size_t cells = 0;
    if (tiny) {
        for (const char *dataset : {"100bp_1", "250bp_1"}) {
            const auto ds = std::make_shared<const genomics::PairDataset>(
                genomics::makeDataset(dataset, kTinyScale));
            for (const char *name : {"WFA", "SS"}) {
                for (const Variant variant :
                     {Variant::Base, Variant::Vec, Variant::QzC}) {
                    runner.add(algos::workloadByName(name), ds,
                               perfCellOptions(variant));
                    ++cells;
                }
            }
        }
        return cells;
    }

    for (const Fig13aRow &row : fig13aRows(scale)) {
        const algos::Workload &workload =
            algos::workloadByName(row.workload);
        for (const Variant variant : kFig13aVariants) {
            runner.add(workload, row.dataset,
                       perfCellOptions(variant, row.maxLen,
                                       row.alphabet));
            ++cells;
        }
    }
    return cells;
}

/**
 * Queue the Fig. 15b kernel-workload cells (histogram and SpMV, every
 * registered variant) at kTinyScale, pinning the ISA-layer paths the
 * genomics matrix exercises only lightly (scatter-heavy histogram
 * updates, gather-heavy SpMV rows). Snapshotted in
 * tests/data/golden_kernels.json alongside the genomics tiny matrix.
 * @return the number of cells queued.
 */
inline std::size_t
addKernelMatrix(algos::BatchRunner &runner)
{
    std::size_t cells = 0;
    for (const char *name : {"histogram", "spmv"}) {
        const algos::Workload &workload = algos::workloadByName(name);
        const auto ds = std::make_shared<const genomics::PairDataset>(
            workload.makeDataset(name, kTinyScale));
        for (const algos::Variant variant : workload.variants()) {
            runner.add(workload, ds, perfCellOptions(variant));
            ++cells;
        }
    }
    return cells;
}

} // namespace quetzal::perf

#endif // QUETZAL_TOOLS_PERF_MATRIX_HPP
