/**
 * @file
 * Golden-metrics regression: the tiny perf-matrix sweep's BenchReport
 * JSON must be byte-identical to the snapshot in tests/data/ —
 * pinning every simulated metric (cycles, instructions, requests,
 * DRAM bytes, scores, stall breakdowns) against drift from host-side
 * optimization work. Host wall-clock fields are excluded by
 * construction: they are only serialized when recorded, and this
 * sweep never records them.
 *
 * Regenerate deliberately with QZ_UPDATE_GOLDEN=1 after a change that
 * is *supposed* to alter simulated behavior, and say why in the PR.
 *
 * Also pins the two Fig. 13a bar pairs that are identical by
 * construction (EXPERIMENTS.md): BiWFA = WFA on short reads, and SW
 * QUETZAL / QUETZAL+C = SW VEC while SwgParams::qbufferRows is off.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/swg.hpp"
#include "../tools/perf_matrix.hpp"

namespace quetzal {
namespace {

std::string
goldenPath(const char *file)
{
    return std::string(QZ_TESTS_DATA_DIR) + "/" + file;
}

/** A runner whose report bytes cannot depend on ambient QZ_* config. */
algos::BatchRunner
pinnedRunner()
{
    algos::BatchRunner runner(1);
    runner.setShard(std::nullopt);
    runner.setFaultInjection(std::nullopt);
    runner.setHostPerf(false);
    return runner;
}

/** The exact bytes `qz-perf --tiny --metrics` writes (sans newline). */
std::string
tinyMatrixReportJson()
{
    algos::BatchRunner runner = pinnedRunner();
    const std::size_t cells =
        perf::addPerfMatrix(runner, perf::kTinyScale, /*tiny=*/true);
    EXPECT_EQ(cells, 12u);
    const algos::BatchOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.ok());
    return algos::toJson(algos::makeBenchReport(
        "qz-perf", perf::kTinyScale, 1, outcome));
}

/** The exact bytes `qz-perf --kernels --metrics` writes. */
std::string
kernelMatrixReportJson()
{
    algos::BatchRunner runner = pinnedRunner();
    const std::size_t cells = perf::addKernelMatrix(runner);
    EXPECT_EQ(cells, 6u);
    const algos::BatchOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.ok());
    return algos::toJson(algos::makeBenchReport(
        "qz-perf", perf::kTinyScale, 1, outcome));
}

/** Byte-compare @p json against the snapshot file @p file. */
void
expectMatchesGolden(const std::string &json, const char *file)
{
    const std::string path = goldenPath(file);
    if (const char *update = std::getenv("QZ_UPDATE_GOLDEN");
        update && *update && std::string_view(update) != "0") {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << json << "\n";
        GTEST_SKIP() << "golden snapshot regenerated at " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden snapshot " << path
                    << " (generate with QZ_UPDATE_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), json + "\n")
        << "simulated metrics drifted from tests/data/" << file
        << "; if the change is intentional, regenerate with "
           "QZ_UPDATE_GOLDEN=1 and explain why";
}

TEST(GoldenMetrics, TinyMatrixIsByteIdenticalToSnapshot)
{
    expectMatchesGolden(tinyMatrixReportJson(), "golden_cells.json");
}

TEST(GoldenMetrics, KernelMatrixIsByteIdenticalToSnapshot)
{
    // Histogram (scatter-heavy) and SpMV (gather-heavy) pin the
    // Fig. 15b ISA-layer paths the genomics matrix exercises lightly.
    expectMatchesGolden(kernelMatrixReportJson(),
                        "golden_kernels.json");
}

/**
 * The Fig. 13a cells of the rows named @p algos on the short-read
 * datasets, every variant, at a small scale, keyed
 * "algo/variant/dataset".
 */
std::map<std::string, algos::RunResult>
shortReadCells(std::initializer_list<std::string_view> algos)
{
    algos::BatchRunner runner = pinnedRunner();
    for (const perf::Fig13aRow &row : perf::fig13aRows(0.05)) {
        if (std::find(algos.begin(), algos.end(), row.workload) ==
            algos.end())
            continue;
        if (row.alphabet != genomics::AlphabetKind::Dna ||
            genomics::datasetSpec(row.dataset->name).longRead)
            continue;
        for (const algos::Variant variant : perf::kFig13aVariants)
            runner.add(algos::workloadByName(row.workload), row.dataset,
                       perf::perfCellOptions(variant, row.maxLen,
                                             row.alphabet));
    }
    const algos::BatchOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.ok());
    std::map<std::string, algos::RunResult> cells;
    for (const algos::RunResult &r : outcome.results)
        cells[r.algo + "/" + r.variant + "/" + r.dataset] = r;
    return cells;
}

/** Every simulated metric of @p a equals @p b's. */
void
expectSameSimulation(const algos::RunResult &a, const algos::RunResult &b)
{
    const std::string what = a.algo + " " + a.variant + " vs " + b.algo +
                             " " + b.variant + " on " + a.dataset;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.memRequests, b.memRequests) << what;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << what;
    EXPECT_EQ(a.stalls, b.stalls) << what;
}

TEST(Fig13aIdentities, BiWfaEqualsWfaOnShortReads)
{
    // Short reads never reach BiWFA's recursion (its leaf threshold
    // falls back to plain WFA), so these bars equal WFA's by
    // construction — not a measured result.
    const auto cells = shortReadCells({"WFA", "BiWFA"});
    std::size_t compared = 0;
    for (const auto &[key, cell] : cells) {
        if (cell.algo != "BiWFA")
            continue;
        expectSameSimulation(
            cell, cells.at("WFA/" + cell.variant + "/" + cell.dataset));
        ++compared;
    }
    EXPECT_EQ(compared, 8u); // 2 short-read sets x 4 variants
}

TEST(Fig13aIdentities, SwQuetzalEqualsVecWithoutQbufferRows)
{
    // swgAlign hands the QUETZAL unit to the vector fill only with
    // SwgParams::qbufferRows, which the Fig. 13a cells leave off; the
    // QUETZAL and QUETZAL+C bars then rerun the VEC fill, whatever
    // the dataset (the short-read sets keep this test quick).
    ASSERT_FALSE(algos::SwgParams{}.qbufferRows);
    const auto cells = shortReadCells({"SW"});
    std::size_t compared = 0;
    for (const auto &[key, cell] : cells) {
        if (cell.variant != "QUETZAL" && cell.variant != "QUETZAL+C")
            continue;
        expectSameSimulation(cell, cells.at("SW/VEC/" + cell.dataset));
        ++compared;
    }
    EXPECT_EQ(compared, 4u); // 2 short-read sets x 2 variants
}

TEST(GoldenMetrics, HostTimingStaysOutOfDefaultReports)
{
    // The serializer must keep wall-clock out of untimed results (the
    // byte-identity above, CI's shard-merge diff, and checkpoint
    // replay all depend on it) and include it once recorded.
    algos::RunResult result;
    result.algo = "WFA";
    result.variant = "BASE";
    result.dataset = "d";
    EXPECT_EQ(algos::toJson(result).find("host_ns"),
              std::string::npos);
    result.hostNanos = 123456789;
    const std::string timed = algos::toJson(result);
    EXPECT_NE(timed.find("\"host_ns\":123456789"), std::string::npos);
    // And it round-trips through the checkpoint parser.
    const auto parsed = parseJson(timed);
    ASSERT_TRUE(parsed.has_value());
    const auto back = algos::runResultFromJson(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->hostNanos, 123456789u);
    EXPECT_NEAR(back->hostInstructionRate(), 0.0, 1e-12);
}

TEST(GoldenMetrics, HostRatesDeriveFromNanos)
{
    algos::RunResult result;
    result.instructions = 2'000'000;
    result.memRequests = 500'000;
    EXPECT_EQ(result.hostInstructionRate(), 0.0);
    EXPECT_EQ(result.hostAccessRate(), 0.0);
    result.hostNanos = 1'000'000'000; // one second
    EXPECT_DOUBLE_EQ(result.hostInstructionRate(), 2e6);
    EXPECT_DOUBLE_EQ(result.hostAccessRate(), 5e5);
}

} // namespace
} // namespace quetzal
