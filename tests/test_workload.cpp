/**
 * @file
 * Unit tests for the workload registry and the sharded sweep path:
 * name round-trips, kind mapping, kernel cells flowing through the
 * batch engine, round-robin shard partitioning, and the qz-merge
 * guarantee that three merged shard reports serialize byte-identical
 * to the unsharded run — including with an injected fault.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "common/json.hpp"

namespace quetzal {
namespace {

using algos::Variant;

/** The kernel cells of Fig. 15b at test scale, verification on. */
std::vector<algos::BatchCell>
kernelCells(double scale)
{
    std::vector<algos::BatchCell> cells;
    for (const char *name : {"histogram", "spmv"}) {
        const algos::Workload &workload = algos::workloadByName(name);
        const auto ds = std::make_shared<const genomics::PairDataset>(
            workload.makeDataset(name, scale));
        for (Variant v : workload.variants()) {
            algos::RunOptions options;
            options.variant = v;
            options.verify = true;
            if (algos::needsQuetzal(v))
                options.system = sim::SystemParams::withQuetzal();
            cells.emplace_back(workload, ds, options);
        }
    }
    return cells;
}

/** Run @p cells as shard @p k of @p n on @p threads workers. */
algos::BatchOutcome
runShard(const std::vector<algos::BatchCell> &cells, unsigned threads,
         std::optional<algos::ShardSpec> shard,
         std::optional<algos::FaultInjection> inject = std::nullopt)
{
    algos::BatchRunner runner(threads);
    runner.setShard(shard);
    runner.setFaultInjection(inject);
    for (const auto &cell : cells)
        runner.add(cell);
    return runner.run();
}

TEST(WorkloadRegistry, EveryRegisteredNameRoundTrips)
{
    const auto all = algos::WorkloadRegistry::instance().all();
    EXPECT_GE(all.size(), 8u); // 6 genomics algorithms + 2 kernels
    for (const algos::Workload *workload : all) {
        EXPECT_EQ(&algos::workloadByName(workload->name()), workload)
            << workload->name();
        // Lookup is case-insensitive after the exact pass.
        std::string upper(workload->name());
        for (char &c : upper)
            c = static_cast<char>(std::toupper(
                static_cast<unsigned char>(c)));
        EXPECT_EQ(&algos::workloadByName(upper), workload) << upper;
    }
}

TEST(WorkloadRegistry, UnknownNameListsValidNames)
{
    try {
        algos::workloadByName("no-such-workload");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("no-such-workload"), std::string::npos);
        EXPECT_NE(message.find("valid names"), std::string::npos);
        // The diagnostic names the actual catalog.
        EXPECT_NE(message.find("WFA"), std::string::npos);
        EXPECT_NE(message.find("histogram"), std::string::npos);
        EXPECT_NE(message.find("spmv"), std::string::npos);
    }
}

TEST(WorkloadRegistry, ListingMentionsEveryWorkload)
{
    const std::string listing = algos::workloadListing();
    for (const algos::Workload *workload :
         algos::WorkloadRegistry::instance().all())
        EXPECT_NE(listing.find(std::string(workload->name())),
                  std::string::npos)
            << workload->name();
}

TEST(WorkloadRegistry, KernelsDeclareNoCountVariant)
{
    for (const char *name : {"histogram", "spmv"}) {
        const algos::Workload &workload = algos::workloadByName(name);
        EXPECT_TRUE(workload.supports(Variant::Base));
        EXPECT_TRUE(workload.supports(Variant::Vec));
        EXPECT_TRUE(workload.supports(Variant::Qz));
        EXPECT_FALSE(workload.supports(Variant::QzC));
    }
}

TEST(KernelWorkloads, BatchCellsMatchSerialBitwise)
{
    const auto cells = kernelCells(0.02);
    const auto serial = runShard(cells, 1, std::nullopt);
    const auto parallel = runShard(cells, 4, std::nullopt);
    EXPECT_TRUE(serial.ok());
    EXPECT_TRUE(parallel.ok());
    ASSERT_EQ(serial.results.size(), cells.size());
    ASSERT_EQ(parallel.results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &s = serial.results[i];
        const auto &p = parallel.results[i];
        EXPECT_GT(s.cycles, 0u) << "cell " << i;
        EXPECT_TRUE(s.outputsMatch) << "cell " << i;
        EXPECT_EQ(algos::toJson(s), algos::toJson(p)) << "cell " << i;
    }
}

TEST(ShardSpec, ParsesAndRejects)
{
    const auto shard = algos::parseShardSpec("2/3");
    ASSERT_TRUE(shard.has_value());
    EXPECT_EQ(shard->index, 2u);
    EXPECT_EQ(shard->count, 3u);
    EXPECT_EQ(algos::shardName(*shard), "2/3");
    EXPECT_FALSE(algos::parseShardSpec("").has_value());
    EXPECT_THROW(algos::parseShardSpec("0/3"), FatalError);
    EXPECT_THROW(algos::parseShardSpec("4/3"), FatalError);
    EXPECT_THROW(algos::parseShardSpec("a/3"), FatalError);
    EXPECT_THROW(algos::parseShardSpec("1/0"), FatalError);
    EXPECT_THROW(algos::parseShardSpec("1"), FatalError);
}

TEST(ShardSpec, RoundRobinOwnership)
{
    algos::ShardSpec shard;
    shard.index = 2;
    shard.count = 3;
    std::vector<std::size_t> owned;
    for (std::size_t i = 0; i < 8; ++i)
        if (shard.owns(i))
            owned.push_back(i);
    EXPECT_EQ(owned, (std::vector<std::size_t>{1, 4, 7}));
}

TEST(ShardedSweep, OwnedCellsPartitionTheMatrix)
{
    const auto cells = kernelCells(0.01);
    ASSERT_EQ(cells.size(), 6u);
    std::vector<char> covered(cells.size(), 0);
    for (unsigned k = 1; k <= 3; ++k) {
        const auto outcome = runShard(
            cells, 2, algos::ShardSpec{k, 3});
        ASSERT_TRUE(outcome.shard.has_value());
        EXPECT_EQ(outcome.shard->index, k);
        EXPECT_EQ(outcome.results.size(), cells.size());
        for (const std::size_t cell : outcome.ownedCells) {
            EXPECT_EQ(cell % 3, k - 1) << "shard " << k;
            EXPECT_FALSE(covered[cell]);
            covered[cell] = 1;
            EXPECT_GT(outcome.results[cell].cycles, 0u);
        }
        // Unowned slots keep their identity with zeroed metrics.
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (outcome.shard->owns(i))
                continue;
            EXPECT_EQ(outcome.results[i].cycles, 0u);
            EXPECT_EQ(outcome.results[i].algo,
                      cells[i].workload->name());
        }
    }
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_TRUE(covered[i]) << "cell " << i;
}

/** Merge three shard runs of @p cells and compare against unsharded. */
void
expectMergeByteIdentical(
    const std::vector<algos::BatchCell> &cells,
    std::optional<algos::FaultInjection> inject)
{
    const auto unsharded =
        runShard(cells, 2, std::nullopt, inject);
    const std::string expected = algos::toJson(algos::makeBenchReport(
        "merge_test", 0.02, 2, unsharded));

    // In-memory merge of the three shard reports.
    std::vector<algos::BenchReport> shardReports;
    for (unsigned k = 1; k <= 3; ++k) {
        const auto outcome =
            runShard(cells, 2, algos::ShardSpec{k, 3}, inject);
        shardReports.push_back(algos::makeBenchReport(
            "merge_test", 0.02, 2, outcome));
    }

    // Full JSON-text round trip, the same path qz-merge takes:
    // serialize each shard, parse it back, merge, serialize.
    std::vector<algos::BenchReport> parsed;
    for (const auto &report : shardReports) {
        const auto json = parseJson(algos::toJson(report));
        ASSERT_TRUE(json.has_value());
        auto back = algos::benchReportFromJson(*json);
        ASSERT_TRUE(back.has_value());
        parsed.push_back(std::move(*back));
    }

    EXPECT_EQ(algos::toJson(algos::mergeShardReports(
                  std::move(shardReports))),
              expected);
    EXPECT_EQ(
        algos::toJson(algos::mergeShardReports(std::move(parsed))),
        expected);
}

TEST(ShardedSweep, MergedReportIsByteIdenticalToUnsharded)
{
    expectMergeByteIdentical(kernelCells(0.02), std::nullopt);
}

TEST(ShardedSweep, MergedReportIsByteIdenticalWithInjectedFault)
{
    // Cell 1 fails fatally; the injection spec is global, so in the
    // sharded run it fires in exactly the shard owning cell 1 and the
    // failure record (with its global index) survives the merge.
    algos::FaultInjection inject;
    inject.cell = 1;
    inject.kind = algos::FailureKind::Fatal;
    inject.times = 1;
    expectMergeByteIdentical(kernelCells(0.02), inject);
}

TEST(ShardedSweep, MergeRejectsBadInputs)
{
    EXPECT_THROW(algos::mergeShardReports({}), FatalError);

    algos::BenchReport unsharded;
    unsharded.bench = "x";
    EXPECT_THROW(algos::mergeShardReports({unsharded}), FatalError);

    // Two shards of a 3-way split: incomplete.
    const auto cells = kernelCells(0.01);
    std::vector<algos::BenchReport> partial;
    for (unsigned k = 1; k <= 2; ++k)
        partial.push_back(algos::makeBenchReport(
            "x", 1.0, 1,
            runShard(cells, 1, algos::ShardSpec{k, 3})));
    EXPECT_THROW(algos::mergeShardReports(partial), FatalError);

    // Mismatched bench names across shards.
    std::vector<algos::BenchReport> mismatched;
    for (unsigned k = 1; k <= 3; ++k)
        mismatched.push_back(algos::makeBenchReport(
            k == 2 ? "other" : "x", 1.0, 1,
            runShard(cells, 1, algos::ShardSpec{k, 3})));
    EXPECT_THROW(algos::mergeShardReports(mismatched), FatalError);
}

} // namespace
} // namespace quetzal
