/**
 * @file
 * Unit tests for the thread pool and the parallel batch experiment
 * engine: task completion, exception propagation, deterministic
 * submission-order results, and field-by-field equality between a
 * multi-threaded batch and the equivalent serial run.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "algos/batch.hpp"
#include "common/threadpool.hpp"
#include "genomics/readsim.hpp"

namespace quetzal {
namespace {

std::shared_ptr<const genomics::PairDataset>
tinyDataset(std::size_t length, double errorRate, std::size_t count,
            std::uint64_t seed)
{
    genomics::ReadSimConfig config;
    config.readLength = length;
    config.errorRate = errorRate;
    config.seed = seed;
    genomics::ReadSimulator sim(config);
    auto ds = std::make_shared<genomics::PairDataset>();
    ds->name = "tiny";
    ds->readLength = length;
    ds->errorRate = errorRate;
    ds->pairs = sim.generatePairs(count);
    return ds;
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    std::atomic<int> counter{0};
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossRounds)
{
    std::atomic<int> counter{0};
    ThreadPool pool(2);
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter] { ++counter; });
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, WaitRethrowsFirstWorkerException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("worker boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error was observed; the pool is usable again.
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(37);
        parallelFor(threads, hits.size(),
                    [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads
                                         << " index=" << i;
    }
}

TEST(ThreadPool, ParallelForSerialPathRunsInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(1, 5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(BatchRunner, RejectsCellsWithoutDataset)
{
    algos::BatchRunner batch(2);
    EXPECT_THROW(batch.add(algos::BatchCell{}), FatalError);
}

TEST(BatchRunner, ResultsLandAtSubmissionIndices)
{
    const auto ds = tinyDataset(120, 0.05, 2, 21);
    algos::BatchRunner batch(4);
    algos::RunOptions options;
    const std::vector<std::string> names = {"WFA", "SS", "NW", "BiWFA"};
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(batch.add(algos::workloadByName(names[i]), ds, options),
                  i);
    EXPECT_EQ(batch.size(), names.size());

    const auto outcome = batch.run();
    EXPECT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(outcome.results[i].algo, names[i]) << "slot " << i;
    // run() clears the queue for reuse.
    EXPECT_EQ(batch.size(), 0u);
}

TEST(BatchRunner, ParallelRunMatchesSerialFieldByField)
{
    const auto ds = tinyDataset(150, 0.05, 3, 42);
    std::vector<algos::BatchCell> cells;
    for (const char *name : {"WFA", "SS", "SW"}) {
        for (algos::Variant v :
             {algos::Variant::Base, algos::Variant::Vec,
              algos::Variant::QzC}) {
            algos::RunOptions options;
            options.variant = v;
            cells.push_back({algos::workloadByName(name), ds, options});
        }
    }

    const auto serial = algos::runBatch(cells, 1);
    const auto parallel = algos::runBatch(cells, 4);
    EXPECT_TRUE(serial.ok());
    EXPECT_TRUE(parallel.ok());
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const auto &s = serial.results[i];
        const auto &p = parallel.results[i];
        EXPECT_EQ(s.algo, p.algo) << "cell " << i;
        EXPECT_EQ(s.variant, p.variant) << "cell " << i;
        EXPECT_EQ(s.cycles, p.cycles) << "cell " << i;
        EXPECT_EQ(s.instructions, p.instructions) << "cell " << i;
        EXPECT_EQ(s.memRequests, p.memRequests) << "cell " << i;
        EXPECT_EQ(s.totalScore, p.totalScore) << "cell " << i;
        EXPECT_EQ(s.accepted, p.accepted) << "cell " << i;
        EXPECT_EQ(s.dpCells, p.dpCells) << "cell " << i;
        EXPECT_EQ(s.outputsMatch, p.outputsMatch) << "cell " << i;
        EXPECT_EQ(s.degradedPairs, p.degradedPairs) << "cell " << i;
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(sim::StallKind::NumKinds);
             ++k)
            EXPECT_EQ(s.stalls[k], p.stalls[k])
                << "cell " << i << " stall " << k;
    }
}

TEST(BatchRunner, WorkerFatalBecomesFailureRecord)
{
    const auto ds = tinyDataset(80, 0.05, 1, 7);
    algos::BatchRunner batch(2);
    algos::RunOptions bad;
    bad.variant = algos::Variant::Ref; // Workload::run rejects Ref
    algos::RunOptions good;
    const algos::Workload &wfa = algos::workloadByName("WFA");
    batch.add(wfa, ds, bad);
    batch.add(wfa, ds, good);

    const auto outcome = batch.run();
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].cell, 0u);
    EXPECT_EQ(outcome.failures[0].kind, algos::FailureKind::Fatal);
    EXPECT_EQ(outcome.failures[0].attempts, 1u);
    EXPECT_NE(outcome.failureFor(0), nullptr);
    EXPECT_EQ(outcome.failureFor(1), nullptr);
    // The healthy cell still produced a full result.
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_GT(outcome.results[1].cycles, 0u);
    // The failed slot keeps its identity with zeroed metrics.
    EXPECT_EQ(outcome.results[0].algo, "WFA");
    EXPECT_EQ(outcome.results[0].cycles, 0u);
}

TEST(BatchRunner, FailFastModeRethrowsWorkerFatal)
{
    const auto ds = tinyDataset(80, 0.05, 1, 7);
    algos::BatchRunner batch(2);
    batch.policy().isolateFailures = false;
    algos::RunOptions bad;
    bad.variant = algos::Variant::Ref;
    batch.add(algos::workloadByName("WFA"), ds, bad);
    EXPECT_THROW(batch.run(), FatalError);
}

TEST(ThreadPool, CountsExceptionsDroppedAfterTheFirst)
{
    ThreadPool pool(2);
    for (int i = 0; i < 5; ++i)
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // One rethrew; the other four were dropped but counted.
    EXPECT_EQ(pool.droppedExceptionTotal(), 4u);
}

TEST(Metrics, SpeedupOfZeroCycleRunIsNaN)
{
    algos::RunResult ref, test;
    ref.cycles = 100;
    test.cycles = 0;
    EXPECT_TRUE(std::isnan(algos::speedup(ref, test)));
    test.cycles = 50;
    EXPECT_DOUBLE_EQ(algos::speedup(ref, test), 2.0);
}

TEST(Metrics, CacheFractionIndexesCacheStall)
{
    algos::RunResult r;
    r.cycles = 100;
    r.stalls[static_cast<std::size_t>(sim::StallKind::Frontend)] = 5;
    r.stalls[static_cast<std::size_t>(sim::StallKind::Cache)] = 40;
    EXPECT_DOUBLE_EQ(r.cacheFraction(), 0.4);
    EXPECT_EQ(r.stallCycles(sim::StallKind::Frontend), 5u);
}

} // namespace
} // namespace quetzal
