/**
 * @file
 * Unit tests of the benchmark's own bookkeeping: the percentile rule,
 * closed-loop latency accounting over a real (fork-mode) AlignService,
 * failure counting under crash injection, seeded input generation and
 * the Ref-model correctness check. Run with `run.py --selftest`.
 */
#include <gtest/gtest.h>

#include <set>

#include "algos/workload.hpp"
#include "closedloop.hpp"
#include "hostspeed.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace qzbench {
namespace {

using quetzal::serve::ResponseStatus;
using quetzal::serve::ServeConfig;
using quetzal::serve::ServeRequest;
using quetzal::serve::ServeResponse;

TEST(PercentileRule, LeavesTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_TRUE(resolves(1000, 99.0));
    EXPECT_FALSE(resolves(999, 99.0));
    EXPECT_EQ(samplesToResolve(99.0), 1000u);
    EXPECT_EQ(samplesToResolve(50.0), 20u);
    EXPECT_FALSE(highestResolvedPercentile(19));
    EXPECT_EQ(*highestResolvedPercentile(20), 50.0);
    EXPECT_EQ(*highestResolvedPercentile(100), 90.0);
    EXPECT_EQ(*highestResolvedPercentile(1000), 99.0);
    EXPECT_EQ(*highestResolvedPercentile(9999), 99.0);
    EXPECT_EQ(*highestResolvedPercentile(10000), 99.9);
}

TEST(PercentileRule, NearestRankAndMedian)
{
    std::vector<double> sorted;
    for (int i = 1; i <= 1000; ++i)
        sorted.push_back(i);
    EXPECT_EQ(percentileOf(sorted, 50.0), 500.0);
    EXPECT_EQ(percentileOf(sorted, 99.0), 990.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

ServeResponse
response(std::uint64_t id, ResponseStatus status, unsigned attempts,
         bool match = true)
{
    ServeResponse r;
    r.id = id;
    r.status = status;
    r.attempts = attempts;
    if (status == ResponseStatus::Ok) {
        r.result.emplace();
        r.result->outputsMatch = match;
    }
    return r;
}

TEST(LatencyBook, ClosesEachIdOnceAndCountsFailures)
{
    LatencyBook book;
    EXPECT_TRUE(book.open(1, kStore, 0, 1'000'000));
    EXPECT_TRUE(book.open(2, kInline, 1, 2'000'000));
    EXPECT_TRUE(book.open(3, kHeavy, 0, 3'000'000));
    EXPECT_TRUE(book.open(4, kStore, 1, 4'000'000));
    EXPECT_FALSE(book.open(4, kStore, 1, 5'000'000)); // id reuse

    const auto first = book.close(response(1, ResponseStatus::Ok, 1), 6'000'000);
    ASSERT_TRUE(first);
    EXPECT_DOUBLE_EQ(first->ms, 5.0);
    EXPECT_EQ(first->requestClass, kStore);
    EXPECT_TRUE(first->ok);
    EXPECT_FALSE(book.close(response(1, ResponseStatus::Ok, 1), 7'000'000));
    EXPECT_FALSE(book.close(response(9, ResponseStatus::Ok, 1), 7'000'000));

    // Re-dispatched then served: retried, not failed.
    EXPECT_TRUE(book.close(response(2, ResponseStatus::Ok, 2), 8'000'000)->ok);
    // Terminal error and wrong output: both failed.
    EXPECT_FALSE(book.close(response(3, ResponseStatus::Error, 2), 9'000'000)->ok);
    EXPECT_FALSE(
        book.close(response(4, ResponseStatus::Ok, 1, false), 9'000'000)->ok);

    EXPECT_EQ(book.inFlight(), 0u);
    EXPECT_EQ(book.ops().attempted, 4u);
    EXPECT_EQ(book.ops().failed, 2u);
    EXPECT_EQ(book.ops().retried, 2u);
    // A window of the samples: what verify() reports for timed passes.
    EXPECT_EQ(book.ops(2).attempted, 2u);
    EXPECT_EQ(book.ops(2).failed, 2u);
    EXPECT_EQ(book.ops(2).retried, 1u);
    ASSERT_EQ(book.samples().size(), 4u);
    EXPECT_DOUBLE_EQ(book.samples()[1].ms, 6.0);
}

/** Small inline WFA requests: cheap enough for a unit test. */
ServeRequest
smallRequest(std::uint64_t index)
{
    quetzal::genomics::ReadSimConfig config;
    config.readLength = 60;
    config.errorRate = 0.05;
    config.seed = 42 + index;
    ServeRequest request;
    request.id = index + 1;
    request.workload = "WFA";
    request.variant = "vec";
    request.pairs = quetzal::genomics::ReadSimulator(config).generatePairs(3);
    return request;
}

int
classOfIndex(std::uint64_t index)
{
    return static_cast<int>(index % kRequestClasses);
}

TEST(ClosedLoop, SubmitFromTheSinkServesEveryRequestOnce)
{
    ServeConfig config;
    config.workers = 2;
    std::set<std::uint64_t> ids;
    ClosedLoop loop(config, 2, smallRequest, classOfIndex,
                    [&](const LatencyBook::Sample &s, const ServeResponse &) {
                        EXPECT_TRUE(ids.insert(s.id).second);
                        EXPECT_GT(s.endNs, s.submitNs);
                    });
    loop.runBlock(20);
    loop.runBlock(10); // continues the id sequence
    loop.shutdown();

    EXPECT_EQ(loop.submitted(), 30u);
    EXPECT_EQ(ids.size(), 30u);
    EXPECT_EQ(*ids.begin(), 1u);
    EXPECT_EQ(*ids.rbegin(), 30u);
    EXPECT_EQ(loop.book().inFlight(), 0u);
    EXPECT_EQ(loop.book().ops().attempted, 30u);
    EXPECT_EQ(loop.book().ops().failed, 0u);
    EXPECT_EQ(loop.book().ops(20).attempted, 10u);
    EXPECT_EQ(loop.stats().served, 30u);
}

TEST(ClosedLoop, RefusalInsideSubmitIsAnsweredThroughTheSink)
{
    // queueBound 0 refuses every submit(); the refusal reaches the sink
    // from inside submit(), which re-enters submitNext(). The book must
    // already hold each request, and the block must still end.
    ServeConfig config;
    config.workers = 1;
    config.queueBound = 0;
    ClosedLoop loop(config, 1, smallRequest, classOfIndex);
    loop.runBlock(5);
    loop.shutdown();
    EXPECT_EQ(loop.book().inFlight(), 0u);
    EXPECT_EQ(loop.book().ops().attempted, 5u);
    EXPECT_EQ(loop.book().ops().failed, 5u);
    EXPECT_EQ(loop.stats().shed, 5u);
}

TEST(ClosedLoop, CrashRedispatchCountsAsRetriedNotFailed)
{
    ServeConfig config;
    config.workers = 2;
    quetzal::algos::FaultInjection crash;
    crash.cell = 3; // request id 3 kills its worker on the first delivery
    crash.action = quetzal::algos::FaultAction::Crash;
    crash.times = 1;
    config.inject = crash;
    ClosedLoop loop(config, 2, smallRequest, classOfIndex);
    loop.runBlock(8);
    loop.shutdown();
    EXPECT_EQ(loop.book().ops().attempted, 8u);
    EXPECT_EQ(loop.book().ops().failed, 0u);
    EXPECT_EQ(loop.book().ops().retried, 1u);
    EXPECT_EQ(loop.stats().redispatches, 1u);
    EXPECT_EQ(loop.stats().respawns, 1u);
}

TEST(ClosedLoop, CrashWithoutRedispatchBudgetFails)
{
    ServeConfig config;
    config.workers = 1;
    config.maxDispatchAttempts = 1;
    quetzal::algos::FaultInjection crash;
    crash.cell = 2;
    crash.action = quetzal::algos::FaultAction::Crash;
    config.inject = crash;
    ClosedLoop loop(config, 1, smallRequest, classOfIndex);
    loop.runBlock(4);
    loop.shutdown();
    EXPECT_EQ(loop.book().ops().attempted, 4u);
    EXPECT_EQ(loop.book().ops().failed, 1u);
    EXPECT_EQ(loop.book().ops().retried, 0u);
    EXPECT_EQ(loop.stats().errors, 1u);
}

TEST(Inputs, SeededBimodalReadSimulatorPairs)
{
    const auto &spec = quetzal::genomics::datasetSpec("100bp_1");
    const auto d1 = catalogDataset(spec, 0.1, 5);
    const auto d2 = catalogDataset(spec, 0.1, 5);
    const auto d3 = catalogDataset(spec, 0.1, 6);
    ASSERT_EQ(d1.pairs.size(), 40u);
    ASSERT_EQ(d2.pairs.size(), 40u);
    std::int64_t lowEdits = 0, highEdits = 0;
    for (std::size_t i = 0; i < d1.pairs.size(); ++i) {
        EXPECT_EQ(d1.pairs[i].text, d2.pairs[i].text);
        EXPECT_EQ(d1.pairs[i].pattern, d2.pairs[i].pattern);
        EXPECT_EQ(d1.pairs[i].text.size(), spec.readLength);
        (i % 2 == 0 ? lowEdits : highEdits) += d1.pairs[i].trueEdits;
    }
    EXPECT_NE(d1.pairs[0].text, d3.pairs[0].text);
    // Even pairs at the well-matched rate, odd at the divergent one.
    EXPECT_LT(lowEdits, highEdits);
}

TEST(HostSpeed, ScalesByTheSamplesInTheWindow)
{
    HostSpeed speed;
    EXPECT_EQ(speed.scaleOver(0, 1), 1.0);
    const std::int64_t t0 = nowNs();
    speed.sample();
    const std::int64_t t1 = nowNs();
    speed.sample();
    const std::int64_t t2 = nowNs();
    speed.tick(); // within kIntervalNs of the last sample: no sample
    ASSERT_EQ(speed.samples(), 2u);
    const double first = speed.scaleOver(t0, t1);
    const double second = speed.scaleOver(t1 + 1, t2);
    EXPECT_GT(first, 0.0);
    EXPECT_GT(second, 0.0);
    // Both samples: the median of two is their mean kernel time.
    EXPECT_DOUBLE_EQ(1.0 / speed.scaleOver(t0, t2),
                     0.5 * (1.0 / first + 1.0 / second));
    // No sample inside: the closest one.
    EXPECT_EQ(speed.scaleOver(t2 + 1, t2 + 2), second);
    EXPECT_EQ(speed.scaleOver(t0 - 2, t0 - 1), first);
}

TEST(Percentile, OverPassesAveragesResolvedPassesElsePools)
{
    // Two passes of 1000 samples each resolve p99 (ten beyond it):
    // the mean of their own p99s.
    std::vector<double> fast(1000, 1.0), slow(1000, 3.0);
    fast.back() = 100.0;
    EXPECT_DOUBLE_EQ(percentileOverPasses({fast, slow}, 99.0), 2.0);
    // Pooled, the slow pass alone would decide the rank.
    std::vector<double> pooled(fast);
    pooled.insert(pooled.end(), slow.begin(), slow.end());
    std::sort(pooled.begin(), pooled.end());
    EXPECT_DOUBLE_EQ(percentileOf(pooled, 99.0), 3.0);
    // A pass too short to resolve p99 on its own: pooled.
    const std::vector<double> shortPass(10, 2.0);
    EXPECT_DOUBLE_EQ(percentileOverPasses({fast, shortPass}, 99.0), 2.0);
    EXPECT_DOUBLE_EQ(percentileOverPasses({}, 99.0), 0.0);
}

TEST(Reference, MatchesTheVerifiedRun)
{
    const auto &spec = quetzal::genomics::datasetSpec("100bp_1");
    const auto dataset = catalogDataset(spec, 0.05, 3);
    for (const char *name : {"WFA", "SS", "NW", "SS+WFA"}) {
        quetzal::algos::RunOptions options;
        options.variant = quetzal::algos::Variant::Vec;
        const auto got =
            quetzal::algos::workloadByName(name).run(dataset, options);
        ASSERT_TRUE(got.outputsMatch) << name;
        quetzal::genomics::DatasetPairSource source(dataset);
        EXPECT_TRUE(referenceRun(name, source, options).matches(got)) << name;
    }
}

} // namespace
} // namespace qzbench
