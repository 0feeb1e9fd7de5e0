/**
 * @file
 * Classic-DP tests: NW full-table optimality against brute force, SWG
 * banded-affine internal consistency, traceback validity, and
 * bit-identical results across timed variants.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <optional>

#include "algos/nw.hpp"
#include "algos/runner.hpp"
#include "algos/workload.hpp"
#include "algos/swg.hpp"
#include "common/rng.hpp"
#include "genomics/datasets.hpp"
#include "genomics/readsim.hpp"
#include "quetzal/qzunit.hpp"
#include "sim/context.hpp"

namespace quetzal::algos {
namespace {

std::int64_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::int64_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = static_cast<std::int64_t>(j);
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = static_cast<std::int64_t>(i);
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::int64_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

TEST(NwRef, MatchesBruteForce)
{
    Rng rng(404);
    for (int trial = 0; trial < 40; ++trial) {
        std::string a, b;
        const auto la = 1 + rng.below(50), lb = 1 + rng.below(50);
        for (std::size_t i = 0; i < la; ++i)
            a += "ACGT"[rng.below(4)];
        for (std::size_t i = 0; i < lb; ++i)
            b += "ACGT"[rng.below(4)];
        const AlignResult got = nwAlign(Variant::Ref, a, b);
        ASSERT_EQ(got.score, editDistance(a, b)) << a << "/" << b;
        ASSERT_TRUE(validateCigar(a, b, got.cigar));
        ASSERT_EQ(got.cigar.edits(), got.score);
    }
}

TEST(NwRef, EmptySidesAndIdentical)
{
    EXPECT_EQ(nwAlign(Variant::Ref, "", "ACG").score, 3);
    EXPECT_EQ(nwAlign(Variant::Ref, "ACG", "").score, 3);
    const AlignResult same = nwAlign(Variant::Ref, "ACGT", "ACGT");
    EXPECT_EQ(same.score, 0);
    EXPECT_EQ(same.cigar.ops, "MMMM");
}

class NwVariants : public ::testing::TestWithParam<Variant>
{
};

TEST_P(NwVariants, BitIdenticalToReference)
{
    const Variant variant = GetParam();
    sim::SimContext ctx(needsQuetzal(variant)
                            ? sim::SystemParams::withQuetzal()
                            : sim::SystemParams::baseline());
    isa::VectorUnit vpu(ctx.pipeline());
    std::optional<accel::QzUnit> qz;
    if (needsQuetzal(variant))
        qz.emplace(vpu, ctx.params().quetzal);

    genomics::ReadSimConfig config;
    config.readLength = 90;
    config.errorRate = 0.08;
    config.seed = 1;
    genomics::ReadSimulator sim(config);
    for (const auto &pair : sim.generatePairs(5)) {
        const AlignResult got =
            nwAlign(variant, pair.pattern, pair.text, &vpu,
                    qz ? &*qz : nullptr);
        const AlignResult want =
            nwAlign(Variant::Ref, pair.pattern, pair.text);
        ASSERT_EQ(got.score, want.score);
        ASSERT_EQ(got.cigar.ops, want.cigar.ops);
    }
    EXPECT_GT(ctx.pipeline().instructions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, NwVariants,
                         ::testing::Values(Variant::Base, Variant::Vec,
                                           Variant::Qz),
                         [](const auto &info) {
                             std::string name(variantName(info.param));
                             for (auto &c : name)
                                 if (c == '+')
                                     c = 'C';
                             return name;
                         });

TEST(SwgRef, PerfectMatchScoresMatchTimesLength)
{
    const std::string seq(100, 'A');
    const SwgResult r = swgAlign(Variant::Ref, seq, seq);
    EXPECT_EQ(r.score, 200); // 100 matches x (+2)
    EXPECT_EQ(r.cigar.ops, std::string(100, 'M'));
}

TEST(SwgRef, SingleMismatchCosts6)
{
    std::string a(50, 'A'), b = a;
    b[20] = 'C';
    const SwgResult r = swgAlign(Variant::Ref, a, b);
    // 49 matches (+98) + 1 mismatch (-4) = 94 ... unless a gap pair
    // is cheaper; with open 4 / extend 2 a mismatch (-4 vs +2 = -6
    // swing) beats two gaps.
    EXPECT_EQ(r.score, 94);
    EXPECT_TRUE(validateCigar(a, b, r.cigar));
}

TEST(SwgRef, SingleDeletionUsesGap)
{
    std::string a = "ACGTACGTACGTACGTACGT";
    std::string b = a;
    b.erase(10, 1); // pattern has one extra residue
    const SwgResult r = swgAlign(Variant::Ref, a, b);
    EXPECT_EQ(r.score, 19 * 2 - (4 + 2));
    EXPECT_TRUE(validateCigar(a, b, r.cigar));
    EXPECT_NE(r.cigar.ops.find('D'), std::string::npos);
}

TEST(SwgRef, GapExtensionCheaperThanReopen)
{
    std::string a = "AAAACCCCGGGGTTTTAAAA";
    std::string b = a;
    b.erase(8, 3); // 3-residue deletion
    const SwgResult r = swgAlign(Variant::Ref, a, b);
    EXPECT_EQ(r.score, 17 * 2 - (4 + 3 * 2));
    EXPECT_TRUE(validateCigar(a, b, r.cigar));
}

TEST(SwgRef, EmptyInputs)
{
    const SwgResult r = swgAlign(Variant::Ref, "", "ACG");
    EXPECT_EQ(r.score, -(4 + 3 * 2));
    EXPECT_EQ(r.cigar.ops, "III");
}

TEST(SwgRef, TracebackValidOnSimulatedReads)
{
    genomics::ReadSimConfig config;
    config.readLength = 400;
    config.errorRate = 0.04;
    config.seed = 17;
    genomics::ReadSimulator sim(config);
    for (const auto &pair : sim.generatePairs(6)) {
        const SwgResult r =
            swgAlign(Variant::Ref, pair.pattern, pair.text);
        ASSERT_TRUE(validateCigar(pair.pattern, pair.text, r.cigar));
    }
}

class SwgVariants : public ::testing::TestWithParam<Variant>
{
};

TEST_P(SwgVariants, BitIdenticalToReference)
{
    const Variant variant = GetParam();
    sim::SimContext ctx(needsQuetzal(variant)
                            ? sim::SystemParams::withQuetzal()
                            : sim::SystemParams::baseline());
    isa::VectorUnit vpu(ctx.pipeline());
    std::optional<accel::QzUnit> qz;
    if (needsQuetzal(variant))
        qz.emplace(vpu, ctx.params().quetzal);

    genomics::ReadSimConfig config;
    config.readLength = 300;
    config.errorRate = 0.05;
    config.seed = 23;
    genomics::ReadSimulator sim(config);
    for (const auto &pair : sim.generatePairs(4)) {
        const SwgResult got =
            swgAlign(variant, pair.pattern, pair.text, SwgParams{},
                     &vpu, qz ? &*qz : nullptr);
        const SwgResult want =
            swgAlign(Variant::Ref, pair.pattern, pair.text);
        ASSERT_EQ(got.score, want.score);
        ASSERT_EQ(got.cigar.ops, want.cigar.ops);
    }
}

TEST(SwgAdaptiveBand, TracksAccumulatedIndelDrift)
{
    // Fifty single-base deletions spread over 800 bp: each is tiny,
    // but the accumulated drift (50 rows) far exceeds the static
    // 15-wide band. The adaptive band re-centers step by step and
    // keeps the path; the static band loses it a third of the way in.
    genomics::ReadSimConfig config;
    config.readLength = 800;
    config.errorRate = 0.0;
    config.seed = 3;
    genomics::ReadSimulator sim(config);
    auto pair = sim.generatePairs(1).front();
    // All the drift happens in the first quarter, so the straight
    // corner-to-corner line (which spreads it uniformly) is off by
    // ~19 rows mid-table — beyond the 15-wide static band.
    for (int g = 49; g >= 0; --g)
        pair.text.erase(static_cast<std::size_t>(4 * g + 2), 1);

    SwgParams fixed;
    SwgParams adaptive;
    adaptive.adaptiveBand = true;
    const auto fixedR =
        swgAlign(Variant::Ref, pair.pattern, pair.text, fixed);
    const auto adaptiveR =
        swgAlign(Variant::Ref, pair.pattern, pair.text, adaptive);
    // Near-optimal: 750 matches (+1500) minus ~50 one-base gaps
    // (6 each; chance adjacencies can shave a little more).
    EXPECT_GE(adaptiveR.score, 1500 - 50 * 6);
    EXPECT_GT(adaptiveR.score, fixedR.score + 200);
    EXPECT_TRUE(validateCigar(pair.pattern, pair.text,
                              adaptiveR.cigar));
}

TEST(SwgAdaptiveBand, VariantsStayBitIdentical)
{
    sim::SimContext ctx(sim::SystemParams::withQuetzal());
    isa::VectorUnit vpu(ctx.pipeline());
    accel::QzUnit qz(vpu, ctx.params().quetzal);
    genomics::ReadSimConfig config;
    config.readLength = 250;
    config.errorRate = 0.06;
    config.seed = 91;
    genomics::ReadSimulator sim(config);
    SwgParams params;
    params.adaptiveBand = true;
    for (const auto &pair : sim.generatePairs(3)) {
        const auto want =
            swgAlign(Variant::Ref, pair.pattern, pair.text, params);
        for (Variant v : {Variant::Base, Variant::Vec, Variant::Qz}) {
            const auto got = swgAlign(v, pair.pattern, pair.text,
                                      params, &vpu, &qz);
            ASSERT_EQ(got.score, want.score) << variantName(v);
            ASSERT_EQ(got.cigar.ops, want.cigar.ops);
        }
    }
}

TEST(SwgQbufferRows, Fig7PathIsBitIdentical)
{
    sim::SimContext ctx(sim::SystemParams::withQuetzal());
    isa::VectorUnit vpu(ctx.pipeline());
    accel::QzUnit qz(vpu, ctx.params().quetzal);
    genomics::ReadSimConfig config;
    config.readLength = 300;
    config.errorRate = 0.05;
    config.seed = 77;
    genomics::ReadSimulator sim(config);
    SwgParams params;
    params.qbufferRows = true; // the literal Fig. 7 flow
    for (const auto &pair : sim.generatePairs(3)) {
        const SwgResult got =
            swgAlign(Variant::Qz, pair.pattern, pair.text, params,
                     &vpu, &qz);
        const SwgResult want =
            swgAlign(Variant::Ref, pair.pattern, pair.text);
        ASSERT_EQ(got.score, want.score);
        ASSERT_EQ(got.cigar.ops, want.cigar.ops);
    }
    // The scratchpad actually carried traffic.
    EXPECT_GT(ctx.pipeline().opCount(sim::OpClass::QzLoad), 0u);
    EXPECT_GT(ctx.pipeline().opCount(sim::OpClass::QzStore), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, SwgVariants,
                         ::testing::Values(Variant::Base, Variant::Vec,
                                           Variant::Qz),
                         [](const auto &info) {
                             std::string name(variantName(info.param));
                             for (auto &c : name)
                                 if (c == '+')
                                     c = 'C';
                             return name;
                         });

/** Simulated metrics of one run, as the Fig. 13a cells report them. */
struct PinnedMetrics
{
    std::uint64_t cycles, instructions, memRequests, dramBytes;
    std::array<std::uint64_t, 4> stalls; //!< frontend, compute, cache, struct
};

void
expectPinned(const PinnedMetrics &got, const PinnedMetrics &want,
             const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.instructions, want.instructions) << what;
    EXPECT_EQ(got.memRequests, want.memRequests) << what;
    EXPECT_EQ(got.dramBytes, want.dramBytes) << what;
    EXPECT_EQ(got.stalls, want.stalls) << what;
}

/**
 * The NW and SW vector cells' simulated metrics, pinned exactly: the
 * first pair of the 100 bp and 250 bp catalog datasets and of 10 Kbp
 * capped at 1000 bp (Fig. 13a's NW cap). SW QUETZAL+C runs the same
 * path as SW QUETZAL. A change to the vector fills' charging must
 * leave these byte-identical.
 */
TEST(NwSwgVectorMetrics, PinnedOnCatalogPairs)
{
    constexpr std::size_t kUncapped = ~std::size_t{0};
    struct Case
    {
        const char *algo, *dataset;
        std::size_t maxLen;
        Variant variant;
        PinnedMetrics want;
    };
    const Case cases[] = {
        {"NW", "100bp_1", kUncapped, Variant::Vec,
         {13905, 11624, 5328, 41216, {2906, 21, 10943, 0}}},
        {"NW", "100bp_1", kUncapped, Variant::Qz,
         {13954, 12249, 5000, 41216, {3062, 1778, 9078, 0}}},
        {"NW", "100bp_1", kUncapped, Variant::QzC,
         {13954, 12249, 5000, 41216, {3062, 1778, 9078, 0}}},
        {"NW", "250bp_1", kUncapped, Variant::Vec,
         {75738, 63201, 30350, 248576, {15800, 135, 59755, 0}}},
        {"NW", "250bp_1", kUncapped, Variant::Qz,
         {75709, 63826, 30036, 248576, {15956, 1899, 57806, 0}}},
        {"NW", "250bp_1", kUncapped, Variant::QzC,
         {75709, 63826, 30036, 248576, {15956, 1899, 57806, 0}}},
        {"NW", "10Kbp", 1000, Variant::Vec,
         {1167953, 959684, 470959, 4010240, {239921, 470, 927515, 0}}},
        {"NW", "10Kbp", 1000, Variant::Qz,
         {1167896, 960309, 470653, 4010240, {240077, 2246, 925525, 0}}},
        {"NW", "10Kbp", 1000, Variant::QzC,
         {1167896, 960309, 470653, 4010240, {240077, 2246, 925525, 0}}},
        {"SW", "100bp_1", kUncapped, Variant::Vec,
         {13658, 9668, 5747, 57600, {2417, 0, 11139, 0}}},
        {"SW", "100bp_1", kUncapped, Variant::Qz,
         {13658, 9668, 5747, 57600, {2417, 0, 11139, 0}}},
        {"SW", "250bp_1", kUncapped, Variant::Vec,
         {34336, 25076, 15109, 171520, {6269, 4, 27961, 0}}},
        {"SW", "250bp_1", kUncapped, Variant::Qz,
         {34336, 25076, 15109, 171520, {6269, 4, 27961, 0}}},
        {"SW", "10Kbp", 1000, Variant::Vec,
         {145655, 103380, 63520, 704000, {25845, 74, 119634, 0}}},
        {"SW", "10Kbp", 1000, Variant::Qz,
         {145655, 103380, 63520, 704000, {25845, 74, 119634, 0}}},
    };
    for (const Case &c : cases) {
        RunOptions options;
        options.variant = c.variant;
        options.maxPairs = 1;
        options.maxLen = c.maxLen;
        if (needsQuetzal(c.variant))
            options.system = sim::SystemParams::withQuetzal();
        const RunResult r = workloadByName(c.algo).run(
            genomics::makeDataset(c.dataset, 0.001), options);
        ASSERT_EQ(r.pairs, 1u);
        expectPinned({r.cycles, r.instructions, r.memRequests, r.dramBytes,
                      r.stalls},
                     c.want,
                     std::string(c.algo) + " " + c.dataset + " " +
                         std::string(variantName(c.variant)));
    }
}

/** The QBUFFER-rows SWG path (SwgParams::qbufferRows), pinned the
 *  same way on the first 250 bp catalog pair. */
TEST(NwSwgVectorMetrics, PinnedQbufferRowsPath)
{
    const genomics::PairDataset data = genomics::makeDataset("250bp_1", 0.001);
    sim::SimContext ctx(sim::SystemParams::withQuetzal());
    isa::VectorUnit vpu(ctx.pipeline());
    accel::QzUnit qz(vpu, ctx.params().quetzal);
    SwgParams params;
    params.qbufferRows = true;
    swgAlign(Variant::Qz, data.pairs.front().pattern,
             data.pairs.front().text, params, &vpu, &qz);
    const sim::Pipeline &pipe = ctx.pipeline();
    std::array<std::uint64_t, 4> stalls{};
    for (std::size_t k = 0; k < stalls.size(); ++k)
        stalls[k] = pipe.stallCycles(static_cast<sim::StallKind>(k));
    expectPinned({pipe.totalCycles(), pipe.instructions(),
                  ctx.mem().totalRequests(), ctx.mem().dramBytes(), stalls},
                 PinnedMetrics{35394, 37581, 8078, 191232,
                               {9395, 25151, 800, 0}},
                 "SW QUETZAL qbufferRows");
}

/**
 * The cell-run fast-forward (Pipeline::executeCellRun) must carry at
 * least half of BASE NW's cells on the first Table II 250 bp pair.
 * The banded SWG fill settles far less often; its share is printed,
 * not bounded. Both fills store only through cell runs (NW one store
 * per cell, SWG three), so the store count gives the cell count.
 */
TEST(CellRunFastForward, CarriesMostOfBaseNw250bp)
{
    const genomics::PairDataset data = genomics::makeDataset("250bp_1", 0.001);
    const genomics::SequencePair &pair = data.pairs.front();
    const auto fastShare = [&pair](bool nw) {
        sim::SimContext ctx;
        isa::VectorUnit vpu(ctx.pipeline());
        if (nw)
            nwAlign(Variant::Base, pair.pattern, pair.text, &vpu);
        else
            swgAlign(Variant::Base, pair.pattern, pair.text, SwgParams{},
                     &vpu);
        const sim::Pipeline &pipe = ctx.pipeline();
        const double cells =
            static_cast<double>(pipe.opCount(sim::OpClass::ScalarStore)) /
            (nw ? 1 : 3);
        return static_cast<double>(pipe.cellRunFastCells()) / cells;
    };
    const double nw = fastShare(true);
    const double swg = fastShare(false);
    std::printf("fast-forwarded cells: NW %.1f%%, SWG %.1f%%\n",
                100 * nw, 100 * swg);
    EXPECT_GE(nw, 0.5);
}

} // namespace
} // namespace quetzal::algos
