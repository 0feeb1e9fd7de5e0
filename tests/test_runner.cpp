/**
 * @file
 * Integration tests of the experiment runner: full algorithm x variant
 * x dataset cells on small workloads, with the paper's qualitative
 * orderings asserted (VEC > BASE, QUETZAL > VEC, QUETZAL+C >= QUETZAL
 * on modern algorithms; fewer memory requests with QUETZAL).
 */
#include <gtest/gtest.h>

#include "algos/report.hpp"
#include "algos/runner.hpp"
#include "algos/workload.hpp"
#include "genomics/readsim.hpp"
#include "common/logging.hpp"

namespace quetzal::algos {
namespace {

genomics::PairDataset
tinyDataset(std::size_t length, double errorRate, std::size_t count,
            std::uint64_t seed)
{
    genomics::ReadSimConfig config;
    config.readLength = length;
    config.errorRate = errorRate;
    config.seed = seed;
    genomics::ReadSimulator sim(config);
    genomics::PairDataset ds;
    ds.name = "tiny";
    ds.readLength = length;
    ds.errorRate = errorRate;
    ds.pairs = sim.generatePairs(count);
    return ds;
}

RunResult
run(std::string_view algo, const genomics::PairDataset &ds, Variant v,
    std::size_t maxLen = ~std::size_t{0})
{
    RunOptions options;
    options.variant = v;
    options.maxLen = maxLen;
    return workloadByName(algo).run(ds, options);
}

TEST(Runner, RefVariantIsRejected)
{
    const auto ds = tinyDataset(50, 0.05, 1, 1);
    RunOptions options;
    options.variant = Variant::Ref;
    EXPECT_THROW(workloadByName("WFA").run(ds, options), FatalError);
}

TEST(Runner, WfaOrderingMatchesPaper)
{
    const auto ds = tinyDataset(400, 0.05, 4, 2);
    const auto base = run("WFA", ds, Variant::Base);
    const auto vec = run("WFA", ds, Variant::Vec);
    const auto qz = run("WFA", ds, Variant::Qz);
    const auto qzc = run("WFA", ds, Variant::QzC);

    EXPECT_TRUE(base.outputsMatch);
    EXPECT_TRUE(vec.outputsMatch);
    EXPECT_TRUE(qz.outputsMatch);
    EXPECT_TRUE(qzc.outputsMatch);

    // Same functional work -> same total score everywhere.
    EXPECT_EQ(base.totalScore, vec.totalScore);
    EXPECT_EQ(vec.totalScore, qzc.totalScore);

    // Fig. 13a qualitative ordering: QUETZAL beats VEC, the count
    // hardware adds on top, and QUETZAL+C beats the scalar baseline.
    EXPECT_GT(speedup(vec, qz), 1.0);
    EXPECT_GT(speedup(vec, qzc), speedup(vec, qz) * 0.99);
    EXPECT_GT(speedup(base, qzc), 1.0);

    // Fig. 14a: QUETZAL slashes memory requests.
    EXPECT_LT(qzc.memRequests, vec.memRequests);
}

TEST(Runner, SneakySnakeOrderingMatchesPaper)
{
    const auto ds = tinyDataset(500, 0.04, 4, 3);
    const auto base = run("SS", ds, Variant::Base);
    const auto vec = run("SS", ds, Variant::Vec);
    const auto qzc = run("SS", ds, Variant::QzC);
    EXPECT_TRUE(vec.outputsMatch);
    EXPECT_TRUE(qzc.outputsMatch);
    EXPECT_EQ(base.accepted, vec.accepted);
    EXPECT_EQ(vec.accepted, qzc.accepted);
    EXPECT_GT(speedup(base, qzc), 1.0);
    EXPECT_GT(speedup(vec, qzc), 1.0);
}

TEST(Runner, BiWfaRunsAllVariants)
{
    const auto ds = tinyDataset(600, 0.04, 2, 4);
    for (Variant v :
         {Variant::Base, Variant::Vec, Variant::Qz, Variant::QzC}) {
        const auto r = run("BiWFA", ds, v);
        EXPECT_TRUE(r.outputsMatch) << variantName(v);
        EXPECT_EQ(r.pairs, 2u);
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(Runner, ClassicAlgorithmsVerifyAndCapLength)
{
    const auto ds = tinyDataset(300, 0.03, 2, 5);
    const auto nw = run("NW", ds, Variant::Vec, 120);
    EXPECT_TRUE(nw.outputsMatch);
    EXPECT_GT(nw.dpCells, 0u);
    // maxLen cap: cells bounded by 120^2-ish per pair.
    EXPECT_LE(nw.dpCells, 2u * 125u * 125u);

    const auto sw = run("SW", ds, Variant::Qz);
    EXPECT_TRUE(sw.outputsMatch);
}

TEST(Runner, SsWfaPipelineFiltersDecoys)
{
    auto ds = tinyDataset(250, 0.03, 8, 6);
    const auto mixed = mixWithDecoys(ds);
    EXPECT_EQ(mixed.size(), ds.size());
    const auto r = run("SS+WFA", mixed, Variant::QzC);
    EXPECT_TRUE(r.outputsMatch);
    // Decoys (half the pairs) should mostly be rejected.
    EXPECT_LT(r.accepted, r.pairs);
    EXPECT_GE(r.accepted, r.pairs / 2 - 1);
}

TEST(Runner, StallBreakdownCoversMostCycles)
{
    const auto ds = tinyDataset(400, 0.05, 2, 7);
    const auto vec = run("WFA", ds, Variant::Vec);
    const std::uint64_t attributed = vec.stalls[0] + vec.stalls[1] +
                                     vec.stalls[2] + vec.stalls[3];
    EXPECT_GT(attributed, vec.cycles / 2);
    // Long-ish reads on VEC: cache share should be substantial
    // (Fig. 4 reports 32-65%).
    EXPECT_GT(vec.cacheFraction(), 0.1);
}

TEST(Runner, ProteinWorkloadRuns)
{
    genomics::ReadSimConfig config;
    config.readLength = 200;
    config.errorRate = 0.1;
    config.alphabet = genomics::AlphabetKind::Protein;
    config.seed = 8;
    genomics::ReadSimulator sim(config);
    genomics::PairDataset ds;
    ds.name = "protein";
    ds.readLength = 200;
    ds.errorRate = 0.1;
    ds.pairs = sim.generatePairs(2);

    RunOptions options;
    options.variant = Variant::QzC;
    options.alphabet = genomics::AlphabetKind::Protein;
    const auto r = workloadByName("WFA").run(ds, options);
    EXPECT_TRUE(r.outputsMatch);
    EXPECT_GT(r.totalScore, 0);
}

TEST(Runner, DemandFeedsMulticoreModel)
{
    const auto ds = tinyDataset(300, 0.05, 2, 9);
    const auto r = run("WFA", ds, Variant::Vec);
    const auto demand = r.demand();
    EXPECT_EQ(demand.cycles, r.cycles);
    const double s16 =
        sim::multicoreSpeedup(demand, 16, sim::SystemParams::baseline());
    EXPECT_GT(s16, 1.0);
    EXPECT_LE(s16, 16.0);
}

// ====================================================================
// Full-matrix integration sweep: every algorithm x variant on a small
// workload, with verification against the golden models on.
// ====================================================================

struct MatrixCase
{
    const char *algo;
    Variant variant;
};

class EvaluationMatrix : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(EvaluationMatrix, VerifiesAndProgresses)
{
    const MatrixCase mc = GetParam();
    const auto ds = tinyDataset(180, 0.05, 3, 99);
    RunOptions options;
    options.variant = mc.variant;
    options.maxLen = 150;
    const auto r = workloadByName(mc.algo).run(ds, options);
    EXPECT_TRUE(r.outputsMatch)
        << mc.algo << "/" << variantName(mc.variant);
    EXPECT_EQ(r.pairs, 3u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"cycles\""), std::string::npos);
}

std::vector<MatrixCase>
allMatrixCases()
{
    std::vector<MatrixCase> cases;
    for (const char *algo : {"WFA", "BiWFA", "SS", "NW", "SW", "SS+WFA"}) {
        for (Variant v : {Variant::Base, Variant::Vec, Variant::Qz,
                          Variant::QzC})
            cases.push_back({algo, v});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, EvaluationMatrix, ::testing::ValuesIn(allMatrixCases()),
    [](const auto &info) {
        std::string name = std::string(info.param.algo) + "_" +
                           std::string(variantName(info.param.variant));
        for (auto &c : name)
            if (c == '+' || c == '-')
                c = 'C';
        return name;
    });

TEST(Report, RunResultSerializesToJson)
{
    const auto ds = tinyDataset(80, 0.05, 2, 11);
    const auto r = run("WFA", ds, Variant::QzC);
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"algo\":\"WFA\""), std::string::npos);
    EXPECT_NE(json.find("\"variant\":\"QUETZAL+C\""),
              std::string::npos);
    EXPECT_NE(json.find("\"outputs_match\":true"), std::string::npos);
    EXPECT_NE(json.find("\"stalls\""), std::string::npos);
}

TEST(Report, InstructionProfileListsUsedClasses)
{
    sim::SimContext ctx;
    ctx.pipeline().executeOp(sim::OpClass::VecAlu, {});
    const std::string json = instructionProfileJson(ctx.pipeline());
    EXPECT_NE(json.find("\"VecAlu\":1"), std::string::npos);
    EXPECT_EQ(json.find("\"VecGather\""), std::string::npos);
}

} // namespace
} // namespace quetzal::algos
