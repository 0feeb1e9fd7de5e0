/**
 * @file
 * Tests for the fault-tolerance layer (docs/ROBUSTNESS.md): the
 * QZ_FAULT_INJECT spec, per-cell isolation, transient retry, resource
 * budgets with graceful degradation, checkpoint/resume, and the
 * RunResult JSON round trip the checkpoint format depends on.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "algos/batch.hpp"
#include "algos/faults.hpp"
#include "algos/report.hpp"
#include "algos/wfa.hpp"
#include "algos/wfa_engine.hpp"
#include "common/json.hpp"
#include "genomics/datasets.hpp"
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

/** Four healthy WFA/SS cells on a shared tiny dataset. */
std::vector<algos::BatchCell>
healthyCells()
{
    const auto ds = tinyDataset(100, 0.05, 2, 11);
    std::vector<algos::BatchCell> cells;
    for (const char *name : {"WFA", "SS"}) {
        for (algos::Variant v :
             {algos::Variant::Base, algos::Variant::Vec}) {
            algos::RunOptions options;
            options.variant = v;
            cells.push_back({algos::workloadByName(name), ds, options});
        }
    }
    return cells;
}

void
expectSameResult(const algos::RunResult &a, const algos::RunResult &b,
                 std::size_t cell)
{
    EXPECT_EQ(a.algo, b.algo) << "cell " << cell;
    EXPECT_EQ(a.variant, b.variant) << "cell " << cell;
    EXPECT_EQ(a.dataset, b.dataset) << "cell " << cell;
    EXPECT_EQ(a.cycles, b.cycles) << "cell " << cell;
    EXPECT_EQ(a.instructions, b.instructions) << "cell " << cell;
    EXPECT_EQ(a.memRequests, b.memRequests) << "cell " << cell;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << "cell " << cell;
    EXPECT_EQ(a.pairs, b.pairs) << "cell " << cell;
    EXPECT_EQ(a.accepted, b.accepted) << "cell " << cell;
    EXPECT_EQ(a.totalScore, b.totalScore) << "cell " << cell;
    EXPECT_EQ(a.dpCells, b.dpCells) << "cell " << cell;
    EXPECT_EQ(a.outputsMatch, b.outputsMatch) << "cell " << cell;
    EXPECT_EQ(a.degradedPairs, b.degradedPairs) << "cell " << cell;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(sim::StallKind::NumKinds); ++k)
        EXPECT_EQ(a.stalls[k], b.stalls[k])
            << "cell " << cell << " stall " << k;
}

/** Temp file path that removes itself. */
class ScopedPath
{
  public:
    explicit ScopedPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~ScopedPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

TEST(FaultSpec, ParsesFullAndDefaultedForms)
{
    const auto full = algos::parseFaultSpec("3:transient:2");
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->cell, 3u);
    EXPECT_EQ(full->kind, algos::FailureKind::Transient);
    EXPECT_EQ(full->times, 2u);

    const auto defaulted = algos::parseFaultSpec("0:fatal");
    ASSERT_TRUE(defaulted.has_value());
    EXPECT_EQ(defaulted->cell, 0u);
    EXPECT_EQ(defaulted->kind, algos::FailureKind::Fatal);
    EXPECT_EQ(defaulted->times, 1u);

    EXPECT_FALSE(algos::parseFaultSpec("").has_value());
}

TEST(FaultSpec, ParsesProcessLevelCrashAndHangKinds)
{
    // crash/hang select a worker-process-level action; the taxonomy
    // kind they map to is what a qz-serve terminal response reports
    // (Panic for a death, Resource for a blown deadline).
    const auto crash = algos::parseFaultSpec("4:crash");
    ASSERT_TRUE(crash.has_value());
    EXPECT_EQ(crash->cell, 4u);
    EXPECT_EQ(crash->action, algos::FaultAction::Crash);
    EXPECT_EQ(crash->kind, algos::FailureKind::Panic);
    EXPECT_EQ(crash->times, 1u);

    const auto hang = algos::parseFaultSpec("1:hang:2");
    ASSERT_TRUE(hang.has_value());
    EXPECT_EQ(hang->action, algos::FaultAction::Hang);
    EXPECT_EQ(hang->kind, algos::FailureKind::Resource);
    EXPECT_EQ(hang->times, 2u);

    // Exception-taxonomy kinds keep the in-process Throw action.
    const auto thrown = algos::parseFaultSpec("2:transient");
    ASSERT_TRUE(thrown.has_value());
    EXPECT_EQ(thrown->action, algos::FaultAction::Throw);

    EXPECT_EQ(algos::faultActionName(algos::FaultAction::Throw),
              "throw");
    EXPECT_EQ(algos::faultActionName(algos::FaultAction::Crash),
              "crash");
    EXPECT_EQ(algos::faultActionName(algos::FaultAction::Hang),
              "hang");
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(algos::parseFaultSpec("nonsense"), FatalError);
    EXPECT_THROW(algos::parseFaultSpec("1:bogus"), FatalError);
    EXPECT_THROW(algos::parseFaultSpec("x:fatal"), FatalError);
    EXPECT_THROW(algos::parseFaultSpec("1:fatal:y"), FatalError);
    EXPECT_THROW(algos::parseFaultSpec("1:fatal:0"), FatalError);
}

TEST(FaultSpec, KindNamesRoundTrip)
{
    for (algos::FailureKind kind :
         {algos::FailureKind::Fatal, algos::FailureKind::Panic,
          algos::FailureKind::Transient, algos::FailureKind::Resource,
          algos::FailureKind::Unknown}) {
        const auto name = algos::failureKindName(kind);
        const auto back = algos::failureKindFromName(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, kind) << name;
    }
    EXPECT_FALSE(algos::failureKindFromName("nope").has_value());
}

TEST(FaultSpec, RetryBackoffIsDeterministicAndBounded)
{
    algos::RetryPolicy policy;
    policy.backoffBaseMs = 2;
    EXPECT_EQ(policy.backoffMs(1), 2u);
    EXPECT_EQ(policy.backoffMs(2), 4u);
    EXPECT_EQ(policy.backoffMs(3), 8u);
    // The shift saturates instead of overflowing.
    EXPECT_EQ(policy.backoffMs(100), 2u << 16);
    policy.backoffBaseMs = 0;
    EXPECT_EQ(policy.backoffMs(5), 0u);
}

TEST(FaultInjection, InjectedFatalIsIsolatedAndOthersUnaffected)
{
    const auto cells = healthyCells();
    const auto clean = algos::runBatch(cells, 2);
    ASSERT_TRUE(clean.ok());

    algos::BatchRunner batch(2);
    for (const auto &cell : cells)
        batch.add(cell);
    batch.setFaultInjection(
        algos::FaultInjection{1, algos::FailureKind::Fatal, 1});
    const auto injected = batch.run();

    ASSERT_EQ(injected.failures.size(), 1u);
    EXPECT_EQ(injected.failures[0].cell, 1u);
    EXPECT_EQ(injected.failures[0].kind, algos::FailureKind::Fatal);
    EXPECT_EQ(injected.failures[0].attempts, 1u);
    EXPECT_FALSE(injected.failures[0].key.empty());
    EXPECT_NE(injected.failures[0].message.find("injected"),
              std::string::npos);

    // Every other cell is field-by-field identical to the clean run.
    ASSERT_EQ(injected.results.size(), clean.results.size());
    for (std::size_t i = 0; i < clean.results.size(); ++i) {
        if (i == 1)
            continue;
        expectSameResult(clean.results[i], injected.results[i], i);
    }
}

TEST(FaultInjection, BatchEngineIgnoresProcessLevelActions)
{
    // crash/hang only fire inside qz-serve worker processes; an
    // armed QZ_FAULT_INJECT with those kinds must leave an
    // in-process batch sweep completely untouched.
    const auto cells = healthyCells();
    const auto clean = algos::runBatch(cells, 2);
    ASSERT_TRUE(clean.ok());

    algos::BatchRunner batch(2);
    for (const auto &cell : cells)
        batch.add(cell);
    algos::FaultInjection inject{1, algos::FailureKind::Panic, 1};
    inject.action = algos::FaultAction::Crash;
    batch.setFaultInjection(inject);
    const auto outcome = batch.run();
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), clean.results.size());
    for (std::size_t i = 0; i < clean.results.size(); ++i)
        expectSameResult(outcome.results[i], clean.results[i], i);
}

TEST(FaultInjection, TransientInjectionHealsViaRetry)
{
    const auto cells = healthyCells();
    const auto clean = algos::runBatch(cells, 2);

    algos::BatchRunner batch(2);
    for (const auto &cell : cells)
        batch.add(cell);
    batch.setFaultInjection(
        algos::FaultInjection{2, algos::FailureKind::Transient, 2});
    // Default policy allows 3 attempts; two injected failures heal.
    const auto outcome = batch.run();

    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.retries, 2u);
    ASSERT_EQ(outcome.results.size(), clean.results.size());
    for (std::size_t i = 0; i < clean.results.size(); ++i)
        expectSameResult(clean.results[i], outcome.results[i], i);
}

TEST(FaultInjection, TransientInjectionExhaustsBoundedRetries)
{
    const auto cells = healthyCells();
    algos::BatchRunner batch(2);
    for (const auto &cell : cells)
        batch.add(cell);
    batch.policy().retry.maxAttempts = 2;
    batch.setFaultInjection(
        algos::FaultInjection{0, algos::FailureKind::Transient, 5});
    const auto outcome = batch.run();

    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].cell, 0u);
    EXPECT_EQ(outcome.failures[0].kind, algos::FailureKind::Transient);
    EXPECT_EQ(outcome.failures[0].attempts, 2u);
    EXPECT_EQ(outcome.retries, 1u);
}

TEST(FaultInjection, PanicAndUnknownAreTerminal)
{
    for (algos::FailureKind kind :
         {algos::FailureKind::Panic, algos::FailureKind::Unknown,
          algos::FailureKind::Resource}) {
        const auto cells = healthyCells();
        algos::BatchRunner batch(2);
        for (const auto &cell : cells)
            batch.add(cell);
        batch.setFaultInjection(algos::FaultInjection{0, kind, 1});
        const auto outcome = batch.run();
        ASSERT_EQ(outcome.failures.size(), 1u)
            << algos::failureKindName(kind);
        EXPECT_EQ(outcome.failures[0].kind, kind);
        EXPECT_EQ(outcome.failures[0].attempts, 1u)
            << "terminal kinds must not retry";
    }
}

TEST(ResourceBudget, UnlimitedByDefault)
{
    algos::ResourceBudget budget;
    EXPECT_FALSE(budget.enabled());
    const auto ds = tinyDataset(150, 0.05, 2, 3);
    algos::RunOptions options;
    const auto plain =
        algos::workloadByName("WFA").run(*ds, options);
    EXPECT_EQ(plain.degradedPairs, 0u);
    EXPECT_TRUE(plain.outputsMatch);
}

TEST(ResourceBudget, StepCeilingDegradesToPrunedFallback)
{
    const auto ds = tinyDataset(200, 0.10, 3, 9);
    algos::RunOptions options;
    options.budget.maxSteps = 4; // far below the edit distance
    options.budget.fallbackLag = 8;
    const auto result =
        algos::workloadByName("WFA").run(*ds, options);
    // Every pair needs more than 4 wavefront steps, so every pair
    // degrades — and the run still completes with sane output.
    EXPECT_EQ(result.degradedPairs, result.pairs);
    EXPECT_GT(result.pairs, 0u);
    EXPECT_TRUE(result.outputsMatch)
        << "degraded pairs must not fail verification";
    EXPECT_GT(result.totalScore, 0);
}

TEST(ResourceBudget, WaveMemoryCeilingDegrades)
{
    // ~100 edits: the full table retains ~(s+1)^2*4 ≈ 40 KB, well
    // over the ceiling; the pruned retry keeps ~s*(2*lag+1)*4 ≈ 8 KB,
    // comfortably under it.
    const auto ds = tinyDataset(1000, 0.10, 2, 5);
    algos::RunOptions options;
    options.budget.maxWaveBytes = 16 * 1024;
    options.budget.fallbackLag = 8;
    const auto result =
        algos::workloadByName("WFA").run(*ds, options);
    EXPECT_GT(result.degradedPairs, 0u);
    EXPECT_TRUE(result.outputsMatch);
}

TEST(ResourceBudget, ExhaustedEvenAfterFallbackIsResourceError)
{
    const auto ds = tinyDataset(200, 0.10, 1, 5);
    algos::BatchRunner batch(1);
    algos::RunOptions options;
    // ~20+ edits: even the pruned retry retains s*(2*lag+1)*4 > 256
    // bytes, so the memory ceiling breaches twice — the cell fails
    // terminally, classified Resource, and stays isolated.
    options.budget.maxWaveBytes = 256;
    options.budget.fallbackLag = 8;
    batch.add(algos::workloadByName("WFA"), ds, options);
    const auto outcome = batch.run();
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].kind, algos::FailureKind::Resource);
    EXPECT_EQ(outcome.failures[0].attempts, 1u);
}

TEST(ResourceBudget, BiWfaStepCeilingDegrades)
{
    // Longer than the BiWFA leaf size so the bidirectional score pass
    // itself (not a WFA leaf) trips the watchdog and degrades.
    const auto ds = tinyDataset(2000, 0.05, 1, 7);
    algos::RunOptions options;
    options.budget.maxSteps = 4;
    options.budget.fallbackLag = 8;
    const auto result =
        algos::workloadByName("BiWFA").run(*ds, options);
    EXPECT_GT(result.degradedPairs, 0u);
    EXPECT_TRUE(result.outputsMatch);
}

TEST(Checkpoint, ResumeSkipsCompletedCellsAndMatchesCleanRun)
{
    ScopedPath ckpt("qz_test_ckpt.jsonl");
    const auto cells = healthyCells();
    const auto clean = algos::runBatch(cells, 2);

    // First run: only the first half of the matrix, checkpointed.
    {
        algos::BatchRunner batch(2);
        batch.setCheckpoint(ckpt.str());
        for (std::size_t i = 0; i < cells.size() / 2; ++i)
            batch.add(cells[i]);
        const auto first = batch.run();
        EXPECT_TRUE(first.ok());
        EXPECT_EQ(first.resumedCells, 0u);
    }

    // Second run: the full matrix against the same checkpoint. The
    // completed half must be resumed, not re-simulated — an injection
    // aimed at a resumed cell proves it never executes.
    algos::BatchRunner batch(2);
    batch.setCheckpoint(ckpt.str());
    for (const auto &cell : cells)
        batch.add(cell);
    batch.setFaultInjection(
        algos::FaultInjection{0, algos::FailureKind::Fatal, 1});
    const auto resumed = batch.run();

    EXPECT_TRUE(resumed.ok())
        << "the injection must not fire on a resumed cell";
    EXPECT_EQ(resumed.resumedCells, cells.size() / 2);
    ASSERT_EQ(resumed.results.size(), clean.results.size());
    for (std::size_t i = 0; i < clean.results.size(); ++i)
        expectSameResult(clean.results[i], resumed.results[i], i);

    // Third run: everything resumes.
    algos::BatchRunner full(2);
    full.setCheckpoint(ckpt.str());
    for (const auto &cell : cells)
        full.add(cell);
    const auto third = full.run();
    EXPECT_EQ(third.resumedCells, cells.size());
    for (std::size_t i = 0; i < clean.results.size(); ++i)
        expectSameResult(clean.results[i], third.results[i], i);
}

TEST(Checkpoint, FailedCellsAreNotCheckpointed)
{
    ScopedPath ckpt("qz_test_ckpt_fail.jsonl");
    const auto cells = healthyCells();
    {
        algos::BatchRunner batch(2);
        batch.setCheckpoint(ckpt.str());
        for (const auto &cell : cells)
            batch.add(cell);
        batch.setFaultInjection(
            algos::FaultInjection{1, algos::FailureKind::Fatal, 1});
        const auto outcome = batch.run();
        ASSERT_EQ(outcome.failures.size(), 1u);
    }
    // Rerun without injection: only the failed cell re-simulates and
    // the sweep completes clean.
    algos::BatchRunner batch(2);
    batch.setCheckpoint(ckpt.str());
    for (const auto &cell : cells)
        batch.add(cell);
    batch.setFaultInjection(std::nullopt);
    const auto outcome = batch.run();
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.resumedCells, cells.size() - 1);
}

TEST(Checkpoint, CorruptTrailingLineIsSkipped)
{
    ScopedPath ckpt("qz_test_ckpt_corrupt.jsonl");
    const auto cells = healthyCells();
    {
        algos::BatchRunner batch(2);
        batch.setCheckpoint(ckpt.str());
        for (const auto &cell : cells)
            batch.add(cell);
        ASSERT_TRUE(batch.run().ok());
    }
    // Simulate a kill mid-write: a truncated JSON line at the end.
    {
        std::ofstream out(ckpt.str(), std::ios::app);
        out << "{\"v\":1,\"hash\":\"deadbeef\",\"resu";
    }
    algos::BatchRunner batch(2);
    batch.setCheckpoint(ckpt.str());
    for (const auto &cell : cells)
        batch.add(cell);
    const auto outcome = batch.run();
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.resumedCells, cells.size());
}

TEST(Checkpoint, TornTrailingTailIsTruncatedNotPoisoned)
{
    ScopedPath ckpt("qz_test_ckpt_torn.jsonl");

    // Missing and clean files are left alone.
    EXPECT_EQ(algos::truncateTornCheckpointTail(ckpt.str()), 0u);
    const std::string complete = "{\"pair\":0,\"ok\":true}\n";
    {
        std::ofstream out(ckpt.str());
        out << complete;
    }
    EXPECT_EQ(algos::truncateTornCheckpointTail(ckpt.str()), 0u);

    // A writer killed mid-line leaves a torn tail; the repair drops
    // exactly those bytes, so a later append cannot concatenate onto
    // them and poison two records at once.
    const std::string torn = "{\"pair\":1,\"o";
    {
        std::ofstream out(ckpt.str(), std::ios::app);
        out << torn;
    }
    EXPECT_EQ(algos::truncateTornCheckpointTail(ckpt.str()),
              torn.size());
    {
        std::ifstream in(ckpt.str());
        std::stringstream buf;
        buf << in.rdbuf();
        EXPECT_EQ(buf.str(), complete);
    }

    // A file that is nothing but a torn line empties out entirely.
    {
        std::ofstream out(ckpt.str());
        out << torn;
    }
    EXPECT_EQ(algos::truncateTornCheckpointTail(ckpt.str()),
              torn.size());
    std::ifstream in(ckpt.str());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "");
}

TEST(Checkpoint, HashCoversDatasetContent)
{
    const auto a = tinyDataset(100, 0.05, 2, 11);
    auto bOwned = tinyDataset(100, 0.05, 2, 11);
    algos::RunOptions options;
    EXPECT_EQ(algos::cellHash("WFA", *a, options),
              algos::cellHash("WFA", *bOwned, options));

    // Same metadata, one base flipped: different identity.
    auto mutated = std::make_shared<genomics::PairDataset>(*bOwned);
    auto &base = mutated->pairs.front().pattern.front();
    base = base == 'A' ? 'C' : 'A';
    EXPECT_NE(algos::cellHash("WFA", *a, options),
              algos::cellHash("WFA", *mutated, options));

    // Options and algorithm feed the key, hence the hash.
    algos::RunOptions other = options;
    other.variant = algos::Variant::Vec;
    EXPECT_NE(algos::cellHash("WFA", *a, options),
              algos::cellHash("WFA", *a, other));
    EXPECT_NE(algos::cellHash("WFA", *a, options),
              algos::cellHash("BiWFA", *a, options));
}

TEST(Checkpoint, CellIdentityIsPinned)
{
    // Literal keys and hashes of a fixed WFA cell and a fixed SS+WFA
    // cell. Checkpoint files store these, so a drift here would make
    // every existing QZ_BENCH_CHECKPOINT file silently stop resuming.
    const auto ds = tinyDataset(100, 0.05, 2, 11);
    algos::RunOptions wfa;
    algos::RunOptions pipeline;
    pipeline.variant = algos::Variant::QzC;
    pipeline.verify = false;
    pipeline.system = sim::SystemParams::withQuetzal(8);
    const std::string tail = "#pairs=2;maxPairs=18446744073709551615;"
                             "maxLen=18446744073709551615;alphabet=DNA;"
                             "ssThreshold=0;traceback=1;";
    EXPECT_EQ(algos::cellKey("WFA", *ds, wfa),
              "WFA/BASE/tiny" + tail + "verify=1;budget=0,0,64");
    EXPECT_EQ(algos::cellHash("WFA", *ds, wfa), "964a5227b366a170");
    EXPECT_EQ(algos::cellKey("SS+WFA", *ds, pipeline),
              "SS+WFA/QUETZAL+C/tiny" + tail + "verify=0;budget=0,0,64");
    EXPECT_EQ(algos::cellHash("SS+WFA", *ds, pipeline),
              "8495fbbf1f1a9e04");
}

TEST(Checkpoint, RunResultJsonRoundTrips)
{
    algos::RunResult result;
    result.algo = "wfa";
    result.variant = "qzc";
    result.dataset = "100bp_1";
    result.cycles = 123456;
    result.instructions = 654321;
    result.memRequests = 777;
    result.dramBytes = 4096;
    result.pairs = 42;
    result.accepted = 40;
    result.totalScore = -17;
    result.dpCells = 99999;
    result.outputsMatch = false;
    result.degradedPairs = 3;
    result.stalls[static_cast<std::size_t>(sim::StallKind::Cache)] =
        555;

    const auto json = parseJson(algos::toJson(result));
    ASSERT_TRUE(json.has_value());
    const auto back = algos::runResultFromJson(*json);
    ASSERT_TRUE(back.has_value());
    expectSameResult(result, *back, 0);
}

TEST(Checkpoint, RejectsJsonMissingRequiredFields)
{
    const auto json = parseJson("{\"algo\":\"wfa\"}");
    ASSERT_TRUE(json.has_value());
    EXPECT_FALSE(algos::runResultFromJson(*json).has_value());
    const auto notObject = parseJson("[1,2,3]");
    ASSERT_TRUE(notObject.has_value());
    EXPECT_FALSE(algos::runResultFromJson(*notObject).has_value());
}

TEST(DatasetValidation, AcceptsCatalogAndNBases)
{
    // makeDataset self-validates; reaching here means it passed.
    const auto ds = genomics::makeDataset("100bp_1", 0.05);
    EXPECT_GT(ds.size(), 0u);

    genomics::SequencePair withN;
    withN.pattern = "ACGTN";
    withN.text = "ACGT";
    EXPECT_NO_THROW(genomics::validatePair(
        withN, genomics::AlphabetKind::Dna, 0, "test"));
}

TEST(DatasetValidation, RejectsBadCharactersAndEmptySides)
{
    genomics::SequencePair bad;
    bad.pattern = "ACGJ";
    bad.text = "ACGT";
    EXPECT_THROW(genomics::validatePair(
                     bad, genomics::AlphabetKind::Dna, 0, "test"),
                 FatalError);

    genomics::SequencePair empty;
    empty.pattern = "";
    empty.text = "ACGT";
    EXPECT_THROW(genomics::validatePair(
                     empty, genomics::AlphabetKind::Dna, 0, "test"),
                 FatalError);

    // 'N' is not an amino acid wildcard here; protein rejects
    // lowercase and non-residue characters.
    genomics::SequencePair protein;
    protein.pattern = "ACDEF*";
    protein.text = "ACDEF";
    EXPECT_THROW(genomics::validatePair(
                     protein, genomics::AlphabetKind::Protein, 0,
                     "test"),
                 FatalError);
}

} // namespace
} // namespace quetzal
