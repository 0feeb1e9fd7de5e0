/**
 * @file
 * Tests for the indexed on-disk read store (docs/STORE.md): 2-bit
 * pack/unpack round trips (with the raw escape for 'N' and protein),
 * header/checksum rejection of truncated or corrupted files, slice
 * boundary behavior, mmap-vs-pread equality, and the tentpole safety
 * invariant — store-backed sweeps report byte-identically to in-RAM
 * sweeps, unsharded and through a 3-shard merge — plus the
 * once-per-file-version checksum rule of ReadStore::open().
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "common/logging.hpp"
#include "genomics/datasets.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/store.hpp"

namespace quetzal {
namespace {

using genomics::AlphabetKind;
using genomics::PairBatch;
using genomics::ReadStore;
using genomics::SequencePair;
using genomics::StorePairSource;
using genomics::StoreProvenance;
using genomics::StoreWriter;

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

/** Hand-built pairs covering every encoding path. */
std::vector<SequencePair>
mixedPairs()
{
    std::vector<SequencePair> pairs;
    pairs.push_back({"ACGTACGTACGT", "ACGTACGAACGT",
                     AlphabetKind::Dna, 1});
    // Length not divisible by 4: the tail byte is partially filled.
    pairs.push_back({"ACGTA", "TGCAT", AlphabetKind::Dna, -1});
    // 'N' forces the raw 8-bit escape for that sequence only.
    pairs.push_back({"ACGTNACGT", "ACGTACGTA", AlphabetKind::Dna, 2});
    pairs.push_back({"ACGUACGU", "ACGUACGG", AlphabetKind::Rna, 1});
    // Protein never packs into 2 bits.
    pairs.push_back({"MKVLITGAGG", "MKVLITGAGA",
                     AlphabetKind::Protein, 1});
    // Empty-ish extremes (single base each side).
    pairs.push_back({"A", "T", AlphabetKind::Dna, 1});
    return pairs;
}

void
writeStore(const std::string &path,
           const std::vector<SequencePair> &pairs,
           StoreProvenance provenance = {})
{
    StoreWriter writer(path, std::move(provenance));
    for (const auto &pair : pairs)
        writer.add(pair);
    writer.finish();
}

/** Flip one byte at @p offset of the file at @p path. */
void
corruptByte(const std::string &path, std::uint64_t offset)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
}

TEST(Store, RoundTripsEveryEncodingPath)
{
    ScopedPath path("store_roundtrip.qzs");
    const auto pairs = mixedPairs();
    StoreProvenance provenance;
    provenance.name = "mixed";
    provenance.scale = 2.5;
    provenance.seed = 1234;
    provenance.readLength = 12;
    provenance.errorRate = 0.04;
    writeStore(path.str(), pairs, provenance);

    const auto store = ReadStore::open(path.str());
    ASSERT_EQ(store->size(), pairs.size());
    EXPECT_EQ(store->provenance().name, "mixed");
    EXPECT_EQ(store->provenance().scale, 2.5);
    EXPECT_EQ(store->provenance().seed, 1234u);
    EXPECT_EQ(store->provenance().readLength, 12u);
    EXPECT_EQ(store->provenance().errorRate, 0.04);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const SequencePair got = store->pair(i);
        EXPECT_EQ(got.pattern, pairs[i].pattern) << "pair " << i;
        EXPECT_EQ(got.text, pairs[i].text) << "pair " << i;
        EXPECT_EQ(got.alphabet, pairs[i].alphabet) << "pair " << i;
        EXPECT_EQ(got.trueEdits, pairs[i].trueEdits) << "pair " << i;
    }
}

TEST(Store, PreadFallbackDecodesIdentically)
{
    ScopedPath path("store_pread.qzs");
    const auto pairs = mixedPairs();
    writeStore(path.str(), pairs);

    genomics::StoreOpenOptions noMmap;
    noMmap.disableMmap = true;
    const auto viaPread = ReadStore::open(path.str(), noMmap);
    const auto viaMmap = ReadStore::open(path.str());
    EXPECT_FALSE(viaPread->mapped());
    ASSERT_EQ(viaPread->size(), viaMmap->size());
    EXPECT_EQ(viaPread->checksum(), viaMmap->checksum());
    for (std::size_t i = 0; i < viaPread->size(); ++i) {
        const SequencePair a = viaPread->pair(i);
        const SequencePair b = viaMmap->pair(i);
        EXPECT_EQ(a.pattern, b.pattern);
        EXPECT_EQ(a.text, b.text);
        EXPECT_EQ(a.trueEdits, b.trueEdits);
    }
}

TEST(Store, RejectsCorruptedPayload)
{
    ScopedPath path("store_corrupt.qzs");
    writeStore(path.str(), mixedPairs());
    // The header is ~100 bytes; byte 120 is payload territory.
    corruptByte(path.str(), 120);
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);
    // Skipping verification defers detection (decode still works on
    // the untouched pairs) — the option exists for huge stores.
    genomics::StoreOpenOptions lax;
    lax.verifyChecksum = false;
    EXPECT_NO_THROW(ReadStore::open(path.str(), lax));
}

bool
earlier(const timespec &a, const timespec &b)
{
    return a.tv_sec != b.tv_sec ? a.tv_sec < b.tv_sec
                                : a.tv_nsec < b.tv_nsec;
}

struct stat
statOf(const std::string &path)
{
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return st;
}

/**
 * Sleep until the coarse clock has passed @p path's mtime and ctime:
 * from then on, a verifying open may vouch for the current version.
 */
void
waitOutRacyWindow(const std::string &path)
{
    const struct stat st = statOf(path);
    for (;;) {
        timespec now{};
        ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
        if (earlier(st.st_mtim, now) && earlier(st.st_ctim, now))
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/**
 * mixedPairs() with every sequence reversed: new bases, same lengths
 * and encodings, hence the same file size.
 */
std::vector<SequencePair>
mixedPairsReversed()
{
    std::vector<SequencePair> pairs = mixedPairs();
    for (auto &pair : pairs) {
        std::reverse(pair.pattern.begin(), pair.pattern.end());
        std::reverse(pair.text.begin(), pair.text.end());
    }
    return pairs;
}

TEST(Store, ReopenOfAnUnchangedStoreSkipsTheScan)
{
    ScopedPath path("store_reopen.qzs");
    const auto pairs = mixedPairs();
    writeStore(path.str(), pairs);
    waitOutRacyWindow(path.str());

    EXPECT_TRUE(ReadStore::open(path.str())->scannedOnOpen());
    const auto again = ReadStore::open(path.str());
    EXPECT_FALSE(again->scannedOnOpen());
    genomics::StoreOpenOptions noMmap;
    noMmap.disableMmap = true;
    const auto viaPread = ReadStore::open(path.str(), noMmap);
    EXPECT_FALSE(viaPread->scannedOnOpen());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(again->pair(i).pattern, pairs[i].pattern);
        EXPECT_EQ(viaPread->pair(i).text, pairs[i].text);
    }
}

TEST(Store, SameSizeRewriteIsRescannedAndDecodesTheNewPairs)
{
    ScopedPath path("store_rewrite.qzs");
    writeStore(path.str(), mixedPairs());
    waitOutRacyWindow(path.str());
    ReadStore::open(path.str());
    ASSERT_FALSE(ReadStore::open(path.str())->scannedOnOpen());
    const struct stat before = statOf(path.str());

    const auto rewritten = mixedPairsReversed();
    writeStore(path.str(), rewritten);
    const struct stat after = statOf(path.str());
    // Same key, same size: only the times and checksum tell.
    ASSERT_EQ(after.st_ino, before.st_ino);
    ASSERT_EQ(after.st_size, before.st_size);

    const auto store = ReadStore::open(path.str());
    EXPECT_TRUE(store->scannedOnOpen());
    ASSERT_EQ(store->size(), rewritten.size());
    for (std::size_t i = 0; i < rewritten.size(); ++i) {
        EXPECT_EQ(store->pair(i).pattern, rewritten[i].pattern);
        EXPECT_EQ(store->pair(i).text, rewritten[i].text);
    }
}

TEST(Store, CorruptionAfterVerificationIsStillRejected)
{
    ScopedPath path("store_late_corrupt.qzs");
    writeStore(path.str(), mixedPairs());
    waitOutRacyWindow(path.str());
    ReadStore::open(path.str());
    ASSERT_FALSE(ReadStore::open(path.str())->scannedOnOpen());

    // Same inode, size and header: only mtime/ctime changed.
    corruptByte(path.str(), 120);
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);
}

TEST(Store, VersionStampedInsideTheRacyWindowScansOnEveryOpen)
{
    ScopedPath path("store_racy.qzs");
    writeStore(path.str(), mixedPairs());
    // Stamp the mtime ahead of the clock, so every open's reading
    // falls in or before the file's timestamp tick, as it does for
    // an open right after a write.
    timespec now{};
    ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
    const timespec times[2] = {now, {now.tv_sec + 3600, 0}};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.str().c_str(), times, 0), 0);

    EXPECT_TRUE(ReadStore::open(path.str())->scannedOnOpen());
    EXPECT_TRUE(ReadStore::open(path.str())->scannedOnOpen());
}

TEST(Store, SkippingVerificationNeitherScansNorVouches)
{
    ScopedPath path("store_lax.qzs");
    writeStore(path.str(), mixedPairs());
    waitOutRacyWindow(path.str());
    genomics::StoreOpenOptions lax;
    lax.verifyChecksum = false;

    // A lax open records nothing: the next verifying open scans.
    EXPECT_FALSE(ReadStore::open(path.str(), lax)->scannedOnOpen());
    EXPECT_TRUE(ReadStore::open(path.str())->scannedOnOpen());
    // A lax open after verification still skips the scan.
    EXPECT_FALSE(ReadStore::open(path.str(), lax)->scannedOnOpen());

    corruptByte(path.str(), 120);
    waitOutRacyWindow(path.str());
    EXPECT_NO_THROW(ReadStore::open(path.str(), lax));
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);
}

TEST(Store, ConcurrentOpensDecodeTheVerifiedVersion)
{
    ScopedPath path("store_concurrent.qzs");
    const auto pairs = mixedPairs();
    writeStore(path.str(), pairs);
    waitOutRacyWindow(path.str());

    std::vector<std::thread> threads;
    std::vector<int> mismatches(4, 0);
    for (std::size_t t = 0; t < mismatches.size(); ++t)
        threads.emplace_back([&, t] {
            for (int round = 0; round < 25; ++round) {
                const auto store = ReadStore::open(path.str());
                for (std::size_t i = 0; i < pairs.size(); ++i)
                    mismatches[t] +=
                        store->pair(i).text != pairs[i].text;
            }
        });
    for (auto &thread : threads)
        thread.join();
    for (const int count : mismatches)
        EXPECT_EQ(count, 0);
    EXPECT_FALSE(ReadStore::open(path.str())->scannedOnOpen());
}

TEST(Store, RejectsTruncation)
{
    ScopedPath path("store_truncated.qzs");
    writeStore(path.str(), mixedPairs());
    std::ifstream in(path.str(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path.str(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamoff>(bytes.size() - 16));
    out.close();
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);
}

TEST(Store, RejectsBadMagicAndUnfinishedWriter)
{
    ScopedPath path("store_magic.qzs");
    writeStore(path.str(), mixedPairs());
    corruptByte(path.str(), 0); // magic
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);

    // A writer that never finish()ed leaves the zeroed placeholder
    // header, which must be rejected like any other torn write.
    ScopedPath torn("store_torn.qzs");
    {
        StoreWriter writer(torn.str(), StoreProvenance{});
        writer.add({"ACGT", "ACGT", AlphabetKind::Dna, 0});
        // no finish()
    }
    EXPECT_THROW(ReadStore::open(torn.str()), FatalError);
}

TEST(Store, SliceBoundariesClampAndCompose)
{
    ScopedPath path("store_slice.qzs");
    const auto pairs = mixedPairs();
    writeStore(path.str(), pairs);
    const auto store = ReadStore::open(path.str());

    StorePairSource whole(store);
    ASSERT_EQ(whole.size(), pairs.size());

    // Past-the-end bounds clamp instead of throwing.
    const auto clamped = whole.slice(2, 1000);
    EXPECT_EQ(clamped->size(), pairs.size() - 2);

    // Empty slices yield no batches.
    const auto empty = whole.slice(3, 3);
    EXPECT_EQ(empty->size(), 0u);
    PairBatch batch;
    EXPECT_EQ(empty->next(batch), 0u);

    // slice() composes relative to the window: (2..end) then (1..2)
    // is global pair 3.
    const auto inner = clamped->slice(1, 2);
    ASSERT_EQ(inner->size(), 1u);
    ASSERT_GT(inner->next(batch), 0u);
    EXPECT_EQ(batch.views()[0].pattern, pairs[3].pattern);

    // Batch capacity never changes what is yielded, only the chunking.
    PairBatch tiny(1);
    auto cursor = whole.fork();
    std::vector<std::string> got;
    while (cursor->next(tiny) > 0)
        for (const auto &view : tiny.views())
            got.push_back(std::string(view.pattern));
    ASSERT_EQ(got.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(got[i], pairs[i].pattern);
}

TEST(Store, ParseStoreTargetForms)
{
    const auto plain = genomics::parseStoreTarget("reads.qzs");
    EXPECT_EQ(plain.path, "reads.qzs");
    EXPECT_EQ(plain.from, 0u);
    EXPECT_EQ(plain.to, genomics::kStoreEnd);

    const auto range = genomics::parseStoreTarget("reads.qzs:10-20");
    EXPECT_EQ(range.path, "reads.qzs");
    EXPECT_EQ(range.from, 10u);
    EXPECT_EQ(range.to, 20u);

    const auto open = genomics::parseStoreTarget("reads.qzs:10-");
    EXPECT_EQ(open.from, 10u);
    EXPECT_EQ(open.to, genomics::kStoreEnd);

    const auto head = genomics::parseStoreTarget("reads.qzs:-20");
    EXPECT_EQ(head.from, 0u);
    EXPECT_EQ(head.to, 20u);

    // A ':' that is not followed by a digits-dash suffix is path text.
    const auto colon = genomics::parseStoreTarget("dir:name/reads.qzs");
    EXPECT_EQ(colon.path, "dir:name/reads.qzs");

    EXPECT_THROW(genomics::parseStoreTarget("reads.qzs:20-10"),
                 FatalError);
}

TEST(Store, GeneratorMatchesMakeDataset)
{
    const genomics::PairDataset dataset =
        genomics::makeDataset("100bp_1", 0.1);
    const genomics::PairDataset streamed =
        genomics::GeneratorPairSource("100bp_1", 0.1).materialize();
    ASSERT_EQ(streamed.pairs.size(), dataset.pairs.size());
    for (std::size_t i = 0; i < dataset.pairs.size(); ++i) {
        EXPECT_EQ(streamed.pairs[i].pattern, dataset.pairs[i].pattern);
        EXPECT_EQ(streamed.pairs[i].text, dataset.pairs[i].text);
        EXPECT_EQ(streamed.pairs[i].trueEdits,
                  dataset.pairs[i].trueEdits);
    }
    EXPECT_EQ(streamed.name, dataset.name);
    EXPECT_EQ(streamed.readLength, dataset.readLength);
    EXPECT_EQ(streamed.errorRate, dataset.errorRate);
}

/** Write the 100bp_1@0.1 catalog dataset to @p path as a store. */
std::shared_ptr<const ReadStore>
catalogStore(const std::string &path)
{
    genomics::GeneratorPairSource source("100bp_1", 0.1);
    StoreProvenance provenance;
    provenance.name = source.info().name;
    provenance.scale = source.scale();
    provenance.seed = source.seed();
    provenance.readLength = source.info().readLength;
    provenance.errorRate = source.info().errorRate;
    StoreWriter writer(path, provenance);
    PairBatch batch;
    while (source.next(batch) > 0)
        for (const auto &view : batch.views())
            writer.add({std::string(view.pattern),
                        std::string(view.text), view.alphabet,
                        view.trueEdits});
    writer.finish();
    return ReadStore::open(path);
}

/** The two cells every report test sweeps. */
void
addCells(algos::BatchRunner &runner,
         const std::shared_ptr<const genomics::PairSource> &source)
{
    algos::RunOptions wfa;
    wfa.variant = algos::Variant::Vec;
    runner.add(algos::workloadByName("WFA"), source, wfa);
    algos::RunOptions ss;
    ss.variant = algos::Variant::Base;
    runner.add(algos::workloadByName("SS"), source, ss);
}

TEST(Store, ReportByteIdenticalToInRamRun)
{
    ScopedPath path("store_report.qzs");
    const auto store = catalogStore(path.str());

    const auto dataset = std::make_shared<const genomics::PairDataset>(
        genomics::makeDataset("100bp_1", 0.1));

    algos::BatchRunner ram(1);
    ram.setShard(std::nullopt);
    ram.setFaultInjection(std::nullopt);
    addCells(ram,
             std::make_shared<genomics::DatasetPairSource>(dataset));
    const std::string ramJson = algos::toJson(algos::makeBenchReport(
        "store-vs-ram", 0.1, 1, ram.run()));

    algos::BatchRunner disk(1);
    disk.setShard(std::nullopt);
    disk.setFaultInjection(std::nullopt);
    addCells(disk, std::make_shared<StorePairSource>(store));
    const std::string diskJson = algos::toJson(algos::makeBenchReport(
        "store-vs-ram", 0.1, 1, disk.run()));

    EXPECT_EQ(diskJson, ramJson);
}

TEST(Store, ShardedStoreRangesMergeByteIdentically)
{
    ScopedPath path("store_shards.qzs");
    const auto store = catalogStore(path.str());
    const std::size_t total = store->size();
    ASSERT_GE(total, 6u);

    // Unsharded reference over the whole store. Six cells: three
    // contiguous ranges x two workloads, submitted range-major so the
    // shard engine's round-robin lands each range pair on one shard.
    auto addRangeCells = [&](algos::BatchRunner &runner) {
        const std::size_t third = total / 3;
        for (const auto &[from, to] :
             std::vector<std::pair<std::size_t, std::size_t>>{
                 {0, third}, {third, 2 * third}, {2 * third, total}}) {
            algos::RunOptions options;
            options.variant = algos::Variant::Vec;
            runner.add(
                algos::workloadByName("WFA"),
                std::make_shared<StorePairSource>(store, from, to),
                options);
        }
    };

    algos::BatchRunner whole(1);
    whole.setShard(std::nullopt);
    whole.setFaultInjection(std::nullopt);
    addRangeCells(whole);
    const std::string wholeJson = algos::toJson(algos::makeBenchReport(
        "store-shards", 0.1, 1, whole.run()));

    std::vector<algos::BenchReport> shardReports;
    for (unsigned k = 1; k <= 3; ++k) {
        algos::BatchRunner shard(1);
        shard.setShard(algos::ShardSpec{k, 3});
        shard.setFaultInjection(std::nullopt);
        addRangeCells(shard);
        shardReports.push_back(algos::makeBenchReport(
            "store-shards", 0.1, 1, shard.run()));
    }
    const std::string mergedJson = algos::toJson(
        algos::mergeShardReports(std::move(shardReports)));

    EXPECT_EQ(mergedJson, wholeJson);
}

TEST(Store, CellIdentityMatchesAcrossIntakeModes)
{
    ScopedPath path("store_hash.qzs");
    const auto store = catalogStore(path.str());
    const genomics::PairDataset dataset =
        genomics::makeDataset("100bp_1", 0.1);

    algos::RunOptions options;
    options.variant = algos::Variant::QzC;
    options.system = sim::SystemParams::withQuetzal(8);

    const StorePairSource viaStore(store);
    const genomics::DatasetPairSource viaRam(dataset);
    EXPECT_EQ(algos::cellKey("WFA", viaStore, options),
              algos::cellKey("WFA", dataset, options));
    EXPECT_EQ(algos::cellHash("WFA", viaStore, options),
              algos::cellHash("WFA", dataset, options));
    EXPECT_EQ(algos::cellHash("WFA", viaRam, options),
              algos::cellHash("WFA", dataset, options));
}

} // namespace
} // namespace quetzal
