/**
 * @file
 * Indexed on-disk read store (docs/STORE.md): the binary format that
 * lets qz-align/qz-filter/qz-perf sweep millions of pairs at bounded
 * memory instead of regenerating datasets in RAM per run. Modeled on
 * Canu's seqStore/ovStore architecture — a fixed header with dataset
 * provenance, a 2-bit-packed payload with an 8-bit escape, and a
 * fixed-width offset/length index — written streaming by
 * `qz-datagen --store` and opened read-only via mmap with a portable
 * pread() fallback.
 *
 * Layout (all integers little-endian; see docs/STORE.md):
 *
 *   header   magic "QZSTORE1", version, pair count, payload/index
 *            offsets, FNV-1a-64 content checksum, provenance (name,
 *            scale, seed, read length, error rate)
 *   payload  per pair: packed pattern bytes then packed text bytes
 *            (2-bit codes, 4 bases/byte, or raw 8-bit when the
 *            sequence contains 'N'/non-ACGT characters)
 *   index    one 32-byte entry per pair: payload offset, base
 *            counts, true edit distance, encoding/alphabet flags
 *
 * Determinism contract: decoding pair i of a store written from a
 * PairSource yields that source's pair i byte-for-byte, so
 * store-backed runs report identically to in-RAM runs
 * (tests/test_store.cpp, CI store-smoke).
 */
#ifndef QUETZAL_GENOMICS_STORE_HPP
#define QUETZAL_GENOMICS_STORE_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "genomics/pairsource.hpp"
#include "genomics/sequence.hpp"

namespace quetzal::genomics {

constexpr std::string_view kStoreMagic = "QZSTORE1";
constexpr std::uint32_t kStoreVersion = 1;

/** Index sentinel: "to the end of the store". */
constexpr std::size_t kStoreEnd = ~std::size_t{0};

/** How the pairs in a store were produced (header provenance). */
struct StoreProvenance
{
    std::string name = "custom"; //!< catalog spec name or "custom"
    double scale = 1.0;          //!< catalog scale factor
    std::uint64_t seed = 0;      //!< read-simulator seed
    std::size_t readLength = 0;  //!< nominal bases per read
    double errorRate = 0.0;      //!< nominal per-base edit rate
};

/**
 * Streaming store writer: add() pairs in order, then finish().
 * Memory stays bounded by the index (32 bytes/pair) — payloads are
 * packed and appended immediately. The header (with the final
 * checksum) is rewritten on finish(), so a crashed writer leaves a
 * store that open() rejects.
 */
class StoreWriter
{
  public:
    StoreWriter(const std::string &path, StoreProvenance provenance);
    ~StoreWriter();

    StoreWriter(const StoreWriter &) = delete;
    StoreWriter &operator=(const StoreWriter &) = delete;

    /** Append one pair (validated like dataset generation). */
    void add(const SequencePair &pair);

    /** Pairs appended so far. */
    std::size_t
    pairs() const
    {
        return index_.size();
    }

    /** Write the index, seal the header, close the file. */
    void finish();

  private:
    struct Entry
    {
        std::uint64_t offset; //!< payload-relative byte offset
        std::uint32_t patternBases;
        std::uint32_t textBases;
        std::int64_t trueEdits;
        std::uint8_t flags;
    };

    void appendSequence(std::string_view seq, bool raw);

    std::string path_;
    StoreProvenance provenance_;
    std::ofstream out_;
    std::uint64_t payloadOffset_ = 0;
    std::uint64_t payloadBytes_ = 0;
    std::uint64_t checksum_;
    std::vector<Entry> index_;
    bool finished_ = false;
};

struct StoreOpenOptions
{
    /**
     * Verify the FNV-1a content checksum (streamed, O(file)) unless
     * this process already verified the same file version.
     */
    bool verifyChecksum = true;
    /** Force the pread() fallback even where mmap is available. */
    bool disableMmap = false;
};

/**
 * Read-only view of a store file. Thread-safe after open(): decoding
 * uses only const state plus pread()/mmap reads, so one shared
 * instance serves any number of StorePairSource cursors.
 */
class ReadStore
{
  public:
    /**
     * Map @p path and check its header and layout. The content scan
     * runs once per file version per process: a re-open of a file
     * whose (device, inode), size, mtime, ctime and header checksum
     * match an earlier verified open skips it (docs/STORE.md
     * "Provenance and integrity"). Every call maps the file afresh.
     */
    static std::shared_ptr<const ReadStore>
    open(const std::string &path, const StoreOpenOptions &options = {});

    ~ReadStore();

    ReadStore(const ReadStore &) = delete;
    ReadStore &operator=(const ReadStore &) = delete;

    std::size_t
    size() const
    {
        return pairCount_;
    }

    const StoreProvenance &
    provenance() const
    {
        return provenance_;
    }

    const std::string &
    path() const
    {
        return path_;
    }

    std::uint64_t
    checksum() const
    {
        return checksum_;
    }

    /** True when the file is memory-mapped (vs the pread fallback). */
    bool
    mapped() const
    {
        return map_ != nullptr;
    }

    /** True when open() scanned the content against its checksum. */
    bool
    scannedOnOpen() const
    {
        return scannedOnOpen_;
    }

    /** Decode pair @p index into @p out (clears previous contents). */
    void decodePair(std::size_t index, SequencePair &out) const;

    /** Decode pair @p index by value. */
    SequencePair pair(std::size_t index) const;

    /**
     * Absolute file offset of pair @p index's payload (== payload
     * end for index == size()). Payload offsets are monotone in pair
     * order, which is what makes streaming release windows valid.
     */
    std::uint64_t payloadBeginOf(std::size_t index) const;

    /**
     * Hint that the payload and index pages of pairs [from, to) will
     * not be touched again (madvise(MADV_DONTNEED) on the
     * page-aligned interiors). No-op in pread mode. Pages fault back
     * in if re-read, so this is always safe — it only bounds RSS.
     */
    void releasePairRange(std::size_t from, std::size_t to) const;

  private:
    ReadStore() = default;

    struct Entry
    {
        std::uint64_t offset;
        std::uint32_t patternBases;
        std::uint32_t textBases;
        std::int64_t trueEdits;
        std::uint8_t flags;
    };

    Entry entryOf(std::size_t index) const;
    void readBytes(std::uint64_t offset, void *dst,
                   std::size_t bytes) const;
    void decodeSequence(std::uint64_t payloadOffset, std::size_t bases,
                        bool raw, AlphabetKind alphabet,
                        std::string &out) const;

    std::string path_;
    int fd_ = -1;
    const unsigned char *map_ = nullptr;
    std::uint64_t fileBytes_ = 0;
    std::uint64_t payloadOffset_ = 0;
    std::uint64_t payloadBytes_ = 0;
    std::uint64_t indexOffset_ = 0;
    std::uint64_t pairCount_ = 0;
    std::uint64_t checksum_ = 0;
    bool scannedOnOpen_ = false;
    StoreProvenance provenance_;
};

/**
 * Streaming PairSource over a [from, to) range of a store. In mmap
 * mode, payload and index pages behind the cursor are released every
 * ~16 MiB, so RSS stays bounded however large the store is.
 */
class StorePairSource final : public PairSource
{
  public:
    explicit StorePairSource(std::shared_ptr<const ReadStore> store,
                             std::size_t from = 0,
                             std::size_t to = kStoreEnd);

    const SourceInfo &
    info() const override
    {
        return info_;
    }

    std::size_t
    size() const override
    {
        return to_ - from_;
    }

    std::size_t next(PairBatch &batch) override;
    void rewind() override;

    std::unique_ptr<PairSource> slice(std::size_t from,
                                      std::size_t to) const override;

    const ReadStore &
    store() const
    {
        return *store_;
    }

  private:
    void releaseBehindCursor();

    std::shared_ptr<const ReadStore> store_;
    SourceInfo info_;
    std::size_t from_;
    std::size_t to_;
    std::size_t cursor_;
    std::size_t releasedTo_; //!< pairs below this are madvised away
};

/** Parsed `FILE[:FROM-TO]` store range target (CLI `--store`). */
struct StoreTarget
{
    std::string path;
    std::size_t from = 0;
    std::size_t to = kStoreEnd;
};

/**
 * Parse a `--store` argument: `reads.qzs`, `reads.qzs:100-200`
 * (half-open), `reads.qzs:100-` (to the end), `reads.qzs:-200`
 * (from the start). Only a trailing `:digits-digits` suffix is
 * treated as a range, so paths containing ':' still work.
 */
StoreTarget parseStoreTarget(std::string_view target);

/** Open @p target.path and slice its range as a fresh source. */
std::unique_ptr<PairSource> openStoreSource(const StoreTarget &target);

} // namespace quetzal::genomics

#endif // QUETZAL_GENOMICS_STORE_HPP
