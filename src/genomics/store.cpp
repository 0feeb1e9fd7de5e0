#include "genomics/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "common/logging.hpp"
#include "genomics/datasets.hpp"
#include "genomics/encoding.hpp"

namespace quetzal::genomics {

namespace {

// Fixed header prefix before the variable-length name (docs/STORE.md).
constexpr std::size_t kFixedHeaderBytes = 92;
constexpr std::size_t kIndexEntryBytes = 32;
constexpr std::size_t kMaxNameBytes = 4096;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint8_t kFlagPatternRaw = 1u << 0;
constexpr std::uint8_t kFlagTextRaw = 1u << 1;
constexpr unsigned kFlagAlphabetShift = 2;

std::uint64_t
fnvMix(std::uint64_t hash, const unsigned char *bytes,
       std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

std::size_t
align8(std::size_t bytes)
{
    return (bytes + 7) & ~std::size_t{7};
}

std::size_t
packedBytes(std::size_t bases, bool raw)
{
    return raw ? bases : (bases + 3) / 4;
}

void
putU32(unsigned char *dst, std::uint32_t value)
{
    for (unsigned i = 0; i < 4; ++i)
        dst[i] = static_cast<unsigned char>(value >> (8 * i));
}

void
putU64(unsigned char *dst, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        dst[i] = static_cast<unsigned char>(value >> (8 * i));
}

std::uint32_t
getU32(const unsigned char *src)
{
    std::uint32_t value = 0;
    for (unsigned i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(src[i]) << (8 * i);
    return value;
}

std::uint64_t
getU64(const unsigned char *src)
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    return value;
}

std::uint8_t
alphabetCode(AlphabetKind kind)
{
    switch (kind) {
      case AlphabetKind::Dna:
        return 0;
      case AlphabetKind::Rna:
        return 1;
      default:
        return 2;
    }
}

AlphabetKind
alphabetFromCode(std::uint8_t code)
{
    switch (code) {
      case 0:
        return AlphabetKind::Dna;
      case 1:
        return AlphabetKind::Rna;
      case 2:
        return AlphabetKind::Protein;
      default:
        fatal("read store: unknown alphabet code {}", code);
    }
}

/** Does 2-bit packing round-trip @p seq? ('N' and proteins do not.) */
bool
packs2bit(std::string_view seq, AlphabetKind kind)
{
    if (kind == AlphabetKind::Protein)
        return false;
    for (const char c : seq) {
        const char back = kind == AlphabetKind::Rna
                              ? decodeBase2Rna(encodeBase2(c))
                              : decodeBase2Dna(encodeBase2(c));
        if (back != c)
            return false;
    }
    return true;
}

/** Serialize the header; @p headerBytes is the name-padded size. */
std::vector<unsigned char>
encodeHeader(const StoreProvenance &provenance,
             std::uint64_t pairCount, std::uint64_t payloadOffset,
             std::uint64_t payloadBytes, std::uint64_t indexOffset,
             std::uint64_t checksum)
{
    const std::string &name = provenance.name;
    std::vector<unsigned char> header(
        align8(kFixedHeaderBytes + name.size()), 0);
    std::memcpy(header.data(), kStoreMagic.data(), kStoreMagic.size());
    putU32(header.data() + 8, kStoreVersion);
    putU32(header.data() + 12, 0); // reserved flags
    putU64(header.data() + 16, pairCount);
    putU64(header.data() + 24, payloadOffset);
    putU64(header.data() + 32, payloadBytes);
    putU64(header.data() + 40, indexOffset);
    putU64(header.data() + 48, checksum);
    putU64(header.data() + 56, provenance.seed);
    putU64(header.data() + 64,
           std::bit_cast<std::uint64_t>(provenance.scale));
    putU64(header.data() + 72,
           std::bit_cast<std::uint64_t>(provenance.errorRate));
    putU64(header.data() + 80,
           static_cast<std::uint64_t>(provenance.readLength));
    putU32(header.data() + 88,
           static_cast<std::uint32_t>(name.size()));
    std::memcpy(header.data() + kFixedHeaderBytes, name.data(),
                name.size());
    return header;
}

void
encodeIndexEntry(unsigned char *dst, std::uint64_t offset,
                 std::uint32_t patternBases, std::uint32_t textBases,
                 std::int64_t trueEdits, std::uint8_t flags)
{
    std::memset(dst, 0, kIndexEntryBytes);
    putU64(dst, offset);
    putU32(dst + 8, patternBases);
    putU32(dst + 12, textBases);
    putU64(dst + 16, static_cast<std::uint64_t>(trueEdits));
    dst[24] = flags;
}

} // namespace

// ---------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(const std::string &path,
                         StoreProvenance provenance)
    : path_(path), provenance_(std::move(provenance)),
      checksum_(kFnvOffset)
{
    fatal_if(provenance_.name.size() > kMaxNameBytes,
             "store dataset name longer than {} bytes",
             kMaxNameBytes);
    out_.open(path_, std::ios::binary | std::ios::trunc);
    fatal_if(!out_, "cannot open '{}' for writing", path_);
    // Placeholder header: counts and checksum are zero until
    // finish(), so a torn write is rejected by open().
    const auto header = encodeHeader(provenance_, 0, 0, 0, 0, 0);
    payloadOffset_ = header.size();
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
}

StoreWriter::~StoreWriter()
{
    if (!finished_ && out_.is_open())
        warn("store writer for '{}' destroyed before finish(); the "
             "file is incomplete and will be rejected on open",
             path_);
}

void
StoreWriter::appendSequence(std::string_view seq, bool raw)
{
    static thread_local std::vector<unsigned char> packed;
    const unsigned char *bytes;
    std::size_t count;
    if (raw) {
        bytes = reinterpret_cast<const unsigned char *>(seq.data());
        count = seq.size();
    } else {
        count = packedBytes(seq.size(), false);
        packed.assign(count, 0);
        for (std::size_t i = 0; i < seq.size(); ++i)
            packed[i / 4] = static_cast<unsigned char>(
                packed[i / 4] |
                (encodeBase2(seq[i]) << (2 * (i % 4))));
        bytes = packed.data();
    }
    checksum_ = fnvMix(checksum_, bytes, count);
    out_.write(reinterpret_cast<const char *>(bytes),
               static_cast<std::streamsize>(count));
    payloadBytes_ += count;
}

void
StoreWriter::add(const SequencePair &pair)
{
    fatal_if(finished_, "store writer for '{}' already finished",
             path_);
    validatePair(pair, pair.alphabet, index_.size(),
                 provenance_.name);
    fatal_if(pair.pattern.size() > ~std::uint32_t{0} ||
                 pair.text.size() > ~std::uint32_t{0},
             "store pair {} exceeds the 4 Gbase sequence limit",
             index_.size());
    Entry entry;
    entry.offset = payloadBytes_;
    entry.patternBases =
        static_cast<std::uint32_t>(pair.pattern.size());
    entry.textBases = static_cast<std::uint32_t>(pair.text.size());
    entry.trueEdits = pair.trueEdits;
    const bool patternRaw = !packs2bit(pair.pattern, pair.alphabet);
    const bool textRaw = !packs2bit(pair.text, pair.alphabet);
    entry.flags = static_cast<std::uint8_t>(
        (patternRaw ? kFlagPatternRaw : 0) |
        (textRaw ? kFlagTextRaw : 0) |
        (alphabetCode(pair.alphabet) << kFlagAlphabetShift));
    appendSequence(pair.pattern, patternRaw);
    appendSequence(pair.text, textRaw);
    index_.push_back(entry);
}

void
StoreWriter::finish()
{
    fatal_if(finished_, "store writer for '{}' already finished",
             path_);
    const std::uint64_t indexOffset = payloadOffset_ + payloadBytes_;
    unsigned char entryBytes[kIndexEntryBytes];
    for (const Entry &entry : index_) {
        encodeIndexEntry(entryBytes, entry.offset, entry.patternBases,
                         entry.textBases, entry.trueEdits,
                         entry.flags);
        checksum_ = fnvMix(checksum_, entryBytes, kIndexEntryBytes);
        out_.write(reinterpret_cast<const char *>(entryBytes),
                   static_cast<std::streamsize>(kIndexEntryBytes));
    }
    const auto header =
        encodeHeader(provenance_, index_.size(), payloadOffset_,
                     payloadBytes_, indexOffset, checksum_);
    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    out_.close();
    fatal_if(out_.fail(), "write error finishing store '{}'", path_);
    finished_ = true;
}

// ---------------------------------------------------------------------
// ReadStore

namespace {

bool
before(const timespec &a, const timespec &b)
{
    return a.tv_sec != b.tv_sec ? a.tv_sec < b.tv_sec
                                : a.tv_nsec < b.tv_nsec;
}

/** What identifies one version of a store file. */
struct FileVersion
{
    off_t size;
    timespec mtime;
    timespec ctime;
    std::uint64_t checksum; //!< the header's content checksum

    bool
    operator==(const FileVersion &other) const
    {
        const auto same = [](const timespec &a, const timespec &b) {
            return a.tv_sec == b.tv_sec && a.tv_nsec == b.tv_nsec;
        };
        return size == other.size && same(mtime, other.mtime) &&
               same(ctime, other.ctime) && checksum == other.checksum;
    }
};

/**
 * The file versions this process has verified, keyed by
 * (st_dev, st_ino): a re-open of a matching version skips the
 * content scan (docs/STORE.md "Provenance and integrity").
 */
class VerifiedVersions
{
  public:
    using Key = std::pair<dev_t, ino_t>;

    bool
    contains(const Key &key, const FileVersion &version)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = versions_.find(key);
        return it != versions_.end() && it->second == version;
    }

    /**
     * Record @p version as verified by a scan that started after
     * @p scanStart (CLOCK_REALTIME_COARSE). A version stamped in or
     * after that tick is not recorded: a rewrite within the same
     * timestamp tick would leave its size and times unchanged.
     */
    void
    remember(const Key &key, const FileVersion &version,
             const timespec &scanStart)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (before(version.mtime, scanStart) &&
            before(version.ctime, scanStart))
            versions_.insert_or_assign(key, version);
        else
            versions_.erase(key);
    }

  private:
    std::mutex mutex_;
    std::map<Key, FileVersion> versions_;
};

VerifiedVersions &
verifiedVersions()
{
    static VerifiedVersions versions;
    return versions;
}

} // namespace

std::shared_ptr<const ReadStore>
ReadStore::open(const std::string &path,
                const StoreOpenOptions &options)
{
    std::shared_ptr<ReadStore> store(new ReadStore());
    store->path_ = path;
    store->fd_ = ::open(path.c_str(), O_RDONLY);
    fatal_if(store->fd_ < 0, "cannot open store '{}'", path);
    // Read before the stat, so any write after it stamps the file
    // with this tick or a later one.
    timespec scanStart{};
    ::clock_gettime(CLOCK_REALTIME_COARSE, &scanStart);
    struct stat st;
    fatal_if(::fstat(store->fd_, &st) != 0,
             "cannot stat store '{}'", path);
    store->fileBytes_ = static_cast<std::uint64_t>(st.st_size);

    unsigned char fixed[kFixedHeaderBytes];
    fatal_if(store->fileBytes_ < kFixedHeaderBytes,
             "'{}' is not a read store (truncated header)", path);
    store->readBytes(0, fixed, kFixedHeaderBytes);
    fatal_if(std::memcmp(fixed, kStoreMagic.data(),
                         kStoreMagic.size()) != 0,
             "'{}' is not a read store (bad magic)", path);
    const std::uint32_t version = getU32(fixed + 8);
    fatal_if(version != kStoreVersion,
             "store '{}' has version {}, this build reads version {}",
             path, version, kStoreVersion);
    store->pairCount_ = getU64(fixed + 16);
    store->payloadOffset_ = getU64(fixed + 24);
    store->payloadBytes_ = getU64(fixed + 32);
    store->indexOffset_ = getU64(fixed + 40);
    store->checksum_ = getU64(fixed + 48);
    store->provenance_.seed = getU64(fixed + 56);
    store->provenance_.scale =
        std::bit_cast<double>(getU64(fixed + 64));
    store->provenance_.errorRate =
        std::bit_cast<double>(getU64(fixed + 72));
    store->provenance_.readLength =
        static_cast<std::size_t>(getU64(fixed + 80));
    const std::uint32_t nameLen = getU32(fixed + 88);

    fatal_if(nameLen > kMaxNameBytes ||
                 kFixedHeaderBytes + nameLen > store->fileBytes_,
             "store '{}' header is corrupt (name length {})", path,
             nameLen);
    store->provenance_.name.resize(nameLen);
    if (nameLen > 0)
        store->readBytes(kFixedHeaderBytes,
                         store->provenance_.name.data(), nameLen);

    const std::uint64_t headerBytes =
        align8(kFixedHeaderBytes + nameLen);
    fatal_if(store->payloadOffset_ != headerBytes ||
                 store->payloadOffset_ + store->payloadBytes_ !=
                     store->indexOffset_ ||
                 store->indexOffset_ +
                         store->pairCount_ * kIndexEntryBytes !=
                     store->fileBytes_,
             "store '{}' is truncated or corrupt (layout mismatch)",
             path);

    if (!options.disableMmap && store->fileBytes_ > 0) {
        void *map = ::mmap(nullptr, store->fileBytes_, PROT_READ,
                           MAP_SHARED, store->fd_, 0);
        if (map != MAP_FAILED)
            store->map_ = static_cast<const unsigned char *>(map);
        // mmap failure is not an error: fall through to pread.
    }

    const VerifiedVersions::Key key{st.st_dev, st.st_ino};
    const FileVersion fileVersion{st.st_size, st.st_mtim, st.st_ctim,
                                  store->checksum_};
    if (options.verifyChecksum &&
        !verifiedVersions().contains(key, fileVersion)) {
        // Stream the verification with pread so it never inflates
        // RSS, even in mmap mode.
        std::uint64_t hash = kFnvOffset;
        std::vector<unsigned char> chunk(256 * 1024);
        std::uint64_t offset = store->payloadOffset_;
        while (offset < store->fileBytes_) {
            const std::size_t count = static_cast<std::size_t>(
                std::min<std::uint64_t>(chunk.size(),
                                        store->fileBytes_ - offset));
            const ssize_t got = ::pread(store->fd_, chunk.data(),
                                        count,
                                        static_cast<off_t>(offset));
            fatal_if(got != static_cast<ssize_t>(count),
                     "read error verifying store '{}'", path);
            hash = fnvMix(hash, chunk.data(), count);
            offset += count;
        }
        fatal_if(hash != store->checksum_,
                 "store '{}' failed its content checksum "
                 "(corrupted or torn write)",
                 path);
        store->scannedOnOpen_ = true;
        verifiedVersions().remember(key, fileVersion, scanStart);
    }
    return store;
}

ReadStore::~ReadStore()
{
    if (map_ != nullptr)
        ::munmap(const_cast<unsigned char *>(map_), fileBytes_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
ReadStore::readBytes(std::uint64_t offset, void *dst,
                     std::size_t bytes) const
{
    if (map_ != nullptr) {
        std::memcpy(dst, map_ + offset, bytes);
        return;
    }
    const ssize_t got =
        ::pread(fd_, dst, bytes, static_cast<off_t>(offset));
    fatal_if(got != static_cast<ssize_t>(bytes),
             "read error in store '{}' at offset {}", path_, offset);
}

ReadStore::Entry
ReadStore::entryOf(std::size_t index) const
{
    panic_if_not(index < pairCount_,
                 "store pair index {} out of range (size {})", index,
                 pairCount_);
    unsigned char bytes[kIndexEntryBytes];
    readBytes(indexOffset_ + index * kIndexEntryBytes, bytes,
              kIndexEntryBytes);
    Entry entry;
    entry.offset = getU64(bytes);
    entry.patternBases = getU32(bytes + 8);
    entry.textBases = getU32(bytes + 12);
    entry.trueEdits = static_cast<std::int64_t>(getU64(bytes + 16));
    entry.flags = bytes[24];
    const std::uint64_t spanned =
        packedBytes(entry.patternBases,
                    (entry.flags & kFlagPatternRaw) != 0) +
        packedBytes(entry.textBases,
                    (entry.flags & kFlagTextRaw) != 0);
    fatal_if(entry.offset > payloadBytes_ ||
                 spanned > payloadBytes_ - entry.offset,
             "store '{}' index entry {} points outside the payload",
             path_, index);
    return entry;
}

void
ReadStore::decodeSequence(std::uint64_t payloadOffset,
                          std::size_t bases, bool raw,
                          AlphabetKind alphabet,
                          std::string &out) const
{
    out.resize(bases);
    if (raw) {
        readBytes(payloadOffset_ + payloadOffset, out.data(), bases);
        return;
    }
    if (bases == 0)
        return;
    static thread_local std::vector<unsigned char> packed;
    const std::size_t count = packedBytes(bases, false);
    const unsigned char *bytes;
    if (map_ != nullptr) {
        bytes = map_ + payloadOffset_ + payloadOffset;
    } else {
        packed.resize(count);
        readBytes(payloadOffset_ + payloadOffset, packed.data(),
                  count);
        bytes = packed.data();
    }
    const bool rna = alphabet == AlphabetKind::Rna;
    for (std::size_t i = 0; i < bases; ++i) {
        const std::uint8_t code = static_cast<std::uint8_t>(
            (bytes[i / 4] >> (2 * (i % 4))) & 0x3u);
        out[i] = rna ? decodeBase2Rna(code) : decodeBase2Dna(code);
    }
}

void
ReadStore::decodePair(std::size_t index, SequencePair &out) const
{
    const Entry entry = entryOf(index);
    const bool patternRaw = (entry.flags & kFlagPatternRaw) != 0;
    const bool textRaw = (entry.flags & kFlagTextRaw) != 0;
    out.alphabet = alphabetFromCode(
        static_cast<std::uint8_t>(entry.flags >> kFlagAlphabetShift));
    out.trueEdits = entry.trueEdits;
    decodeSequence(entry.offset, entry.patternBases, patternRaw,
                   out.alphabet, out.pattern);
    decodeSequence(entry.offset +
                       packedBytes(entry.patternBases, patternRaw),
                   entry.textBases, textRaw, out.alphabet, out.text);
}

SequencePair
ReadStore::pair(std::size_t index) const
{
    SequencePair out;
    decodePair(index, out);
    return out;
}

std::uint64_t
ReadStore::payloadBeginOf(std::size_t index) const
{
    if (index >= pairCount_)
        return payloadOffset_ + payloadBytes_;
    return payloadOffset_ + entryOf(index).offset;
}

void
ReadStore::releasePairRange(std::size_t from, std::size_t to) const
{
    if (map_ == nullptr || to <= from)
        return;
    const std::uint64_t page =
        static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const auto release = [&](std::uint64_t begin, std::uint64_t end) {
        begin = (begin + page - 1) / page * page; // shrink inward
        end = end / page * page;
        if (begin < end)
            ::madvise(const_cast<unsigned char *>(map_) + begin,
                      end - begin, MADV_DONTNEED);
    };
    release(payloadBeginOf(from), payloadBeginOf(to));
    release(indexOffset_ + from * kIndexEntryBytes,
            indexOffset_ + to * kIndexEntryBytes);
}

// ---------------------------------------------------------------------
// StorePairSource

StorePairSource::StorePairSource(
    std::shared_ptr<const ReadStore> store, std::size_t from,
    std::size_t to)
    : store_(std::move(store))
{
    fatal_if(!store_, "StorePairSource over a null store");
    const std::size_t total = store_->size();
    from_ = std::min(from, total);
    to_ = std::min(std::max(to, from_), total);
    cursor_ = from_;
    releasedTo_ = from_;
    const StoreProvenance &provenance = store_->provenance();
    info_.name = provenance.name;
    info_.readLength = provenance.readLength;
    info_.errorRate = provenance.errorRate;
}

std::size_t
StorePairSource::next(PairBatch &batch)
{
    batch.clear();
    while (cursor_ < to_ && !batch.full()) {
        SequencePair pair;
        store_->decodePair(cursor_, pair);
        batch.pushOwned(std::move(pair));
        ++cursor_;
    }
    releaseBehindCursor();
    return batch.size();
}

void
StorePairSource::releaseBehindCursor()
{
    // Bound RSS on large sweeps: drop pages more than one release
    // window behind the cursor. The previous batch's pairs are
    // already copied out, so nothing re-reads them.
    constexpr std::uint64_t kWindowBytes = 16ull << 20;
    if (!store_->mapped() || cursor_ <= releasedTo_)
        return;
    const std::uint64_t behind = store_->payloadBeginOf(cursor_) -
                                 store_->payloadBeginOf(releasedTo_);
    if (behind < kWindowBytes)
        return;
    store_->releasePairRange(releasedTo_, cursor_);
    releasedTo_ = cursor_;
}

void
StorePairSource::rewind()
{
    cursor_ = from_;
    releasedTo_ = from_; // released pages fault back in on re-read
}

std::unique_ptr<PairSource>
StorePairSource::slice(std::size_t from, std::size_t to) const
{
    const std::size_t window = size();
    from = std::min(from, window);
    to = std::min(std::max(to, from), window);
    return std::make_unique<StorePairSource>(store_, from_ + from,
                                             from_ + to);
}

// ---------------------------------------------------------------------
// CLI targets and the per-process store cache

StoreTarget
parseStoreTarget(std::string_view target)
{
    StoreTarget parsed;
    parsed.path = std::string(target);
    const std::size_t colon = target.rfind(':');
    if (colon == std::string_view::npos)
        return parsed;
    const std::string_view suffix = target.substr(colon + 1);
    const std::size_t dash = suffix.find('-');
    if (dash == std::string_view::npos ||
        suffix.find('-', dash + 1) != std::string_view::npos ||
        suffix.find_first_not_of("0123456789-") !=
            std::string_view::npos)
        return parsed; // not a range suffix; ':' belongs to the path
    const auto parse = [&](std::string_view digits,
                           std::size_t fallback) {
        if (digits.empty())
            return fallback;
        std::size_t value = 0;
        for (const char c : digits) {
            fatal_if(value > (kStoreEnd - 9) / 10,
                     "store range bound '{}' is out of range",
                     std::string(digits));
            value = value * 10 + static_cast<std::size_t>(c - '0');
        }
        return value;
    };
    parsed.path = std::string(target.substr(0, colon));
    parsed.from = parse(suffix.substr(0, dash), 0);
    parsed.to = parse(suffix.substr(dash + 1), kStoreEnd);
    fatal_if(parsed.to < parsed.from,
             "store range {}-{} is backwards", parsed.from,
             parsed.to);
    return parsed;
}

std::unique_ptr<PairSource>
openStoreSource(const StoreTarget &target)
{
    auto store = ReadStore::open(target.path);
    fatal_if(target.from > store->size(),
             "store range starts at pair {} but '{}' holds {} "
             "pair(s)",
             target.from, target.path, store->size());
    return std::make_unique<StorePairSource>(std::move(store),
                                             target.from, target.to);
}

} // namespace quetzal::genomics
