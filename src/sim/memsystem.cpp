#include "sim/memsystem.hpp"

#include <algorithm>

#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace quetzal::sim {

MemorySystem::MemorySystem(const SystemParams &params)
    : params_(params), l1d_("l1d", params.l1d), l2_("l2", params.l2),
      l1Prefetcher_(params.prefetcher, l1d_), stats_("mem")
{
    requests_ = &stats_.stat("requests", "demand requests to L1D");
    l2Requests_ = &stats_.stat("l2_requests", "requests that reached L2");
    dramRequests_ = &stats_.stat("dram_requests",
                                 "requests that reached DRAM");
    dramBytes_ = &stats_.stat("dram_bytes", "bytes fetched from DRAM");
    translateFast_ = &stats_.stat(
        "translate_fast", "translations served by the MRU entry");
    l1LineShift_ = floorLog2(params.l1d.lineBytes);
    directory_.resize(64, nullptr);
}

namespace {

/** Finalizer-style mix (splitmix64) for the chunk directory. */
inline std::uint64_t
mixChunkIndex(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void
MemorySystem::growDirectory()
{
    std::vector<Chunk *> grown(directory_.size() * 2, nullptr);
    const std::size_t mask = grown.size() - 1;
    for (const auto &chunk : chunks_) {
        std::size_t slot = mixChunkIndex(chunk->base) & mask;
        while (grown[slot] != nullptr)
            slot = (slot + 1) & mask;
        grown[slot] = chunk.get();
    }
    directory_ = std::move(grown);
}

MemorySystem::Chunk *
MemorySystem::chunkFor(Addr chunkIdx)
{
    if (mruChunk_ != nullptr && mruChunk_->base == chunkIdx)
        return mruChunk_;
    const std::size_t mask = directory_.size() - 1;
    std::size_t slot = mixChunkIndex(chunkIdx) & mask;
    while (Chunk *c = directory_[slot]) {
        if (c->base == chunkIdx) {
            mruChunk_ = c;
            return c;
        }
        slot = (slot + 1) & mask;
    }
    // First host access anywhere in this 16 KB span: allocate the
    // chunk (zero stamps = every entry stale) and publish it.
    auto owned = std::make_unique<Chunk>();
    owned->base = chunkIdx;
    Chunk *c = owned.get();
    chunks_.push_back(std::move(owned));
    directory_[slot] = c;
    if (++directoryUsed_ * 4 >= directory_.size() * 3)
        growDirectory();
    mruChunk_ = c;
    return c;
}

Addr
MemorySystem::translateMiss(Addr hostAddr)
{
    const Addr par = hostAddr / kParagraphBytes;
    const Addr offset = hostAddr % kParagraphBytes;
    Chunk *chunk = chunkFor(par >> kChunkShift);
    const std::size_t idx = par & (kChunkParagraphs - 1);
    // First touch this epoch: hand out the next simulated paragraph,
    // exactly as the retired hash map's try_emplace did. The stamp
    // compare replaces membership in the per-epoch map.
    if (chunk->stamp[idx] != epoch_) {
        chunk->stamp[idx] = epoch_;
        chunk->simPar[idx] = nextParagraph_++;
    }
    const Addr simPar = chunk->simPar[idx];
    tlb_[static_cast<std::size_t>(par) & (kTlbEntries - 1)] =
        TlbEntry{par, simPar, epoch_};
    return simPar * kParagraphBytes + offset;
}

unsigned
MemorySystem::missToL2(Addr addr)
{
    ++*l2Requests_;
    if (l2_.access(addr)) {
        l1d_.fill(addr);
        return l2_.loadToUse();
    }

    ++*dramRequests_;
    *dramBytes_ += l2_.lineBytes();
    l2_.fill(addr);
    l1d_.fill(addr);
    return params_.dram.latencyCycles;
}

unsigned
MemorySystem::accessSpanning(std::uint64_t pc, Addr addr, Addr first,
                             Addr last)
{
    // Walk the host footprint paragraph by paragraph (the translation
    // granularity), probing each distinct simulated line once. The
    // line split is decided by simulated addresses so that it, too,
    // is independent of where the host allocator placed the data.
    // Line-index math is a shift (line size is a power of two): a
    // hardware divide here would be the single hottest instruction of
    // the whole simulator.
    //
    // translate()'s previous-paragraph bookkeeping is hoisted out of
    // the walk: consecutive paragraphs always differ, so only the
    // first can re-touch the prior access's paragraph (the
    // translate_fast definition), and the tracker ends up holding the
    // last paragraph — exactly the state per-paragraph translate()
    // calls would leave behind.
    if (first == mruPar_)
        ++*translateFast_;
    mruPar_ = last;
    const unsigned shift = l1LineShift_;
    unsigned worst = 0;
    Addr prevLine = ~Addr{0};
    for (Addr p = first; p <= last; ++p) {
        const Addr offset = p == first ? addr % kParagraphBytes : 0;
        const TlbEntry &e =
            tlb_[static_cast<std::size_t>(p) & (kTlbEntries - 1)];
        const Addr sim = (e.par == p && e.epoch == epoch_)
            ? e.simPar * kParagraphBytes + offset
            : translateMiss(p * kParagraphBytes + offset);
        const Addr simLine = sim >> shift;
        if (simLine != prevLine) {
            worst = std::max(worst,
                             accessLine(pc, simLine << shift));
            prevLine = simLine;
        }
    }
    return worst;
}

void
MemorySystem::openStreams(std::span<const std::uint64_t> pcs,
                          std::span<StreamMemo> memos) const
{
    panic_if_not(memos.size() == pcs.size(),
                 "openStreams: {} memos for {} streams", memos.size(),
                 pcs.size());
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        const std::size_t slot = l1Prefetcher_.slotOf(pcs[i]);
        bool exclusive = true;
        for (std::size_t j = 0; j < pcs.size(); ++j)
            if (j != i && l1Prefetcher_.slotOf(pcs[j]) == slot)
                exclusive = false;
        memos[i] = StreamMemo{};
        memos[i].pfExclusive = exclusive;
    }
}

void
MemorySystem::accessVector(std::uint64_t pc, std::span<const Addr> addrs,
                           unsigned elemBytes, bool write,
                           std::span<unsigned> latencies)
{
    fatal_if(latencies.size() < addrs.size(),
             "accessVector latency span ({}) shorter than lane count ({})",
             latencies.size(), addrs.size());
    // Lane order is the element-serial order executeIndexed used when
    // it called access() per lane, so demand counts, prefetcher
    // training, and recency updates are bit-identical; batching only
    // keeps the translation/MRU fast paths warm across the burst.
    for (std::size_t i = 0; i < addrs.size(); ++i)
        latencies[i] = access(pc, addrs[i], elemBytes, write);
}

} // namespace quetzal::sim
