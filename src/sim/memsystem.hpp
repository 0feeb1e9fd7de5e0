/**
 * @file
 * Two-level cache hierarchy plus DRAM: the per-core view of the memory
 * system from Table I (L1D 64 KB / L2 8 MB shared / 4-channel HBM2).
 *
 * Returns load-to-use latencies for timing and counts requests and DRAM
 * traffic; DRAM byte counts feed the multicore bandwidth-contention
 * model (Fig. 13b) and the memory-request-reduction results (Fig. 14a).
 *
 * Address translation — the per-paragraph host->simulated mapping every
 * access walks — is a two-level flat page table (a small open-addressed
 * chunk directory over flat per-chunk arrays) fronted by a one-entry
 * MRU translation cache, instead of a per-paragraph hash map: the
 * sequential streams the genomics kernels generate resolve almost every
 * paragraph in O(1) with no hashing, and epoch invalidation is a stamp
 * bump instead of a rehash-churning clear(). Simulated metrics are
 * unaffected by construction: the first-touch assignment order, and
 * therefore every simulated address, is identical (docs/SIMULATOR.md,
 * "Host performance").
 */
#ifndef QUETZAL_SIM_MEMSYSTEM_HPP
#define QUETZAL_SIM_MEMSYSTEM_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "sim/cache.hpp"
#include "sim/prefetcher.hpp"

namespace quetzal::sim {

/** Per-core memory hierarchy timing model. */
class MemorySystem
{
  public:
    explicit MemorySystem(const SystemParams &params);

    /**
     * Perform one (timing) access.
     *
     * @param pc static instruction site, used by the stride prefetcher.
     * @param addr host address standing in for the physical address.
     * @param bytes access footprint; accesses spanning multiple lines
     *              probe each line and return the worst latency.
     * @param write true for stores (timed like loads; write-allocate).
     * @return load-to-use latency in cycles.
     *
     * Most requests (scalar loads/stores, gather elements) fit inside
     * one paragraph: one translation, one line probe, no loop state —
     * that case resolves inline; footprints crossing a paragraph
     * boundary take the out-of-line walk.
     */
    QZ_CACHE_ALWAYS_INLINE unsigned
    access(std::uint64_t pc, Addr addr, unsigned bytes, bool write)
    {
        // Stores are write-allocate and, for timing purposes, behave
        // like loads (the LSQ hides store latency; the occupancy cost
        // is modeled in the pipeline).
        (void)write;
        const unsigned shift = l1LineShift_;
        const Addr first = addr / kParagraphBytes;
        const Addr last =
            (addr + (bytes > 1 ? bytes : 1u) - 1) / kParagraphBytes;
        if (first == last) [[likely]] {
            const Addr simLine = translate(addr) >> shift;
            return accessLine(pc, simLine << shift);
        }
        return accessSpanning(pc, addr, first, last);
    }

    /**
     * Batched indexed access: translate and probe every lane of a
     * gather/scatter burst in one pass. Element i's latency lands in
     * latencies[i]. The elements are processed in lane order with the
     * exact per-element semantics of access() — same demand counts,
     * same prefetcher observations, same recency updates — so cycles
     * and stats are bit-identical to element-serial access() calls;
     * the burst just keeps the translation and MRU-way fast paths hot
     * across lanes instead of re-entering them per element.
     */
    void accessVector(std::uint64_t pc, std::span<const Addr> addrs,
                      unsigned elemBytes, bool write,
                      std::span<unsigned> latencies);

    /**
     * Run-local memo of one strided access stream of a cell run
     * (Pipeline::executeCellRun): the stream's last host paragraph
     * with its simulated base, and its last simulated line with that
     * line's L1 set MRU slot. Valid only within one run — nothing
     * inside a run starts an epoch or invalidates the caches.
     */
    struct StreamMemo
    {
        Addr par = kNoParagraph;
        Addr simBase = 0;
        Addr line = kNoParagraph;
        const std::uint64_t *mruTag = nullptr;
        bool pfExclusive = false; //!< no other stream shares the slot
        bool pfQuiet = false;     //!< slot settled on `line` (exclusive)
    };

    /**
     * Start a run over streams with sites @p pcs: reset @p memos
     * (one per pc, same order) and mark the streams whose prefetcher
     * slot no other stream of the run trains.
     */
    void openStreams(std::span<const std::uint64_t> pcs,
                     std::span<StreamMemo> memos) const;

    /**
     * access() for one stream of a cell run, exact by construction:
     *  - a repeat of the stream's last host paragraph reuses its
     *    translation (assignments are fixed within an epoch) and
     *    skips the TLB probe; the translate_fast bookkeeping still
     *    runs;
     *  - a repeat of its last simulated line tests that line's MRU
     *    slot directly instead of hashing to the set — the same
     *    compare access() makes first;
     *  - on such a line repeat, the prefetcher update is skipped too
     *    when the stream owns its slot and the entry is settled on
     *    the line (settled() — the update would be a no-op).
     * Every other access takes access()'s steps and refreshes the
     * memo; a paragraph-straddling one takes the multi-paragraph walk
     * and clears it.
     */
    QZ_CACHE_ALWAYS_INLINE unsigned
    accessStream(StreamMemo &s, std::uint64_t pc, Addr addr,
                 unsigned bytes)
    {
        const Addr par = addr / kParagraphBytes;
        const Addr last =
            (addr + (bytes > 1 ? bytes : 1u) - 1) / kParagraphBytes;
        if (par != last) [[unlikely]] {
            s.par = s.line = kNoParagraph;
            return accessSpanning(pc, addr, par, last);
        }
        Addr sim;
        if (par == s.par) {
            if (par == mruPar_)
                ++*translateFast_;
            else
                mruPar_ = par;
            sim = s.simBase + addr % kParagraphBytes;
        } else {
            sim = translate(addr);
            s.par = par;
            s.simBase = sim - addr % kParagraphBytes;
        }
        const unsigned shift = l1LineShift_;
        const Addr simLine = sim >> shift;
        const Addr lineAddr = simLine << shift;
        const bool sameLine = simLine == s.line;
        ++*requests_;
        if (!(sameLine && s.pfQuiet)) {
            l1Prefetcher_.observe(pc, lineAddr);
            s.pfQuiet =
                s.pfExclusive && l1Prefetcher_.settled(pc, lineAddr);
        }
        if (sameLine && *s.mruTag == simLine) {
            ++streamLineHits_;
            l1d_.countMruHit();
            return l1d_.loadToUse();
        }
        s.line = simLine;
        s.mruTag = l1d_.mruSlot(lineAddr);
        if (l1d_.access(lineAddr))
            return l1d_.loadToUse();
        return missToL2(lineAddr);
    }

    /** Stream accesses whose L1 hit the memo resolved (host-perf
     *  observability; not a simulated metric). */
    std::uint64_t streamLineHits() const { return streamLineHits_; }

    /** Total demand requests sent to the L1 (the Fig. 14a numerator). */
    std::uint64_t totalRequests() const { return requests_->value(); }

    /**
     * Map a host address to the deterministic simulated physical
     * address the caches index on. Host heap pointers stand in for
     * virtual addresses, but their values depend on allocation order
     * (and ASLR), which would make cache indexing — and therefore
     * cycle counts — vary between runs and between serial and
     * parallel batch execution. Each 16-byte host paragraph is
     * instead assigned the next simulated paragraph on first touch.
     * malloc alignment makes everything below a paragraph
     * deterministic, and a core's access sequence (which fixes the
     * touch order) is deterministic too, so the resulting addresses —
     * and every cycle count downstream — are reproducible no matter
     * where the host allocator put the data. Streams stay contiguous
     * in simulated space because they touch paragraphs in order.
     */
    QZ_CACHE_ALWAYS_INLINE Addr
    translate(Addr hostAddr)
    {
        const Addr par = hostAddr / kParagraphBytes;
        // The translate_fast stat predates the multi-entry TLB below
        // and counts re-touches of the immediately previous paragraph
        // (sequential streams re-touch one paragraph for up to 16
        // consecutive byte addresses). Keep that exact definition —
        // mruPar_ tracks the last translated paragraph, nothing else —
        // so the stat stays byte-identical to the one-entry-MRU
        // implementation it came from.
        if (par == mruPar_) {
            ++*translateFast_;
        } else {
            mruPar_ = par;
        }
        // Direct-mapped host-TLB over live assignments. The DP inner
        // loops interleave four-to-six address streams (three or four
        // band rows, the output row, the sequences), which thrashed a
        // single MRU entry on nearly every access; distinct streams
        // land in distinct slots here. Pure cache: entries are only
        // ever copies of live (stamped) chunk assignments, so hitting
        // one is observationally identical to re-walking the chunk
        // directory. Entries carry the epoch that stamped them, so a
        // hit is par+epoch equality — and newEpoch() never has to
        // touch the table.
        const TlbEntry &e =
            tlb_[static_cast<std::size_t>(par) & (kTlbEntries - 1)];
        if (e.par == par && e.epoch == epoch_)
            return e.simPar * kParagraphBytes +
                   hostAddr % kParagraphBytes;
        return translateMiss(hostAddr);
    }

    /**
     * Forget host->simulated paragraph assignments (simulated
     * addresses keep advancing, so new mappings never alias old
     * ones). Called between independent work items (e.g. pairs):
     * whether the host allocator recycles one item's buffers for the
     * next depends on allocator state the simulation must not observe,
     * so recycled memory is remapped fresh instead.
     *
     * O(1): entries carry the epoch that stamped them, so bumping the
     * epoch invalidates every assignment at once — no table clear, no
     * rehash churn on the next pair's first touches.
     */
    void
    newEpoch()
    {
        // TLB entries are epoch-stamped, so the bump alone invalidates
        // all of them — no per-item table wipe (work items can be as
        // small as one 100 bp pair, where a wipe would rival the
        // pair's own translation work). Only the previous-paragraph
        // tracker needs re-pointing at a paragraph no host address
        // maps to.
        ++epoch_;
        mruPar_ = kNoParagraph;
    }

    /** Bytes transferred from DRAM (for bandwidth contention). */
    std::uint64_t dramBytes() const { return dramBytes_->value(); }

    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    StridePrefetcher &l1Prefetcher() { return l1Prefetcher_; }

    const SystemParams &params() const { return params_; }

    StatGroup &stats() { return stats_; }

  private:
    /** Translation granularity: malloc's 16-byte alignment guarantee. */
    static constexpr Addr kParagraphBytes = 16;
    /** MRU-invalid sentinel: no host address divides down to this
     *  paragraph index (it would need addr >= 2^64 - 16). */
    static constexpr Addr kNoParagraph = ~Addr{0};
    /** log2(paragraphs per chunk): 1024 paragraphs = 16 KB of host. */
    static constexpr unsigned kChunkShift = 10;
    static constexpr std::size_t kChunkParagraphs =
        std::size_t{1} << kChunkShift;

    /**
     * Second translation level: the assignments for one aligned run
     * of kChunkParagraphs host paragraphs, as flat arrays indexed by
     * the paragraph's offset within the chunk. An entry is live only
     * when its stamp equals the current epoch.
     */
    struct Chunk
    {
        Addr base = 0; //!< host paragraph index >> kChunkShift
        std::array<std::uint64_t, kChunkParagraphs> stamp{};
        std::array<Addr, kChunkParagraphs> simPar{};
    };

    /** Directory lookup (first level); creates the chunk on a miss. */
    Chunk *chunkFor(Addr chunkIdx);
    void growDirectory();

    /** translate() continuation past the MRU entry: chunk-directory
     *  walk, first-touch assignment, MRU refresh. */
    Addr translateMiss(Addr hostAddr);

    /**
     * One line probe. The L1 path — stat, prefetcher observation,
     * L1 probe — inlines into the access chain; only a genuine L1
     * miss leaves the inlined code for the L2/DRAM walk.
     */
    QZ_CACHE_ALWAYS_INLINE unsigned
    accessLine(std::uint64_t pc, Addr addr)
    {
        ++*requests_;
        l1Prefetcher_.observe(pc, addr);
        if (l1d_.access(addr))
            return l1d_.loadToUse();
        return missToL2(addr);
    }

    /** accessLine() continuation after an L1 miss. */
    unsigned missToL2(Addr addr);

    /** access() continuation for multi-paragraph footprints. */
    unsigned accessSpanning(std::uint64_t pc, Addr addr, Addr first,
                            Addr last);

    SystemParams params_;
    Cache l1d_;
    Cache l2_;
    StridePrefetcher l1Prefetcher_;

    /** Owning store of every allocated chunk. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    /** Open-addressed chunk directory (power-of-two, linear probing). */
    std::vector<Chunk *> directory_;
    std::size_t directoryUsed_ = 0;

    /** Direct-mapped TLB size: must cover the distinct streams a DP
     *  inner loop interleaves with slack against conflicts. */
    static constexpr std::size_t kTlbEntries = 1024;

    /** Last chunk touched (directory-walk shortcut) and last paragraph
     *  translated (the translate_fast stat definition). Both use
     *  kNoParagraph-style sentinels so validity and match are one
     *  compare. */
    Chunk *mruChunk_ = nullptr;
    Addr mruPar_ = kNoParagraph;

    /** One translation-cache entry: host paragraph, its simulated
     *  paragraph, and the epoch that stamped the assignment. A slot
     *  is live only when both par and epoch match, so zero-initialized
     *  entries (epoch 0; epoch_ starts at 1) are never hits and
     *  newEpoch() retires every entry without touching the array.
     *  Kept in one struct so a hit reads one cache line, not two
     *  parallel arrays. */
    struct TlbEntry
    {
        Addr par;
        Addr simPar;
        std::uint64_t epoch;
    };

    /** Direct-mapped translation cache over live chunk assignments,
     *  slot = paragraph & (kTlbEntries - 1). */
    std::array<TlbEntry, kTlbEntries> tlb_{};

    Addr nextParagraph_ = 1;
    std::uint64_t epoch_ = 1; //!< current stamp; 0 marks never-assigned
    unsigned l1LineShift_ = 0; //!< log2(L1 line) — access() index math

    StatGroup stats_;
    Stat *requests_;
    Stat *l2Requests_;
    Stat *dramRequests_;
    Stat *dramBytes_;
    Stat *translateFast_;
    std::uint64_t streamLineHits_ = 0;
};

} // namespace quetzal::sim

#endif // QUETZAL_SIM_MEMSYSTEM_HPP
