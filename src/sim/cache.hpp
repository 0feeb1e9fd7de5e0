/**
 * @file
 * Tag-only set-associative cache timing model with exact LRU
 * replacement.
 *
 * Functional data lives in host memory (the algorithms operate on their
 * real arrays); the cache model only tracks which lines would be
 * resident, gem5-classic style, so timing and functional state stay
 * decoupled.
 *
 * LRU is implemented as an intrusively MRU-ordered per-set way list
 * instead of per-way timestamps: victim selection is O(1) (the list
 * tail), the tag array is contiguous per set for the probe scan, and
 * re-touching the MRU line — the overwhelmingly common case on the
 * simulator hot path — is a single compare with no set walk. The
 * replacement decisions are bit-identical to scanning 8-byte
 * timestamps (tests/test_sim.cpp, ExactLruEquivalence, drives both
 * policies with a randomized trace and asserts identical hit/miss/
 * eviction sequences).
 */
#ifndef QUETZAL_SIM_CACHE_HPP
#define QUETZAL_SIM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "sim/params.hpp"

namespace quetzal::sim {

/**
 * Force-inline marker for the per-access fast paths below: access()
 * and contains() are entered once per demand request (~400M per full
 * sweep) from MemorySystem's inlined access chain, and the MRU-hit
 * path is a handful of instructions once inlined. The optimizer's
 * size heuristics keep these out of line on their own, so the hint is
 * load-bearing (docs/SIMULATOR.md, "Host performance").
 */
#if defined(__GNUC__) || defined(__clang__)
#define QZ_CACHE_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define QZ_CACHE_ALWAYS_INLINE inline
#endif

/** Physical-address alias; we use host pointers as addresses. */
using Addr = std::uint64_t;

/** A set-associative, LRU, tag-only cache. */
class Cache
{
  public:
    /**
     * @param name stat-group name, e.g. "l1d".
     * @param params geometry and latency.
     */
    Cache(std::string name, const CacheParams &params);

    /**
     * Probe and update the cache for a (timing) access.
     * @return true on hit. On miss the line is filled.
     *
     * The MRU-way re-touch — the overwhelmingly common case on the
     * simulator hot path — is resolved inline; everything else
     * (non-MRU hits needing a recency rotation, misses needing an
     * insert) takes the out-of-line rest path.
     */
    QZ_CACHE_ALWAYS_INLINE bool
    access(Addr addr)
    {
        const std::uint64_t line = lineOf(addr);
        const std::size_t set = setOf(line);
        const std::uint64_t *tags =
            tags_.data() + set * params_.associativity;
        if (valid_[set] > 0 && tags[0] == line) {
            ++*hits_;
            return true;
        }
        return accessRest(set, line);
    }

    /** Probe without fill (used by the prefetcher to test residency). */
    QZ_CACHE_ALWAYS_INLINE bool
    contains(Addr addr) const
    {
        const std::uint64_t line = lineOf(addr);
        const std::size_t set = setOf(line);
        const std::uint64_t *tags =
            tags_.data() + set * params_.associativity;
        const unsigned count = valid_[set];
        for (unsigned i = 0; i < count; ++i)
            if (tags[i] == line)
                return true;
        return false;
    }

    /**
     * The MRU tag slot of @p addr's set. The tag array never moves,
     * so the pointer stays valid for the cache's lifetime; once the
     * set holds a line, `*slot == addr >> log2(lineBytes)` is exactly
     * access()'s inline MRU-hit test.
     */
    const std::uint64_t *
    mruSlot(Addr addr) const
    {
        return tags_.data() + setOf(lineOf(addr)) * params_.associativity;
    }

    /** Count a demand hit the caller resolved through mruSlot(): the
     *  same bookkeeping as access()'s MRU fast path. */
    QZ_CACHE_ALWAYS_INLINE void countMruHit() { ++*hits_; }

    /** True when @p a and @p b fall on the same cache line. */
    QZ_CACHE_ALWAYS_INLINE bool
    sameLine(Addr a, Addr b) const
    {
        return ((a ^ b) >> lineShift_) == 0;
    }

    /** Insert a line without counting it as a demand access. */
    void fill(Addr addr);

    /** Drop all lines and leave stats intact. */
    void invalidateAll();

    unsigned loadToUse() const { return params_.loadToUse; }
    unsigned lineBytes() const { return params_.lineBytes; }

    std::uint64_t hits() const { return hits_->value(); }
    std::uint64_t misses() const { return misses_->value(); }

    StatGroup &stats() { return stats_; }

  private:
    // Hot-path index math avoids hardware division: the line size is
    // asserted a power of two (shift), and the set count is one for
    // every realistic geometry (mask); the modulo fallback keeps odd
    // set counts exact. Same quotients/remainders either way.
    std::uint64_t lineOf(Addr addr) const { return addr >> lineShift_; }
    std::size_t setOf(std::uint64_t line) const
    {
        return setsPow2_ ? (line & (numSets_ - 1)) : (line % numSets_);
    }

    /**
     * Probe the set for @p line and, on a hit, rotate it to the MRU
     * slot. @return the pre-rotation MRU position, or kMiss.
     */
    unsigned touch(std::size_t set, std::uint64_t line);

    /**
     * access() continuation after the inline MRU-way probe missed:
     * scan the rest of the set (hit -> rotate to MRU), else count the
     * miss and insert. Same hit/miss/eviction sequence as the
     * monolithic access() this splits.
     */
    bool accessRest(std::size_t set, std::uint64_t line);

    /**
     * Insert @p line at the MRU slot of @p set after a probe miss.
     * While the set has unfilled ways the occupancy grows (matching
     * timestamp-LRU's first-invalid-way victim choice); once full, the
     * LRU slot — the set's last valid entry — falls off the end.
     */
    void insert(std::size_t set, std::uint64_t line);

    static constexpr unsigned kMiss = ~0u;

    CacheParams params_;
    std::size_t numSets_;
    unsigned lineShift_;
    bool setsPow2_;

    /**
     * Line tags, numSets_ x associativity, each set's tags contiguous
     * and kept in MRU->LRU order: tags_[set*assoc] is the set's MRU
     * line and tags_[set*assoc + valid_[set] - 1] its LRU (= victim).
     * Re-touching the MRU line is therefore a single compare, probes
     * scan forward over recency-sorted tags, and victim selection
     * reads the last valid slot.
     */
    std::vector<std::uint64_t> tags_;
    /** Valid (resident) lines per set. */
    std::vector<std::uint8_t> valid_;

    StatGroup stats_;
    Stat *hits_;
    Stat *misses_;
};

} // namespace quetzal::sim

#endif // QUETZAL_SIM_CACHE_HPP
