/**
 * @file
 * PC-indexed stride prefetcher, as attached to the A64FX L1D/L2 in
 * Table I. On a trained stride it issues `degree` line fills ahead of
 * the demand stream. Scatter/gather element streams defeat it (their
 * per-element "PCs" are the same but strides are irregular), which is
 * exactly the behaviour the paper's motivation section describes.
 */
#ifndef QUETZAL_SIM_PREFETCHER_HPP
#define QUETZAL_SIM_PREFETCHER_HPP

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "sim/cache.hpp"
#include "sim/params.hpp"

namespace quetzal::sim {

/** Classic reference-prediction-table stride prefetcher. */
class StridePrefetcher
{
  public:
    StridePrefetcher(const PrefetcherParams &params, Cache &target);

    /**
     * Observe a demand access from instruction site @p pc at @p addr and
     * issue prefetch fills into the target cache when a stride is
     * established.
     *
     * Inline (it runs once per demand request from MemorySystem's
     * inlined access chain): the table update and the trained-stream
     * short-circuit — every lookahead target on the demand line and
     * that line resident, making the whole issue loop a provable no-op
     * (contains() never mutates, so nothing would fill and no stat
     * would move); the endpoint line check pins every intermediate
     * target because they are monotone in the lookahead distance.
     * Only streams that genuinely cross a line boundary take the
     * out-of-line issue walk.
     */
    QZ_CACHE_ALWAYS_INLINE void
    observe(std::uint64_t pc, Addr addr)
    {
        if (!params_.enabled || table_.empty())
            return;

        Entry &entry = table_[slotOf(pc)];
        if (!entry.valid || entry.pc != pc) {
            entry = Entry{pc, addr, 0, 0, true};
            return;
        }

        const std::int64_t stride =
            static_cast<std::int64_t>(addr) -
            static_cast<std::int64_t>(entry.lastAddr);
        if (stride != 0 && stride == entry.stride) {
            if (entry.confidence < params_.trainThreshold)
                ++entry.confidence;
        } else {
            entry.stride = stride;
            entry.confidence = 0;
        }
        entry.lastAddr = addr;

        if (entry.confidence >= params_.trainThreshold &&
            entry.stride != 0) {
            const Addr last = addr + static_cast<Addr>(
                entry.stride *
                static_cast<std::int64_t>(params_.degree));
            if (target_.sameLine(addr, last) && target_.contains(addr))
                return;
            issueAhead(entry, addr);
        }
    }

    /**
     * True when observe(pc, addr) would change nothing: the prefetcher
     * is off, or @p pc's entry is already {pc, addr, stride 0,
     * confidence 0} (a zero stride resets the entry to itself and
     * never issues). Entries reach that state on the second
     * consecutive observation of one line by one site.
     */
    bool
    settled(std::uint64_t pc, Addr addr) const
    {
        if (!params_.enabled || table_.empty())
            return true;
        const Entry &entry = table_[slotOf(pc)];
        return entry.valid && entry.pc == pc && entry.lastAddr == addr &&
               entry.stride == 0 && entry.confidence == 0;
    }

    /**
     * Table slot @p pc trains: `pc % size`, without a hardware divide
     * on every demand access when the size is a power of two. Every
     * pc maps to slot 0 when the prefetcher is off (no slot is
     * touched then).
     */
    QZ_CACHE_ALWAYS_INLINE std::size_t
    slotOf(std::uint64_t pc) const
    {
        if (!params_.enabled || table_.empty())
            return 0;
        return tableMask_ ? (pc & tableMask_) : (pc % table_.size());
    }

    std::uint64_t issued() const { return issued_->value(); }

    StatGroup &stats() { return stats_; }

  private:
    struct Entry
    {
        std::uint64_t pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        bool valid = false;
    };

    /** Trained-stride issue walk: fill `degree` lines ahead. */
    void issueAhead(const Entry &entry, Addr addr);

    PrefetcherParams params_;
    Cache &target_;
    std::vector<Entry> table_;
    /** size-1 when the table size is a power of two, else 0. */
    std::size_t tableMask_ = 0;

    StatGroup stats_;
    Stat *issued_;
};

} // namespace quetzal::sim

#endif // QUETZAL_SIM_PREFETCHER_HPP
