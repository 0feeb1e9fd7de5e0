#include "hostspeed.hpp"

#include <algorithm>

#include "stats.hpp"
#include "trace.hpp"

namespace qzbench {

namespace {

// An eighth of a core's private cache (2 MiB on the tuning host): the
// table fits there after the untimed touch below, so only contention
// during the kernel moves its time, not what the program left behind.
constexpr std::size_t kTableWords = std::size_t{1} << 16; // 256 KiB
constexpr int kKernelOps = 100'000;

volatile std::uint64_t g_sink;

} // namespace

HostSpeed::HostSpeed() : table_(kTableWords, 0) {}

void
HostSpeed::tick()
{
    if (samples_.empty() || nowNs() - samples_.back().atNs >= kIntervalNs)
        sample();
}

void
HostSpeed::sample()
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < table_.size(); i += 16) // one word a line
        sum += table_[i];

    const std::int64_t start = nowNs();
    std::uint64_t x = 1;
    const std::size_t mask = table_.size() - 1;
    for (int i = 0; i < kKernelOps; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint32_t &v = table_[(x >> 30) & mask];
        if (v & 1)
            sum += v;
        else
            v += static_cast<std::uint32_t>(x);
    }
    const std::int64_t end = nowNs();
    samples_.push_back({end, static_cast<double>(end - start)});
    g_sink = g_sink + sum;
}

void
HostSpeed::reset()
{
    samples_.clear();
}

double
HostSpeed::medianNs() const
{
    std::vector<double> ns;
    for (const Sample &s : samples_)
        ns.push_back(s.ns);
    return median(ns);
}

double
HostSpeed::scaleOver(std::int64_t fromNs, std::int64_t toNs) const
{
    if (samples_.empty())
        return 1.0;
    const auto byTime = [](const Sample &s, std::int64_t t) {
        return s.atNs < t;
    };
    auto first = std::lower_bound(samples_.begin(), samples_.end(), fromNs,
                                  byTime);
    const auto last = std::lower_bound(first, samples_.end(), toNs + 1,
                                       byTime);
    std::vector<double> ns;
    for (auto it = first; it != last; ++it)
        ns.push_back(it->ns);
    if (ns.empty()) {
        // Nothing inside: the closer of the two neighbours.
        if (first == samples_.end() ||
            (first != samples_.begin() &&
             fromNs - std::prev(first)->atNs < first->atNs - toNs))
            --first;
        ns.push_back(first->ns);
    }
    return kReferenceNs / median(std::move(ns));
}

HostSpeed &
hostSpeed()
{
    static HostSpeed speed;
    return speed;
}

} // namespace qzbench
