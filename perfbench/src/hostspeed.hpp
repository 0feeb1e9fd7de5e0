/**
 * @file
 * Host-speed calibration. On a shared host the same code runs up to 2x
 * slower for minutes at a time, because other tenants contend for the
 * caches and memory (README.md, "Noise"). The benchmark times a fixed
 * kernel of its own — random read-modify-writes with data-dependent
 * branches over a 256 KiB table, cache-bound like the simulator's own
 * tables — between operations, at most every 20 ms, and scales each
 * timing to the host speed at which the kernel takes kReferenceNs,
 * using the kernel samples taken around it. The kernel is
 * benchmark code: a change to the program cannot move it.
 */
#ifndef QZBENCH_HOSTSPEED_HPP
#define QZBENCH_HOSTSPEED_HPP

#include <cstdint>
#include <vector>

namespace qzbench {

class HostSpeed
{
  public:
    /** Kernel time the scaled metrics are expressed at: the kernel's
     *  median on the 4-vCPU KVM host the benchmark was tuned on. */
    static constexpr double kReferenceNs = 500'000.0;
    /** Fewest nanoseconds between two samples taken by tick(). */
    static constexpr std::int64_t kIntervalNs = 20'000'000;

    HostSpeed();

    /** Time the kernel once, now. Call between operations, never
     *  inside a timed one. */
    void sample();

    /** sample() if kIntervalNs have passed since the last sample. */
    void tick();

    /** Forget every sample. */
    void reset();

    /** Median kernel time, ns (0 without samples). */
    double medianNs() const;

    /**
     * Factor that scales a timing taken during [@p fromNs, @p toNs]:
     * kReferenceNs over the median of the samples taken in that
     * window, or over the sample closest to it when there are none.
     * Multiply a time by it, divide a rate by it; 1 without samples.
     */
    double scaleOver(std::int64_t fromNs, std::int64_t toNs) const;

    std::size_t samples() const { return samples_.size(); }

  private:
    struct Sample
    {
        std::int64_t atNs; //!< when the kernel ended
        double ns;         //!< kernel time
    };

    std::vector<std::uint32_t> table_;
    std::vector<Sample> samples_; //!< in time order
};

/** The process-wide calibration every workload ticks. */
HostSpeed &hostSpeed();

} // namespace qzbench

#endif // QZBENCH_HOSTSPEED_HPP
