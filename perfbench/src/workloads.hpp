/**
 * @file
 * The three benchmark workloads. Each one is a set-up (repeated, so
 * set-up time is a median), a timed pass (repeated for the run's
 * seconds), a correctness check run after timing, and the per-layer
 * metrics of its traced passes. See README.md for why each exists.
 */
#ifndef QZBENCH_WORKLOADS_HPP
#define QZBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algos/runner.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace qzbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** Simulated totals; byte-identical across runs of one seed. */
struct SimTotals
{
    std::uint64_t instructions = 0;
    std::uint64_t memRequests = 0;
    std::uint64_t cycles = 0;
    std::uint64_t dramBytes = 0;

    void
    add(const quetzal::algos::RunResult &r)
    {
        instructions += r.instructions;
        memRequests += r.memRequests;
        cycles += r.cycles;
        dramBytes += r.dramBytes;
    }
    bool operator==(const SimTotals &) const = default;
};

/** What one timed pass did. */
struct PassWork
{
    std::uint64_t pairs = 0;    //!< pairs simulated
    std::uint64_t requests = 0; //!< operations with a latency sample
};

class Bench
{
  public:
    virtual ~Bench() = default;

    /** One complete set-up: inputs, store, pool, warm-up. */
    virtual void setUp() = 0;
    /** One timed pass; spans go to @p tracer. */
    virtual PassWork pass(Tracer &tracer) = 0;
    /** Per-request latencies of every pass since reset(). */
    virtual std::vector<Latency> latencies() const = 0;
    /** Forget pass results and samples (warm-up vs timed vs traced). */
    virtual void reset() = 0;
    /** Stop child processes; called once after the last pass. */
    virtual void finish() {}
    /** Check every pass since reset() (outside timing). */
    virtual Ops verify() = 0;
    /** Simulated totals of one pass. */
    virtual SimTotals sim() const = 0;
    /** Per-layer metrics of the traced passes in @p tracer. */
    virtual void layers(const Tracer &tracer, Metrics &out) = 0;
    /** Peak resident set of everything this workload ran, MiB. */
    virtual double peakRssMib() const;
    /** Size of the workload's on-disk store, MiB (0 without one). */
    virtual double storeMib() const { return 0.0; }
    /** serve counters {errors, redispatches, respawns} (serve only). */
    virtual std::vector<double> serveCounts() const { return {}; }
};

/** Work directory files (store) live under @p workdir. */
std::unique_ptr<Bench> makeBench(const std::string &name,
                                 std::uint64_t seed,
                                 const std::string &workdir);

/** The benchmark's workload names, in BENCHMARK.json order. */
const std::vector<std::string> &benchNames();

/** Peak RSS of this process, MiB. */
double selfPeakRssMib();

} // namespace qzbench

#endif // QZBENCH_WORKLOADS_HPP
