/**
 * @file
 * Call-cost probes: host nanoseconds per call of the public functions
 * the simulated instruction passes through (memory system, pipeline,
 * host-SIMD kernels, QUETZAL unit), each on seeded inputs shaped like
 * the algorithm that drives it. Each probe is repeated and reports its
 * median, so one contention phase cannot set the figure.
 */
#ifndef QZBENCH_PROBES_HPP
#define QZBENCH_PROBES_HPP

#include <cstdint>

#include "trace.hpp"
#include "workloads.hpp"

namespace qzbench {

/** Append every probe metric to @p out; spans go to @p tracer. */
void runProbes(std::uint64_t seed, Tracer &tracer, Metrics &out);

} // namespace qzbench

#endif // QZBENCH_PROBES_HPP
