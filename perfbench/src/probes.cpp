#include "probes.hpp"

#include <functional>
#include <string>
#include <vector>

#include "algos/workload.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "inputs.hpp"
#include "isa/hostsimd.hpp"
#include "sim/context.hpp"

namespace qzbench {

using namespace quetzal;

namespace {

constexpr int kRepeats = 5;

/**
 * Median over kRepeats (after one warm-up call) of @p body's time
 * divided by the call count it returns.
 */
double
nsPerCall(Tracer &tracer, const char *name,
          const std::function<std::uint64_t()> &body)
{
    (void)body();
    std::vector<double> ns;
    for (int r = 0; r < kRepeats; ++r) {
        const auto span = tracer.span("probe", name);
        const std::int64_t start = nowNs();
        const std::uint64_t calls = body();
        ns.push_back(static_cast<double>(nowNs() - start) /
                     static_cast<double>(calls));
    }
    return median(ns);
}

/** NW fillScalar's access shape: per cell 5 loads (three diagonal
 *  neighbours, one pattern and one text byte) and 1 store, over a
 *  full anti-diagonal table. */
double
probeMemAccess(Tracer &tracer)
{
    constexpr std::size_t kLen = 250, kDiags = 500;
    std::vector<std::int32_t> table((kDiags + 2) * kLen);
    std::string pattern(kLen, 'A'), text(kLen, 'C');
    sim::MemorySystem mem(sim::SystemParams::baseline());
    return nsPerCall(tracer, "sim.mem.access", [&] {
        std::uint64_t latency = 0;
        for (std::size_t d = 2; d < kDiags + 2; ++d) {
            const std::int32_t *r2 = &table[(d - 2) * kLen];
            const std::int32_t *r1 = &table[(d - 1) * kLen];
            std::int32_t *out = &table[d * kLen];
            for (std::size_t k = 0; k + 1 < kLen; ++k) {
                latency += mem.access(1, reinterpret_cast<sim::Addr>(r1 + k + 1), 4, false);
                latency += mem.access(2, reinterpret_cast<sim::Addr>(r1 + k), 4, false);
                latency += mem.access(3, reinterpret_cast<sim::Addr>(r2 + k), 4, false);
                latency += mem.access(4, reinterpret_cast<sim::Addr>(&pattern[k]), 1, false);
                latency += mem.access(5, reinterpret_cast<sim::Addr>(&text[kLen - 1 - k]), 1, false);
                latency += mem.access(6, reinterpret_cast<sim::Addr>(out + k), 4, true);
            }
        }
        fatal_if(latency == 0, "probe: no memory latency");
        return std::uint64_t{kDiags * (kLen - 1) * 6};
    });
}

/** Gather-shaped bursts (histogram / SpMV): 16 random 4-byte lanes. */
double
probeMemAccessVector(Tracer &tracer, std::uint64_t seed)
{
    constexpr std::size_t kTable = 64 * 1024, kLanes = 16, kBursts = 20000;
    std::vector<std::uint32_t> table(kTable);
    Rng rng(subSeed(seed, "probe-gather"));
    std::vector<sim::Addr> addrs(kBursts * kLanes);
    for (sim::Addr &a : addrs)
        a = reinterpret_cast<sim::Addr>(&table[rng.below(kTable)]);
    std::vector<unsigned> latencies(kLanes);
    sim::MemorySystem mem(sim::SystemParams::baseline());
    return nsPerCall(tracer, "sim.mem.access_vector", [&] {
        for (std::size_t b = 0; b < kBursts; ++b)
            mem.accessVector(7, std::span(&addrs[b * kLanes], kLanes), 4,
                             false, latencies);
        return std::uint64_t{kBursts * kLanes};
    });
}

/** Scalar ALU ops, alternating dependent and independent issue. */
double
probeExecuteOp(Tracer &tracer)
{
    constexpr std::uint64_t kOps = 1'000'000;
    sim::SimContext ctx(sim::SystemParams::baseline());
    return nsPerCall(tracer, "sim.pipeline.execute_op", [&] {
        sim::Tag tag{};
        for (std::uint64_t i = 0; i < kOps; ++i)
            tag = ctx.pipeline().executeOp(sim::OpClass::ScalarAlu,
                                           i % 2 ? tag : sim::Tag{});
        return kOps;
    });
}

void
probeHostSimd(Tracer &tracer, std::uint64_t seed, Metrics &out)
{
    using W = isa::HostSimdOps::W;
    constexpr std::uint64_t kCalls = 1'000'000;
    constexpr std::size_t kVecs = 64;
    const isa::HostSimdOps &ops = isa::hostSimd();
    Rng rng(subSeed(seed, "probe-simd"));
    std::vector<W> a(kVecs * 8), b(kVecs * 8), o(8);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = rng();
        b[i] = i % 3 ? a[i] : rng(); // matching runs for the byte search
    }
    std::vector<std::uint8_t> bytes(kVecs * 16);
    for (auto &x : bytes)
        x = static_cast<std::uint8_t>(rng());
    auto probe = [&](const char *name, auto &&call) {
        out.push_back({qformat("isa.hostsimd.{}_ns", name),
                       nsPerCall(tracer, name,
                                 [&] {
                                     for (std::uint64_t i = 0; i < kCalls; ++i)
                                         call(i % kVecs);
                                     return kCalls;
                                 }),
                       "ns"});
    };
    probe("xnor64", [&](std::size_t v) { ops.xnor64(&a[v * 8], &b[v * 8], o.data()); });
    probe("match_bytes", [&](std::size_t v) {
        ops.matchBytes32(&a[v * 8], &b[v * 8], o.data());
    });
    probe("cmp_eq32", [&](std::size_t v) {
        o[0] += ops.cmpEq32(&a[v * 8], &b[v * 8]);
    });
    probe("widen8to32", [&](std::size_t v) {
        ops.widen8to32(&bytes[v * 16], 16, o.data());
    });
}

void
probeQzUnit(Tracer &tracer, std::uint64_t seed, Metrics &out)
{
    constexpr std::size_t kSeq = 1024;
    constexpr std::uint64_t kCalls = 100'000;
    genomics::ReadSimConfig config;
    config.readLength = kSeq;
    config.seed = subSeed(seed, "probe-qz");
    const genomics::SequencePair pair =
        genomics::ReadSimulator(config).generatePairs(1).front();
    algos::WorkloadCore core(sim::SystemParams::withQuetzal(8));
    accel::QzUnit &qz = *core.qzPtr();
    qz.qzconf(pair.pattern.size(), pair.text.size(),
              genomics::ElementSize::Bits2);
    qz.stageSequence2bit(accel::QzSel::Buf0, pair.pattern);
    qz.stageSequence2bit(accel::QzSel::Buf1, pair.text);
    const isa::Pred all = core.vpu.pTrue(isa::kLanes64);
    const std::size_t span = std::min(pair.pattern.size(), pair.text.size()) - 64;

    isa::VReg idx0, idx1, v0, v1;
    Rng rng(subSeed(seed, "probe-qz-lanes"));
    for (unsigned lane = 0; lane < isa::kLanes64; ++lane) {
        v0.setU64(lane, rng());
        v1.setU64(lane, lane % 2 ? v0.u64(lane) : rng());
    }
    out.push_back({"quetzal.qzunit.qzmhm_ns",
                   nsPerCall(tracer, "qzmhm",
                             [&] {
                                 for (std::uint64_t i = 0; i < kCalls; ++i) {
                                     for (unsigned lane = 0; lane < isa::kLanes64; ++lane) {
                                         const std::uint64_t at = (i * 7 + lane * 97) % span;
                                         idx0.setU64(lane, at);
                                         idx1.setU64(lane, at);
                                     }
                                     (void)qz.qzmhm(accel::QzOpn::Count, idx0, idx1, all);
                                 }
                                 return kCalls;
                             }),
                   "ns"});
    out.push_back({"quetzal.qzunit.qzcount_ns",
                   nsPerCall(tracer, "qzcount",
                             [&] {
                                 for (std::uint64_t i = 0; i < kCalls; ++i)
                                     (void)qz.qzcount(v0, v1);
                                 return kCalls;
                             }),
                   "ns"});
}

} // namespace

void
runProbes(std::uint64_t seed, Tracer &tracer, Metrics &out)
{
    out.push_back({"sim.mem.access_ns", probeMemAccess(tracer), "ns"});
    out.push_back({"sim.mem.access_vector_ns",
                   probeMemAccessVector(tracer, seed), "ns"});
    out.push_back({"sim.pipeline.execute_op_ns", probeExecuteOp(tracer), "ns"});
    probeHostSimd(tracer, seed, out);
    probeQzUnit(tracer, seed, out);
}

} // namespace qzbench
