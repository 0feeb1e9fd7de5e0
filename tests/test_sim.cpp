/**
 * @file
 * Unit tests for the timing simulator: cache, stride prefetcher,
 * memory hierarchy, scoreboard pipeline, and the multicore bandwidth
 * composition model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <random>

#include "algos/vector_blocks.hpp"
#include "common/logging.hpp"
#include "isa/vectorunit.hpp"
#include "sim/cache.hpp"
#include "sim/context.hpp"
#include "sim/memsystem.hpp"
#include "sim/multicore.hpp"
#include "sim/pipeline.hpp"
#include "sim/prefetcher.hpp"

namespace quetzal::sim {
namespace {

CacheParams
tinyCache()
{
    return CacheParams{1024, 2, 64, 3}; // 8 sets x 2 ways x 64B
}

TEST(Cache, MissThenHit)
{
    Cache cache("c", tinyCache());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103F)); // same line
    EXPECT_FALSE(cache.access(0x1040)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    Cache cache("c", tinyCache());
    // Three lines mapping to the same set (set stride = 8 lines).
    const Addr a = 0, b = 8 * 64, c = 16 * 64;
    cache.access(a);
    cache.access(b);
    cache.access(a);    // a is MRU
    cache.access(c);    // evicts b (LRU)
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, FillDoesNotCountAsDemand)
{
    Cache cache("c", tinyCache());
    cache.fill(0x2000);
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_TRUE(cache.access(0x2000));
}

TEST(Cache, InvalidateAllDropsLines)
{
    Cache cache("c", tinyCache());
    cache.access(0x1000);
    cache.invalidateAll();
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache("c", CacheParams{1000, 3, 48, 1}), FatalError);
}

/**
 * The retired replacement policy, kept verbatim as a reference model:
 * per-way 8-byte timestamps, victim = first invalid way (in way-index
 * order) else the minimum lastUse. The production Cache now keeps each
 * set's tags in MRU order instead; this model is what it must match
 * decision-for-decision.
 */
class TimestampLruModel
{
  public:
    explicit TimestampLruModel(const CacheParams &params)
        : params_(params),
          numSets_(params.sizeBytes / params.lineBytes /
                   params.associativity),
          ways_(numSets_ * params.associativity)
    {
    }

    bool
    access(Addr addr)
    {
        const bool hit = touch(lineOf(addr));
        if (hit)
            ++hits_;
        else
            ++misses_;
        return hit;
    }

    void fill(Addr addr) { touch(lineOf(addr)); }

    bool
    contains(Addr addr) const
    {
        const std::uint64_t line = lineOf(addr);
        const Way *set = &ways_[(line % numSets_) *
                                params_.associativity];
        for (unsigned i = 0; i < params_.associativity; ++i)
            if (set[i].valid && set[i].tag == line)
                return true;
        return false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t lineOf(Addr addr) const
    {
        return addr / params_.lineBytes;
    }

    bool
    touch(std::uint64_t line)
    {
        Way *set =
            &ways_[(line % numSets_) * params_.associativity];
        for (unsigned i = 0; i < params_.associativity; ++i) {
            if (set[i].valid && set[i].tag == line) {
                set[i].lastUse = ++useClock_;
                return true;
            }
        }
        Way *victim = nullptr;
        for (unsigned i = 0; i < params_.associativity; ++i) {
            if (!set[i].valid) {
                victim = &set[i];
                break;
            }
            if (!victim || set[i].lastUse < victim->lastUse)
                victim = &set[i];
        }
        victim->tag = line;
        victim->valid = true;
        victim->lastUse = ++useClock_;
        return false;
    }

    CacheParams params_;
    std::size_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Proof-by-test for the MRU-list rewrite (see sim/cache.hpp): a
 * randomized demand/fill trace must produce the identical hit/miss
 * sequence AND the identical residency set after every step — which
 * pins the eviction sequence too, since a divergent eviction would
 * surface as a residency difference at that step.
 */
TEST(Cache, ExactLruEquivalence)
{
    for (const unsigned assoc : {1u, 4u, 16u}) {
        const unsigned lineBytes = 64;
        const std::size_t numSets = 8;
        const CacheParams params{numSets * assoc * lineBytes, assoc,
                                 lineBytes, 3};
        Cache cache("equiv", params);
        TimestampLruModel model(params);

        // 3x overcommit per set forces constant eviction churn.
        const std::uint64_t poolLines = numSets * assoc * 3;
        std::mt19937 rng(0xC0FFEE ^ assoc);
        std::uniform_int_distribution<std::uint64_t> pickLine(
            0, poolLines - 1);
        std::uniform_int_distribution<int> pickOp(0, 9);

        for (int step = 0; step < 4000; ++step) {
            const Addr addr = pickLine(rng) * lineBytes;
            if (pickOp(rng) == 0) {
                // Prefetch-style fill: no demand stats, same recency.
                cache.fill(addr);
                model.fill(addr);
            } else {
                ASSERT_EQ(cache.access(addr), model.access(addr))
                    << "assoc " << assoc << " step " << step;
            }
            if (step % 8 == 0 || step > 3900) {
                for (std::uint64_t l = 0; l < poolLines; ++l)
                    ASSERT_EQ(cache.contains(l * lineBytes),
                              model.contains(l * lineBytes))
                        << "assoc " << assoc << " step " << step
                        << " line " << l;
            }
        }
        EXPECT_EQ(cache.hits(), model.hits());
        EXPECT_EQ(cache.misses(), model.misses());
    }
}

TEST(Prefetcher, TrainsOnStrideAndFillsAhead)
{
    Cache cache("c", CacheParams{64 * 1024, 8, 64, 3});
    StridePrefetcher pf(PrefetcherParams{true, 16, 2, 2}, cache);
    // Constant stride of one line from the same PC.
    for (int i = 0; i < 8; ++i)
        pf.observe(0x42, static_cast<Addr>(i) * 64);
    EXPECT_GT(pf.issued(), 0u);
    // The next line should already be resident.
    EXPECT_TRUE(cache.contains(8 * 64));
}

TEST(Prefetcher, IgnoresIrregularPattern)
{
    Cache cache("c", CacheParams{64 * 1024, 8, 64, 3});
    StridePrefetcher pf(PrefetcherParams{true, 16, 2, 2}, cache);
    std::uint64_t addrs[] = {0, 4096, 128, 9000, 64, 7777};
    for (Addr a : addrs)
        pf.observe(0x42, a);
    EXPECT_EQ(pf.issued(), 0u);
}

TEST(MemSystem, LatenciesFollowHierarchy)
{
    SystemParams params;
    MemorySystem mem(params);
    const Addr addr = 0x100000;
    const unsigned first = mem.access(1, addr, 4, false);
    EXPECT_EQ(first, params.dram.latencyCycles);
    const unsigned second = mem.access(1, addr, 4, false);
    EXPECT_EQ(second, params.l1d.loadToUse);
    EXPECT_GT(mem.dramBytes(), 0u);
}

TEST(MemSystem, L2HitAfterL1Eviction)
{
    SystemParams params;
    MemorySystem mem(params);
    // Touch enough distinct memory to overflow the 64 KB L1 but stay
    // within the 8 MB L2; disable prefetching noise via irregular pc.
    // First-touch translation packs at 16B granularity, so the
    // simulated footprint is touches x 16B: 8192 -> 128 KB.
    const unsigned touches = 8192;
    for (unsigned i = 0; i < touches; ++i)
        mem.access(1000 + i * 7, static_cast<Addr>(i) * 16, 4, false);
    // Re-touch the first line: L1 evicted it, L2 still has it.
    const unsigned lat = mem.access(5000, 0, 4, false);
    EXPECT_EQ(lat, params.l2.loadToUse);
}

TEST(MemSystem, MultiLineAccessReturnsWorstLatency)
{
    SystemParams params;
    MemorySystem mem(params);
    mem.access(1, 0, 4, false); // home line now resident
    // A footprint wider than a line must probe the cold next line
    // too and return the worst latency.
    const unsigned lat =
        mem.access(2, 4096, 2 * params.l1d.lineBytes, false);
    EXPECT_EQ(lat, params.dram.latencyCycles);
}

TEST(MemSystem, TranslationIsAllocationIndependent)
{
    // The same logical access pattern at completely different host
    // bases must produce identical timing: simulated addresses are
    // assigned by first-touch order, not by host pointer values.
    SystemParams params;
    auto walk = [&](Addr base, Addr gap) {
        MemorySystem mem(params);
        std::vector<unsigned> lat;
        for (unsigned rep = 0; rep < 2; ++rep)
            for (unsigned i = 0; i < 512; ++i)
                lat.push_back(
                    mem.access(7, base + i * gap, 8, false));
        lat.push_back(static_cast<unsigned>(mem.totalRequests()));
        lat.push_back(static_cast<unsigned>(mem.dramBytes()));
        return lat;
    };
    // Same 64B stride, wildly different (even unaligned-page) bases.
    EXPECT_EQ(walk(0x10000, 64), walk(0x7f3210, 64));
    // Sanity that it is not a constant function: an 8B stride revisits
    // each 16B paragraph twice, halving the footprint.
    EXPECT_NE(walk(0x10000, 64), walk(0x10000, 8));
}

TEST(MemSystem, NewEpochRemapsRecycledMemory)
{
    SystemParams params;
    MemorySystem mem(params);
    // Fill one whole simulated line's worth of paragraphs.
    for (Addr a = 0; a < params.l1d.lineBytes; a += 16)
        mem.access(1, 0x1000 + a, 4, false);
    EXPECT_EQ(mem.access(1, 0x1000, 4, false), params.l1d.loadToUse);
    // After an epoch the same host addresses map to fresh simulated
    // paragraphs instead of aliasing the old ones; a footprint wider
    // than a line is guaranteed to reach a cold line again.
    mem.newEpoch();
    EXPECT_EQ(mem.access(1, 0x1000, 2 * params.l1d.lineBytes, false),
              params.dram.latencyCycles);
}

TEST(MemSystem, TranslateAssignsParagraphsInFirstTouchOrder)
{
    SystemParams params;
    MemorySystem mem(params);
    // Paragraph 1 goes to the first-touched host paragraph, 2 to the
    // next distinct one; offsets below 16 B pass through; re-touches
    // (including via the MRU fast path) return the same mapping.
    EXPECT_EQ(mem.translate(0x5000), 1u * 16);
    EXPECT_EQ(mem.translate(0x5007), 1u * 16 + 7);
    EXPECT_EQ(mem.translate(0x9010), 2u * 16);
    EXPECT_EQ(mem.translate(0x5008), 1u * 16 + 8);
    // A new epoch remaps fresh, simulated space keeps advancing.
    mem.newEpoch();
    EXPECT_EQ(mem.translate(0x5000), 3u * 16);
}

TEST(MemSystem, TranslateSurvivesChunkDirectoryGrowth)
{
    // Touch paragraphs spread over far more 16 KB chunks than the
    // directory's initial capacity, then verify every earlier mapping
    // is still intact after the rehashes.
    SystemParams params;
    MemorySystem mem(params);
    const unsigned spans = 500; // 500 chunks >> 64 initial slots
    for (unsigned i = 0; i < spans; ++i)
        EXPECT_EQ(mem.translate(static_cast<Addr>(i) * 16384),
                  (i + 1) * Addr{16});
    for (unsigned i = 0; i < spans; ++i)
        EXPECT_EQ(mem.translate(static_cast<Addr>(i) * 16384),
                  (i + 1) * Addr{16});
}

TEST(MemSystem, AccessVectorMatchesSerialAccesses)
{
    // accessVector must be observationally identical to calling
    // access() per lane: same latencies, same demand counts, same
    // DRAM traffic, same residency afterwards.
    SystemParams params;
    MemorySystem serial(params);
    MemorySystem batched(params);

    std::mt19937 rng(1234);
    std::uniform_int_distribution<Addr> pick(0, 1 << 20);
    for (int burst = 0; burst < 50; ++burst) {
        std::vector<Addr> addrs(16);
        for (Addr &a : addrs)
            a = pick(rng);
        const bool write = burst % 3 == 0;
        const std::uint64_t pc = 100 + burst % 7;

        std::vector<unsigned> serialLat;
        for (const Addr a : addrs)
            serialLat.push_back(serial.access(pc, a, 4, write));
        std::vector<unsigned> batchedLat(addrs.size());
        batched.accessVector(pc, addrs, 4, write, batchedLat);
        EXPECT_EQ(serialLat, batchedLat) << "burst " << burst;
    }
    EXPECT_EQ(serial.totalRequests(), batched.totalRequests());
    EXPECT_EQ(serial.dramBytes(), batched.dramBytes());
    EXPECT_EQ(serial.l1d().hits(), batched.l1d().hits());
    EXPECT_EQ(serial.l1d().misses(), batched.l1d().misses());
    EXPECT_EQ(serial.l2().hits(), batched.l2().hits());
    EXPECT_EQ(serial.l2().misses(), batched.l2().misses());
}

TEST(Pipeline, IssueWidthBoundsThroughput)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    for (int i = 0; i < 400; ++i)
        pipe.executeOp(OpClass::ScalarAlu, {});
    // 400 scalar ops: the frontend allows 4/cycle but the two scalar
    // pipes cap throughput at 2/cycle -> ~200 cycles.
    EXPECT_GE(pipe.totalCycles(), 100u);
    EXPECT_LE(pipe.totalCycles(), 260u);
    EXPECT_EQ(pipe.instructions(), 400u);
}

TEST(Pipeline, DependencyChainSerializes)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    Tag chain{};
    for (int i = 0; i < 100; ++i)
        chain = pipe.executeOp(OpClass::VecAlu, {chain});
    // 100 dependent 4-cycle ops: ~400 cycles.
    EXPECT_GE(pipe.totalCycles(), 380u);
}

TEST(Pipeline, GatherHasLatencyFloor)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    // Warm the line so every element hits in L1.
    pipe.executeMem(OpClass::VecLoad, 1, 0x1000, 64, {});
    std::vector<Addr> addrs;
    for (int e = 0; e < 16; ++e)
        addrs.push_back(0x1000 + 4 * e);
    const Tag tag =
        pipe.executeIndexed(OpClass::VecGather, 2, addrs, 4, {});
    // Even all-L1-hit gathers cost >= 19 cycles on the A64FX.
    EXPECT_GE(tag.ready - pipe.now(),
              ctx.params().core.gatherMinLatency - 5);
    EXPECT_TRUE(tag.mem);
}

TEST(Pipeline, GatherSlowerThanContiguousLoad)
{
    SimContext a, b;
    // Contiguous: one vector load per iteration.
    for (int i = 0; i < 200; ++i) {
        const Tag t = a.pipeline().executeMem(
            OpClass::VecLoad, 1, 0x1000 + (i % 4) * 64, 64, {});
        a.pipeline().executeOp(OpClass::VecAlu, {t});
    }
    // Indexed: 16 elements through the AGUs + LSQ per iteration.
    std::vector<Addr> addrs;
    for (int e = 0; e < 16; ++e)
        addrs.push_back(0x1000 + 4 * e);
    for (int i = 0; i < 200; ++i) {
        const Tag t = b.pipeline().executeIndexed(OpClass::VecGather, 1,
                                                  addrs, 4, {});
        b.pipeline().executeOp(OpClass::VecAlu, {t});
    }
    EXPECT_GT(b.pipeline().totalCycles(),
              2 * a.pipeline().totalCycles());
}

TEST(Pipeline, LsqBackPressuresGathers)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    std::vector<Addr> addrs;
    for (int e = 0; e < 16; ++e)
        addrs.push_back(0x10000 + 4096 * e); // cold lines -> DRAM
    for (int i = 0; i < 50; ++i)
        pipe.executeIndexed(OpClass::VecGather, 1, addrs, 4, {});
    // LSQ back-pressure from in-flight gather elements is accounted
    // as cache-access time (the paper's occupancy argument).
    EXPECT_GT(pipe.stallCycles(StallKind::Cache), 0u);
}

TEST(Pipeline, QzOpsBypassCaches)
{
    SimContext ctx(SystemParams::withQuetzal());
    Pipeline &pipe = ctx.pipeline();
    const auto before = ctx.mem().totalRequests();
    for (int i = 0; i < 100; ++i)
        pipe.executeQz(OpClass::QzMhm, 3, {});
    EXPECT_EQ(ctx.mem().totalRequests(), before);
}

TEST(Pipeline, CommitSerializedWaitsForPriorWork)
{
    SimContext ctx(SystemParams::withQuetzal());
    Pipeline &pipe = ctx.pipeline();
    // A slow DRAM load in flight...
    const Tag slow =
        pipe.executeMem(OpClass::VecLoad, 1, 0x900000, 64, {});
    // ...forces the commit-serialized op to complete after it.
    const Tag qz = pipe.executeQz(OpClass::QzStore, 1, {}, true);
    EXPECT_GE(qz.ready, slow.ready);
}

TEST(Pipeline, BubbleAdvancesAndAttributes)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    const Cycle before = pipe.now();
    pipe.bubble(17, StallKind::Frontend);
    EXPECT_EQ(pipe.now(), before + 17);
    EXPECT_GE(pipe.stallCycles(StallKind::Frontend), 17u);
}

TEST(Pipeline, StallAttributionCoversCacheWaits)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    Tag chain{};
    // Irregular strides defeat the prefetcher, so every load is a
    // DRAM miss on the dependency chain.
    std::uint64_t addr = 0x200000;
    for (int i = 0; i < 400; ++i) {
        addr += 65536 + (i * i % 13) * 4096;
        chain = pipe.executeMem(OpClass::VecLoad, 1, addr, 64, {chain});
        chain = pipe.executeOp(OpClass::VecAlu, {chain});
    }
    EXPECT_GT(pipe.stallCycles(StallKind::Cache), 1000u);
}

TEST(Pipeline, StoresRetireIntoStoreBuffer)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    // A cold store's tag is ready almost immediately...
    const Tag st =
        pipe.executeMem(OpClass::VecStore, 1, 0x800000, 64, {});
    EXPECT_LE(st.ready, pipe.now() + 2);
    // ...while a cold LOAD's tag carries the DRAM latency. The load
    // is wider than a line so it reaches past the line the store's
    // write-allocate already fetched.
    const Tag ld = pipe.executeMem(OpClass::VecLoad, 2, 0x900000,
                                   ctx.params().l1d.lineBytes + 64, {});
    EXPECT_GE(ld.ready, ctx.params().dram.latencyCycles);
}

TEST(Pipeline, OpCountsPerClass)
{
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    pipe.executeOp(OpClass::VecAlu, {});
    pipe.executeOp(OpClass::VecAlu, {});
    pipe.executeOp(OpClass::Branch, {});
    EXPECT_EQ(pipe.opCount(OpClass::VecAlu), 2u);
    EXPECT_EQ(pipe.opCount(OpClass::Branch), 1u);
    EXPECT_EQ(pipe.instructions(), 3u);
    EXPECT_STREQ(opClassName(OpClass::QzMhm), "QzMhm");
    EXPECT_STREQ(opClassName(OpClass::VecGather), "VecGather");
}

TEST(Pipeline, IndependentWorkOverlapsBehindSlowOps)
{
    // The OoO property: a slow dependent chain must not delay
    // independent instructions (until the ROB fills).
    SimContext ctx;
    Pipeline &pipe = ctx.pipeline();
    Tag chain = pipe.executeMem(OpClass::VecLoad, 1, 0xA00000, 64, {});
    chain = pipe.executeOp(OpClass::VecAlu, {chain});
    const Cycle afterChain = pipe.now();
    for (int i = 0; i < 20; ++i)
        pipe.executeOp(OpClass::ScalarAlu, {});
    // Twenty independent ops dispatch in ~5 cycles regardless of the
    // 110-cycle load in flight.
    EXPECT_LE(pipe.now(), afterChain + 10);
}

TEST(Multicore, LinearWhenBandwidthAmple)
{
    SystemParams params;
    CoreDemand demand{1000000, 1000}; // ~0.001 B/cycle
    EXPECT_DOUBLE_EQ(multicoreSpeedup(demand, 16, params), 16.0);
}

TEST(Multicore, SaturatesAtRoofline)
{
    SystemParams params; // 128 B/cycle peak
    CoreDemand demand{1000, 32000}; // 32 B/cycle per core
    EXPECT_NEAR(multicoreSpeedup(demand, 16, params), 4.0, 1e-9);
    EXPECT_NEAR(multicoreSpeedup(demand, 2, params), 2.0, 1e-9);
}

TEST(Multicore, ThroughputScalesWithSpeedup)
{
    SystemParams params;
    CoreDemand demand{2000, 0};
    const double t1 = multicoreThroughput(demand, 10, 1, params);
    const double t8 = multicoreThroughput(demand, 10, 8, params);
    EXPECT_NEAR(t8 / t1, 8.0, 1e-9);
}

TEST(Multicore, RejectsZeroCores)
{
    SystemParams params;
    EXPECT_THROW(multicoreSpeedup(CoreDemand{1, 1}, 0, params),
                 FatalError);
}

/**
 * Verbatim transcription of the pre-ring-buffer scoreboard: std::deque
 * ROB/LSQ, separate unitFree (scan) + unitOccupy (min_element rescan),
 * per-op loop for scalar charges. The reference model for the
 * RingRobLsqEquivalence and BurstMatchesSerialExecuteOps lockstep
 * proofs — do not "improve" it; its value is being the old code.
 */
class DequeScoreboardModel
{
  public:
    DequeScoreboardModel(const SystemParams &params, MemorySystem &mem)
        : params_(params), mem_(mem),
          vecPipes_(params.core.vectorPipes, 0),
          scalarPipes_(params.core.scalarPipes, 0),
          aguPipes_(params.core.agus, 0)
    {
    }

    Tag
    executeOp(OpClass cls, std::initializer_list<Tag> srcs)
    {
        unsigned latency = 0;
        std::vector<Cycle> *pool = nullptr;
        const CoreParams &core = params_.core;
        switch (cls) {
          case OpClass::ScalarAlu:
            latency = core.scalarAluLatency;
            pool = &scalarPipes_;
            break;
          case OpClass::Branch:
            latency = core.branchLatency;
            pool = &scalarPipes_;
            break;
          case OpClass::VecAlu:
            latency = core.vectorAluLatency;
            pool = &vecPipes_;
            break;
          case OpClass::VecCmp:
            latency = core.vectorCmpLatency;
            pool = &vecPipes_;
            break;
          case OpClass::VecPred:
            latency = core.predOpLatency;
            pool = &vecPipes_;
            break;
          case OpClass::VecReduce:
            latency = core.reduceLatency;
            pool = &vecPipes_;
            break;
          default:
            ADD_FAILURE() << "model executeOp on specialized class";
            return {};
        }
        const Cycle issue = resolveIssue(srcs, *pool, 0);
        unitOccupy(*pool, issue, 1);
        const Cycle completion = issue + latency;
        finishOp(cls, completion, 0, false);
        return Tag{completion, false};
    }

    Tag
    executeMem(OpClass cls, std::uint64_t pc, Addr addr, unsigned bytes,
               std::initializer_list<Tag> srcs)
    {
        const Cycle issue = resolveIssue(srcs, aguPipes_, 1);
        unitOccupy(aguPipes_, issue, 1);
        const bool write = cls == OpClass::ScalarStore ||
                           cls == OpClass::VecStore;
        const unsigned latency = mem_.access(pc, addr, bytes, write);
        const Cycle completion = write ? issue + 1 : issue + latency;
        finishOp(cls, completion, 1, true,
                 write ? issue + latency : 0);
        return Tag{completion, true};
    }

    Tag
    executeIndexed(OpClass cls, std::uint64_t pc,
                   std::span<const Addr> addrs, unsigned elemBytes,
                   std::initializer_list<Tag> srcs)
    {
        const CoreParams &core = params_.core;
        const std::size_t lsqNeed =
            std::max<std::size_t>(1, addrs.size());
        const Cycle issue = resolveIssue(srcs, aguPipes_, lsqNeed);
        unitOccupy(aguPipes_, issue, addrs.size());
        const bool write = cls == OpClass::VecScatter;
        laneLatencies_.resize(addrs.size());
        mem_.accessVector(pc, addrs, elemBytes, write, laneLatencies_);
        Cycle worst = issue;
        for (std::size_t i = 0; i < addrs.size(); ++i)
            worst = std::max(worst, issue + i + laneLatencies_[i]);
        Cycle completion =
            std::max(worst, issue + core.gatherMinLatency);
        Cycle lsqDone = 0;
        if (write) {
            lsqDone = completion;
            completion = issue + addrs.size() + 1;
        }
        finishOp(cls, completion, lsqNeed, true, lsqDone);
        return Tag{completion, true};
    }

    Tag
    executeQz(OpClass cls, unsigned latency,
              std::initializer_list<Tag> srcs, bool commitSerialized)
    {
        const Cycle issue = resolveIssue(srcs, vecPipes_, 0);
        unitOccupy(vecPipes_, issue, 1);
        const Cycle start =
            commitSerialized ? std::max(issue, maxCompletion_) : issue;
        const Cycle completion = start + latency;
        finishOp(cls, completion, 0, false);
        return Tag{completion, false};
    }

    void
    chargeScalarOps(unsigned count)
    {
        for (unsigned i = 0; i < count; ++i)
            executeOp(OpClass::ScalarAlu, {});
    }

    void
    bubble(unsigned cycles, StallKind kind)
    {
        attribute(cycle_, cycle_ + cycles, kind);
        cycle_ += cycles;
        slotInCycle_ = 0;
    }

    Cycle now() const { return cycle_; }
    Cycle totalCycles() const { return std::max(cycle_, maxCompletion_); }
    Cycle stallCycles(StallKind kind) const
    {
        return stalls_[static_cast<std::size_t>(kind)];
    }
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t opCount(OpClass cls) const
    {
        return opCounts_[static_cast<std::size_t>(cls)];
    }

  private:
    struct RobEntry
    {
        Cycle done;
        bool mem;
    };

    void
    attribute(Cycle from, Cycle to, StallKind kind)
    {
        if (to > from)
            stalls_[static_cast<std::size_t>(kind)] += to - from;
    }

    Cycle
    frontendAdvance()
    {
        if (++slotInCycle_ >= params_.core.issueWidth) {
            slotInCycle_ = 0;
            attribute(cycle_, cycle_ + 1, StallKind::Frontend);
            ++cycle_;
        }
        return cycle_;
    }

    static Cycle
    unitFree(const std::vector<Cycle> &pool, Cycle t)
    {
        Cycle best = ~Cycle{0};
        for (const Cycle free : pool)
            best = std::min(best, std::max(free, t));
        return best;
    }

    static void
    unitOccupy(std::vector<Cycle> &pool, Cycle start, Cycle busy)
    {
        auto it = std::min_element(pool.begin(), pool.end());
        *it = std::max(*it, start) + busy;
    }

    Cycle
    resolveIssue(std::initializer_list<Tag> srcs,
                 std::vector<Cycle> &pool, std::size_t lsqNeed)
    {
        const Cycle front = frontendAdvance();
        Cycle t = front;
        while (!rob_.empty() && rob_.front().done <= t)
            rob_.pop_front();
        while (rob_.size() + 1 > params_.core.robEntries &&
               !rob_.empty()) {
            const RobEntry head = rob_.front();
            rob_.pop_front();
            if (head.done > t) {
                attribute(t, head.done,
                          head.mem ? StallKind::Cache
                                   : StallKind::Compute);
                t = head.done;
            }
        }
        if (lsqNeed > 0) {
            while (!lsq_.empty() && lsq_.front() <= t)
                lsq_.pop_front();
            while (lsq_.size() + lsqNeed > params_.core.lsqEntries &&
                   !lsq_.empty()) {
                const Cycle head = lsq_.front();
                lsq_.pop_front();
                if (head > t) {
                    attribute(t, head, StallKind::Cache);
                    t = head;
                }
            }
        }
        if (t > cycle_)
            cycle_ = t;
        Tag dep{};
        for (const Tag &src : srcs)
            dep = Tag::join(dep, src);
        Cycle start = std::max(t, dep.ready);
        start = unitFree(pool, start);
        return start;
    }

    void
    finishOp(OpClass cls, Cycle completion, std::size_t lsqNeed,
             bool isMem, Cycle lsqCompletion = 0)
    {
        rob_.push_back(RobEntry{completion, isMem});
        const Cycle lsqDone =
            lsqCompletion ? lsqCompletion : completion;
        for (std::size_t i = 0; i < lsqNeed; ++i)
            lsq_.push_back(lsqDone);
        if (completion > maxCompletion_) {
            maxCompletion_ = completion;
            maxCompletionFromMem_ = isMem;
        }
        ++opCounts_[static_cast<std::size_t>(cls)];
        ++instructions_;
    }

    SystemParams params_;
    MemorySystem &mem_;
    Cycle cycle_ = 0;
    unsigned slotInCycle_ = 0;
    std::vector<Cycle> vecPipes_;
    std::vector<Cycle> scalarPipes_;
    std::vector<Cycle> aguPipes_;
    std::deque<RobEntry> rob_;
    std::deque<Cycle> lsq_;
    std::vector<unsigned> laneLatencies_;
    Cycle maxCompletion_ = 0;
    bool maxCompletionFromMem_ = false;
    std::array<Cycle, static_cast<std::size_t>(StallKind::NumKinds)>
        stalls_{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(OpClass::NumClasses)>
        opCounts_{};
    std::uint64_t instructions_ = 0;
};

/** One randomized mixed-trace step applied to both implementations. */
template <typename A, typename B>
void
applyRandomOp(std::mt19937 &rng, A &a, B &b, Tag &tagA, Tag &tagB,
              int step)
{
    std::uniform_int_distribution<int> pickOp(0, 11);
    std::uniform_int_distribution<Addr> pickAddr(0, 1 << 18);
    std::uniform_int_distribution<unsigned> pickLanes(0, 16);
    std::uniform_int_distribution<unsigned> pickCount(0, 12);
    const int op = pickOp(rng);
    const bool chain = step % 3 == 0; // mix dependent and free ops
    const std::uint64_t pc = 10 + step % 5;
    switch (op) {
      case 0:
      case 1: {
        tagA = a.executeOp(OpClass::ScalarAlu,
                           chain ? std::initializer_list<Tag>{tagA}
                                 : std::initializer_list<Tag>{});
        tagB = b.executeOp(OpClass::ScalarAlu,
                           chain ? std::initializer_list<Tag>{tagB}
                                 : std::initializer_list<Tag>{});
        break;
      }
      case 2:
        tagA = a.executeOp(OpClass::VecAlu, {tagA});
        tagB = b.executeOp(OpClass::VecAlu, {tagB});
        break;
      case 3:
        tagA = a.executeOp(OpClass::VecReduce, {});
        tagB = b.executeOp(OpClass::VecReduce, {});
        break;
      case 4: {
        const Addr addr = pickAddr(rng);
        tagA = a.executeMem(OpClass::ScalarLoad, pc, addr, 8, {tagA});
        tagB = b.executeMem(OpClass::ScalarLoad, pc, addr, 8, {tagB});
        break;
      }
      case 5: {
        const Addr addr = pickAddr(rng);
        tagA = a.executeMem(OpClass::VecStore, pc, addr, 64, {});
        tagB = b.executeMem(OpClass::VecStore, pc, addr, 64, {});
        break;
      }
      case 6:
      case 7: {
        // Gathers with 0..16 lanes: empty spans and LSQ overcommit
        // (lane count > lsqEntries on the edge-sized configs) both
        // included.
        std::vector<Addr> addrs(pickLanes(rng));
        for (Addr &x : addrs)
            x = pickAddr(rng);
        tagA = a.executeIndexed(OpClass::VecGather, pc, addrs, 4,
                                {tagA});
        tagB = b.executeIndexed(OpClass::VecGather, pc, addrs, 4,
                                {tagB});
        break;
      }
      case 8: {
        std::vector<Addr> addrs(pickLanes(rng));
        for (Addr &x : addrs)
            x = pickAddr(rng);
        tagA = a.executeIndexed(OpClass::VecScatter, pc, addrs, 4, {});
        tagB = b.executeIndexed(OpClass::VecScatter, pc, addrs, 4, {});
        break;
      }
      case 9: {
        const bool serialized = step % 2 == 0;
        tagA = a.executeQz(OpClass::QzMhm, 5, {tagA}, serialized);
        tagB = b.executeQz(OpClass::QzMhm, 5, {tagB}, serialized);
        break;
      }
      case 10:
        a.bubble(3, StallKind::Frontend);
        b.bubble(3, StallKind::Frontend);
        break;
      default: {
        const unsigned count = pickCount(rng);
        a.chargeScalarOps(count);
        b.chargeScalarOps(count);
        break;
      }
    }
}

template <typename A, typename B>
void
expectSameObservables(const A &a, const B &b, unsigned config,
                      int step)
{
    ASSERT_EQ(a.now(), b.now()) << "config " << config << " step "
                                << step;
    ASSERT_EQ(a.totalCycles(), b.totalCycles())
        << "config " << config << " step " << step;
    for (unsigned k = 0;
         k < static_cast<unsigned>(StallKind::NumKinds); ++k)
        ASSERT_EQ(a.stallCycles(static_cast<StallKind>(k)),
                  b.stallCycles(static_cast<StallKind>(k)))
            << "config " << config << " step " << step << " kind "
            << k;
    ASSERT_EQ(a.instructions(), b.instructions())
        << "config " << config << " step " << step;
}

/**
 * Proof-by-test for the ring-buffer ROB/LSQ and the fused
 * reserve-and-occupy pool scan: a randomized mixed trace (dependent
 * chains, gathers with 0..16 lanes, scatters, commit-serialized QZ
 * ops, bubbles, scalar-charge bursts) must leave the new Pipeline and
 * the verbatim deque model with identical observables after every op,
 * across issue widths and ROB/LSQ edge sizes — including LSQ
 * overcommit, where one gather claims more slots than the queue has.
 */
TEST(Pipeline, RingRobLsqEquivalence)
{
    struct Config
    {
        unsigned issueWidth, robEntries, lsqEntries;
    };
    const Config configs[] = {
        {2, 4, 2},    // constant structural churn + LSQ overcommit
        {4, 128, 40}, // the default A64FX-like shape
        {8, 16, 8},   // wide frontend, shallow queues
        {4, 1, 1},    // degenerate single-entry queues
    };
    unsigned configIdx = 0;
    for (const Config &config : configs) {
        SystemParams params;
        params.core.issueWidth = config.issueWidth;
        params.core.robEntries = config.robEntries;
        params.core.lsqEntries = config.lsqEntries;

        MemorySystem memRing(params);
        MemorySystem memModel(params);
        Pipeline ring(params, memRing);
        DequeScoreboardModel model(params, memModel);

        std::mt19937 rng(0x0B0E ^ configIdx);
        Tag tagRing{}, tagModel{};
        for (int step = 0; step < 3000; ++step) {
            applyRandomOp(rng, ring, model, tagRing, tagModel, step);
            ASSERT_EQ(tagRing.ready, tagModel.ready)
                << "config " << configIdx << " step " << step;
            ASSERT_EQ(tagRing.mem, tagModel.mem)
                << "config " << configIdx << " step " << step;
            expectSameObservables(ring, model, configIdx, step);
        }
        for (unsigned c = 0;
             c < static_cast<unsigned>(OpClass::NumClasses); ++c)
            EXPECT_EQ(ring.opCount(static_cast<OpClass>(c)),
                      model.opCount(static_cast<OpClass>(c)))
                << "config " << configIdx << " class " << c;
        EXPECT_EQ(memRing.totalRequests(), memModel.totalRequests());
        ++configIdx;
    }
}

/**
 * Proof-by-test for the closed-form burst schedule: executeOpBurst(N)
 * must be observationally identical to N serial executeOp calls, for
 * every (issueWidth, pipe count) shape, from both clean launch states
 * (where the arithmetic fast path runs) and dirty ones (busy pools,
 * ROB pressure — the fallback loop). The fast path must actually be
 * exercised, not just silently skipped.
 */
TEST(Pipeline, BurstMatchesSerialExecuteOps)
{
    unsigned configIdx = 0;
    for (const unsigned issueWidth : {2u, 4u, 8u}) {
        for (const unsigned pipes : {1u, 2u, 3u}) {
            for (const unsigned robEntries : {6u, 128u}) {
                SystemParams params;
                params.core.issueWidth = issueWidth;
                params.core.scalarPipes = pipes;
                params.core.vectorPipes = pipes;
                params.core.robEntries = robEntries;

                MemorySystem memBurst(params);
                MemorySystem memSerial(params);
                Pipeline burst(params, memBurst);
                Pipeline serial(params, memSerial);

                std::mt19937 rng(0xB0057 + configIdx);
                std::uniform_int_distribution<int> pickOp(0, 5);
                std::uniform_int_distribution<unsigned> pickCount(0,
                                                                  24);
                std::uniform_int_distribution<Addr> pickAddr(
                    0, 1 << 16);
                for (int step = 0; step < 1500; ++step) {
                    const int op = pickOp(rng);
                    if (op <= 2) {
                        const unsigned count = pickCount(rng);
                        const OpClass cls = op == 2
                                                ? OpClass::VecAlu
                                                : OpClass::ScalarAlu;
                        burst.executeOpBurst(cls, count);
                        for (unsigned i = 0; i < count; ++i)
                            serial.executeOp(cls, {});
                    } else if (op == 3) {
                        // Dirty the pools and the ROB with a
                        // long-latency op so bursts launch from busy
                        // states too.
                        burst.executeOp(OpClass::VecReduce, {});
                        serial.executeOp(OpClass::VecReduce, {});
                    } else if (op == 4) {
                        const Addr addr = pickAddr(rng);
                        burst.executeMem(OpClass::ScalarLoad, 7, addr,
                                         8, {});
                        serial.executeMem(OpClass::ScalarLoad, 7,
                                          addr, 8, {});
                    } else {
                        burst.bubble(2, StallKind::Frontend);
                        serial.bubble(2, StallKind::Frontend);
                    }
                    expectSameObservables(burst, serial, configIdx,
                                          step);
                }
                // The arithmetic path must have handled real bursts
                // (the roomy-ROB configs can't have dodged it).
                if (robEntries == 128) {
                    EXPECT_GT(burst.burstFastPaths(), 0u)
                        << "config " << configIdx;
                }
                ++configIdx;
            }
        }
    }
}

/** One randomized stream of a cell run (see CellRunMatchesPerCellCharges). */
CellStream
randomStream(std::mt19937 &rng, unsigned lineBytes, unsigned tableEntries)
{
    // Strides: sequential either way, word-sized either way, a fixed
    // address, and ones that cross a line on every cell.
    const std::int64_t strides[] = {
        1, -1, 4, -4, 0,
        static_cast<std::int64_t>(lineBytes),
        -static_cast<std::int64_t>(lineBytes) - 12,
        static_cast<std::int64_t>(lineBytes) + 4};
    const unsigned widths[] = {1, 4, 4, 8, 16};
    // Few sites, so streams share pcs; pcs one table size apart
    // collide on one prefetcher slot.
    const std::uint64_t pcs[] = {0x300, 0x301, 0x302,
                                 0x300 + tableEntries,
                                 0x301 + 2 * tableEntries};
    std::uniform_int_distribution<std::size_t> pickStride(
        0, std::size(strides) - 1);
    std::uniform_int_distribution<std::size_t> pickWidth(
        0, std::size(widths) - 1);
    std::uniform_int_distribution<std::size_t> pickPc(0,
                                                      std::size(pcs) - 1);
    // Bases anywhere in a 256 KiB window, any paragraph offset, so
    // some accesses straddle a paragraph; far enough from zero for
    // the negative strides.
    std::uniform_int_distribution<Addr> pickBase(1 << 20,
                                                 (1 << 20) + (1 << 18));
    return CellStream{pcs[pickPc(rng)], pickBase(rng),
                      strides[pickStride(rng)], widths[pickWidth(rng)]};
}

/** The loop-carried tags isa::BaseUnit threads through its charges. */
struct ChainState
{
    Tag chain;
    Tag pending;
};

/**
 * Charge one cell run on @p run through executeCellRun and on @p twin
 * as the per-cell executeMemRun / executeOpChain / executeMemRun
 * sequence the DP fills issued before cell runs.
 */
template <std::size_t N, std::size_t M>
void
chargeCellRun(const std::array<CellStream, N> &loads, unsigned aluCount,
              const std::array<CellStream, M> &stores, std::uint64_t cells,
              Pipeline &run, ChainState &runState, Pipeline &twin,
              ChainState &twinState)
{
    run.executeCellRun(loads, aluCount, stores, cells, runState.chain,
                       runState.pending);

    Tag &chain = twinState.chain;
    Tag &pending = twinState.pending;
    const auto at = [](const CellStream &s, std::uint64_t cell) {
        return s.base + static_cast<Addr>(s.stride) * cell;
    };
    for (std::uint64_t cell = 0; cell < cells; ++cell) {
        std::array<MemOp, N> loadOps{};
        for (std::size_t i = 0; i < N; ++i)
            loadOps[i] = MemOp{OpClass::ScalarLoad, loads[i].pc,
                               at(loads[i], cell), loads[i].bytes};
        pending = Tag::join(pending, twin.executeMemRun(loadOps, chain));
        if (aluCount > 0) {
            chain = twin.executeOpChain(OpClass::ScalarAlu, aluCount,
                                        Tag::join(chain, pending));
            pending = Tag{};
        }
        std::array<MemOp, M> storeOps{};
        for (std::size_t i = 0; i < M; ++i)
            storeOps[i] = MemOp{OpClass::ScalarStore, stores[i].pc,
                                at(stores[i], cell), stores[i].bytes};
        twin.executeMemRun(storeOps, chain);
    }
}

/** chargeCellRun on random streams, ALU count and length. */
template <std::size_t N, std::size_t M>
void
chargeCellShape(std::mt19937 &rng, Pipeline &run, ChainState &runState,
                Pipeline &twin, ChainState &twinState, unsigned lineBytes,
                unsigned tableEntries)
{
    std::array<CellStream, N> loads{};
    std::array<CellStream, M> stores{};
    for (CellStream &s : loads)
        s = randomStream(rng, lineBytes, tableEntries);
    for (CellStream &s : stores)
        s = randomStream(rng, lineBytes, tableEntries);
    const unsigned aluCount = std::uniform_int_distribution<unsigned>(
        0, 9)(rng);
    const std::uint64_t cells =
        std::uniform_int_distribution<std::uint64_t>(0, 40)(rng);
    chargeCellRun(loads, aluCount, stores, cells, run, runState, twin,
                  twinState);
}

/** Every memory-side observable a cell run can move. */
void
expectSameMemory(MemorySystem &a, MemorySystem &b, unsigned config)
{
    EXPECT_EQ(a.totalRequests(), b.totalRequests()) << "config " << config;
    EXPECT_EQ(a.dramBytes(), b.dramBytes()) << "config " << config;
    EXPECT_EQ(a.l1d().hits(), b.l1d().hits()) << "config " << config;
    EXPECT_EQ(a.l1d().misses(), b.l1d().misses()) << "config " << config;
    EXPECT_EQ(a.l2().hits(), b.l2().hits()) << "config " << config;
    EXPECT_EQ(a.l2().misses(), b.l2().misses()) << "config " << config;
    EXPECT_EQ(a.stats().get("translate_fast").value(),
              b.stats().get("translate_fast").value())
        << "config " << config;
    EXPECT_EQ(a.l1Prefetcher().issued(), b.l1Prefetcher().issued())
        << "config " << config;
}

/**
 * Proof-by-test for Pipeline::executeCellRun and the stream memo
 * behind it: a randomized sequence of cell runs (strides +-1, +-4, 0
 * and line-crossing; paragraph-straddling footprints; shared pcs and
 * colliding prefetcher slots; ALU chains of 0..9 ops), interleaved
 * with unrelated accesses and epoch changes, must leave a core and a
 * twin charged per cell with identical observables — cycles, each
 * stall kind, per-class op counts, L1/L2 hits and misses, requests,
 * DRAM bytes, translate_fast, prefetches issued — and identical
 * chain/pending tags. Configurations cover a small conflicting L1, a
 * disabled prefetcher, trainThreshold 0, a non-power-of-two table,
 * and ROB/LSQ sizes down to {1, 1}. The memo fast path must engage.
 */
TEST(Pipeline, CellRunMatchesPerCellCharges)
{
    struct Config
    {
        bool tinyCaches;
        bool prefetch;
        unsigned trainThreshold, tableEntries;
        unsigned robEntries, lsqEntries;
    };
    const Config configs[] = {
        {false, true, 2, 32, 128, 40}, // the default shape
        {true, true, 2, 32, 16, 8},    // L1 set conflicts, small queues
        {true, false, 2, 32, 128, 40}, // prefetcher off
        {true, true, 0, 32, 4, 2},     // trains on the first repeat
        {false, true, 1, 7, 1, 1},     // non-power-of-two table, {1, 1}
    };
    unsigned configIdx = 0;
    for (const Config &config : configs) {
        SystemParams params;
        params.core.robEntries = config.robEntries;
        params.core.lsqEntries = config.lsqEntries;
        params.prefetcher.enabled = config.prefetch;
        params.prefetcher.trainThreshold = config.trainThreshold;
        params.prefetcher.tableEntries = config.tableEntries;
        if (config.tinyCaches) {
            params.l1d = tinyCache();
            params.l2 = CacheParams{4096, 4, 64, 12};
        }
        MemorySystem memRun(params);
        MemorySystem memTwin(params);
        Pipeline run(params, memRun);
        Pipeline twin(params, memTwin);

        std::mt19937 rng(0xCE11 + configIdx);
        std::uniform_int_distribution<int> pickShape(0, 5);
        std::uniform_int_distribution<Addr> pickAddr(1 << 20,
                                                     (1 << 20) + (1 << 18));
        const unsigned line = params.l1d.lineBytes;
        const unsigned table = config.tableEntries;
        ChainState runState, twinState;
        for (int step = 0; step < 400; ++step) {
            switch (pickShape(rng)) {
              case 0: // the NW shape
                chargeCellShape<5, 1>(rng, run, runState, twin,
                                      twinState, line, table);
                break;
              case 1: // the SWG shape
                chargeCellShape<7, 3>(rng, run, runState, twin,
                                      twinState, line, table);
                break;
              case 2:
                chargeCellShape<1, 0>(rng, run, runState, twin,
                                      twinState, line, table);
                break;
              case 3:
                chargeCellShape<0, 2>(rng, run, runState, twin,
                                      twinState, line, table);
                break;
              case 4: {
                // Unrelated traffic between runs moves MRU lines and
                // prefetcher entries under any memo kept across runs.
                const Addr addr = pickAddr(rng);
                run.executeMem(OpClass::ScalarLoad, 0x300, addr, 4, {});
                twin.executeMem(OpClass::ScalarLoad, 0x300, addr, 4, {});
                break;
              }
              default:
                memRun.newEpoch();
                memTwin.newEpoch();
                break;
            }
            for (const auto &[a, b] :
                 {std::pair{runState.chain, twinState.chain},
                  std::pair{runState.pending, twinState.pending}}) {
                ASSERT_EQ(a.ready, b.ready)
                    << "config " << configIdx << " step " << step;
                ASSERT_EQ(a.mem, b.mem)
                    << "config " << configIdx << " step " << step;
            }
            expectSameObservables(run, twin, configIdx, step);
        }
        for (unsigned c = 0;
             c < static_cast<unsigned>(OpClass::NumClasses); ++c)
            EXPECT_EQ(run.opCount(static_cast<OpClass>(c)),
                      twin.opCount(static_cast<OpClass>(c)))
                << "config " << configIdx << " class " << c;
        expectSameMemory(memRun, memTwin, configIdx);
        EXPECT_GT(memRun.streamLineHits(), 0u) << "config " << configIdx;
        EXPECT_EQ(memTwin.streamLineHits(), 0u);
        ++configIdx;
    }
}

/**
 * Proof-by-test for the cell-run fast-forward: long runs (200-1200
 * cells) in the NW (<5,1>, 4 ALU ops) and SWG (<7,3>, 8 ALU ops)
 * shapes, laid out like the DP fills — loads from the two previous
 * runs' rows (+4 strides), the sequences at +1/-1, stores that
 * first-touch fresh lines so misses land mid-run — plus runs with a
 * random ALU count and a -4 load stride, with slow ops, missing loads
 * and odd slot phases left between runs, must leave a core and a twin
 * charged per cell with identical cycles, stall kinds, per-class op
 * counts, cache/DRAM/translate_fast/prefetch stats and chain/pending
 * tags, at issue widths 2, 4 and 8 and ROB/LSQ sizes {128, 40},
 * {16, 8}, {1, 1} and {512, 40}. The fast path must engage on the
 * default shape.
 */
TEST(Pipeline, CellRunFastForwardMatchesPerCellCharges)
{
    struct Config
    {
        unsigned robEntries, lsqEntries;
    };
    // {512, 40}: a ROB long enough to hold a slow op through the
    // run's steady state.
    const Config queues[] = {{128, 40}, {16, 8}, {1, 1}, {512, 40}};
    unsigned configIdx = 0;
    for (const unsigned issueWidth : {2u, 4u, 8u}) {
        for (const Config &queue : queues) {
            SystemParams params;
            params.core.issueWidth = issueWidth;
            params.core.robEntries = queue.robEntries;
            params.core.lsqEntries = queue.lsqEntries;
            MemorySystem memRun(params);
            MemorySystem memTwin(params);
            Pipeline run(params, memRun);
            Pipeline twin(params, memTwin);

            std::mt19937 rng(0xFA57 + configIdx);
            std::uniform_int_distribution<std::uint64_t> pickCells(200,
                                                                   1200);
            std::uniform_int_distribution<unsigned> pickAlu(1, 9);
            std::uniform_int_distribution<int> pickGap(0, 3);
            std::uniform_int_distribution<unsigned> pickSlow(50, 600);
            Addr nextMiss = Addr{1} << 26;
            // Rows bump-allocated from a fresh region: each run stores
            // a new row and reads the two before it.
            Addr nextRow = Addr{1} << 24;
            Addr rows[3] = {nextRow, nextRow, nextRow};
            const Addr pattern = Addr{1} << 22;
            const Addr text = (Addr{1} << 22) + (1 << 16);
            ChainState runState, twinState;
            std::uint64_t totalCells = 0;
            for (int step = 0; step < 32; ++step) {
                // Work between runs: moves the slot phase, leaves a
                // slow op live in the ROB, or a missing load live in
                // the LSQ and pending into the run.
                switch (pickGap(rng)) {
                  case 1: {
                    const unsigned ops = 1 + step % 3;
                    run.executeOpBurst(OpClass::ScalarAlu, ops);
                    twin.executeOpBurst(OpClass::ScalarAlu, ops);
                    break;
                  }
                  case 2: {
                    const unsigned latency = pickSlow(rng);
                    run.executeQz(OpClass::QzMhm, latency, {});
                    twin.executeQz(OpClass::QzMhm, latency, {});
                    break;
                  }
                  case 3:
                    runState.pending = run.executeMem(
                        OpClass::ScalarLoad, 0x420, nextMiss, 4, {});
                    twinState.pending = twin.executeMem(
                        OpClass::ScalarLoad, 0x420, nextMiss, 4, {});
                    nextMiss += 4096;
                    break;
                  default:
                    break;
                }
                const std::uint64_t cells = pickCells(rng);
                totalCells += cells;
                const bool randomAlu = step % 3 == 2;
                const std::int64_t loadStride = step % 4 == 3 ? -4 : 4;
                const Addr loadOffset = loadStride < 0 ? 4 * cells : 0;
                rows[2] = rows[1];
                rows[1] = rows[0];
                rows[0] = nextRow;
                nextRow += 4 * cells + 64;
                const auto row = [&](std::uint64_t pc, Addr base) {
                    return CellStream{pc, base + loadOffset, loadStride,
                                      4};
                };
                const CellStream p{0x410, pattern + 3 * step, 1, 1};
                const CellStream t{0x411, text + cells + 5 * step, -1, 1};
                if (step % 2 == 0) {
                    const std::array<CellStream, 5> loads{
                        {row(0x400, rows[1] + 4), row(0x401, rows[1]),
                         row(0x402, rows[2]), p, t}};
                    const std::array<CellStream, 1> stores{
                        {{0x403, rows[0], 4, 4}}};
                    chargeCellRun(loads, randomAlu ? pickAlu(rng) : 4,
                                  stores, cells, run, runState, twin,
                                  twinState);
                } else {
                    const std::array<CellStream, 7> loads{
                        {row(0x400, rows[1] + 4), row(0x401, rows[1]),
                         row(0x404, rows[1] + 8), row(0x405, rows[2] + 4),
                         row(0x402, rows[2]), p, t}};
                    const std::array<CellStream, 3> stores{
                        {{0x403, rows[0], 4, 4},
                         {0x403, rows[0] + (1 << 20), 4, 4},
                         {0x403, rows[0] + (2 << 20), 4, 4}}};
                    chargeCellRun(loads, randomAlu ? pickAlu(rng) : 8,
                                  stores, cells, run, runState, twin,
                                  twinState);
                }
                for (const auto &[a, b] :
                     {std::pair{runState.chain, twinState.chain},
                      std::pair{runState.pending, twinState.pending}}) {
                    ASSERT_EQ(a.ready, b.ready)
                        << "config " << configIdx << " step " << step;
                    ASSERT_EQ(a.mem, b.mem)
                        << "config " << configIdx << " step " << step;
                }
                expectSameObservables(run, twin, configIdx, step);
            }
            for (unsigned c = 0;
                 c < static_cast<unsigned>(OpClass::NumClasses); ++c)
                EXPECT_EQ(run.opCount(static_cast<OpClass>(c)),
                          twin.opCount(static_cast<OpClass>(c)))
                    << "config " << configIdx << " class " << c;
            expectSameMemory(memRun, memTwin, configIdx);
            EXPECT_EQ(twin.cellRunFastCells(), 0u);
            if (issueWidth == 4 && queue.robEntries == 128) {
                EXPECT_GT(run.cellRunFastCells(), 0u)
                    << "config " << configIdx;
            }
            std::printf("width %u rob/lsq %u/%u: %llu of %llu cells "
                        "fast-forwarded\n",
                        issueWidth, queue.robEntries, queue.lsqEntries,
                        static_cast<unsigned long long>(
                            run.cellRunFastCells()),
                        static_cast<unsigned long long>(totalCells));
            ++configIdx;
        }
    }
}

/**
 * Near repeats that only one of the fast-forward's state compares
 * tells apart: each case fails when that compare is deleted.
 *  - The mark's ROB compare. A QZ op issued between two runs of the
 *    same all-hit NW streams stays live in the ROB through the second
 *    run's first periods. It is not the max completion (the chain
 *    runs further ahead) and holds no LSQ entry. When it retires, the
 *    ROB's pops shift by one op and the schedule changes.
 *  - A recorded loop's exact chain offset and its LSQ compare. SWG
 *    runs of 100-259 cells whose first store row advances 260 bytes a
 *    cell (a new 256-byte line almost every cell) leave, at ROB/LSQ
 *    {1, 1}, a stale chain whose offset depends on the last cell's
 *    store fills, and at {16, 8} live store fills in the LSQ that the
 *    ROB has already retired.
 * A core and a twin charged per cell must keep identical chain tags
 * and observables after every run, at issue widths 2, 4 and 8.
 */
TEST(Pipeline, CellRunFastForwardTellsNearRepeatsApart)
{
    unsigned configIdx = 0;
    for (const unsigned issueWidth : {2u, 4u, 8u}) {
        SystemParams params;
        params.core.issueWidth = issueWidth;
        MemorySystem memRun(params);
        MemorySystem memTwin(params);
        Pipeline run(params, memRun);
        Pipeline twin(params, memTwin);
        const std::array<CellStream, 5> loads{
            {{0x400, 0x100000, 0, 4}, {0x401, 0x100004, 0, 4},
             {0x402, 0x100008, 0, 4}, {0x410, 0x200000, 0, 1},
             {0x411, 0x300000, 0, 1}}};
        const std::array<CellStream, 1> stores{{{0x403, 0x100040, 0, 4}}};
        ChainState runState, twinState;
        int step = 0;
        for (unsigned latency = 140; latency <= 190; latency += 2) {
            chargeCellRun(loads, 4, stores, 300, run, runState, twin,
                          twinState);
            run.executeQz(OpClass::QzMhm, latency, {});
            twin.executeQz(OpClass::QzMhm, latency, {});
            chargeCellRun(loads, 4, stores, 300, run, runState, twin,
                          twinState);
            ASSERT_EQ(runState.chain.ready, twinState.chain.ready)
                << "config " << configIdx << " latency " << latency;
            expectSameObservables(run, twin, configIdx, step++);
        }
        EXPECT_GT(run.cellRunFastCells(), 0u) << "config " << configIdx;
        ++configIdx;
    }

    struct Queues
    {
        unsigned robEntries, lsqEntries;
    };
    for (const unsigned issueWidth : {2u, 4u, 8u}) {
        for (const Queues queue : {Queues{1, 1}, Queues{16, 8}}) {
            SystemParams params;
            params.core.issueWidth = issueWidth;
            params.core.robEntries = queue.robEntries;
            params.core.lsqEntries = queue.lsqEntries;
            MemorySystem memRun(params);
            MemorySystem memTwin(params);
            Pipeline run(params, memRun);
            Pipeline twin(params, memTwin);
            const std::array<CellStream, 7> loads{
                {{0x400, 0x100000, 0, 4}, {0x401, 0x100004, 0, 4},
                 {0x404, 0x100008, 0, 4}, {0x405, 0x10000c, 0, 4},
                 {0x402, 0x100010, 0, 4}, {0x410, 0x200000, 0, 1},
                 {0x411, 0x300000, 0, 1}}};
            Addr row = Addr{1} << 24;
            ChainState runState, twinState;
            int step = 0;
            for (std::uint64_t cells = 100; cells < 260; ++cells) {
                const std::array<CellStream, 3> stores{
                    {{0x403, row, 260, 4},
                     {0x406, row + (1 << 20), 0, 4},
                     {0x407, row + (2 << 20), 4, 4}}};
                row += 300 * cells;
                chargeCellRun(loads, 8, stores, cells, run, runState,
                              twin, twinState);
                ASSERT_EQ(runState.chain.ready, twinState.chain.ready)
                    << "config " << configIdx << " cells " << cells;
                expectSameObservables(run, twin, configIdx, step++);
            }
            EXPECT_GT(run.cellRunFastCells(), 0u)
                << "config " << configIdx;
            ++configIdx;
        }
    }
}

// ---- vector block runs ----------------------------------------------

namespace nwb = algos::blocks::nw;
namespace swgb = algos::blocks::swg;
namespace waveb = algos::blocks::wave;
using isa::Pred;
using isa::VReg;
using isa::VectorUnit;

constexpr unsigned kBlockLanes = isa::kLanes32;

/** Host address of lane @p lane0 of stream @p s. */
void *
laneAddr(const CellStream &s, std::uint64_t lane0)
{
    return reinterpret_cast<void *>(s.base +
                                    static_cast<Addr>(s.stride) * lane0);
}

/**
 * One NW block op by op through the VectorUnit, as the fill issued it
 * before block runs (nested calls evaluated last argument first).
 * @return the store's tag.
 */
Tag
nwBlockPerOp(VectorUnit &vpu, const std::array<CellStream, nwb::kStreams> &s,
             Tag fwd, const VReg &one, std::uint64_t lane0, unsigned cnt)
{
    const auto at = [&](std::size_t i) { return laneAddr(s[i], lane0); };
    const unsigned bytes = cnt * 4;
    const VReg a = vpu.load(s[nwb::kStreamA].pc, at(nwb::kStreamA), bytes,
                            fwd);
    const VReg b = vpu.load(s[nwb::kStreamB].pc, at(nwb::kStreamB), bytes,
                            fwd);
    const VReg c = vpu.load(s[nwb::kStreamC].pc, at(nwb::kStreamC), bytes);
    const VReg pc = vpu.load8to32(s[nwb::kStreamP].pc, at(nwb::kStreamP),
                                  cnt);
    const VReg tc = vpu.load8to32(s[nwb::kStreamT].pc, at(nwb::kStreamT),
                                  cnt);
    const Pred lanes = vpu.whilelt(0, cnt, kBlockLanes);
    const Pred eq = vpu.cmpeq32(pc, tc, lanes, kBlockLanes);
    const VReg zero = vpu.dup32(0);
    const VReg cost = vpu.sel32(eq, zero, one);
    const VReg diag = vpu.add32(c, cost);
    const VReg up = vpu.add32i(b, 1);
    const VReg left = vpu.add32i(a, 1);
    const VReg min = vpu.min32(left, up);
    const VReg value = vpu.min32(min, diag);
    return vpu.store(s[nwb::kStreamV].pc, at(nwb::kStreamV), value, bytes);
}

/** One SWG block op by op (see nwBlockPerOp); returns the H store's
 *  tag. */
Tag
swgBlockPerOp(VectorUnit &vpu,
              const std::array<CellStream, swgb::kStreams> &s, Tag fwd,
              const VReg &match, const VReg &mismatch, std::uint64_t lane0,
              unsigned cnt)
{
    constexpr std::int32_t kOpen = 6, kExtend = 2;
    const auto at = [&](std::size_t i) { return laneAddr(s[i], lane0); };
    const auto load = [&](std::size_t i, Tag dep) {
        return vpu.load(s[i].pc, at(i), cnt * 4, dep);
    };
    const VReg h1 = load(swgb::kStreamH1, fwd);
    const VReg h1b = load(swgb::kStreamH1b, fwd);
    const VReg e1 = load(swgb::kStreamE1, fwd);
    const VReg f1 = load(swgb::kStreamF1, fwd);
    const VReg h2 = load(swgb::kStreamH2, Tag{});
    const VReg pc = vpu.load8to32(s[swgb::kStreamP].pc, at(swgb::kStreamP),
                                  cnt);
    const VReg tc = vpu.load8to32(s[swgb::kStreamT].pc, at(swgb::kStreamT),
                                  cnt);
    const Pred lanes = vpu.whilelt(0, cnt, kBlockLanes);
    const Pred eq = vpu.cmpeq32(pc, tc, lanes, kBlockLanes);
    const VReg subst = vpu.sel32(eq, match, mismatch);
    const VReg eExt = vpu.add32i(e1, -kExtend);
    const VReg eOpen = vpu.add32i(h1, -kOpen);
    const VReg e = vpu.max32(eOpen, eExt);
    const VReg fExt = vpu.add32i(f1, -kExtend);
    const VReg fOpen = vpu.add32i(h1b, -kOpen);
    const VReg f = vpu.max32(fOpen, fExt);
    const VReg gap = vpu.max32(e, f);
    const VReg diag = vpu.add32(h2, subst);
    const VReg h = vpu.max32(diag, gap);
    const auto store = [&](std::size_t i, const VReg &v) {
        return vpu.store(s[i].pc, at(i), v, cnt * 4);
    };
    store(swgb::kStreamE, e);
    store(swgb::kStreamF, f);
    return store(swgb::kStreamH, h);
}

/** One WFA nextWave block op by op (see nwBlockPerOp); returns the
 *  store's tag. */
Tag
waveBlockPerOp(VectorUnit &vpu,
               const std::array<CellStream, waveb::kStreams> &s,
               const std::array<VReg, 4> &consts, std::uint64_t lane0,
               unsigned cnt)
{
    const auto &[vm, vn, vnone, vzero] = consts;
    const auto at = [&](std::size_t i) { return laneAddr(s[i], lane0); };
    const unsigned bytes = cnt * 4;
    const VReg ins = vpu.load(s[waveb::kStreamIns].pc,
                              at(waveb::kStreamIns), bytes);
    const VReg sub = vpu.load(s[waveb::kStreamSub].pc,
                              at(waveb::kStreamSub), bytes);
    const VReg del = vpu.load(s[waveb::kStreamDel].pc,
                              at(waveb::kStreamDel), bytes);
    const VReg subInc = vpu.add32i(sub, 1);
    const VReg insInc = vpu.add32i(ins, 1);
    const VReg max = vpu.max32(insInc, subInc);
    const VReg best = vpu.max32(max, del);
    const VReg kv = vpu.index32(static_cast<std::int32_t>(lane0), 1);
    const VReg km = vpu.add32(kv, vm);
    const VReg jmax = vpu.min32(vn, km);
    const Pred lanes = vpu.whilelt(0, cnt, kBlockLanes);
    const Pred neg = vpu.cmplt32(best, vzero, lanes, kBlockLanes);
    const Pred over = vpu.cmpgt32(best, jmax, lanes, kBlockLanes);
    const Pred bad = vpu.pOr(over, neg);
    const VReg out = vpu.sel32(bad, vnone, best);
    return vpu.store(s[waveb::kStreamOut].pc, at(waveb::kStreamOut), out,
                     bytes);
}

/**
 * Proof-by-test for Pipeline::executeBlockRun and the three vector
 * block programs (algos/vector_blocks.hpp): randomized runs of 0..80
 * lanes (so most end in a partial block) of the NW, SWG and nextWave
 * programs over rows laid out in a 4 MiB arena (misses, paragraph
 * straddles, rows that read what the last run stored), with NW and
 * SWG's previous-diagonal loads gated on the last store plus the
 * forwarding penalty or not gated at all, and slow ops, missing loads
 * and odd slot phases left between runs, must leave a core and a twin
 * charged op by op through isa::VectorUnit with identical cycles,
 * stall kinds, per-class op counts, cache/DRAM/translate_fast/prefetch
 * stats and final store tags, at issue widths 2, 4 and 8 and ROB/LSQ
 * sizes {128, 40}, {16, 8} and {1, 1}.
 */
TEST(Pipeline, BlockRunMatchesPerOpVectorCharges)
{
    struct Queues
    {
        unsigned robEntries, lsqEntries;
    };
    const Queues queues[] = {{128, 40}, {16, 8}, {1, 1}};
    std::vector<std::int32_t> arena(1 << 20);
    std::string chars(1 << 16, 'A');
    for (std::size_t i = 0; i < chars.size(); ++i)
        chars[i] = "ACGT"[(i * 7 + i / 5) % 4];
    unsigned configIdx = 0;
    for (const unsigned issueWidth : {2u, 4u, 8u}) {
        for (const Queues &queue : queues) {
            SystemParams params;
            params.core.issueWidth = issueWidth;
            params.core.robEntries = queue.robEntries;
            params.core.lsqEntries = queue.lsqEntries;
            MemorySystem memRun(params);
            MemorySystem memTwin(params);
            Pipeline run(params, memRun);
            Pipeline twin(params, memTwin);
            VectorUnit vpuRun(run);
            VectorUnit vpuTwin(twin);

            std::mt19937 rng(0xB10C + configIdx);
            std::uniform_int_distribution<std::uint64_t> pickLanes(0, 80);
            std::uniform_int_distribution<std::size_t> pickRow(
                0, arena.size() - 1024);
            std::uniform_int_distribution<std::size_t> pickChar(
                0, chars.size() - 256);
            std::uniform_int_distribution<int> pickProgram(0, 2);
            std::uniform_int_distribution<int> pickGap(0, 3);
            std::uniform_int_distribution<unsigned> pickSlow(50, 600);
            const auto rowAt = [&](std::size_t i) {
                return reinterpret_cast<Addr>(arena.data() + i);
            };
            const auto charAt = [&](std::size_t i) {
                return reinterpret_cast<Addr>(chars.data() + i);
            };
            // Each run reads the row the previous one stored.
            std::size_t lastRow = pickRow(rng);
            Tag lastStoreRun{}, lastStoreTwin{};
            for (int step = 0; step < 150; ++step) {
                switch (pickGap(rng)) {
                  case 1: {
                    const unsigned ops = 1 + step % 3;
                    run.executeOpBurst(OpClass::ScalarAlu, ops);
                    twin.executeOpBurst(OpClass::ScalarAlu, ops);
                    break;
                  }
                  case 2: {
                    const unsigned latency = pickSlow(rng);
                    run.executeQz(OpClass::QzMhm, latency, {});
                    twin.executeQz(OpClass::QzMhm, latency, {});
                    break;
                  }
                  case 3: {
                    const Addr miss = rowAt(pickRow(rng));
                    run.executeMem(OpClass::ScalarLoad, 0x420, miss, 4, {});
                    twin.executeMem(OpClass::ScalarLoad, 0x420, miss, 4,
                                    {});
                    break;
                  }
                  default:
                    break;
                }
                const std::uint64_t lanes = pickLanes(rng);
                const bool gated = step % 2 == 0;
                const auto gate = [&](Tag store) {
                    return gated ? Tag{store.ready + 6, store.mem} : Tag{};
                };
                const std::size_t prev = lastRow;
                const std::size_t prev2 = pickRow(rng);
                const std::size_t out = pickRow(rng);
                const std::size_t pAt = pickChar(rng);
                const std::size_t tAt = pickChar(rng);
                lastRow = out;
                const auto cellRow = [&](std::uint64_t pc, std::size_t i) {
                    return CellStream{pc, rowAt(i), 4, 4};
                };
                const CellStream p{0x305, charAt(pAt), 1, 1};
                const CellStream t{0x306, charAt(tAt), 1, 1};
                Tag runTag{}, twinTag{};
                switch (pickProgram(rng)) {
                  case 0: {
                    const std::array<CellStream, nwb::kStreams> streams{{
                        cellRow(0x300, prev + 1), cellRow(0x301, prev),
                        cellRow(0x302, prev2), p, t,
                        cellRow(0x307, out)}};
                    std::array<Tag, nwb::kSlots> slots{};
                    slots[nwb::kFwd] = gate(lastStoreRun);
                    slots[nwb::kOne] = vpuRun.dup32(1).tag;
                    run.executeBlockRun<nwb::kProgram>(streams, slots,
                                                       lanes, kBlockLanes);
                    runTag = slots[nwb::kStored];
                    const Tag fwd = gate(lastStoreTwin);
                    const VReg one = vpuTwin.dup32(1);
                    for (std::uint64_t l = 0; l < lanes; l += kBlockLanes)
                        twinTag = nwBlockPerOp(
                            vpuTwin, streams, fwd, one, l,
                            static_cast<unsigned>(std::min<std::uint64_t>(
                                kBlockLanes, lanes - l)));
                    break;
                  }
                  case 1: {
                    // The three stores share one site, as in the fill.
                    const std::array<CellStream, swgb::kStreams> streams{{
                        cellRow(0x400, prev + 1), cellRow(0x401, prev),
                        cellRow(0x402, prev + 40), cellRow(0x403, prev + 79),
                        cellRow(0x404, prev2), p, t, cellRow(0x407, out),
                        cellRow(0x407, out + 100), cellRow(0x407, out + 200)}};
                    std::array<Tag, swgb::kSlots> slots{};
                    slots[swgb::kFwd] = gate(lastStoreRun);
                    slots[swgb::kMatch] = vpuRun.dup32(2).tag;
                    slots[swgb::kMismatch] = vpuRun.dup32(-4).tag;
                    run.executeBlockRun<swgb::kProgram>(streams, slots,
                                                        lanes, kBlockLanes);
                    runTag = slots[swgb::kStoredH];
                    const Tag fwd = gate(lastStoreTwin);
                    const VReg match = vpuTwin.dup32(2);
                    const VReg mismatch = vpuTwin.dup32(-4);
                    for (std::uint64_t l = 0; l < lanes; l += kBlockLanes)
                        twinTag = swgBlockPerOp(
                            vpuTwin, streams, fwd, match, mismatch, l,
                            static_cast<unsigned>(std::min<std::uint64_t>(
                                kBlockLanes, lanes - l)));
                    break;
                  }
                  default: {
                    const std::array<CellStream, waveb::kStreams> streams{{
                        cellRow(0x110, prev - 1 + 2), cellRow(0x111, prev + 2),
                        cellRow(0x112, prev + 1 + 2), cellRow(0x113, out)}};
                    std::array<Tag, waveb::kSlots> slots{};
                    const std::int32_t values[] = {90, 100, -1, 0};
                    for (std::size_t i = 0; i < 4; ++i)
                        slots[waveb::kM + i] = vpuRun.dup32(values[i]).tag;
                    run.executeBlockRun<waveb::kProgram>(streams, slots,
                                                         lanes, kBlockLanes);
                    runTag = slots[waveb::kStored];
                    std::array<VReg, 4> consts;
                    for (std::size_t i = 0; i < 4; ++i)
                        consts[i] = vpuTwin.dup32(values[i]);
                    for (std::uint64_t l = 0; l < lanes; l += kBlockLanes)
                        twinTag = waveBlockPerOp(
                            vpuTwin, streams, consts, l,
                            static_cast<unsigned>(std::min<std::uint64_t>(
                                kBlockLanes, lanes - l)));
                    break;
                  }
                }
                ASSERT_EQ(runTag.ready, twinTag.ready)
                    << "config " << configIdx << " step " << step;
                ASSERT_EQ(runTag.mem, twinTag.mem)
                    << "config " << configIdx << " step " << step;
                lastStoreRun = runTag;
                lastStoreTwin = twinTag;
                expectSameObservables(run, twin, configIdx, step);
            }
            for (unsigned c = 0;
                 c < static_cast<unsigned>(OpClass::NumClasses); ++c)
                EXPECT_EQ(run.opCount(static_cast<OpClass>(c)),
                          twin.opCount(static_cast<OpClass>(c)))
                    << "config " << configIdx << " class " << c;
            expectSameMemory(memRun, memTwin, configIdx);
            EXPECT_GT(memRun.dramBytes(), 0u) << "config " << configIdx;
            ++configIdx;
        }
    }
}

} // namespace
} // namespace quetzal::sim
