/**
 * @file
 * Scoreboard timing model of an A64FX-like out-of-order vector core.
 *
 * Algorithms do not run *on* this model; the ISA facade (isa/vectorunit)
 * calls into it once per dynamic instruction. The model tracks:
 *
 *  - frontend throughput (issueWidth instructions/cycle);
 *  - operand readiness (each produced value carries a ready tag);
 *  - functional-unit contention (2 vector pipes, 2 scalar pipes, 2 AGUs);
 *  - ROB and LSQ occupancy with in-order retirement;
 *  - per-element address generation + cache access for scatter/gather,
 *    with the A64FX's >= 19-cycle L1-hit floor (Section II-G);
 *  - commit-time (non-speculative) execution for QBUFFER writes
 *    (Section IV-E).
 *
 * Every cycle the issue pointer advances is attributed to one of four
 * causes, which directly produces the Fig. 4 execution-time breakdown:
 * frontend, compute dependency/FU, cache access (waiting on data from a
 * memory instruction), or structural ROB/LSQ back-pressure.
 *
 * Host-performance notes (docs/SIMULATOR.md, "Host performance"): the
 * ROB and LSQ are fixed-capacity power-of-two ring buffers sized from
 * robEntries/lsqEntries at construction, so the once-per-instruction
 * dispatch path never allocates; independent same-class op runs go
 * through a closed-form burst path (executeOpBurst) instead of N
 * trips through executeOp; a vector DP fill charges each diagonal's
 * 16-lane blocks as one block run (executeBlockRun) of a
 * compile-time op list, with no register values built; and a BASE
 * DP cell run (executeCellRun) fast-forwards through stretches whose
 * per-cell schedule only repeats, shifted in time. The scoreboard is
 * shift-invariant (it takes maxima, adds constants and attributes
 * differences) and the memory system never reads time, so a run
 * fetches its latencies ahead, compares the state at a period
 * boundary with the state one period earlier (cycle values relative
 * to the issue pointer, stale ones collapsed), and jumps whole
 * periods, or recorded miss transients ("loops"), while the
 * latencies repeat. All four are
 * proven observationally identical to the straightforward code by
 * randomized lockstep tests (tests/test_sim.cpp, RingRobLsqEquivalence
 * / BurstMatchesSerialExecuteOps /
 * BlockRunMatchesPerOpVectorCharges /
 * CellRunFastForwardMatchesPerCellCharges).
 */
#ifndef QUETZAL_SIM_PIPELINE_HPP
#define QUETZAL_SIM_PIPELINE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "sim/memsystem.hpp"
#include "sim/params.hpp"

namespace quetzal::sim {

/**
 * Force-inline marker for the once-per-instruction dispatch helpers:
 * at ~800M calls per full-matrix sweep the call overhead alone is
 * measurable, and inlining lets the compiler specialize each call
 * site on its constant busy/lsqNeed arguments (non-memory sites drop
 * the whole LSQ block). The optimizer's own size heuristics decline
 * these, so the hint is load-bearing — see docs/SIMULATOR.md.
 */
#if defined(__GNUC__) || defined(__clang__)
#define QZ_SIM_ALWAYS_INLINE __attribute__((always_inline)) inline
#define QZ_SIM_ALWAYS_INLINE_LAMBDA __attribute__((always_inline))
#define QZ_SIM_NOINLINE_COLD __attribute__((noinline, cold))
#else
#define QZ_SIM_ALWAYS_INLINE inline
#define QZ_SIM_ALWAYS_INLINE_LAMBDA
#define QZ_SIM_NOINLINE_COLD
#endif

/** Simulated cycle count. */
using Cycle = std::uint64_t;

/** Readiness tag carried by every produced value. */
struct Tag
{
    Cycle ready = 0;  //!< cycle the value becomes available
    bool mem = false; //!< produced by a memory (cache-visiting) op

    /** Join two dependencies, keeping the later one. */
    static Tag
    join(Tag a, Tag b)
    {
        if (b.ready > a.ready)
            return b;
        return a;
    }
};

/** Dynamic instruction classes the scoreboard distinguishes. */
enum class OpClass : std::uint8_t
{
    ScalarAlu,
    ScalarLoad,
    ScalarStore,
    Branch,
    VecAlu,
    VecCmp,
    VecPred,
    VecReduce,
    VecLoad,
    VecStore,
    VecGather,
    VecScatter,
    QzConf,
    QzEncode,
    QzStore,
    QzLoad,
    QzMhm,
    QzMm,
    QzCount,
    NumClasses,
};

/** Stall-attribution buckets (Fig. 4 categories). */
enum class StallKind : std::uint8_t
{
    Frontend, //!< issue-bandwidth cycles (useful work proxy)
    Compute,  //!< ALU dependency chains and FU contention
    Cache,    //!< waiting for data from the cache hierarchy
    Struct,   //!< ROB / LSQ structural back-pressure
    NumKinds,
};

/**
 * Power-of-two FIFO ring buffer: the ROB/LSQ storage. push/pop/front
 * are O(1) with free-running indices masked into a flat array, so the
 * per-instruction dispatch path never allocates. Capacity is fixed at
 * reset() (sized from robEntries/lsqEntries); the grow path exists
 * only for the pathological case of a single op claiming more LSQ
 * slots than the whole queue holds, and is never hit in steady state.
 */
template <typename T>
class FifoRing
{
  public:
    /** Size storage for at least @p minCapacity elements. */
    void
    reset(std::size_t minCapacity)
    {
        const std::size_t cap =
            std::bit_ceil(std::max<std::size_t>(minCapacity, 2));
        buf_.assign(cap, T{});
        mask_ = cap - 1;
        head_ = tail_ = 0;
    }

    QZ_SIM_ALWAYS_INLINE bool empty() const { return head_ == tail_; }
    QZ_SIM_ALWAYS_INLINE std::size_t size() const { return tail_ - head_; }
    QZ_SIM_ALWAYS_INLINE const T &front() const
    {
        return buf_[head_ & mask_];
    }
    QZ_SIM_ALWAYS_INLINE void pop() { ++head_; }

    QZ_SIM_ALWAYS_INLINE void
    push(const T &value)
    {
        if (size() > mask_) [[unlikely]]
            grow();
        buf_[tail_ & mask_] = value;
        ++tail_;
    }

    /**
     * Element @p i places behind the oldest live one. A negative
     * @p i reads the popped history still in the buffer: the element
     * popped -i pops ago, intact while size() - i <= capacity().
     */
    QZ_SIM_ALWAYS_INLINE T &
    at(std::ptrdiff_t i)
    {
        return buf_[(head_ + static_cast<std::size_t>(i)) & mask_];
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** Grow to hold at least @p minCapacity elements (drops the
     *  popped history when it grows). */
    void
    reserve(std::size_t minCapacity)
    {
        while (capacity() < minCapacity)
            grow();
    }

  private:
    QZ_SIM_NOINLINE_COLD void
    grow()
    {
        std::vector<T> wider((mask_ + 1) * 2);
        const std::size_t count = size();
        for (std::size_t i = 0; i < count; ++i)
            wider[i] = buf_[(head_ + i) & mask_];
        buf_ = std::move(wider);
        mask_ = buf_.size() - 1;
        head_ = 0;
        tail_ = count;
    }

    std::vector<T> buf_{T{}, T{}};
    std::size_t mask_ = 1;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

/**
 * One element of an executeMemRun batch: a contiguous memory op
 * described by value so a run of them can cross the pipeline in a
 * single call.
 */
struct MemOp
{
    OpClass cls;
    std::uint64_t pc;
    Addr addr;
    unsigned bytes;
};

/**
 * One strided address stream of a cell run: cell c touches
 * [base + c * stride, + bytes) through static site @p pc.
 */
struct CellStream
{
    std::uint64_t pc;
    Addr base;
    std::int64_t stride;
    unsigned bytes;
};

/**
 * One instruction of a vector block program (Pipeline::executeBlockRun).
 * A block reads and writes numbered tag slots: slot 0 is the empty
 * tag, the caller fills the run's inputs, and each op writes its
 * result tag to slot @p dst after joining up to three source slots
 * (0 where there are fewer). A memory op accesses stream @p stream.
 */
struct BlockOp
{
    OpClass cls;
    std::uint8_t dst;
    std::array<std::uint8_t, 3> srcs{};
    std::uint8_t stream = 0;
};

/** True for classes that visit the cache hierarchy. */
constexpr bool
isMemClass(OpClass cls)
{
    switch (cls) {
      case OpClass::ScalarLoad:
      case OpClass::ScalarStore:
      case OpClass::VecLoad:
      case OpClass::VecStore:
      case OpClass::VecGather:
      case OpClass::VecScatter:
        return true;
      default:
        return false;
    }
}

/** The scoreboard core model. */
class Pipeline
{
  public:
    Pipeline(const SystemParams &params, MemorySystem &mem);

    /**
     * Fixed-latency non-memory op. @return result tag.
     *
     * The core overloads take the operand dependencies already joined
     * into one Tag (join is an associative max, so the result is
     * independent of grouping); the initializer_list overloads below
     * are inline sugar that join at the call site, letting the
     * optimizer dissolve the braced-list stack array instead of
     * passing a pointer into it ~once per dynamic instruction.
     */
    Tag executeOp(OpClass cls, Tag dep = Tag{});

    QZ_SIM_ALWAYS_INLINE Tag
    executeOp(OpClass cls, std::initializer_list<Tag> srcs)
    {
        return executeOp(cls, joinSrcs(srcs));
    }

    /**
     * Burst of @p count independent, source-free ops of non-memory
     * class @p cls: observationally identical to calling
     * executeOp(cls, {}) @p count times, but the frontend slots, pool
     * rotation, and retire bookkeeping are computed in closed form
     * when the machine state allows (idle pool, no ROB pressure),
     * falling back to the per-op loop otherwise.
     */
    void executeOpBurst(OpClass cls, unsigned count);

    /**
     * Contiguous memory op covering [addr, addr+bytes).
     * @param pc static site id for the prefetcher.
     */
    Tag executeMem(OpClass cls, std::uint64_t pc, Addr addr,
                   unsigned bytes, Tag dep = Tag{});

    QZ_SIM_ALWAYS_INLINE Tag
    executeMem(OpClass cls, std::uint64_t pc, Addr addr,
               unsigned bytes, std::initializer_list<Tag> srcs)
    {
        return executeMem(cls, pc, addr, bytes, joinSrcs(srcs));
    }

    /**
     * Batched run of contiguous memory ops that all consume the same
     * dependency @p dep. Observationally identical to calling
     * executeMem(op.cls, op.pc, op.addr, op.bytes, dep) once per
     * element in order and joining the returned tags (join is an
     * associative earliest-max, so the grouping cannot matter) — but
     * one call lets the compiler keep the scoreboard state (cycle,
     * ring indices, pool slots) in registers across the whole run
     * instead of reloading it per instruction. The DP inner loops
     * charge a fixed 5-7 load shape per cell, which is where the
     * per-call reload cost concentrated.
     */
    Tag executeMemRun(std::span<const MemOp> ops, Tag dep);

    /**
     * Per-op-tag variant for callers whose downstream dependency
     * chains consume each op's tag individually (the vector register
     * model: each loaded register carries its own readiness). Op i's
     * tag lands in @p tags[i]; charging is byte-identical to per-op
     * executeMem calls in array order.
     */
    void executeMemRun(std::span<const MemOp> ops, Tag dep,
                       std::span<Tag> tags);

    /**
     * Chain of @p count dependent ops of non-memory class @p cls: the
     * first consumes @p dep, each subsequent op consumes its
     * predecessor's result tag. Identical to threading executeOp's
     * return through @p count calls; returns the final tag.
     */
    Tag executeOpChain(OpClass cls, unsigned count, Tag dep);

    /**
     * Charge @p cells scalar DP cells of one anti-diagonal: per cell,
     * the N @p loads (ScalarLoad, each consuming @p chain; their
     * joined tag joins @p pending), then — when @p aluCount > 0 — a
     * ScalarAlu chain of @p aluCount ops on join(chain, pending) that
     * becomes the new @p chain and clears @p pending, then the M
     * @p stores (ScalarStore, consuming the chain). That is exactly
     * executeMemRun / executeOpChain / executeMemRun per cell,
     * unrolled over the streams at compile time. Memory goes through
     * MemorySystem::accessStream with one run-local memo per stream.
     * Stretches whose schedule repeats are skipped in closed form
     * (docs/SIMULATOR.md, "Cell-run fast-forward").
     */
    template <std::size_t N, std::size_t M>
    void executeCellRun(const std::array<CellStream, N> &loads,
                        unsigned aluCount,
                        const std::array<CellStream, M> &stores,
                        std::uint64_t cells, Tag &chain, Tag &pending);

    /**
     * Charge @p lanes lanes of a vector fill as blocks of
     * @p blockLanes (the last block may be partial): each block
     * issues ops [From, To) of @p Program in order, op by op exactly
     * as executeOp / executeMem would, so its schedule, stalls, op
     * counts and memory-system state are those of the per-op
     * VectorUnit sequence the program transcribes. The op list and
     * its dependency edges are compile-time constants, so the whole
     * block unrolls with the scoreboard state in registers and no
     * register values are built. Memory op k of the block starting
     * at lane l touches [base + stride * l, + bytes * cnt) of its
     * stream, cnt being the block's lanes; streams go through
     * MemorySystem::accessStream with one run-local memo each.
     * @p slots carries the run inputs in (slot 0 is reset to the
     * empty tag) and every op's tag in the last block out.
     */
    template <const auto &Program, std::size_t From = 0,
              std::size_t To = std::size(Program), std::size_t S,
              std::size_t V>
    void executeBlockRun(const std::array<CellStream, S> &streams,
                         std::array<Tag, V> &slots, std::uint64_t lanes,
                         unsigned blockLanes);

    /**
     * Indexed memory op (gather/scatter): one cache access per element
     * address, AGU-serialized, one LSQ entry per element.
     */
    Tag executeIndexed(OpClass cls, std::uint64_t pc,
                       std::span<const Addr> addrs, unsigned elemBytes,
                       Tag dep = Tag{});

    QZ_SIM_ALWAYS_INLINE Tag
    executeIndexed(OpClass cls, std::uint64_t pc,
                   std::span<const Addr> addrs, unsigned elemBytes,
                   std::initializer_list<Tag> srcs)
    {
        return executeIndexed(cls, pc, addrs, elemBytes,
                              joinSrcs(srcs));
    }

    /**
     * QUETZAL accelerator op with accelerator-determined latency
     * (QBUFFER port model / count-ALU). Bypasses the cache hierarchy.
     * @param commitSerialized model commit-time execution (QBUFFER
     *        writes): issue waits for all prior ops to complete.
     */
    Tag executeQz(OpClass cls, unsigned latency, Tag dep = Tag{},
                  bool commitSerialized = false);

    QZ_SIM_ALWAYS_INLINE Tag
    executeQz(OpClass cls, unsigned latency,
              std::initializer_list<Tag> srcs,
              bool commitSerialized = false)
    {
        return executeQz(cls, latency, joinSrcs(srcs),
                         commitSerialized);
    }

    /** Charge @p count trivial scalar ALU ops (loop overhead). */
    void chargeScalarOps(unsigned count)
    {
        executeOpBurst(OpClass::ScalarAlu, count);
    }

    /**
     * Insert a frontend bubble of @p cycles (e.g. a branch-mispredict
     * redirect), attributed to @p kind.
     */
    void bubble(unsigned cycles, StallKind kind = StallKind::Frontend);

    /** Current issue cycle (monotonic). */
    Cycle now() const { return cycle_; }

    /**
     * Total execution cycles so far: issue pointer plus in-flight
     * drain. Does not mutate state.
     */
    Cycle totalCycles() const;

    /** Cycles attributed to @p kind. */
    Cycle stallCycles(StallKind kind) const
    {
        return stalls_[static_cast<std::size_t>(kind)];
    }

    /** Dynamic instruction count per class. */
    std::uint64_t opCount(OpClass cls) const
    {
        return opCounts_[static_cast<std::size_t>(cls)];
    }

    /** Total dynamic instructions. */
    std::uint64_t instructions() const { return instructions_; }

    /** Bursts the closed-form path handled (host-perf observability). */
    std::uint64_t burstFastPaths() const { return burstFastPaths_; }

    /** Cell-run cells charged by fast-forward instead of one at a
     *  time (host-perf observability). */
    std::uint64_t cellRunFastCells() const { return cellRunFastCells_; }

    MemorySystem &mem() { return mem_; }
    const SystemParams &params() const { return params_; }

  private:
    /** Join a braced source list into one dependency tag. */
    QZ_SIM_ALWAYS_INLINE static Tag
    joinSrcs(std::initializer_list<Tag> srcs)
    {
        Tag dep{};
        for (const Tag &src : srcs)
            dep = Tag::join(dep, src);
        return dep;
    }

    /** Latency and functional-unit pool of a non-memory op class. */
    struct OpSpec
    {
        unsigned latency = 0;
        std::vector<Cycle> *pool = nullptr;
    };

    /**
     * Class -> spec, a flat array built once at construction: the
     * switch it replaces sat on the once-per-instruction executeOp
     * path. Classes with no executeOp spec (memory, QUETZAL) keep a
     * null pool and panic out of line.
     */
    QZ_SIM_ALWAYS_INLINE OpSpec
    opSpec(OpClass cls)
    {
        const OpSpec spec = specs_[static_cast<std::size_t>(cls)];
        if (spec.pool == nullptr) [[unlikely]]
            badOpClass(cls);
        return spec;
    }
    [[noreturn]] QZ_SIM_NOINLINE_COLD void badOpClass(OpClass cls);

    /** executeMem body, force-inlined into executeMemRun's loop. */
    Tag memOpImpl(OpClass cls, std::uint64_t pc, Addr addr,
                  unsigned bytes, Tag dep);

    /** executeOpChain body for an already-resolved @p spec. */
    QZ_SIM_ALWAYS_INLINE Tag
    opChainImpl(OpClass cls, const OpSpec &spec, unsigned count, Tag dep)
    {
        for (unsigned i = 0; i < count; ++i) {
            const Cycle issue = resolveIssue(dep, *spec.pool, 1, 0);
            const Cycle completion = issue + spec.latency;
            finishOp(cls, completion, 0, false);
            dep = Tag{completion, false};
        }
        return dep;
    }

    /**
     * Memory latencies of cell @p cell of streams [First, First + K)
     * into @p lat, in program order. MemorySystem never reads time,
     * so a cell's accesses may run ahead of its scoreboard work.
     */
    template <std::size_t First, std::size_t K, std::size_t R,
              std::size_t... I>
    QZ_SIM_ALWAYS_INLINE void
    streamLatencies(std::array<MemorySystem::StreamMemo, R> &memo,
                    const std::array<CellStream, K> &streams,
                    [[maybe_unused]] std::uint64_t cell,
                    [[maybe_unused]] unsigned *lat,
                    std::index_sequence<I...>)
    {
        ((lat[First + I] = mem_.accessStream(
              memo[First + I], streams[I].pc,
              streams[I].base + static_cast<Addr>(streams[I].stride) *
                                    cell,
              streams[I].bytes)),
         ...);
    }

    /** memOpImpl's scoreboard half for a cell-run access of known
     *  @p latency. */
    template <bool Write>
    QZ_SIM_ALWAYS_INLINE Tag
    cellOpImpl(unsigned latency, Tag dep)
    {
        const Cycle issue = resolveIssue(dep, aguPipes_, 1, 1);
        const Cycle completion = Write ? issue + 1 : issue + latency;
        finishOp(Write ? OpClass::ScalarStore : OpClass::ScalarLoad,
                 completion, 1, true, Write ? issue + latency : 0);
        return Tag{completion, true};
    }

    /** One cell's loads or stores, in order; returns their joined
     *  tags (the executeMemRun fold). */
    template <bool Write, std::size_t... I>
    QZ_SIM_ALWAYS_INLINE Tag
    cellOps([[maybe_unused]] const unsigned *lat,
            [[maybe_unused]] Tag dep, std::index_sequence<I...>)
    {
        Tag out{};
        ((out = Tag::join(out, cellOpImpl<Write>(lat[I], dep))), ...);
        return out;
    }

    /**
     * One op of a block run: executeOp's body for a non-memory class
     * (@p spec resolved once per run) or memOpImpl's with the latency
     * from the op's stream.
     */
    template <BlockOp Op, std::size_t S, std::size_t V>
    QZ_SIM_ALWAYS_INLINE void
    blockOp(const OpSpec &spec, const std::array<CellStream, S> &streams,
            std::array<MemorySystem::StreamMemo, S> &memo,
            std::array<Tag, V> &slots, std::uint64_t lane0, unsigned cnt)
    {
        static_assert(Op.dst != 0 && Op.dst < V, "bad block op slot");
        Tag dep{};
        for (const std::uint8_t src : Op.srcs)
            dep = Tag::join(dep, slots[src]);
        if constexpr (isMemClass(Op.cls)) {
            constexpr bool write = Op.cls == OpClass::VecStore ||
                                   Op.cls == OpClass::ScalarStore;
            static_assert(write || Op.cls == OpClass::VecLoad ||
                              Op.cls == OpClass::ScalarLoad,
                          "block ops are contiguous accesses");
            static_assert(Op.stream < S, "bad block op stream");
            const CellStream &s = streams[Op.stream];
            const unsigned latency = mem_.accessStream(
                memo[Op.stream], s.pc,
                s.base + static_cast<Addr>(s.stride) * lane0,
                s.bytes * cnt);
            const Cycle issue = resolveIssue(dep, aguPipes_, 1, 1);
            const Cycle completion = write ? issue + 1 : issue + latency;
            finishOp(Op.cls, completion, 1, true,
                     write ? issue + latency : 0);
            slots[Op.dst] = Tag{completion, true};
        } else {
            const Cycle issue = resolveIssue(dep, *spec.pool, 1, 0);
            const Cycle completion = issue + spec.latency;
            finishOp(Op.cls, completion, 0, false);
            slots[Op.dst] = Tag{completion, false};
        }
    }

    /** One in-flight instruction tracked for in-order retirement. */
    struct RobEntry
    {
        Cycle done;
        bool mem;
    };

    static constexpr std::size_t kStallKinds =
        static_cast<std::size_t>(StallKind::NumKinds);

    /**
     * Scoreboard state at a cell-run period boundary, kept to compare
     * the state one period later against. The frontend slot phase
     * needs no entry: a period's ops fill whole issue cycles.
     */
    struct CellMark
    {
        Cycle cycle = 0;
        Cycle maxCompletion = 0;
        Cycle chain = 0;
        std::size_t rob = 0;
        std::size_t lsq = 0;
        std::array<Cycle, kStallKinds> stalls{};
        std::vector<Cycle> pools; //!< AGUs, then scalar pipes
    };

    /**
     * A recorded stretch of cell-run cells that leaves the scoreboard
     * in the state it started from, shifted in time: from a state
     * that normalises to the one below, cells of this shape with
     * these latencies advance the issue pointer by `advance` and the
     * stall counters by `stalls`. In a steady run these are the
     * transients around a cache miss.
     */
    struct CellLoop
    {
        std::array<std::size_t, 3> shape{}; //!< loads, ALU ops, stores
        std::uint64_t cells = 0;
        Cycle advance = 0;
        std::array<Cycle, kStallKinds> stalls{};
        std::vector<unsigned> latencies; //!< cells x streams

        /** Normalised start state (normaliseCycle). */
        unsigned slot = 0;
        Cycle chain = 0; //!< exact offset from the issue pointer
        Cycle maxCompletion = 0;
        std::vector<Cycle> pools;
        std::vector<RobEntry> rob;
        std::vector<Cycle> lsq;

        /** Raw issue pointer and stalls at the start (recording). */
        Cycle startCycle = 0;
        std::array<Cycle, kStallKinds> startStalls{};
    };

    /** Cell-run period (see executeCellRun), or 0 when the run cannot
     *  fast-forward; sizes the reference rows and the ring history. */
    std::uint64_t openCellPeriod(std::size_t streams, unsigned aluCount,
                                 std::uint64_t cells);

    /** Mark the current state, whose chain tag is @p chain. */
    void markCell(Cycle chain);

    /**
     * True when the current state equals the marked one a period
     * earlier, shifted in time: the same queue sizes and chain offset,
     * and every other cycle value at the same distance ahead of the
     * issue pointer, with values at or below it collapsed into one
     * stale class.
     */
    bool cellStateRepeats(std::uint64_t period, std::size_t streams,
                          unsigned aluCount, Cycle chain);

    /** A cycle value as its distance ahead of the issue pointer; 0
     *  when it can no longer delay any op. */
    Cycle
    normaliseCycle(Cycle value) const
    {
        return value > cycle_ ? value - cycle_ : 0;
    }

    /** Store the current normalised state as @p loop's start. */
    void snapshotCells(CellLoop &loop, Cycle chain);

    /** True when the current state normalises to @p loop's start. */
    bool cellStateIs(const CellLoop &loop, Cycle chain);

    /**
     * Skip @p cells cells in closed form: @p times repeats of a stretch
     * that advances the issue pointer by @p advance and the stall
     * counters by @p stalls. Shifts every cycle value (issue pointer,
     * pools, ROB/LSQ, max completion, @p chain) and adds the op counts
     * of @p loads / @p aluCount / @p stores per cell.
     */
    void fastForwardCells(Cycle advance,
                          const std::array<Cycle, kStallKinds> &stalls,
                          std::uint64_t times, std::uint64_t cells,
                          std::size_t loads, unsigned aluCount,
                          std::size_t stores, Tag &chain);

    /** Record an issue-pointer advance from @p from to @p to. */
    QZ_SIM_ALWAYS_INLINE void
    attribute(Cycle from, Cycle to, StallKind kind)
    {
        if (to > from)
            stalls_[static_cast<std::size_t>(kind)] += to - from;
    }

    /** Advance frontend by one instruction slot. */
    QZ_SIM_ALWAYS_INLINE Cycle
    frontendAdvance()
    {
        if (++slotInCycle_ >= params_.core.issueWidth) {
            slotInCycle_ = 0;
            attribute(cycle_, cycle_ + 1, StallKind::Frontend);
            ++cycle_;
        }
        return cycle_;
    }

    /**
     * In-order dispatch: claim a ROB slot (and @p lsqNeed LSQ slots),
     * stalling the dispatch pointer while the queues are full, then
     * return the out-of-order execution start cycle — the later of
     * dispatch, operand readiness, and functional-unit availability.
     * The chosen unit from @p pool is occupied for @p busy cycles in
     * the same scan that found it (no second pool pass). Younger
     * independent instructions are NOT delayed by this op's operand
     * waits; only queue back-pressure moves the dispatch pointer.
     */
    QZ_SIM_ALWAYS_INLINE Cycle
    resolveIssue(Tag dep, std::vector<Cycle> &pool, Cycle busy,
                 std::size_t lsqNeed)
    {
        const Cycle front = frontendAdvance();
        Cycle t = front;

        // In-order dispatch: a full ROB stalls the pointer until the
        // oldest in-flight op retires; the stall is attributed to what
        // that op was waiting on (memory -> cache access, else
        // compute). Retirement is lazy: entries leave only when their
        // slot is needed. An entry with done <= t never moves t or
        // the attribution, so popping it early (as the eager
        // "retire everything done" loop did) changes nothing
        // observable.
        while (rob_.size() + 1 > params_.core.robEntries &&
               !rob_.empty()) {
            const RobEntry head = rob_.front();
            rob_.pop();
            if (head.done > t) {
                attribute(t, head.done,
                          head.mem ? StallKind::Cache
                                   : StallKind::Compute);
                t = head.done;
            }
        }
        if (lsqNeed > 0) {
            while (lsq_.size() + lsqNeed > params_.core.lsqEntries &&
                   !lsq_.empty()) {
                const Cycle head = lsq_.front();
                lsq_.pop();
                if (head > t) {
                    // A full LSQ means dispatch waits on an
                    // outstanding memory access: that is cache-access
                    // time (the gather/scatter occupancy effect of
                    // Section II-G).
                    attribute(t, head, StallKind::Cache);
                    t = head;
                }
            }
        }
        if (t > cycle_)
            cycle_ = t;

        // Out-of-order execution start: operands and functional-unit
        // availability delay only this op (and its dependents), not
        // the dispatch of younger instructions.
        Cycle start = std::max(t, dep.ready);

        // Reserve the earliest-free unit in one scan: the unit with
        // the minimum free cycle both defines the start
        // (max(free, start)) and is the one occupied, so finding and
        // claiming it is fused.
        Cycle *best = pool.data();
        for (std::size_t i = 1; i < pool.size(); ++i)
            if (pool[i] < *best)
                best = &pool[i];
        if (*best > start)
            start = *best;
        *best = start + busy;
        return start;
    }

    /**
     * Retire bookkeeping. @p lsqCompletion, when non-zero, lets a
     * store's LSQ (store-buffer) entry outlive its ROB retirement.
     */
    QZ_SIM_ALWAYS_INLINE void
    finishOp(OpClass cls, Cycle completion, std::size_t lsqNeed,
             bool isMem, Cycle lsqCompletion = 0)
    {
        rob_.push(RobEntry{completion, isMem});
        const Cycle lsqDone =
            lsqCompletion ? lsqCompletion : completion;
        for (std::size_t i = 0; i < lsqNeed; ++i)
            lsq_.push(lsqDone);
        if (completion > maxCompletion_)
            maxCompletion_ = completion;
        ++opCounts_[static_cast<std::size_t>(cls)];
        ++instructions_;
    }

    SystemParams params_;
    MemorySystem &mem_;

    Cycle cycle_ = 0;          //!< issue pointer
    unsigned slotInCycle_ = 0; //!< frontend slots used this cycle

    std::vector<Cycle> vecPipes_;
    std::vector<Cycle> scalarPipes_;
    std::vector<Cycle> aguPipes_;

    /** opSpec() table; entries for unsupported classes stay null. */
    std::array<OpSpec, static_cast<std::size_t>(OpClass::NumClasses)>
        specs_{};

    FifoRing<RobEntry> rob_;
    FifoRing<Cycle> lsq_;

    /** Scratch lane-latency buffer for executeIndexed (reused across
     *  bursts so gathers do not allocate per instruction). */
    std::vector<unsigned> laneLatencies_;

    Cycle maxCompletion_ = 0;

    std::array<Cycle, static_cast<std::size_t>(StallKind::NumKinds)>
        stalls_{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(OpClass::NumClasses)>
        opCounts_{};
    std::uint64_t instructions_ = 0;
    std::uint64_t burstFastPaths_ = 0;

    /** The current run's latencies, cells x streams, fetched ahead of
     *  the scoreboard while a fast-forward looks for repeats. */
    std::vector<unsigned> cellLatencies_;
    CellMark cellMark_;
    /** Latencies of the reference period, one row per cell. */
    std::vector<unsigned> cellPeriodLatencies_;
    /** Recorded loops, replaced round-robin, and the one a run is
     *  recording. */
    std::array<CellLoop, 4> cellLoops_;
    std::size_t cellLoopNext_ = 0;
    CellLoop cellLoopDraft_;
    std::uint64_t cellRunFastCells_ = 0;
};

template <std::size_t N, std::size_t M>
void
Pipeline::executeCellRun(const std::array<CellStream, N> &loads,
                         unsigned aluCount,
                         const std::array<CellStream, M> &stores,
                         std::uint64_t cells, Tag &chain, Tag &pending)
{
    constexpr std::size_t S = N + M;
    std::array<std::uint64_t, S> pcs{};
    for (std::size_t i = 0; i < N; ++i)
        pcs[i] = loads[i].pc;
    for (std::size_t i = 0; i < M; ++i)
        pcs[N + i] = stores[i].pc;
    std::array<MemorySystem::StreamMemo, S> memo{};
    mem_.openStreams(pcs, memo);

    // Every cell's latencies land in cellLatencies_ before its
    // scoreboard work; a fast-forward fetches cells ahead.
    if (cellLatencies_.size() < cells * S)
        cellLatencies_.resize(cells * S);
    unsigned *const lats = cellLatencies_.data();
    std::uint64_t fetched = 0;
    const auto fetchTo = [&](std::uint64_t end) QZ_SIM_ALWAYS_INLINE_LAMBDA {
        for (; fetched < end; ++fetched) {
            streamLatencies<0>(memo, loads, fetched, lats + fetched * S,
                               std::make_index_sequence<N>{});
            streamLatencies<N>(memo, stores, fetched, lats + fetched * S,
                               std::make_index_sequence<M>{});
        }
    };
    const auto sameLatencies = [](const unsigned *a, const unsigned *b) {
        return std::equal(a, a + S, b);
    };

    const OpSpec alu = opSpec(OpClass::ScalarAlu);
    const std::array<std::size_t, 3> shape{N, aluCount, M};
    const std::uint64_t period = openCellPeriod(S, aluCount, cells);
    Tag ch = chain;
    Tag pend = pending;
    // Period boundaries: cells since the last one, its issue pointer
    // and the advance over the period before it, and whether the
    // state at it was marked. `recordFrom` is where the loop draft
    // started, or `cells` when none is being recorded.
    std::uint64_t phase = 0;
    Cycle lastCycle = cycle_;
    Cycle lastAdvance = 0;
    bool marked = false;
    std::uint64_t recordFrom = cells;
    for (std::uint64_t cell = 0; cell < cells; ++cell) {
        fetchTo(cell + 1);
        const unsigned *lat = lats + cell * S;
        pend = Tag::join(pend, cellOps<false>(lat, ch,
                                              std::make_index_sequence<N>{}));
        if (aluCount > 0) {
            ch = opChainImpl(OpClass::ScalarAlu, alu, aluCount,
                             Tag::join(ch, pend));
            pend = Tag{};
        }
        cellOps<true>(lat + N, ch, std::make_index_sequence<M>{});
        if (period == 0 || ++phase < period)
            continue;

        // Fast-forward. At a period boundary, when the issue pointer
        // advanced as much over the last period as over the one
        // before, mark the state. When the state a period later
        // equals the mark shifted in time, the schedule repeats for
        // as long as the cells' latencies repeat the last period's:
        // fetch ahead while they do and jump over the whole periods.
        phase = 0;
        const Cycle advance = cycle_ - lastCycle;
        const bool steady = advance == lastAdvance;
        lastCycle = cycle_;
        lastAdvance = advance;
        const std::uint64_t b = cell + 1;
        if (b == cells)
            break;
        if (!marked || !cellStateRepeats(period, S, aluCount, ch.ready)) {
            marked = steady;
            if (marked)
                markCell(ch.ready);
            continue;
        }
        marked = false;
        // A loop being recorded ends at the first repeating state.
        if (recordFrom < b && cellStateIs(cellLoopDraft_, ch.ready)) {
            CellLoop &draft = cellLoopDraft_;
            draft.cells = b - recordFrom;
            draft.advance = cycle_ - draft.startCycle;
            for (std::size_t k = 0; k < kStallKinds; ++k)
                draft.stalls[k] = stalls_[k] - draft.startStalls[k];
            draft.latencies.assign(lats + recordFrom * S, lats + b * S);
            std::swap(cellLoops_[cellLoopNext_], draft);
            cellLoopNext_ = (cellLoopNext_ + 1) % cellLoops_.size();
        }
        recordFrom = cells;

        const Cycle periodAdvance = cycle_ - cellMark_.cycle;
        std::array<Cycle, kStallKinds> periodStalls{};
        for (std::size_t k = 0; k < kStallKinds; ++k)
            periodStalls[k] = stalls_[k] - cellMark_.stalls[k];
        std::copy_n(lats + (b - period) * S, period * S,
                    cellPeriodLatencies_.data());
        std::uint64_t at = b;
        for (;;) {
            std::uint64_t next = at;
            for (std::uint64_t p = 0; next < cells; ++next) {
                fetchTo(next + 1);
                if (!sameLatencies(lats + next * S,
                                   cellPeriodLatencies_.data() + p * S))
                    break;
                if (++p == period)
                    p = 0;
            }
            const std::uint64_t periods = (next - at) / period;
            if (periods > 0) {
                fastForwardCells(periodAdvance, periodStalls, periods,
                                 periods * period, N, aluCount, M, ch);
                at += periods * period;
            }
            if (next == cells)
                break;
            // The latencies broke the period: skip a recorded loop
            // whose latencies and start state match, and resume the
            // period after it; else record one from here.
            CellLoop *match = nullptr;
            for (CellLoop &loop : cellLoops_) {
                if (loop.cells == 0 || loop.shape != shape ||
                    loop.cells > cells - at)
                    continue;
                bool same = true;
                for (std::uint64_t j = 0; same && j < loop.cells; ++j) {
                    fetchTo(at + j + 1);
                    same = sameLatencies(lats + (at + j) * S,
                                         loop.latencies.data() + j * S);
                }
                if (same && cellStateIs(loop, ch.ready)) {
                    match = &loop;
                    break;
                }
            }
            if (match == nullptr) {
                cellLoopDraft_.shape = shape;
                snapshotCells(cellLoopDraft_, ch.ready);
                recordFrom = at;
                break;
            }
            fastForwardCells(match->advance, match->stalls, 1,
                             match->cells, N, aluCount, M, ch);
            at += match->cells;
        }
        cell = at - 1;
        lastCycle = cycle_;
    }
    chain = ch;
    pending = pend;
}

template <const auto &Program, std::size_t From, std::size_t To,
          std::size_t S, std::size_t V>
void
Pipeline::executeBlockRun(const std::array<CellStream, S> &streams,
                          std::array<Tag, V> &slots, std::uint64_t lanes,
                          unsigned blockLanes)
{
    static_assert(From <= To && To <= std::size(Program));
    constexpr std::size_t K = To - From;
    std::array<std::uint64_t, S> pcs{};
    for (std::size_t i = 0; i < S; ++i)
        pcs[i] = streams[i].pc;
    std::array<MemorySystem::StreamMemo, S> memo{};
    mem_.openStreams(pcs, memo);
    std::array<OpSpec, K> specs{};
    for (std::size_t k = 0; k < K; ++k)
        if (!isMemClass(Program[From + k].cls))
            specs[k] = opSpec(Program[From + k].cls);

    slots[0] = Tag{};
    const auto block = [&]<std::size_t... I>(
        std::uint64_t lane0, unsigned cnt,
        std::index_sequence<I...>) QZ_SIM_ALWAYS_INLINE_LAMBDA {
        (blockOp<Program[From + I]>(specs[I], streams, memo, slots, lane0,
                                    cnt),
         ...);
    };
    for (std::uint64_t lane0 = 0; lane0 < lanes; lane0 += blockLanes)
        block(lane0,
              static_cast<unsigned>(
                  std::min<std::uint64_t>(blockLanes, lanes - lane0)),
              std::make_index_sequence<K>{});
}

/** Human-readable class name (for stat dumps). */
const char *opClassName(OpClass cls);

} // namespace quetzal::sim

#endif // QUETZAL_SIM_PIPELINE_HPP
