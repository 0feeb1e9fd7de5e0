#include "sim/pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"

namespace quetzal::sim {

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::ScalarAlu:
        return "ScalarAlu";
      case OpClass::ScalarLoad:
        return "ScalarLoad";
      case OpClass::ScalarStore:
        return "ScalarStore";
      case OpClass::Branch:
        return "Branch";
      case OpClass::VecAlu:
        return "VecAlu";
      case OpClass::VecCmp:
        return "VecCmp";
      case OpClass::VecPred:
        return "VecPred";
      case OpClass::VecReduce:
        return "VecReduce";
      case OpClass::VecLoad:
        return "VecLoad";
      case OpClass::VecStore:
        return "VecStore";
      case OpClass::VecGather:
        return "VecGather";
      case OpClass::VecScatter:
        return "VecScatter";
      case OpClass::QzConf:
        return "QzConf";
      case OpClass::QzEncode:
        return "QzEncode";
      case OpClass::QzStore:
        return "QzStore";
      case OpClass::QzLoad:
        return "QzLoad";
      case OpClass::QzMhm:
        return "QzMhm";
      case OpClass::QzMm:
        return "QzMm";
      case OpClass::QzCount:
        return "QzCount";
      default:
        return "Unknown";
    }
}

Pipeline::Pipeline(const SystemParams &params, MemorySystem &mem)
    : params_(params), mem_(mem),
      vecPipes_(params.core.vectorPipes, 0),
      scalarPipes_(params.core.scalarPipes, 0),
      aguPipes_(params.core.agus, 0)
{
    panic_if_not(params.core.issueWidth > 0, "issue width must be > 0");
    // One extra slot each: dispatch may momentarily hold capacity+1
    // entries (the claim happens before the oldest retires), and a
    // single indexed op can claim several LSQ slots at once.
    rob_.reset(params.core.robEntries + 1);
    lsq_.reset(params.core.lsqEntries + 1);

    const CoreParams &core = params_.core;
    const auto spec = [this](OpClass cls, unsigned latency,
                             std::vector<Cycle> *pool) {
        specs_[static_cast<std::size_t>(cls)] = OpSpec{latency, pool};
    };
    spec(OpClass::ScalarAlu, core.scalarAluLatency, &scalarPipes_);
    spec(OpClass::Branch, core.branchLatency, &scalarPipes_);
    spec(OpClass::VecAlu, core.vectorAluLatency, &vecPipes_);
    spec(OpClass::VecCmp, core.vectorCmpLatency, &vecPipes_);
    spec(OpClass::VecPred, core.predOpLatency, &vecPipes_);
    spec(OpClass::VecReduce, core.reduceLatency, &vecPipes_);
}

void
Pipeline::badOpClass(OpClass cls)
{
    panic("executeOp: class {} needs a specialized path",
          opClassName(cls));
}

Tag
Pipeline::executeOp(OpClass cls, Tag dep)
{
    const OpSpec spec = opSpec(cls);
    const Cycle issue = resolveIssue(dep, *spec.pool, 1, 0);
    const Cycle completion = issue + spec.latency;
    finishOp(cls, completion, 0, false);
    return Tag{completion, false};
}

void
Pipeline::executeOpBurst(OpClass cls, unsigned count)
{
    if (count == 0)
        return;
    const OpSpec spec = opSpec(cls);
    std::vector<Cycle> &pool = *spec.pool;
    const std::uint64_t width = params_.core.issueWidth;
    const std::uint64_t pipes = pool.size();
    const Cycle c0 = cycle_;
    const std::uint64_t s0 = slotInCycle_;
    const Cycle firstFront = c0 + (s0 + 1) / width;

    // Closed form requires a clean launch state: every unit idle by
    // the first op's dispatch cycle and no chance of ROB back-pressure
    // anywhere in the burst. Otherwise replay the verbatim loop.
    // Entries done by now are only waiting for lazy retirement
    // (resolveIssue); dropping them first keeps the headroom check on
    // the live entries.
    while (!rob_.empty() && rob_.front().done <= c0)
        rob_.pop();
    bool clean = pipes > 0 &&
                 rob_.size() + count <= params_.core.robEntries;
    for (std::size_t i = 0; clean && i < pool.size(); ++i)
        clean = pool[i] <= firstFront;
    if (!clean) {
        for (unsigned i = 0; i < count; ++i)
            executeOp(cls);
        return;
    }
    ++burstFastPaths_;

    // N independent, source-free, 1-cycle-occupancy ops form a D/D/P
    // queue fed by a W-wide frontend from an idle start. Its exact
    // start schedule is
    //   S_k = max(front_k, front_r + (k - r) / P),  r = (k-1) % P + 1
    // with front_k = c0 + (s0 + k) / W: the unrolled recurrence
    // S_k = max(front_k, S_{k-P} + 1) evaluated at its two endpoints
    // (the intermediate terms are monotone between them).
    const auto startOf = [&](std::uint64_t k) {
        const std::uint64_t r = (k - 1) % pipes + 1;
        return std::max<Cycle>(c0 + (s0 + k) / width,
                               c0 + (s0 + r) / width + (k - r) / pipes);
    };

    // Frontend bookkeeping for all N slots at once.
    const Cycle finalFront = c0 + (s0 + count) / width;
    attribute(c0, finalFront, StallKind::Frontend);
    cycle_ = finalFront;
    slotInCycle_ = static_cast<unsigned>((s0 + count) % width);

    // Pool rotation: each op replaces the pool minimum with a value
    // larger than everything present, so after the burst the pool
    // holds the last min(N, P) start+1 values (plus untouched slots
    // when N < P, which keep the largest of the original values —
    // here all equal candidates, so replacing any N slots is exact).
    if (count >= pipes) {
        for (std::uint64_t i = 0; i < pipes; ++i)
            pool[i] = startOf(count - pipes + 1 + i) + 1;
    } else {
        for (std::uint64_t j = 1; j <= count; ++j) {
            Cycle *best = pool.data();
            for (std::size_t i = 1; i < pool.size(); ++i)
                if (pool[i] < *best)
                    best = &pool[i];
            *best = startOf(j) + 1;
        }
    }

    // Retire bookkeeping. The ROB prefix that a per-op loop would
    // have drained is exactly the maximal front prefix with
    // done <= finalFront (pops are prefix-only under a monotone
    // dispatch pointer); burst entries behind a surviving older entry
    // all survive with it.
    const Cycle latency = spec.latency;
    bool blocked = false;
    while (!rob_.empty()) {
        if (rob_.front().done > finalFront) {
            blocked = true;
            break;
        }
        rob_.pop();
    }
    // Surviving burst entries are [firstKept, N]: completions are
    // nondecreasing in k, so the retired ones form a prefix — unless
    // an older entry survived, which shields every burst entry.
    std::uint64_t firstKept = count;
    if (blocked) {
        firstKept = 1;
    } else {
        while (firstKept > 1 &&
               startOf(firstKept - 1) + latency > finalFront)
            --firstKept;
    }
    for (std::uint64_t k = firstKept; k < count; ++k)
        rob_.push(RobEntry{startOf(k) + latency, false});
    rob_.push(RobEntry{startOf(count) + latency, false});

    maxCompletion_ = std::max(maxCompletion_, startOf(count) + latency);
    opCounts_[static_cast<std::size_t>(cls)] += count;
    instructions_ += count;
}

QZ_SIM_ALWAYS_INLINE Tag
Pipeline::memOpImpl(OpClass cls, std::uint64_t pc, Addr addr,
                    unsigned bytes, Tag dep)
{
    // Diagnostics pass the raw enum: opClassName() is a switch the
    // caller would otherwise evaluate on every call of this hot path.
    panic_if_not(isMemClass(cls), "executeMem: class {} is not a memory class",
                 static_cast<int>(cls));
    const Cycle issue = resolveIssue(dep, aguPipes_, 1, 1);
    const bool write = cls == OpClass::ScalarStore ||
                       cls == OpClass::VecStore;
    const unsigned latency = mem_.access(pc, addr, bytes, write);
    // Stores retire once the data sits in the store buffer; the line
    // fill only occupies the LSQ entry. Loads complete at load-to-use.
    const Cycle completion = write ? issue + 1 : issue + latency;
    finishOp(cls, completion, 1, true,
             write ? issue + latency : 0);
    return Tag{completion, true};
}

Tag
Pipeline::executeMem(OpClass cls, std::uint64_t pc, Addr addr,
                     unsigned bytes, Tag dep)
{
    return memOpImpl(cls, pc, addr, bytes, dep);
}

Tag
Pipeline::executeMemRun(std::span<const MemOp> ops, Tag dep)
{
    Tag out{};
    for (const MemOp &op : ops)
        out = Tag::join(out,
                        memOpImpl(op.cls, op.pc, op.addr, op.bytes,
                                  dep));
    return out;
}

void
Pipeline::executeMemRun(std::span<const MemOp> ops, Tag dep,
                        std::span<Tag> tags)
{
    panic_if_not(tags.size() >= ops.size(),
                 "executeMemRun: {} tag slots for {} ops", tags.size(),
                 ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        tags[i] = memOpImpl(ops[i].cls, ops[i].pc, ops[i].addr,
                            ops[i].bytes, dep);
}

Tag
Pipeline::executeOpChain(OpClass cls, unsigned count, Tag dep)
{
    return opChainImpl(cls, opSpec(cls), count, dep);
}

std::uint64_t
Pipeline::openCellPeriod(std::size_t streams, unsigned aluCount,
                         std::uint64_t cells)
{
    // After `period` cells the frontend slot phase repeats. The state
    // comparison relies on an ALU chain per cell: it empties the
    // pending tag and recomputes the chain, so both are functions of
    // the boundary state. A run needs two periods to mark and one to
    // compare before a skip can pay.
    const std::uint64_t ops = streams + aluCount;
    const std::uint64_t width = params_.core.issueWidth;
    const std::uint64_t period = width / std::gcd(width, ops);
    if (aluCount == 0 || cells < 4 * period)
        return 0;
    cellPeriodLatencies_.resize(period * streams);
    // The ROB/LSQ at the mark is read back from the rings' popped
    // history (FifoRing::at), which must survive one period of pushes.
    const CoreParams &core = params_.core;
    rob_.reserve(std::max(core.robEntries, 1u) + 1 + period * ops);
    lsq_.reserve(std::max(core.lsqEntries, 1u) + 1 + period * streams);
    return period;
}

void
Pipeline::markCell(Cycle chain)
{
    CellMark &mark = cellMark_;
    mark.cycle = cycle_;
    mark.maxCompletion = maxCompletion_;
    mark.chain = chain;
    mark.rob = rob_.size();
    mark.lsq = lsq_.size();
    mark.stalls = stalls_;
    mark.pools.assign(aguPipes_.begin(), aguPipes_.end());
    mark.pools.insert(mark.pools.end(), scalarPipes_.begin(),
                      scalarPipes_.end());
}

bool
Pipeline::cellStateRepeats(std::uint64_t period, std::size_t streams,
                           unsigned aluCount, Cycle chain)
{
    const CellMark &mark = cellMark_;
    const Cycle now = cycle_;
    const Cycle then = mark.cycle;
    const Cycle delta = now - then;
    if (rob_.size() != mark.rob || lsq_.size() != mark.lsq ||
        chain != mark.chain + delta)
        return false;
    // A value at or below the issue pointer can never delay a later
    // op: all such values are one stale class. A live value must sit
    // at the same distance ahead of the pointer.
    const auto same = [&](Cycle value, Cycle past) {
        return value > now ? value == past + delta : past <= then;
    };
    if (!same(maxCompletion_, mark.maxCompletion))
        return false;
    const Cycle *past = mark.pools.data();
    for (const Cycle free : aguPipes_)
        if (!same(free, *past++))
            return false;
    for (const Cycle free : scalarPipes_)
        if (!same(free, *past++))
            return false;
    // Each op pushed one ROB entry and each access one LSQ entry, and
    // the sizes match, so entry i at the mark sits one period's pushes
    // behind entry i now. The LSQ first and newest first: that is
    // where a long store fill leaves the difference.
    const auto lsqBack = static_cast<std::ptrdiff_t>(period * streams);
    for (auto i = static_cast<std::ptrdiff_t>(lsq_.size()) - 1; i >= 0;
         --i)
        if (!same(lsq_.at(i), lsq_.at(i - lsqBack)))
            return false;
    const auto robBack =
        static_cast<std::ptrdiff_t>(period * (streams + aluCount));
    for (auto i = static_cast<std::ptrdiff_t>(rob_.size()) - 1; i >= 0;
         --i) {
        const RobEntry value = rob_.at(i);
        const RobEntry pastEntry = rob_.at(i - robBack);
        if (!same(value.done, pastEntry.done) ||
            (value.done > now && value.mem != pastEntry.mem))
            return false;
    }
    return true;
}

void
Pipeline::snapshotCells(CellLoop &loop, Cycle chain)
{
    loop.slot = slotInCycle_;
    loop.chain = chain - cycle_;
    loop.maxCompletion = normaliseCycle(maxCompletion_);
    loop.pools.clear();
    for (const Cycle free : aguPipes_)
        loop.pools.push_back(normaliseCycle(free));
    for (const Cycle free : scalarPipes_)
        loop.pools.push_back(normaliseCycle(free));
    loop.rob.resize(rob_.size());
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry entry = rob_.at(static_cast<std::ptrdiff_t>(i));
        const Cycle done = normaliseCycle(entry.done);
        loop.rob[i] = RobEntry{done, done > 0 && entry.mem};
    }
    loop.lsq.resize(lsq_.size());
    for (std::size_t i = 0; i < lsq_.size(); ++i)
        loop.lsq[i] = normaliseCycle(lsq_.at(static_cast<std::ptrdiff_t>(i)));
    loop.startCycle = cycle_;
    loop.startStalls = stalls_;
}

bool
Pipeline::cellStateIs(const CellLoop &loop, Cycle chain)
{
    if (slotInCycle_ != loop.slot || chain - cycle_ != loop.chain ||
        rob_.size() != loop.rob.size() || lsq_.size() != loop.lsq.size() ||
        normaliseCycle(maxCompletion_) != loop.maxCompletion)
        return false;
    const Cycle *pool = loop.pools.data();
    for (const Cycle free : aguPipes_)
        if (normaliseCycle(free) != *pool++)
            return false;
    for (const Cycle free : scalarPipes_)
        if (normaliseCycle(free) != *pool++)
            return false;
    for (auto i = static_cast<std::ptrdiff_t>(lsq_.size()) - 1; i >= 0;
         --i)
        if (normaliseCycle(lsq_.at(i)) != loop.lsq[i])
            return false;
    for (auto i = static_cast<std::ptrdiff_t>(rob_.size()) - 1; i >= 0;
         --i) {
        const RobEntry entry = rob_.at(i);
        const Cycle done = normaliseCycle(entry.done);
        if (done != loop.rob[i].done ||
            (done > 0 && entry.mem != loop.rob[i].mem))
            return false;
    }
    return true;
}

void
Pipeline::fastForwardCells(Cycle advance,
                           const std::array<Cycle, kStallKinds> &stalls,
                           std::uint64_t times, std::uint64_t cells,
                           std::size_t loads, unsigned aluCount,
                           std::size_t stores, Tag &chain)
{
    // The scoreboard only takes maxima, adds constants and attributes
    // differences, so a state shifted in time replays its schedule
    // shifted. Stale values stay stale under the shift, and no op can
    // observe them.
    const Cycle shift = times * advance;
    cycle_ += shift;
    for (Cycle &free : aguPipes_)
        free += shift;
    for (Cycle &free : scalarPipes_)
        free += shift;
    for (std::size_t i = 0; i < rob_.size(); ++i)
        rob_.at(static_cast<std::ptrdiff_t>(i)).done += shift;
    for (std::size_t i = 0; i < lsq_.size(); ++i)
        lsq_.at(static_cast<std::ptrdiff_t>(i)) += shift;
    maxCompletion_ += shift;
    chain.ready += shift;
    for (std::size_t k = 0; k < kStallKinds; ++k)
        stalls_[k] += times * stalls[k];
    opCounts_[static_cast<std::size_t>(OpClass::ScalarLoad)] +=
        cells * loads;
    opCounts_[static_cast<std::size_t>(OpClass::ScalarAlu)] +=
        cells * aluCount;
    opCounts_[static_cast<std::size_t>(OpClass::ScalarStore)] +=
        cells * stores;
    instructions_ += cells * (loads + aluCount + stores);
    cellRunFastCells_ += cells;
}

Tag
Pipeline::executeIndexed(OpClass cls, std::uint64_t pc,
                         std::span<const Addr> addrs, unsigned elemBytes,
                         Tag dep)
{
    panic_if_not(cls == OpClass::VecGather || cls == OpClass::VecScatter,
                 "executeIndexed: bad class {}", static_cast<int>(cls));
    const CoreParams &core = params_.core;
    const std::size_t lsqNeed = std::max<std::size_t>(1, addrs.size());

    // Indexed accesses split into scalar element requests that flow
    // down one load pipe at one element per cycle (A64FX gathers are
    // element-serial); the pipe stays busy for the whole burst,
    // delaying later memory instructions on it (the pipeline-occupancy
    // effect the paper highlights), and every element holds an LSQ
    // entry until the instruction completes.
    const Cycle issue =
        resolveIssue(dep, aguPipes_, addrs.size(), lsqNeed);

    const bool write = cls == OpClass::VecScatter;
    laneLatencies_.resize(addrs.size());
    mem_.accessVector(pc, addrs, elemBytes, write, laneLatencies_);
    Cycle worst = issue;
    for (std::size_t i = 0; i < addrs.size(); ++i)
        worst = std::max(worst, issue + i + laneLatencies_[i]);
    Cycle completion = std::max(worst, issue + core.gatherMinLatency);
    Cycle lsqDone = 0;
    if (write) {
        // Scatters retire at address generation; the element writes
        // drain from the store buffer at memory speed.
        lsqDone = completion;
        completion = issue + addrs.size() + 1;
    }
    finishOp(cls, completion, lsqNeed, true, lsqDone);
    return Tag{completion, true};
}

Tag
Pipeline::executeQz(OpClass cls, unsigned latency, Tag dep,
                    bool commitSerialized)
{
    const Cycle issue = resolveIssue(dep, vecPipes_, 1, 0);
    // Commit-time execution (QBUFFER writes, Section IV-E): the op
    // waits in the issue queue until it is the oldest in flight, but
    // younger independent instructions keep issuing; only consumers of
    // the written data (via the returned tag) observe the delay.
    const Cycle start =
        commitSerialized ? std::max(issue, maxCompletion_) : issue;
    const Cycle completion = start + latency;
    finishOp(cls, completion, 0, false);
    return Tag{completion, false};
}

void
Pipeline::bubble(unsigned cycles, StallKind kind)
{
    attribute(cycle_, cycle_ + cycles, kind);
    cycle_ += cycles;
    slotInCycle_ = 0;
}

Cycle
Pipeline::totalCycles() const
{
    return std::max(cycle_, maxCompletion_);
}

} // namespace quetzal::sim
