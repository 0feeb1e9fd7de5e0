/**
 * @file
 * Scalar execution facade for the baseline (compiler-auto-vectorized)
 * algorithm variants.
 *
 * The paper normalizes every result to the compiler's auto-vectorized
 * build, which for these irregular kernels degenerates to mostly-scalar
 * code whose inner loops serialize: each residue load feeds a compare
 * and a data-dependent branch that gates the next load (Section II-E:
 * "the serialization of memory instructions at runtime"). BaseUnit
 * models that shape: loads join the loop-carried chain, so every
 * residue costs roughly a load-to-use plus the compare on the critical
 * path, and cache misses serialize.
 */
#ifndef QUETZAL_ISA_SCALARUNIT_HPP
#define QUETZAL_ISA_SCALARUNIT_HPP

#include <array>
#include <cstdint>
#include <cstring>

#include "sim/pipeline.hpp"

namespace quetzal::isa {

/** Host pointer as a simulated address (the facade's convention). */
template <typename T>
inline sim::Addr
addrOf(const T *ptr)
{
    return reinterpret_cast<sim::Addr>(ptr);
}

/** Scalar baseline timing facade. */
class BaseUnit
{
  public:
    explicit BaseUnit(sim::Pipeline &pipeline) : pipeline_(pipeline) {}

    /** Load one byte; gated by the loop-carried chain. */
    std::uint8_t
    loadChar(std::uint64_t site, const char *ptr)
    {
        const sim::Tag tag = pipeline_.executeMem(
            sim::OpClass::ScalarLoad, site,
            reinterpret_cast<sim::Addr>(ptr), 1, {chain_});
        pending_ = sim::Tag::join(pending_, tag);
        return static_cast<std::uint8_t>(*ptr);
    }

    /** Load a 32-bit word; gated by the loop-carried chain. */
    std::int32_t
    loadInt(std::uint64_t site, const std::int32_t *ptr)
    {
        const sim::Tag tag = pipeline_.executeMem(
            sim::OpClass::ScalarLoad, site,
            reinterpret_cast<sim::Addr>(ptr), 4, {chain_});
        pending_ = sim::Tag::join(pending_, tag);
        return *ptr;
    }

    /** Store a 32-bit word (value produced by the current chain). */
    void
    storeInt(std::uint64_t site, std::int32_t *ptr, std::int32_t value)
    {
        *ptr = value;
        pipeline_.executeMem(sim::OpClass::ScalarStore, site,
                             reinterpret_cast<sim::Addr>(ptr), 4,
                             {chain_});
    }

    /**
     * Charge a run of loads, all gated by the loop-carried chain, in
     * one pipeline trip. Identical to calling loadChar/loadInt once
     * per element (the chain only moves on ALU/branch ops, so every
     * element would see the same chain; the pending join is
     * associative), minus the per-instruction call overhead — the DP
     * inner loops charge 5-7 loads per cell through here.
     */
    void
    loads(std::span<const sim::MemOp> ops)
    {
        pending_ = sim::Tag::join(pending_,
                                  pipeline_.executeMemRun(ops, chain_));
    }

    /**
     * Charge @p cells DP cells of one anti-diagonal in one pipeline
     * trip: per cell, loads(@p loadStreams), alu(@p aluCount), then
     * the @p storeStreams stores — identical to that per-cell
     * sequence (Pipeline::executeCellRun). The caller performs the
     * functional reads and writes.
     */
    template <std::size_t N, std::size_t M>
    void
    cells(const std::array<sim::CellStream, N> &loadStreams,
          unsigned aluCount,
          const std::array<sim::CellStream, M> &storeStreams,
          std::uint64_t cells)
    {
        pipeline_.executeCellRun(loadStreams, aluCount, storeStreams,
                                 cells, chain_, pending_);
    }

    /**
     * Charge @p count ALU ops consuming the pending loads and the
     * loop-carried chain; the result becomes the new chain.
     */
    void
    alu(unsigned count = 1)
    {
        if (count == 0)
            return;
        chain_ = pipeline_.executeOpChain(
            sim::OpClass::ScalarAlu, count,
            sim::Tag::join(chain_, pending_));
        pending_ = sim::Tag{};
    }

    /** Charge a (predicted) conditional branch on the chain. */
    void
    branch()
    {
        pipeline_.executeOp(sim::OpClass::Branch, {chain_, pending_});
        pending_ = sim::Tag{};
    }

    /** Charge a mispredicted branch (data-dependent loop exits). */
    void
    branchMiss()
    {
        branch();
        pipeline_.bubble(12, sim::StallKind::Frontend);
    }

    /** Break the dependency chain (independent work begins). */
    void
    cut()
    {
        chain_ = sim::Tag{};
        pending_ = sim::Tag{};
    }

    sim::Pipeline &pipeline() { return pipeline_; }

  private:
    sim::Pipeline &pipeline_;
    sim::Tag chain_{};   //!< loop-carried scalar register state
    sim::Tag pending_{}; //!< loads issued since the last ALU op
};

} // namespace quetzal::isa

#endif // QUETZAL_ISA_SCALARUNIT_HPP
