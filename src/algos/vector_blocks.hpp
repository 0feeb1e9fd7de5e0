/**
 * @file
 * The per-block programs of the vector DP fills: the op list one
 * 16-lane block of the NW fill, the SWG fill and the WFA nextWave
 * update issues, with its dependency edges, in issue order. The fills
 * compute their values with the scalar recurrence and charge each
 * anti-diagonal (or wave) as one sim::Pipeline::executeBlockRun over
 * these programs; tests/test_sim.cpp replays each program op by op
 * through isa::VectorUnit and checks the two agree.
 *
 * Issue order is part of the simulated metrics. Each list keeps the
 * order in which the per-op VectorUnit code it replaced issued its
 * ops (docs/SIMULATOR.md, "Charge order").
 *
 * Slots (sim::BlockOp): 0 is the empty tag, then the run inputs, then
 * one result per op.
 */
#ifndef QUETZAL_ALGOS_VECTOR_BLOCKS_HPP
#define QUETZAL_ALGOS_VECTOR_BLOCKS_HPP

#include <array>
#include <cstdint>

#include "sim/pipeline.hpp"

namespace quetzal::algos::blocks {

using sim::BlockOp;
using sim::OpClass;

/**
 * NW: cell (i, j) = min(left + 1, up + 1, diag + cost). A, B and C
 * are the (i, j-1), (i-1, j) and (i-1, j-1) runs of the two previous
 * diagonals; A and B wait on the `fwd` input (the forwarding-gated
 * previous-diagonal store), C, P and T do not.
 */
namespace nw {

enum Slot : std::uint8_t
{
    kNone,
    kFwd, //!< input: gate of the previous-diagonal loads
    kOne, //!< input: the dup32(1) constant
    kA,
    kB,
    kC,
    kP,
    kT,
    kLanes, //!< whilelt
    kEq,    //!< cmpeq(P, T)
    kZero,  //!< dup32(0)
    kCost,  //!< sel(eq, zero, one)
    kDiag,  //!< add(C, cost)
    kUp,    //!< addi(B, 1)
    kLeft,  //!< addi(A, 1)
    kMin,   //!< min(left, up)
    kValue, //!< min(min, diag)
    kStored,
    kSlots,
};

enum Stream : std::uint8_t
{
    kStreamA,
    kStreamB,
    kStreamC,
    kStreamP,
    kStreamT,
    kStreamV,
    kStreams,
};

inline constexpr std::array<BlockOp, 15> kProgram{{
    {OpClass::VecLoad, kA, {kFwd}, kStreamA},
    {OpClass::VecLoad, kB, {kFwd}, kStreamB},
    {OpClass::VecLoad, kC, {}, kStreamC},
    {OpClass::VecLoad, kP, {}, kStreamP},
    {OpClass::VecLoad, kT, {}, kStreamT},
    {OpClass::VecPred, kLanes},
    {OpClass::VecCmp, kEq, {kP, kT, kLanes}},
    {OpClass::VecAlu, kZero},
    {OpClass::VecAlu, kCost, {kZero, kOne, kEq}},
    {OpClass::VecAlu, kDiag, {kC, kCost}},
    {OpClass::VecAlu, kUp, {kB}},
    {OpClass::VecAlu, kLeft, {kA}},
    {OpClass::VecAlu, kMin, {kLeft, kUp}},
    {OpClass::VecAlu, kValue, {kMin, kDiag}},
    {OpClass::VecStore, kStored, {kValue}, kStreamV},
}};

/** Op ranges of the QUETZAL narrow-diagonal path, which reads A, B
 *  and C from the QBUFFERs and writes the value back to them before
 *  the store. */
inline constexpr std::size_t kOpP = 3;
inline constexpr std::size_t kOpStore = 14;
static_assert(kProgram[kOpP].dst == kP &&
              kProgram[kOpStore].dst == kStored);

} // namespace nw

/**
 * SWG: E = max(H(i, j-1) - open, E(i, j-1) - extend), F likewise from
 * (i-1, j), H = max(H(i-1, j-1) + subst, E, F). The four previous-
 * diagonal loads wait on the `fwd` input; H2, P and T do not.
 */
namespace swg {

enum Slot : std::uint8_t
{
    kNone,
    kFwd,      //!< input: gate of the previous-diagonal loads
    kMatch,    //!< input: the dup32(match) constant
    kMismatch, //!< input: the dup32(mismatch) constant
    kH1,       //!< H(i, j-1)
    kH1b,      //!< H(i-1, j)
    kE1,
    kF1,
    kH2,       //!< H(i-1, j-1)
    kP,
    kT,
    kLanes,
    kEq,
    kSubst, //!< sel(eq, match, mismatch)
    kEExt,  //!< addi(E1, -extend)
    kEOpen, //!< addi(H1, -open)
    kE,     //!< max(open, ext)
    kFExt,  //!< addi(F1, -extend)
    kFOpen, //!< addi(H1b, -open)
    kF,     //!< max(open, ext)
    kGap,   //!< max(E, F)
    kDiag,  //!< add(H2, subst)
    kH,     //!< max(diag, gap)
    kStoredE,
    kStoredF,
    kStoredH,
    kSlots,
};

enum Stream : std::uint8_t
{
    kStreamH1,
    kStreamH1b,
    kStreamE1,
    kStreamF1,
    kStreamH2,
    kStreamP,
    kStreamT,
    kStreamE,
    kStreamF,
    kStreamH,
    kStreams,
};

inline constexpr std::array<BlockOp, 22> kProgram{{
    {OpClass::VecLoad, kH1, {kFwd}, kStreamH1},
    {OpClass::VecLoad, kH1b, {kFwd}, kStreamH1b},
    {OpClass::VecLoad, kE1, {kFwd}, kStreamE1},
    {OpClass::VecLoad, kF1, {kFwd}, kStreamF1},
    {OpClass::VecLoad, kH2, {}, kStreamH2},
    {OpClass::VecLoad, kP, {}, kStreamP},
    {OpClass::VecLoad, kT, {}, kStreamT},
    {OpClass::VecPred, kLanes},
    {OpClass::VecCmp, kEq, {kP, kT, kLanes}},
    {OpClass::VecAlu, kSubst, {kMatch, kMismatch, kEq}},
    {OpClass::VecAlu, kEExt, {kE1}},
    {OpClass::VecAlu, kEOpen, {kH1}},
    {OpClass::VecAlu, kE, {kEOpen, kEExt}},
    {OpClass::VecAlu, kFExt, {kF1}},
    {OpClass::VecAlu, kFOpen, {kH1b}},
    {OpClass::VecAlu, kF, {kFOpen, kFExt}},
    {OpClass::VecAlu, kGap, {kE, kF}},
    {OpClass::VecAlu, kDiag, {kH2, kSubst}},
    {OpClass::VecAlu, kH, {kDiag, kGap}},
    {OpClass::VecStore, kStoredE, {kE}, kStreamE},
    {OpClass::VecStore, kStoredF, {kF}, kStreamF},
    {OpClass::VecStore, kStoredH, {kH}, kStreamH},
}};

/** Op ranges of the QBUFFER-rows path (SwgParams::qbufferRows), which
 *  reads the five band rows from the QBUFFERs and writes H, E and F
 *  back to them before the stores. */
inline constexpr std::size_t kOpP = 5;
inline constexpr std::size_t kOpStores = 19;
static_assert(kProgram[kOpP].dst == kP &&
              kProgram[kOpStores].dst == kStoredE);

} // namespace swg

/**
 * WFA nextWave: offset(k) = max(prev(k-1) + 1, prev(k) + 1,
 * prev(k+1)), set to none where it leaves [0, min(n, m + k)].
 */
namespace wave {

enum Slot : std::uint8_t
{
    kNone,
    kM,       //!< input: dup32(m)
    kN,       //!< input: dup32(n)
    kInvalid, //!< input: dup32(kOffNone)
    kZero,    //!< input: dup32(0)
    kIns,     //!< prev(k - 1)
    kSub,     //!< prev(k)
    kDel,     //!< prev(k + 1)
    kSubInc,  //!< addi(sub, 1)
    kInsInc,  //!< addi(ins, 1)
    kMax,     //!< max(ins + 1, sub + 1)
    kBest,    //!< max(max, del)
    kK,       //!< index(k0, 1)
    kKm,      //!< add(k, m)
    kJmax,    //!< min(n, k + m)
    kLanes,
    kNeg,  //!< cmplt(best, 0)
    kOver, //!< cmpgt(best, jmax)
    kBad,  //!< por(over, neg)
    kOut,  //!< sel(bad, none, best)
    kStored,
    kSlots,
};

enum Stream : std::uint8_t
{
    kStreamIns,
    kStreamSub,
    kStreamDel,
    kStreamOut,
    kStreams,
};

inline constexpr std::array<BlockOp, 16> kProgram{{
    {OpClass::VecLoad, kIns, {}, kStreamIns},
    {OpClass::VecLoad, kSub, {}, kStreamSub},
    {OpClass::VecLoad, kDel, {}, kStreamDel},
    {OpClass::VecAlu, kSubInc, {kSub}},
    {OpClass::VecAlu, kInsInc, {kIns}},
    {OpClass::VecAlu, kMax, {kInsInc, kSubInc}},
    {OpClass::VecAlu, kBest, {kMax, kDel}},
    {OpClass::VecAlu, kK},
    {OpClass::VecAlu, kKm, {kK, kM}},
    {OpClass::VecAlu, kJmax, {kN, kKm}},
    {OpClass::VecPred, kLanes},
    {OpClass::VecCmp, kNeg, {kBest, kZero, kLanes}},
    {OpClass::VecCmp, kOver, {kBest, kJmax, kLanes}},
    {OpClass::VecPred, kBad, {kOver, kNeg}},
    {OpClass::VecAlu, kOut, {kInvalid, kBest, kBad}},
    {OpClass::VecStore, kStored, {kOut}, kStreamOut},
}};

} // namespace wave

} // namespace quetzal::algos::blocks

#endif // QUETZAL_ALGOS_VECTOR_BLOCKS_HPP
