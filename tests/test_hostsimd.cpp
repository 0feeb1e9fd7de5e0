/**
 * @file
 * Host-SIMD backend equivalence tests.
 *
 * The scalar HostSimdOps table is the reference model; the AVX2 and
 * AVX-512 tables must be drop-in replacements, bit for bit, or the
 * "simulated metrics are backend-independent" invariant dies in some
 * data-dependent corner. Randomized lockstep drives every kernel of
 * every table this build compiled in (and this CPU supports) against
 * the scalar table over adversarial inputs — equal registers, all-zero
 * and all-one lanes, degenerate masks, unaligned sources — plus
 * explicit boundary checks of the scalar reference itself (the SIMD
 * tables then inherit them through lockstep). On a scalar-only build
 * (QZ_HOST_SIMD=scalar, or a host without AVX) the lockstep loops see
 * an empty table list and the reference checks still run, so the test
 * compiles and passes everywhere.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <random>
#include <vector>

#include "common/logging.hpp"
#include "isa/hostsimd.hpp"

namespace quetzal::isa {
namespace {

using W = HostSimdOps::W;

constexpr unsigned kL64 = 8;
constexpr unsigned kL32 = 16;

/** Every compiled-in, CPU-supported table other than the reference. */
std::vector<const HostSimdOps *>
simdTables()
{
    std::vector<const HostSimdOps *> tables;
    if (const HostSimdOps *avx2 = hostSimdAvx2Ops())
        tables.push_back(avx2);
    if (const HostSimdOps *avx512 = hostSimdAvx512Ops())
        tables.push_back(avx512);
    return tables;
}

/**
 * Adversarial register generator: mostly random bits, but with fat
 * probability mass on the values where kernel corner cases live —
 * all-zero, all-one, equal-to-partner lanes (byte-run and count
 * kernels), and small counting patterns (signed compare boundaries).
 */
class Gen
{
  public:
    explicit Gen(std::uint64_t seed) : rng_(seed) {}

    std::uint64_t
    word()
    {
        switch (rng_() % 8) {
          case 0:
            return 0;
          case 1:
            return ~std::uint64_t{0};
          case 2:
            return rng_() % 3;
          default:
            return rng_();
        }
    }

    void
    fill(W *reg)
    {
        for (unsigned i = 0; i < kL64; ++i)
            reg[i] = word();
    }

    /** Fill @p b equal to @p a in a random prefix of each lane's bytes. */
    void
    fillPartner(const W *a, W *b)
    {
        for (unsigned i = 0; i < kL64; ++i) {
            b[i] = word();
            if (rng_() % 2) {
                const unsigned matchBytes = rng_() % 9;
                const std::uint64_t keep =
                    matchBytes >= 8
                        ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << (matchBytes * 8)) - 1);
                b[i] = (a[i] & keep) | (b[i] & ~keep);
            }
        }
    }

    std::uint64_t
    mask()
    {
        switch (rng_() % 5) {
          case 0:
            return 0;
          case 1:
            return ~std::uint64_t{0};
          case 2:
            return (std::uint64_t{1} << kL32) - 1;
          default:
            return rng_();
        }
    }

    std::uint64_t raw() { return rng_(); }

  private:
    std::mt19937_64 rng_;
};

#define EXPECT_REGS_EQ(ref, got, table, op)                            \
    EXPECT_EQ(0, std::memcmp(ref, got, sizeof(W) * kL64))              \
        << "table " << (table)->name << " diverges on " op

TEST(HostSimdLockstep, BinaryAndUnaryKernels)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    const auto tables = simdTables();
    Gen gen(0x5eed0001);
    for (int iter = 0; iter < 2000; ++iter) {
        W a[kL64], b[kL64], refOut[kL64], simdOut[kL64];
        gen.fill(a);
        gen.fillPartner(a, b);
        for (const HostSimdOps *t : tables) {
#define CHECK_BIN(op)                                                  \
    do {                                                               \
        ref.op(a, b, refOut);                                          \
        t->op(a, b, simdOut);                                          \
        EXPECT_REGS_EQ(refOut, simdOut, t, #op);                       \
    } while (0)
            CHECK_BIN(and64);
            CHECK_BIN(or64);
            CHECK_BIN(xor64);
            CHECK_BIN(xnor64);
            CHECK_BIN(add64);
            CHECK_BIN(sub64);
            CHECK_BIN(min64);
            CHECK_BIN(max64);
            CHECK_BIN(add32);
            CHECK_BIN(sub32);
            CHECK_BIN(min32);
            CHECK_BIN(max32);
            CHECK_BIN(matchBytes32);
            CHECK_BIN(matchBytes32Rev);
            CHECK_BIN(pack64to32);
#undef CHECK_BIN
#define CHECK_UN(op)                                                   \
    do {                                                               \
        ref.op(a, refOut);                                             \
        t->op(a, simdOut);                                             \
        EXPECT_REGS_EQ(refOut, simdOut, t, #op);                       \
    } while (0)
            CHECK_UN(widenLo32to64);
            CHECK_UN(widenHi32to64);
            CHECK_UN(ctz64);
            CHECK_UN(clz64);
#undef CHECK_UN
        }
    }
}

TEST(HostSimdLockstep, ImmediatePredicatedAndSelectKernels)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    const auto tables = simdTables();
    Gen gen(0x5eed0002);
    for (int iter = 0; iter < 2000; ++iter) {
        W a[kL64], b[kL64], refOut[kL64], simdOut[kL64];
        gen.fill(a);
        gen.fillPartner(a, b);
        const auto imm64 = static_cast<std::int64_t>(gen.word());
        const auto imm32 = static_cast<std::int32_t>(gen.raw());
        const std::uint64_t mask = gen.mask();
        for (const HostSimdOps *t : tables) {
#define CHECK(call_ref, call_t, op)                                    \
    do {                                                               \
        call_ref;                                                      \
        call_t;                                                        \
        EXPECT_REGS_EQ(refOut, simdOut, t, op);                        \
    } while (0)
            CHECK(ref.addImm64(a, imm64, refOut),
                  t->addImm64(a, imm64, simdOut), "addImm64");
            CHECK(ref.addImm32(a, imm32, refOut),
                  t->addImm32(a, imm32, simdOut), "addImm32");
            CHECK(ref.addImmPred64(a, imm64, mask, refOut),
                  t->addImmPred64(a, imm64, mask, simdOut),
                  "addImmPred64");
            CHECK(ref.addImmPred32(a, imm32, mask, refOut),
                  t->addImmPred32(a, imm32, mask, simdOut),
                  "addImmPred32");
            CHECK(ref.addPred64(a, b, mask, refOut),
                  t->addPred64(a, b, mask, simdOut), "addPred64");
            CHECK(ref.addPred32(a, b, mask, refOut),
                  t->addPred32(a, b, mask, simdOut), "addPred32");
            CHECK(ref.sel64(mask, a, b, refOut),
                  t->sel64(mask, a, b, simdOut), "sel64");
            CHECK(ref.sel32(mask, a, b, refOut),
                  t->sel32(mask, a, b, simdOut), "sel32");
#undef CHECK
        }
    }
}

TEST(HostSimdLockstep, CompareShiftAndCountKernels)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    const auto tables = simdTables();
    Gen gen(0x5eed0003);
    for (int iter = 0; iter < 2000; ++iter) {
        W a[kL64], b[kL64], refOut[kL64], simdOut[kL64];
        gen.fill(a);
        gen.fillPartner(a, b);
        for (const HostSimdOps *t : tables) {
#define CHECK_CMP(op)                                                  \
    EXPECT_EQ(ref.op(a, b), t->op(a, b))                               \
        << "table " << t->name << " diverges on " #op
            CHECK_CMP(cmpEq32);
            CHECK_CMP(cmpNe32);
            CHECK_CMP(cmpGt32);
            CHECK_CMP(cmpLt32);
            CHECK_CMP(cmpEq64);
            CHECK_CMP(cmpNe64);
            CHECK_CMP(cmpGt64);
            CHECK_CMP(cmpLt64);
#undef CHECK_CMP
            // Shift 64/65: the documented contract is all-zero lanes,
            // which the variable-shift instructions deliver but a
            // naive scalar `>>` would turn into UB.
            for (const unsigned shift : {0u, 1u, 31u, 63u, 64u, 65u}) {
                ref.shr64(a, shift, refOut);
                t->shr64(a, shift, simdOut);
                EXPECT_REGS_EQ(refOut, simdOut, t, "shr64");
                ref.shl64(a, shift, refOut);
                t->shl64(a, shift, simdOut);
                EXPECT_REGS_EQ(refOut, simdOut, t, "shl64");
            }
            // Every element-size shift the CountAlu uses (2/8/32/64-bit
            // elements) plus the in-between values.
            for (const unsigned shift : {1u, 2u, 3u, 4u, 5u, 6u}) {
                ref.qzcount(a, b, shift, refOut);
                t->qzcount(a, b, shift, simdOut);
                EXPECT_REGS_EQ(refOut, simdOut, t, "qzcount");
                ref.qzcountRev(a, b, shift, refOut);
                t->qzcountRev(a, b, shift, simdOut);
                EXPECT_REGS_EQ(refOut, simdOut, t, "qzcountRev");
            }
        }
    }
}

TEST(HostSimdLockstep, WidenFromUnalignedTailsWithoutOverread)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    const auto tables = simdTables();
    Gen gen(0x5eed0004);
    for (int iter = 0; iter < 500; ++iter) {
        for (unsigned n = 0; n <= 16; ++n) {
            for (unsigned misalign = 0; misalign < 4; ++misalign) {
                // Exact-length heap block: the kernel contract says
                // "must not read past src + n", so give it nothing
                // past src + n to read. An over-reading kernel shows
                // up under valgrind/ASan runs of this test; a
                // mis-widening one fails the memcmp below either way.
                std::vector<std::uint8_t> buf(misalign + n);
                for (auto &byte : buf)
                    byte = static_cast<std::uint8_t>(gen.raw());
                const std::uint8_t *src = buf.data() + misalign;
                W refOut[kL64], simdOut[kL64];
                ref.widen8to32(src, n, refOut);
                for (const HostSimdOps *t : tables) {
                    t->widen8to32(src, n, simdOut);
                    EXPECT_REGS_EQ(refOut, simdOut, t, "widen8to32");
                }
            }
        }
    }
    // An empty source may be null: every table must zero the
    // register without touching (or, for UBSan, passing on) it.
    W refOut[kL64], simdOut[kL64];
    ref.widen8to32(nullptr, 0, refOut);
    for (const HostSimdOps *t : tables) {
        t->widen8to32(nullptr, 0, simdOut);
        EXPECT_REGS_EQ(refOut, simdOut, t, "widen8to32(nullptr, 0)");
    }
}

TEST(HostSimdLockstep, CompactAddressKernels)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    const auto tables = simdTables();
    Gen gen(0x5eed0005);
    for (int iter = 0; iter < 2000; ++iter) {
        W idx[kL64];
        gen.fill(idx);
        const std::uint64_t base = gen.raw();
        const std::uint64_t mask = gen.mask();
        const unsigned log2Scale = static_cast<unsigned>(gen.raw() % 4);
        std::uint64_t refAddrs[kL32], simdAddrs[kL32];
        for (const HostSimdOps *t : tables) {
#define CHECK_COMPACT(call_ref, call_t, op, lanes)                     \
    do {                                                               \
        std::memset(refAddrs, 0, sizeof(refAddrs));                    \
        std::memset(simdAddrs, 0, sizeof(simdAddrs));                  \
        const unsigned refCount = call_ref;                            \
        const unsigned simdCount = call_t;                             \
        EXPECT_EQ(refCount, simdCount)                                 \
            << "table " << t->name << " diverges on " op " count";     \
        EXPECT_EQ(0, std::memcmp(refAddrs, simdAddrs,                  \
                                 sizeof(std::uint64_t) * (lanes)))     \
            << "table " << t->name << " diverges on " op;              \
    } while (0)
            CHECK_COMPACT(
                ref.compactAddrU32(base, idx, log2Scale, mask, refAddrs),
                t->compactAddrU32(base, idx, log2Scale, mask, simdAddrs),
                "compactAddrU32", kL32);
            CHECK_COMPACT(
                ref.compactAddrI32(base, idx, mask, refAddrs),
                t->compactAddrI32(base, idx, mask, simdAddrs),
                "compactAddrI32", kL32);
            CHECK_COMPACT(
                ref.compactAddr64(base, idx, log2Scale,
                                  mask & ((1u << kL64) - 1), refAddrs),
                t->compactAddr64(base, idx, log2Scale,
                                 mask & ((1u << kL64) - 1), simdAddrs),
                "compactAddr64", kL64);
#undef CHECK_COMPACT
        }
    }
}

// ---- scalar-reference boundary semantics ---------------------------
// These pin the reference model itself (the lockstep tests above then
// carry the guarantees to every SIMD table). They run on every build,
// including scalar-only ones.

TEST(HostSimdReference, MatchBytesBoundaries)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    W a[kL64], b[kL64], out[kL64];
    std::uint32_t av[kL32], bv[kL32], ov[kL32];

    // All four bytes equal -> 4; first byte differs -> 0 — in both
    // directions, including sign-bit-only differences (countl_zero
    // territory) and the all-zero lane.
    for (unsigned i = 0; i < kL32; ++i) {
        av[i] = 0xA1B2C3D4;
        bv[i] = 0xA1B2C3D4;
    }
    std::memcpy(a, av, sizeof(av));
    std::memcpy(b, bv, sizeof(bv));
    ref.matchBytes32(a, b, out);
    std::memcpy(ov, out, sizeof(ov));
    for (unsigned i = 0; i < kL32; ++i)
        EXPECT_EQ(4u, ov[i]) << "element " << i;
    ref.matchBytes32Rev(a, b, out);
    std::memcpy(ov, out, sizeof(ov));
    for (unsigned i = 0; i < kL32; ++i)
        EXPECT_EQ(4u, ov[i]) << "element " << i;

    // Forward: byte k is the first mismatch -> k matching bytes.
    // Reverse: byte 3-k is the first mismatch from the top -> k.
    for (unsigned k = 0; k < 4; ++k) {
        for (unsigned i = 0; i < kL32; ++i) {
            av[i] = 0x01020304;
            bv[i] = av[i] ^ (0x80u << (8 * k)); // flip byte k's MSB
        }
        std::memcpy(a, av, sizeof(av));
        std::memcpy(b, bv, sizeof(bv));
        ref.matchBytes32(a, b, out);
        std::memcpy(ov, out, sizeof(ov));
        for (unsigned i = 0; i < kL32; ++i)
            EXPECT_EQ(k, ov[i]) << "forward, mismatch at byte " << k;
        ref.matchBytes32Rev(a, b, out);
        std::memcpy(ov, out, sizeof(ov));
        for (unsigned i = 0; i < kL32; ++i)
            EXPECT_EQ(3 - k, ov[i])
                << "reverse, mismatch at byte " << k;
    }
}

TEST(HostSimdReference, CountBoundaries)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    W a[kL64], b[kL64], out[kL64];

    // ctz/clz of 0 is 64 (whole register matches); of ~0 it is 0.
    for (unsigned i = 0; i < kL64; ++i)
        a[i] = 0;
    ref.ctz64(a, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(64u, out[i]);
    ref.clz64(a, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(64u, out[i]);
    for (unsigned i = 0; i < kL64; ++i)
        a[i] = ~W{0};
    ref.ctz64(a, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(0u, out[i]);
    ref.clz64(a, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(0u, out[i]);

    // qzcount on identical lanes: 64 matching bits >> shift gives the
    // full element count at every element size the CountAlu supports.
    for (unsigned i = 0; i < kL64; ++i)
        b[i] = a[i];
    for (const unsigned shift : {1u, 3u, 6u}) {
        ref.qzcount(a, b, shift, out);
        for (unsigned i = 0; i < kL64; ++i)
            EXPECT_EQ(W{64} >> shift, out[i]) << "shift " << shift;
        ref.qzcountRev(a, b, shift, out);
        for (unsigned i = 0; i < kL64; ++i)
            EXPECT_EQ(W{64} >> shift, out[i]) << "shift " << shift;
    }

    // A mismatch in bit 0 / bit 63 zeroes the respective direction.
    for (unsigned i = 0; i < kL64; ++i) {
        a[i] = 0x0123456789ABCDEF;
        b[i] = a[i] ^ 1;
    }
    ref.qzcount(a, b, 3, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(0u, out[i]);
    for (unsigned i = 0; i < kL64; ++i)
        b[i] = a[i] ^ (W{1} << 63);
    ref.qzcountRev(a, b, 3, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(0u, out[i]);
}

TEST(HostSimdReference, ShiftBoundaries)
{
    const HostSimdOps &ref = hostSimdScalarOps();
    W a[kL64], out[kL64];
    for (unsigned i = 0; i < kL64; ++i)
        a[i] = ~W{0};

    ref.shr64(a, 0, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(~W{0}, out[i]);
    ref.shr64(a, 63, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(W{1}, out[i]);
    ref.shl64(a, 63, out);
    for (unsigned i = 0; i < kL64; ++i)
        EXPECT_EQ(W{1} << 63, out[i]);
    // Past the lane width the contract is all-zero, not UB.
    for (const unsigned shift : {64u, 65u}) {
        ref.shr64(a, shift, out);
        for (unsigned i = 0; i < kL64; ++i)
            EXPECT_EQ(W{0}, out[i]) << "shr64 by " << shift;
        ref.shl64(a, shift, out);
        for (unsigned i = 0; i < kL64; ++i)
            EXPECT_EQ(W{0}, out[i]) << "shl64 by " << shift;
    }
}

TEST(HostSimdDispatch, ResolvedBackendIsACompiledTable)
{
    const HostSimdOps &active = hostSimd();
    EXPECT_NE(nullptr, active.name);
    const std::string name = active.name;
    EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512")
        << "unexpected backend " << name;
    // Whatever was resolved must be one of the tables this build owns.
    const bool isScalar = &active == &hostSimdScalarOps();
    const bool isAvx2 = hostSimdAvx2Ops() && &active == hostSimdAvx2Ops();
    const bool isAvx512 =
        hostSimdAvx512Ops() && &active == hostSimdAvx512Ops();
    EXPECT_TRUE(isScalar || isAvx2 || isAvx512);
    EXPECT_NE(nullptr, hostSimdCompiler());
    EXPECT_NE(nullptr, hostSimdBuildFlags());
}

TEST(HostSimdDispatch, RequestSelectsOrRejectsBackend)
{
    // Unset and empty both mean auto.
    EXPECT_EQ(&hostSimdFor(nullptr), &hostSimdFor("auto"));
    EXPECT_EQ(&hostSimdFor(""), &hostSimdFor("auto"));
    EXPECT_EQ(&hostSimdFor("scalar"), &hostSimdScalarOps());
    for (const char *request : {"avx2", "avx512"}) {
        const std::string name = hostSimdFor(request).name;
        EXPECT_TRUE(name == "scalar" || name == request) << name;
    }
    // Anything else is refused, naming the value and the choices.
    for (const char *request : {"bogus", "AVX2", "avx2 "}) {
        try {
            hostSimdFor(request);
            ADD_FAILURE() << "accepted QZ_HOST_SIMD=" << request;
        } catch (const FatalError &error) {
            const std::string message = error.what();
            EXPECT_NE(message.find(std::string("'") + request + "'"),
                      std::string::npos)
                << message;
            for (const char *choice : {"auto", "avx512", "avx2", "scalar"})
                EXPECT_NE(message.find(choice), std::string::npos)
                    << message;
        }
    }
}

} // namespace
} // namespace quetzal::isa
