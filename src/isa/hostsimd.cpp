/**
 * @file
 * Host-SIMD backend resolution: configure-time cap, environment
 * override, CPUID — in that order, each step only able to lower the
 * selection. Resolved once per process (first hostSimd() call) so the
 * facade pays a single indirection per kernel, never a re-check.
 */
#include "isa/hostsimd.hpp"

#include "isa/hostsimd_tables.hpp"

#include "common/logging.hpp"

#include <cstdlib>
#include <cstring>

#ifndef QZ_HOSTSIMD_CONFIG
#define QZ_HOSTSIMD_CONFIG "auto"
#endif

namespace quetzal::isa {

namespace {

enum class Level
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/**
 * Parse a QZ_HOST_SIMD value (configure cap or environment). Null or
 * empty means auto; anything but the four backend names is rejected
 * rather than silently read as auto.
 */
Level
parseLevel(const char *s)
{
    if (s == nullptr || *s == '\0' || std::strcmp(s, "auto") == 0) {
        return Level::Avx512;
    }
    if (std::strcmp(s, "avx512") == 0) {
        return Level::Avx512;
    }
    if (std::strcmp(s, "avx2") == 0) {
        return Level::Avx2;
    }
    if (std::strcmp(s, "scalar") == 0) {
        return Level::Scalar;
    }
    fatal("QZ_HOST_SIMD='{}' is not a host-SIMD backend (expected "
          "auto, avx512, avx2 or scalar)",
          s);
}

bool
cpuHasAvx2()
{
#if defined(QZ_HOSTSIMD_HAVE_AVX2)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if defined(QZ_HOSTSIMD_HAVE_AVX512)
    // Every feature the AVX-512 TU's intrinsics require.
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512cd") &&
           __builtin_cpu_supports("avx512vpopcntdq");
#else
    return false;
#endif
}

} // namespace

const HostSimdOps &
hostSimdFor(const char *request)
{
    Level cap = parseLevel(QZ_HOSTSIMD_CONFIG);
    const Level env = parseLevel(request);
    if (env < cap) {
        cap = env; // the environment can only lower the configure cap
    }
    if (cap >= Level::Avx512 && cpuHasAvx512()) {
        return hostSimdAvx512Table();
    }
    if (cap >= Level::Avx2 && cpuHasAvx2()) {
        return hostSimdAvx2Table();
    }
    return hostSimdScalarOps();
}

const HostSimdOps &
hostSimd()
{
    static const HostSimdOps &ops =
        hostSimdFor(std::getenv("QZ_HOST_SIMD"));
    return ops;
}

const HostSimdOps *
hostSimdAvx2Ops()
{
    if (!cpuHasAvx2()) {
        return nullptr;
    }
#if defined(QZ_HOSTSIMD_HAVE_AVX2)
    return &hostSimdAvx2Table();
#else
    return nullptr;
#endif
}

const HostSimdOps *
hostSimdAvx512Ops()
{
    if (!cpuHasAvx512()) {
        return nullptr;
    }
#if defined(QZ_HOSTSIMD_HAVE_AVX512)
    return &hostSimdAvx512Table();
#else
    return nullptr;
#endif
}

const char *
hostSimdCompiler()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

const char *
hostSimdBuildFlags()
{
    return QZ_HOSTSIMD_CONFIG "("
#if defined(QZ_HOSTSIMD_HAVE_AVX512)
           "avx512,"
#endif
#if defined(QZ_HOSTSIMD_HAVE_AVX2)
           "avx2,"
#endif
           "scalar)";
}

} // namespace quetzal::isa
