/**
 * @file
 * Failure taxonomy and fault plumbing for the batch experiment engine.
 *
 * Production-scale bench matrices meet adversarial cells — degenerate
 * inputs, blown resource budgets, injected flakiness — and must record
 * them instead of dying (ROADMAP north-star; docs/ROBUSTNESS.md).
 * This header defines what a failure *is* (FailureKind, CellFailure),
 * how one is classified from an in-flight exception, the retry policy
 * for transient kinds, the QZ_FAULT_INJECT spec that makes every
 * failure path deterministically testable, and the stable cell-key
 * hashing that checkpoint/resume keys completed work by.
 */
#ifndef QUETZAL_ALGOS_FAULTS_HPP
#define QUETZAL_ALGOS_FAULTS_HPP

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

#include "algos/runner.hpp"

namespace quetzal::genomics {
class PairSource;
}

namespace quetzal::algos {

/** Why a cell failed (mirrors the exception taxonomy in logging.hpp). */
enum class FailureKind
{
    Fatal,     //!< FatalError: bad input/config, terminal
    Panic,     //!< PanicError: library invariant violation, terminal
    Transient, //!< TransientError: expected to clear on retry
    Resource,  //!< ResourceError: budget exhausted post-degradation
    Unknown,   //!< anything else (std::exception or foreign throw)
};

/** Lower-case kind name as used in JSON and the QZ_FAULT_INJECT spec. */
std::string_view failureKindName(FailureKind kind);

/** Parse a kind name; nullopt when unrecognized. */
std::optional<FailureKind> failureKindFromName(std::string_view name);

/** Classify an in-flight exception into the taxonomy. */
FailureKind classifyException(std::exception_ptr error);

/** Human-readable message of an in-flight exception. */
std::string exceptionMessage(std::exception_ptr error);

/** Structured record of one failed evaluation cell. */
struct CellFailure
{
    std::size_t cell = 0; //!< submission index into the batch
    std::string key;      //!< canonical cell key (cellKey())
    FailureKind kind = FailureKind::Unknown;
    std::string message;
    unsigned attempts = 1; //!< how many attempts were made in total
};

/**
 * Bounded-retry policy for cells whose failure is classified
 * Transient. Backoff is deterministic (pure function of the attempt
 * number) so a retried sweep stays reproducible; terminal kinds
 * (Fatal/Panic/Resource/Unknown) never retry.
 */
struct RetryPolicy
{
    unsigned maxAttempts = 3;   //!< total attempts incl. the first
    unsigned backoffBaseMs = 0; //!< 0 = no sleep between attempts

    /** Delay before attempt @p attempt (2nd attempt = 1): base*2^n. */
    unsigned
    backoffMs(unsigned attempt) const
    {
        if (backoffBaseMs == 0 || attempt == 0)
            return 0;
        const unsigned shift = attempt > 16 ? 16 : attempt - 1;
        return backoffBaseMs << shift;
    }
};

/**
 * How an injected fault manifests. Throw raises the taxonomy
 * exception matching FaultInjection::kind in-process — the batch
 * engine's path. Crash and Hang are worker-process-level kinds that
 * only fire inside qz-serve workers (src/serve/worker.cpp): Crash
 * abort()s the worker mid-request, Hang sleeps far past any sane
 * per-request deadline, so the service's respawn and deadline-kill
 * recovery paths are deterministically testable. The in-process
 * batch engine ignores non-Throw injections.
 */
enum class FaultAction
{
    Throw,
    Crash,
    Hang,
};

/** Lower-case action name as used in the QZ_FAULT_INJECT spec. */
std::string_view faultActionName(FaultAction action);

/**
 * Deterministic fault injection: cell @p cell throws a @p kind
 * failure on its first @p times executions (attempts count, so a
 * transient injection with times < RetryPolicy::maxAttempts is healed
 * by the retry path). Spec syntax: "CELL:KIND[:TIMES]" with KIND one
 * of fatal|panic|transient|resource|unknown|crash|hang, TIMES
 * defaulting to 1 — e.g. QZ_FAULT_INJECT=3:transient:2. The crash and
 * hang kinds select a worker-process-level FaultAction instead of an
 * exception kind; under qz-serve, CELL is the request id.
 */
struct FaultInjection
{
    std::size_t cell = 0;
    FailureKind kind = FailureKind::Fatal;
    unsigned times = 1;
    FaultAction action = FaultAction::Throw;
};

/**
 * Parse an injection spec. Empty input yields nullopt (no injection);
 * malformed input is a fatal() diagnostic.
 */
std::optional<FaultInjection> parseFaultSpec(std::string_view spec);

/** Injection from the QZ_FAULT_INJECT environment variable, if set. */
std::optional<FaultInjection> faultInjectionFromEnv();

/** Throw the exception type matching @p kind (injection execution). */
[[noreturn]] void throwInjectedFault(const FaultInjection &inject);

/**
 * Canonical human-readable identity of one evaluation cell:
 * "WORKLOAD/VARIANT/DATASET#pairs=N;..." covering every RunOptions
 * field that changes the simulated outcome, plus any dataset params
 * (kernel workloads). @p workload is the registry display name.
 */
std::string cellKey(std::string_view workload,
                    const genomics::PairDataset &dataset,
                    const RunOptions &options);

/**
 * cellKey() over a streaming source. Byte-identical to the dataset
 * overload for any source that yields the same pairs — checkpoints
 * written by in-RAM sweeps resume store-backed ones and vice versa.
 */
std::string cellKey(std::string_view workload,
                    const genomics::PairSource &source,
                    const RunOptions &options);

/**
 * Stable 64-bit FNV-1a digest (16 hex chars) of the full cell
 * identity: the key string (which covers dataset params), every
 * dataset pair's content, and all simulated-system parameters. Two
 * cells with equal hashes produce bitwise-identical RunResults, which
 * is what makes checkpoint reuse sound (cells are pure functions of
 * their identity). The hash is shard-invariant: QZ_BENCH_SHARD
 * changes which process runs a cell, never the cell's identity.
 */
std::string cellHash(std::string_view workload,
                     const genomics::PairDataset &dataset,
                     const RunOptions &options);

/**
 * cellHash() over a streaming source (pairs are streamed through the
 * digest at bounded memory). Byte-identical to the dataset overload
 * whenever the source yields the same pairs.
 */
std::string cellHash(std::string_view workload,
                     const genomics::PairSource &source,
                     const RunOptions &options);

} // namespace quetzal::algos

#endif // QUETZAL_ALGOS_FAULTS_HPP
