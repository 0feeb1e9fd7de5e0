/**
 * @file
 * Batch experiment engine: runs many (algorithm, variant, dataset)
 * evaluation-matrix cells concurrently on a fixed thread pool, with
 * per-cell fault isolation, bounded retries, checkpoint/resume, and
 * deterministic fault injection (docs/ROBUSTNESS.md).
 *
 * Each cell is independent by construction — Workload::run() builds a
 * fresh simulated core per call and datasets are read-only — so the
 * matrix is embarrassingly parallel. Results come back in submission
 * order regardless of completion order, and every cell is bitwise
 * identical to what a serial run would produce (the simulator is
 * deterministic and shares no mutable state across cells). A cell
 * that fails becomes a structured CellFailure record instead of
 * killing the sweep; every other cell's result is unaffected.
 */
#ifndef QUETZAL_ALGOS_BATCH_HPP
#define QUETZAL_ALGOS_BATCH_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algos/faults.hpp"
#include "algos/runner.hpp"
#include "algos/workload.hpp"
#include "common/threadpool.hpp"
#include "genomics/pairsource.hpp"

namespace quetzal::algos {

/**
 * One queued evaluation-matrix cell. Pairs arrive through a shared
 * PairSource — an in-RAM dataset is just the zero-copy
 * DatasetPairSource special case, which the dataset constructors
 * below build for callers that still materialize.
 */
struct BatchCell
{
    /** Registry workload this cell runs (non-owning; registry-owned). */
    const Workload *workload = nullptr;
    /** Shared so many cells can stream one dataset/store/generator. */
    std::shared_ptr<const genomics::PairSource> source;
    RunOptions options;

    BatchCell() = default;

    BatchCell(const Workload &workload_,
              std::shared_ptr<const genomics::PairSource> source_,
              RunOptions options_)
        : workload(&workload_), source(std::move(source_)),
          options(std::move(options_))
    {
    }

    BatchCell(const Workload &workload_,
              std::shared_ptr<const genomics::PairDataset> dataset_,
              RunOptions options_)
        : BatchCell(workload_,
                    std::make_shared<genomics::DatasetPairSource>(
                        std::move(dataset_)),
                    std::move(options_))
    {
    }
};

/**
 * One shard of a partitioned sweep: this process owns every cell
 * whose submission index i satisfies i % count == index - 1
 * (deterministic round-robin, so shard layouts balance mixed-cost
 * matrices and cell ownership never depends on execution order).
 */
struct ShardSpec
{
    unsigned index = 1; //!< 1-based shard number (K in "K/N")
    unsigned count = 1; //!< total shards (N in "K/N")

    bool owns(std::size_t cell) const
    {
        return cell % count == index - 1;
    }

    bool operator==(const ShardSpec &other) const
    {
        return index == other.index && count == other.count;
    }
};

/**
 * Parse a "K/N" shard spec (1 <= K <= N). Empty input yields nullopt
 * (unsharded); malformed input is a fatal() diagnostic.
 */
std::optional<ShardSpec> parseShardSpec(std::string_view spec);

/** Shard from the QZ_BENCH_SHARD environment variable, if set. */
std::optional<ShardSpec> shardFromEnv();

/** "K/N" rendering of @p shard. */
std::string shardName(const ShardSpec &shard);

/** Fault-tolerance knobs of one BatchRunner. */
struct BatchPolicy
{
    /**
     * true (default): a failing cell is recorded and the sweep
     * continues. false: legacy fail-fast — the first failure rethrows
     * from run() after the pool drains.
     */
    bool isolateFailures = true;

    /** Bounded retries for Transient failures. */
    RetryPolicy retry;

    /**
     * When non-empty, completed cells are appended to this file as
     * JSON lines and cells already present in it are skipped on the
     * next run (checkpoint/resume; see docs/ROBUSTNESS.md).
     */
    std::string checkpointPath;

    /** Deterministic fault injection (QZ_FAULT_INJECT by default). */
    std::optional<FaultInjection> inject;

    /**
     * When set, only the cells this shard owns execute (QZ_BENCH_SHARD
     * by default); the other slots keep their identity with zeroed
     * metrics. Checkpoint resume, writes, and fault injection apply to
     * owned cells only, and injection cell indices stay global — the
     * same QZ_FAULT_INJECT spec fires in exactly one shard.
     */
    std::optional<ShardSpec> shard;
};

/** Everything one run() produced. */
struct BatchOutcome
{
    /**
     * One slot per submitted cell, in submission order. A failed
     * cell's slot carries the identifying fields (algo, variant,
     * dataset) with zeroed metrics; check failureFor()/failures.
     */
    std::vector<RunResult> results;

    /** Terminal failures, ordered by cell index. */
    std::vector<CellFailure> failures;

    std::uint64_t resumedCells = 0; //!< skipped via checkpoint
    std::uint64_t retries = 0;      //!< attempts beyond each first

    /** The shard this run executed as (nullopt = every cell). */
    std::optional<ShardSpec> shard;

    /**
     * Global indices of the cells this run owned, in submission
     * order — every index when unsharded. Shard reports serialize
     * exactly these slots.
     */
    std::vector<std::size_t> ownedCells;

    bool ok() const { return failures.empty(); }

    /** Failure record for @p cell; nullptr when the cell succeeded. */
    const CellFailure *
    failureFor(std::size_t cell) const
    {
        for (const auto &failure : failures)
            if (failure.cell == cell)
                return &failure;
        return nullptr;
    }
};

/** True when QZ_BENCH_HOSTPERF is set to a non-empty, non-"0" value. */
bool hostPerfFromEnv();

/**
 * Repair a JSONL checkpoint whose writer was killed mid-line: when
 * the file does not end in '\n', drop the bytes after the last
 * newline (truncate-and-warn) so a subsequent append cannot
 * concatenate a fresh record onto the torn tail and poison both.
 * Complete-but-unparseable lines are left alone — the loader skips
 * them. Returns the number of bytes dropped (0 for a missing or
 * clean file). Shared by BatchRunner and the per-pair checkpoints of
 * qz-align/qz-filter.
 */
std::size_t truncateTornCheckpointTail(const std::string &path);

/**
 * Collects evaluation cells and runs them on a worker pool.
 *
 * Usage: add() every cell (the returned index identifies its slot),
 * then run() once; results land at the same indices. The runner is
 * single-shot per run() call but can be refilled and rerun.
 */
class BatchRunner
{
  public:
    /** @p threads worker count; <= 1 degrades to a serial loop. */
    explicit BatchRunner(unsigned threads = ThreadPool::hardwareThreads())
        : threads_(threads == 0 ? 1 : threads)
    {
        policy_.inject = faultInjectionFromEnv();
        policy_.shard = shardFromEnv();
        hostPerf_ = hostPerfFromEnv();
    }

    /** Queue @p cell; @return its index into run()'s result vector. */
    std::size_t
    add(BatchCell cell)
    {
        fatal_if(!cell.source, "BatchRunner cell without a pair source");
        fatal_if(!cell.workload, "BatchRunner cell without a workload");
        cells_.push_back(std::move(cell));
        return cells_.size() - 1;
    }

    /** Convenience overload building the cell in place. */
    std::size_t
    add(const Workload &workload,
        std::shared_ptr<const genomics::PairDataset> dataset,
        const RunOptions &options)
    {
        return add(BatchCell{workload, std::move(dataset), options});
    }

    /** Convenience overload over a streaming source. */
    std::size_t
    add(const Workload &workload,
        std::shared_ptr<const genomics::PairSource> source,
        const RunOptions &options)
    {
        return add(BatchCell{workload, std::move(source), options});
    }

    std::size_t size() const { return cells_.size(); }
    unsigned threads() const { return threads_; }

    /** Mutable fault-tolerance policy (set before run()). */
    BatchPolicy &policy() { return policy_; }
    const BatchPolicy &policy() const { return policy_; }

    /** Enable checkpoint/resume against @p path. */
    void setCheckpoint(std::string path)
    {
        policy_.checkpointPath = std::move(path);
    }

    /** Override the injection spec (tests; env is the default). */
    void setFaultInjection(std::optional<FaultInjection> inject)
    {
        policy_.inject = std::move(inject);
    }

    /** Override the shard (tests/tools; QZ_BENCH_SHARD is the default). */
    void setShard(std::optional<ShardSpec> shard)
    {
        policy_.shard = shard;
    }

    /**
     * Record host wall-clock per cell into RunResult::hostNanos
     * (default: the QZ_BENCH_HOSTPERF environment variable). Off by
     * default so reports stay byte-identical across machines and
     * serial/parallel/sharded execution (docs/SIMULATOR.md, "Host
     * performance").
     */
    void setHostPerf(bool enabled) { hostPerf_ = enabled; }
    bool hostPerf() const { return hostPerf_; }

    /**
     * Run every queued cell and clear the queue. Results are ordered
     * by submission index. Failing cells become CellFailure records
     * (unless policy().isolateFailures is false, which restores the
     * legacy rethrow-first behavior).
     */
    BatchOutcome run();

  private:
    unsigned threads_;
    BatchPolicy policy_;
    bool hostPerf_ = false;
    std::vector<BatchCell> cells_;
};

/** One-shot helper: run @p cells on @p threads workers. */
BatchOutcome runBatch(std::vector<BatchCell> cells, unsigned threads);

} // namespace quetzal::algos

#endif // QUETZAL_ALGOS_BATCH_HPP
