/**
 * @file
 * The workload registry: one name-addressable catalog of everything
 * the evaluation matrix can run — the genomics algorithms (WFA, BiWFA,
 * SneakySnake, NW, banded SW, the SS+WFA pipeline) and the Fig. 15b
 * other-domain kernels (histogram, SpMV) — behind a single Workload
 * interface.
 *
 * Workloads self-register at static-initialization time via
 * WorkloadRegistrar, so cell dispatch everywhere (the batch engine,
 * the bench binaries, the CLI tools) is a registry lookup instead of
 * a switch ladder, and every workload flows through BatchRunner with
 * the full RunResult contract (cycles, stall breakdown, memory
 * traffic, outputs_match) plus threads, JSON, checkpoint/resume,
 * retries, and fault isolation for free.
 *
 * Registration happens during static init (single-threaded) and the
 * registry is read-only afterwards, so lookups need no locking.
 */
#ifndef QUETZAL_ALGOS_WORKLOAD_HPP
#define QUETZAL_ALGOS_WORKLOAD_HPP

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algos/runner.hpp"
#include "isa/vectorunit.hpp"
#include "quetzal/qzunit.hpp"
#include "sim/context.hpp"

namespace quetzal::genomics {
class PairSource;
}

namespace quetzal::algos {

/**
 * One workload of the evaluation matrix. Implementations are
 * stateless: run() builds a fresh simulated core per call, so cells
 * are pure functions of (dataset, options) and the batch engine can
 * execute them on any worker in any order.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Display name matching the paper (the single source of truth). */
    virtual std::string_view name() const = 0;

    /** Timed variants this workload supports (default: all four). */
    virtual std::vector<Variant> variants() const;

    /** Names accepted by makeDataset() (default sweep, in order). */
    virtual std::vector<std::string> datasetNames() const = 0;

    /** Materialize the dataset named @p dataset at @p scale. */
    virtual genomics::PairDataset
    makeDataset(std::string_view dataset, double scale) const = 0;

    /** Run one (variant, system, dataset) cell on a fresh core. */
    virtual RunResult run(const genomics::PairDataset &dataset,
                          const RunOptions &options) const = 0;

    /**
     * Run one cell streaming from @p source — bounded-memory pair
     * intake (docs/STORE.md). The genomics workloads iterate the
     * source in batches and never materialize it; the default routes
     * through run() via the source's zero-copy backing dataset when
     * one exists (kernel workloads ignore pairs entirely, so the
     * default is exact for them). Results are byte-identical to
     * run() over the materialized source — the invariant the batch
     * engine and the store tests rely on.
     */
    virtual RunResult runStream(genomics::PairSource &source,
                                const RunOptions &options) const;

    /** True when variants() contains @p variant. */
    bool supports(Variant variant) const;
};

/**
 * The process-wide workload catalog. add() is called from
 * WorkloadRegistrar statics; duplicate names are a fatal() diagnostic
 * so two workloads can never shadow each other.
 */
class WorkloadRegistry
{
  public:
    static WorkloadRegistry &instance();

    /** Register @p workload; returns it for registrar chaining. */
    const Workload &add(std::unique_ptr<Workload> workload);

    /**
     * Look up by name — exact match first, then case-insensitive.
     * nullptr on a miss (byName()/workloadByName() for the throwing
     * flavor).
     */
    const Workload *find(std::string_view name) const;

    /** find(), but a miss is fatal() listing every valid name. */
    const Workload &byName(std::string_view name) const;

    /** Every registered workload, sorted by name (deterministic). */
    std::vector<const Workload *> all() const;

  private:
    WorkloadRegistry() = default;
    std::vector<std::unique_ptr<Workload>> workloads_;
};

/** Registers a workload at static-initialization time. */
struct WorkloadRegistrar
{
    explicit WorkloadRegistrar(std::unique_ptr<Workload> workload)
    {
        WorkloadRegistry::instance().add(std::move(workload));
    }
};

/** Registry lookup by display name; fatal() lists valid names on a miss. */
const Workload &workloadByName(std::string_view name);

/**
 * Human-readable catalog (for --list / QZ_BENCH_LIST=1): one line per
 * workload with its supported variants and default datasets.
 */
std::string workloadListing();

/**
 * A fresh simulated core plus the ISA facades a workload needs —
 * the per-cell rig every Workload::run() builds (ownership, not
 * sharing: see docs/SIMULATOR.md, thread-safety contract).
 */
struct WorkloadCore
{
    sim::SimContext ctx;
    isa::VectorUnit vpu;
    std::optional<accel::QzUnit> qz;

    explicit WorkloadCore(const sim::SystemParams &params)
        : ctx(params), vpu(ctx.pipeline())
    {
        if (params.quetzal.present)
            qz.emplace(vpu, params.quetzal);
    }

    accel::QzUnit *qzPtr() { return qz ? &*qz : nullptr; }
};

/**
 * The system parameters a cell actually simulates: options.system,
 * upgraded to a QUETZAL-equipped core when the variant needs one.
 */
sim::SystemParams systemFor(const RunOptions &options);

/** Copy the core's cycle/instruction/memory/stall counters into @p out. */
void harvestCore(RunResult &out, WorkloadCore &core);

} // namespace quetzal::algos

#endif // QUETZAL_ALGOS_WORKLOAD_HPP
