#include "algos/workload.hpp"

#include <algorithm>
#include <cctype>

#include "common/logging.hpp"
#include "genomics/pairsource.hpp"

namespace quetzal::algos {

namespace detail {

// Defined in runner.cpp / kernel_workloads.cpp. Static-archive members
// are only linked into a binary when a symbol they define is
// referenced; calling these no-op anchors from instance() keeps the
// registrar translation units — and their static-init registrations —
// in every binary that touches the registry.
void anchorAlgoWorkloads();
void anchorKernelWorkloads();

} // namespace detail

std::vector<Variant>
Workload::variants() const
{
    return {Variant::Base, Variant::Vec, Variant::Qz, Variant::QzC};
}

RunResult
Workload::runStream(genomics::PairSource &source,
                    const RunOptions &options) const
{
    // Zero-copy when the source is a full in-RAM dataset view (the
    // kernel workloads and any legacy dataset-backed cell); a true
    // streaming source is materialized once. The genomics workloads
    // override this with a batched loop that never materializes.
    if (const genomics::PairDataset *dataset = source.backing())
        return run(*dataset, options);
    return run(source.materialize(), options);
}

bool
Workload::supports(Variant variant) const
{
    const auto list = variants();
    return std::find(list.begin(), list.end(), variant) != list.end();
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    detail::anchorAlgoWorkloads();
    detail::anchorKernelWorkloads();
    static WorkloadRegistry registry;
    return registry;
}

const Workload &
WorkloadRegistry::add(std::unique_ptr<Workload> workload)
{
    panic_if_not(workload != nullptr, "registering a null workload");
    for (const auto &existing : workloads_)
        fatal_if(existing->name() == workload->name(),
                 "workload '{}' registered twice", workload->name());
    workloads_.push_back(std::move(workload));
    return *workloads_.back();
}

namespace {

bool
sameNameFolded(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

} // namespace

const Workload *
WorkloadRegistry::find(std::string_view name) const
{
    for (const auto &workload : workloads_)
        if (workload->name() == name)
            return workload.get();
    for (const auto &workload : workloads_)
        if (sameNameFolded(workload->name(), name))
            return workload.get();
    return nullptr;
}

const Workload &
WorkloadRegistry::byName(std::string_view name) const
{
    if (const Workload *workload = find(name))
        return *workload;
    std::string valid;
    for (const Workload *workload : all()) {
        if (!valid.empty())
            valid += ", ";
        valid += workload->name();
    }
    fatal("unknown workload '{}' (valid names: {})", name, valid);
}

std::vector<const Workload *>
WorkloadRegistry::all() const
{
    std::vector<const Workload *> out;
    out.reserve(workloads_.size());
    for (const auto &workload : workloads_)
        out.push_back(workload.get());
    // Registration order depends on link order across translation
    // units; sort so enumeration is deterministic everywhere.
    std::sort(out.begin(), out.end(),
              [](const Workload *a, const Workload *b) {
                  return a->name() < b->name();
              });
    return out;
}

const Workload &
workloadByName(std::string_view name)
{
    return WorkloadRegistry::instance().byName(name);
}

std::string
workloadListing()
{
    std::string out = "registered workloads:\n";
    for (const Workload *workload : WorkloadRegistry::instance().all()) {
        out += qformat("  {}\n    variants:", workload->name());
        for (const Variant variant : workload->variants())
            out += qformat(" {}", variantName(variant));
        out += "\n    datasets:";
        for (const std::string &dataset : workload->datasetNames())
            out += qformat(" {}", dataset);
        out += "\n";
    }
    return out;
}

sim::SystemParams
systemFor(const RunOptions &options)
{
    sim::SystemParams params = options.system;
    if (needsQuetzal(options.variant) && !params.quetzal.present)
        params = sim::SystemParams::withQuetzal();
    return params;
}

void
harvestCore(RunResult &out, WorkloadCore &core)
{
    out.cycles = core.ctx.pipeline().totalCycles();
    out.instructions = core.ctx.pipeline().instructions();
    out.memRequests = core.ctx.mem().totalRequests();
    out.dramBytes = core.ctx.mem().dramBytes();
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(sim::StallKind::NumKinds); ++k)
        out.stalls[k] = core.ctx.pipeline().stallCycles(
            static_cast<sim::StallKind>(k));
}

} // namespace quetzal::algos
