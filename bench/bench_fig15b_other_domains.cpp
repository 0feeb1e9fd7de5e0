/**
 * @file
 * Fig. 15b reproduction: QUETZAL on other application domains —
 * histogram calculation and CSR SpMV.
 *
 * The kernels run through the same registry/batch path as the
 * genomics algorithms: each (kernel, variant) cell is a registered
 * workload executed by the batch engine on a fresh simulated core,
 * so the sweep gets threads, JSON emission, checkpointing, sharding,
 * and fault isolation identically to every other figure.
 *
 * Paper: QUETZAL outperforms the vectorized kernels by 3.02x
 * (histogram) and 1.94x (SpMV).
 */
#include "bench_common.hpp"

#include <cmath>
#include <iterator>

#include "algos/workload.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 15b: other application domains "
                  "(QUETZAL vs VEC)");

    const double scale = bench::benchScale();
    const char *kernelNames[] = {"histogram", "spmv"};

    bench::CellBatch batch;
    struct KernelRow
    {
        std::string name;
        std::size_t cell[3]; // Base, Vec, Qz
    };
    std::vector<KernelRow> rows;
    for (const char *name : kernelNames) {
        const algos::Workload &workload = algos::workloadByName(name);
        const auto dataset =
            std::make_shared<const genomics::PairDataset>(
                workload.makeDataset(name, scale));
        KernelRow row{name, {}};
        int i = 0;
        for (Variant v : {Variant::Base, Variant::Vec, Variant::Qz})
            row.cell[i++] = batch.add(name, dataset, v);
        rows.push_back(row);
    }
    batch.run();

    // A failed cell leaves a zeroed slot; speedup() yields NaN there
    // and the table renders "n/a" — the bar itself is always emitted.
    const auto bar = [](const algos::RunResult &baseline,
                        const algos::RunResult &test) {
        const double s = algos::speedup(baseline, test);
        return std::isnan(s) ? std::string("n/a")
                             : TextTable::num(s, 2) + "x";
    };

    TextTable table({"Kernel", "BASE cyc", "VEC cyc", "QUETZAL cyc",
                     "VEC/BASE", "QZ/VEC"});
    std::size_t barsEmitted = 0;
    for (const KernelRow &row : rows) {
        const algos::RunResult &base = batch[row.cell[0]];
        const algos::RunResult &vec = batch[row.cell[1]];
        const algos::RunResult &qz = batch[row.cell[2]];
        table.addRow({row.name, std::to_string(base.cycles),
                      std::to_string(vec.cycles),
                      std::to_string(qz.cycles), bar(base, vec),
                      bar(vec, qz)});
        ++barsEmitted;
    }
    panic_if_not(barsEmitted == std::size(kernelNames),
                 "fig15b must emit one speedup row per kernel");

    table.print(std::cout);
    std::cout << "\nPaper: histogram 3.02x, SpMV 1.94x over the "
                 "vectorized kernels.\n";
    bench::maybeWriteJson("fig15b_other_domains", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
