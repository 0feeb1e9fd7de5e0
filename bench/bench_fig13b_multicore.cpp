/**
 * @file
 * Fig. 13b reproduction: multicore scalability of the QUETZAL+C
 * implementations (1..16 cores).
 *
 * Two contention effects are composed per core count N: the shared
 * 8 MB L2 is capacity-partitioned (each core effectively sees L2/N,
 * re-simulated), and the aggregate DRAM demand is capped by the HBM2
 * roofline. Small inputs scale linearly; long reads flatten once
 * their working set stops fitting the per-core L2 share — the paper's
 * sub-linear long-read behaviour.
 */
#include "bench_common.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 13b: multicore scaling of QUETZAL+C "
                  "(shared L2 + HBM2 roofline)");

    TextTable table({"Algorithm", "Dataset", "1 core", "2", "4", "8",
                     "16", "DRAM B/cyc @16"});
    const unsigned counts[] = {1, 2, 4, 8, 16};
    constexpr std::size_t numCounts = std::size(counts);

    bench::CellBatch batch;
    struct Row
    {
        std::string algo;
        std::string dataset;
        std::size_t cell[numCounts];
    };
    std::vector<Row> rows;
    const double dramPeakBpc =
        sim::SystemParams::withQuetzal().dram.peakBytesPerCycle;
    for (const char *algo : {"WFA", "BiWFA", "SS"}) {
        for (const auto &spec : genomics::datasetCatalog()) {
            const auto ds = bench::makeDatasetPtr(spec.name);
            Row row{algo, spec.name, {}};
            for (std::size_t i = 0; i < numCounts; ++i) {
                algos::RunOptions options;
                options.variant = Variant::QzC;
                options.verify = false;
                options.system = sim::SystemParams::withQuetzal();
                // Capacity-partition the shared L2 across cores.
                options.system.l2.sizeBytes =
                    std::max<std::uint64_t>(
                        options.system.l2.sizeBytes / counts[i],
                        256 * 1024);
                row.cell[i] = batch.add(algo, ds, options);
            }
            rows.push_back(std::move(row));
        }
    }
    batch.run();

    for (const Row &row : rows) {
        std::vector<std::string> out{row.algo, row.dataset};
        const std::uint64_t cycles1 = batch[row.cell[0]].cycles;
        double lastDemand = 0.0;
        for (std::size_t i = 0; i < numCounts; ++i) {
            const auto &r = batch[row.cell[i]];
            const double perCoreDemand = r.demand().bytesPerCycle();
            lastDemand = perCoreDemand;
            const double bwCap =
                perCoreDemand > 0
                    ? dramPeakBpc / perCoreDemand
                    : static_cast<double>(counts[i]);
            const double speedup =
                std::min<double>(counts[i], bwCap) *
                static_cast<double>(cycles1) /
                static_cast<double>(r.cycles);
            out.push_back(TextTable::num(speedup, 2) + "x");
        }
        out.push_back(TextTable::num(lastDemand, 3));
        table.addRow(std::move(out));
    }
    table.print(std::cout);
    std::cout << "\nPaper: near-linear for short reads; long reads "
                 "flatten as the shared LLC and HBM2 bandwidth "
                 "saturate.\n";
    bench::maybeWriteJson("fig13b_multicore", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
