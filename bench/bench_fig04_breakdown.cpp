/**
 * @file
 * Fig. 4 reproduction: execution-time breakdown of the vectorized
 * WFA, BiWFA, and SneakySnake implementations on the baseline core.
 *
 * Paper: cache accesses account for 32%-65% of execution time.
 */
#include "bench_common.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 4: execution-time breakdown of VEC "
                  "implementations");

    TextTable table({"Algorithm", "Dataset", "Cycles", "Frontend",
                     "Compute", "Cache access", "RS/LSQ stall"});

    bench::CellBatch batch;
    struct Row
    {
        std::string algo;
        std::string dataset;
        std::size_t vec;
    };
    std::vector<Row> rows;
    for (const char *algo : {"WFA", "BiWFA", "SS"}) {
        for (const auto &spec : genomics::datasetCatalog()) {
            const auto ds = bench::makeDatasetPtr(spec.name);
            rows.push_back(
                {algo, spec.name, batch.add(algo, ds, Variant::Vec)});
        }
    }
    batch.run();

    for (const Row &row : rows) {
        const auto &vec = batch[row.vec];
        const double total = static_cast<double>(vec.cycles);
        auto pct = [&](sim::StallKind kind) {
            return TextTable::num(
                       100.0 * vec.stallCycles(kind) / total, 1) +
                   "%";
        };
        table.addRow({row.algo, row.dataset,
                      std::to_string(vec.cycles),
                      pct(sim::StallKind::Frontend),
                      pct(sim::StallKind::Compute),
                      pct(sim::StallKind::Cache),
                      pct(sim::StallKind::Struct)});
    }
    table.print(std::cout);
    std::cout << "\nPaper: cache accesses are 32%-65% of execution "
                 "time, growing with sequence length.\n";
    bench::maybeWriteJson("fig04_breakdown", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
