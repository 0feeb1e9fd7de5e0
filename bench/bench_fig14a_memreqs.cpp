/**
 * @file
 * Fig. 14a reproduction: reduction of memory requests issued to the
 * cache hierarchy by QUETZAL relative to the VEC implementations.
 */
#include "bench_common.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 14a: cache-hierarchy request reduction "
                  "(QUETZAL+C vs VEC)");

    TextTable table(
        {"Algorithm", "Dataset",
         std::string(algos::variantName(Variant::Vec)) + " requests",
         std::string(algos::variantName(Variant::QzC)) + " requests",
         "Reduction"});

    bench::CellBatch batch;
    struct Row
    {
        std::string algo;
        std::string dataset;
        std::size_t vec, qzc;
    };
    std::vector<Row> rows;
    for (const char *algo : {"WFA", "BiWFA", "SS"}) {
        for (const auto &spec : genomics::datasetCatalog()) {
            const auto ds = bench::makeDatasetPtr(spec.name);
            rows.push_back({algo, spec.name,
                            batch.add(algo, ds, Variant::Vec),
                            batch.add(algo, ds, Variant::QzC)});
        }
    }
    batch.run();

    for (const Row &row : rows) {
        const auto &vec = batch[row.vec];
        const auto &qzc = batch[row.qzc];
        const double reduction =
            vec.memRequests == 0
                ? 0.0
                : 100.0 *
                      (1.0 - static_cast<double>(qzc.memRequests) /
                                 static_cast<double>(vec.memRequests));
        table.addRow({row.algo, row.dataset,
                      std::to_string(vec.memRequests),
                      std::to_string(qzc.memRequests),
                      TextTable::num(reduction, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "\nPaper: all input-sequence accesses execute in the "
                 "QBUFFERs; the remaining requests are strided wave "
                 "updates the prefetcher handles.\n";
    bench::maybeWriteJson("fig14a_memreqs", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
