/**
 * @file
 * Fig. 12 reproduction: relative performance of the QZ_1P/2P/4P/8P
 * configurations (QBUFFER read-port sweep), normalized to QZ_1P.
 */
#include "bench_common.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 12: QBUFFER read-port design-space sweep "
                  "(QUETZAL+C, normalized to QZ_1P)");

    const unsigned ports[] = {1, 2, 4, 8};
    TextTable table({"Algorithm", "Dataset", "QZ_1P", "QZ_2P", "QZ_4P",
                     "QZ_8P"});

    bench::CellBatch batch;
    struct Row
    {
        std::string algo;
        std::string dataset;
        std::size_t cell[4];
    };
    std::vector<Row> rows;
    for (const char *algo : {"WFA", "BiWFA", "SS"}) {
        for (const auto &spec : genomics::datasetCatalog()) {
            const auto ds = bench::makeDatasetPtr(spec.name);
            Row row{algo, spec.name, {}};
            for (int i = 0; i < 4; ++i)
                row.cell[i] = batch.add(algo, ds, Variant::QzC,
                                        ~std::size_t{0},
                                        genomics::AlphabetKind::Dna,
                                        ports[i]);
            rows.push_back(std::move(row));
        }
    }
    batch.run();

    for (const Row &row : rows) {
        auto rel = [&](int i) {
            return TextTable::num(
                       static_cast<double>(batch[row.cell[0]].cycles) /
                           static_cast<double>(
                               batch[row.cell[i]].cycles),
                       2) +
                   "x";
        };
        table.addRow(
            {row.algo, row.dataset, rel(0), rel(1), rel(2), rel(3)});
    }
    table.print(std::cout);
    std::cout << "\nPaper: performance rises with port count; QZ_8P "
                 "(2-cycle reads) is the chosen configuration.\n";
    bench::maybeWriteJson("fig12_ports", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
