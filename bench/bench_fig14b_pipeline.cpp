/**
 * @file
 * Fig. 14b reproduction: the SneakySnake + WFA pipeline (use case 5)
 * on 16 cores, QUETZAL+C vs VEC.
 *
 * Paper: 1.8x, 2.7x, 3.6x, 3.1x for 100bp_1 / 250bp_1 / 10Kbp /
 * 30Kbp respectively.
 */
#include "bench_common.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 14b: SS + WFA pipeline, 16 cores "
                  "(QUETZAL+C vs VEC)");

    TextTable table({"Dataset", "Accepted/pairs", "VEC cyc",
                     "QZ+C cyc", "1-core speedup", "16-core speedup"});
    const auto params = sim::SystemParams::withQuetzal();

    bench::CellBatch batch;
    struct Row
    {
        std::string dataset;
        std::size_t vec, qzc;
    };
    std::vector<Row> rows;
    for (const auto &spec : genomics::datasetCatalog()) {
        const auto ds = std::make_shared<const genomics::PairDataset>(
            algos::mixWithDecoys(
                genomics::makeDataset(spec.name, bench::benchScale())));
        rows.push_back({spec.name,
                        batch.add("SS+WFA", ds, Variant::Vec),
                        batch.add("SS+WFA", ds, Variant::QzC)});
    }
    batch.run();

    for (const Row &row : rows) {
        const auto &vec = batch[row.vec];
        const auto &qzc = batch[row.qzc];
        const double s1 = algos::speedup(vec, qzc);
        // 16-core throughput ratio under the shared-bandwidth model.
        const double tVec = sim::multicoreThroughput(
            vec.demand(), vec.pairs, 16, params);
        const double tQzc = sim::multicoreThroughput(
            qzc.demand(), qzc.pairs, 16, params);
        table.addRow({row.dataset,
                      std::to_string(qzc.accepted) + "/" +
                          std::to_string(qzc.pairs),
                      std::to_string(vec.cycles),
                      std::to_string(qzc.cycles),
                      TextTable::num(s1, 2) + "x",
                      TextTable::num(tQzc / tVec, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nPaper (16 cores): 1.8x, 2.7x, 3.6x, 3.1x across "
                 "the four datasets.\n";
    bench::maybeWriteJson("fig14b_pipeline", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
