/**
 * @file
 * Fig. 13a reproduction: single-core speedups of VEC / QUETZAL /
 * QUETZAL+C over the scalar baseline for all five use cases.
 *
 * Paper averages (over VEC): modern aligners 1.5x/2.1x short and
 * 5.1x/5.5x long (QUETZAL / QUETZAL+C); SS 2.1x short, 5.2x long;
 * classic SW 1.3x, NW 1.4x; protein 6.0x/6.6x.
 */
#include "bench_common.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 13a: single-core speedup over the baseline");

    TextTable table({"Algorithm", "Dataset",
                     std::string(algos::variantName(Variant::Vec)),
                     std::string(algos::variantName(Variant::Qz)),
                     std::string(algos::variantName(Variant::QzC)),
                     "QZ/VEC", "QZ+C/VEC"});

    // Phase 1: queue every cell of the figure on the batch engine,
    // one row of tools/perf_matrix.hpp's Fig. 13a matrix at a time.
    bench::CellBatch batch;
    struct Row
    {
        std::string algo;
        std::string dataset;
        std::size_t cell[std::size(perf::kFig13aVariants)];
    };
    std::vector<Row> rows;
    for (const perf::Fig13aRow &spec :
         perf::fig13aRows(bench::benchScale())) {
        Row row{std::string(spec.workload), spec.dataset->name, {}};
        std::size_t i = 0;
        for (const Variant variant : perf::kFig13aVariants)
            row.cell[i++] = batch.add(spec.workload, spec.dataset,
                                      variant, spec.maxLen,
                                      spec.alphabet);
        rows.push_back(std::move(row));
    }

    // Phase 2: run the whole matrix in parallel, then print in
    // submission order.
    batch.run();
    for (const Row &row : rows) {
        const auto &base = batch[row.cell[0]];
        const auto &vec = batch[row.cell[1]];
        const auto &qz = batch[row.cell[2]];
        const auto &qzc = batch[row.cell[3]];
        auto rel = [&](const algos::RunResult &r) {
            return TextTable::num(algos::speedup(base, r), 2) + "x";
        };
        table.addRow({row.algo, row.dataset, rel(vec), rel(qz), rel(qzc),
                      TextTable::num(algos::speedup(vec, qz), 2) + "x",
                      TextTable::num(algos::speedup(vec, qzc), 2) +
                          "x"});
    }

    table.print(std::cout);
    std::cout << "\nNW is length-capped at " << perf::kClassicCap
              << " bp (full-table DP; the paper likewise constrained "
                 "datasets for simulation time).\n";
    bench::maybeWriteJson("fig13a_singlecore", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
