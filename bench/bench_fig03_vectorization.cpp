/**
 * @file
 * Fig. 3 reproduction: speedup of the SVE-intrinsics (VEC)
 * implementations of WFA and SneakySnake over the auto-vectorized
 * baseline, for short and long reads.
 *
 * Paper: ~1.3x for short reads, ~2.5x for long reads on average.
 */
#include "bench_common.hpp"

#include <cmath>

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 3: VEC speedup over the scalar baseline");

    TextTable table({"Algorithm", "Dataset", "BASE cycles",
                     "VEC cycles", "VEC speedup"});

    bench::CellBatch batch;
    struct Row
    {
        std::string algo;
        std::string dataset;
        bool longRead;
        std::size_t base, vec;
    };
    std::vector<Row> rows;
    for (const char *algo : {"WFA", "SS"}) {
        for (const auto &spec : genomics::datasetCatalog()) {
            const auto ds = bench::makeDatasetPtr(spec.name);
            Row row{algo, spec.name, spec.longRead, 0, 0};
            row.base = batch.add(algo, ds, Variant::Base);
            row.vec = batch.add(algo, ds, Variant::Vec);
            rows.push_back(std::move(row));
        }
    }
    batch.run();

    double shortProd = 1.0, longProd = 1.0;
    int shortN = 0, longN = 0;
    for (const Row &row : rows) {
        const auto &base = batch[row.base];
        const auto &vec = batch[row.vec];
        const double s = algos::speedup(base, vec);
        table.addRow({row.algo, row.dataset,
                      std::to_string(base.cycles),
                      std::to_string(vec.cycles),
                      TextTable::num(s, 2) + "x"});
        if (row.longRead) {
            longProd *= s;
            ++longN;
        } else {
            shortProd *= s;
            ++shortN;
        }
    }
    table.print(std::cout);

    const double shortGeo =
        shortN ? std::pow(shortProd, 1.0 / shortN) : 0.0;
    const double longGeo = longN ? std::pow(longProd, 1.0 / longN) : 0.0;
    std::cout << "\nGeomean VEC speedup: short reads "
              << TextTable::num(shortGeo, 2) << "x (paper ~1.3x), "
              << "long reads " << TextTable::num(longGeo, 2)
              << "x (paper ~2.5x)\n";
    bench::maybeWriteJson("fig03_vectorization", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
