/**
 * @file
 * Table II reproduction: input dataset characteristics.
 */
#include "bench_common.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    bench::banner("Table II: input dataset characteristics");

    TextTable table({"Dataset", "Read Length", "Pairs", "Error rate",
                     "Total bases", "Technology class"});
    for (const auto &spec : genomics::datasetCatalog()) {
        const auto ds =
            genomics::makeDataset(spec.name, bench::benchScale());
        table.addRow({spec.name, std::to_string(spec.readLength),
                      std::to_string(ds.size()),
                      TextTable::num(spec.errorRate, 3),
                      std::to_string(ds.totalPatternBases()),
                      spec.longRead ? "long read (PacBio-HiFi-class)"
                                    : "short read (Illumina-class)"});
    }
    table.print(std::cout);

    const auto protein = perf::perfProteinDataset(bench::benchScale());
    std::cout << "\nProtein workload (use case 4, BAliBase-style): "
              << protein.size() << " pairwise alignments of ~"
              << protein.readLength << " residues\n";
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
