/**
 * @file
 * Table IV reproduction: peak-GCUPS comparison against published
 * domain-specific accelerators.
 *
 * GCUPS uses the equivalent-cells convention the field reports for
 * wavefront-style designs: an alignment of an m x n pair counts m*n
 * DP cells whether or not the algorithm skipped them — that is what
 * makes WFA-class designs look dramatically faster per area.
 * QUETZAL rows are measured in simulation; the ASIC rows are the
 * published numbers the paper compares against (scaled to 7 nm).
 */
#include "bench_common.hpp"

#include "quetzal/area_model.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Table IV: accelerator comparison (PGCUPS)");

    // Peak throughput: QUETZAL+C WFA on the long-read dataset.
    bench::CellBatch batch;
    const auto ds = bench::makeDatasetPtr("30Kbp");
    const std::size_t wfaCell = batch.add("WFA", ds, Variant::QzC);
    batch.run();
    const auto &wfa = batch[wfaCell];
    std::uint64_t equivCells = 0;
    for (const auto &pair : ds->pairs)
        equivCells += static_cast<std::uint64_t>(pair.pattern.size()) *
                      pair.text.size();
    const double pgcups =
        accel::gcups(equivCells, wfa.cycles, 2.0);

    const auto qz8 = accel::estimateAreaPower(8);
    TextTable table({"Study", "Device", "PEs", "Area (7nm)", "PGCUPS",
                     "PGCUPS/mm^2"});
    auto addRow = [&](const std::string &study,
                      const std::string &device, unsigned pes,
                      double area, double value) {
        table.addRow({study, device, std::to_string(pes),
                      TextTable::num(area, 3) + " mm^2",
                      TextTable::num(value, 1),
                      TextTable::num(value / area, 1)});
    };
    addRow("QUETZAL (this sim)", "CPU", 1, qz8.areaMm2, pgcups);
    addRow("Core+QUETZAL (this sim)", "CPU", 1,
           accel::A64fxReference::coreAreaMm2 + qz8.areaMm2, pgcups);
    for (const auto &row : accel::publishedAccelerators())
        addRow(row.study + " (published)", row.device, row.numPes,
               row.areaMm2, row.pgcups);
    table.print(std::cout);

    std::cout << "\nPaper take-aways: some fixed-function ASICs beat "
                 "QUETZAL on raw PGCUPS (GenASM 2.7x, Darwin 1.2x), "
                 "but QUETZAL runs every algorithm in this repo on "
                 "one programmable datapath at ~1.4% SoC overhead.\n";
    bench::maybeWriteJson("table4_accelerators", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
