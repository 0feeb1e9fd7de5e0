/**
 * @file
 * Table III reproduction: area and power of the QUETZAL
 * configurations at 7 nm, plus core/SoC overhead percentages.
 */
#include "bench_common.hpp"

#include "quetzal/area_model.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    bench::banner("Table III: QUETZAL area/power (7nm, analytic model "
                  "anchored to the paper's place-and-route)");

    TextTable table({"Config", "Read ports", "Read latency", "Area",
                     "Power", "% of core", "% of SoC"});
    for (const auto &est : accel::tableIiiConfigs()) {
        table.addRow({est.config, std::to_string(est.readPorts),
                      std::to_string(est.readLatency) + " cycles",
                      TextTable::num(est.areaMm2, 3) + " mm^2",
                      TextTable::num(est.powerMw * 1000.0, 0) + " uW",
                      TextTable::num(est.corePercent, 2) + "%",
                      TextTable::num(est.socPercent, 2) + "%"});
    }
    table.print(std::cout);
    std::cout << "\nPaper anchors: QZ_8P = 0.097 mm^2, 746 uW, 1.41% "
                 "of the A64FX SoC.\n";
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
