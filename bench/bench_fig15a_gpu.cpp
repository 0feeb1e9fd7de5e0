/**
 * @file
 * Fig. 15a reproduction: alignment throughput of a 16-core
 * QUETZAL-capable CPU against the GPU baselines (WFA-GPU and GASAL2
 * on an A40-class device, analytic model).
 *
 * Paper shape: GPUs win on short reads; for long reads QUETZAL is
 * ~2.7x over WFA-GPU and ~1.1x over GASAL2.
 */
#include "bench_common.hpp"

#include "gpu/gpu_model.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Fig. 15a: 16-core QUETZAL CPU vs GPU approaches "
                  "(alignments/second)");

    const auto params = sim::SystemParams::withQuetzal();
    const gpu::GpuDeviceParams device;
    const auto wfaGpu = gpu::wfaGpuModel();
    const auto gasal = gpu::gasal2Model();

    TextTable table({"Dataset", "WFA QZ+C (16c)", "WFA-GPU",
                     "SW QZ (16c)", "GASAL2", "QZ/WFA-GPU",
                     "QZ-SW/GASAL2"});

    bench::CellBatch batch;
    struct Row
    {
        std::string dataset;
        std::size_t readLength;
        double errorRate;
        std::size_t wfa, sw;
    };
    std::vector<Row> rows;
    for (const auto &spec : genomics::datasetCatalog()) {
        const auto ds = bench::makeDatasetPtr(spec.name);
        rows.push_back({spec.name, spec.readLength, spec.errorRate,
                        batch.add("WFA", ds, Variant::QzC),
                        batch.add("SW", ds, Variant::Qz)});
    }
    batch.run();

    for (const Row &row : rows) {
        const auto &wfa = batch[row.wfa];
        const auto &sw = batch[row.sw];

        const double clockHz = params.clockGhz * 1e9;
        auto cpuRate = [&](const algos::RunResult &r) {
            const double perCore =
                static_cast<double>(r.pairs) * clockHz /
                static_cast<double>(r.cycles);
            return perCore * sim::multicoreSpeedup(r.demand(), 16,
                                                   params);
        };
        const double cpuWfa = cpuRate(wfa);
        const double cpuSw = cpuRate(sw);
        const double gWfa = gpu::gpuThroughput(device, wfaGpu,
                                               row.readLength,
                                               row.errorRate);
        const double gSw = gpu::gpuThroughput(device, gasal,
                                              row.readLength,
                                              row.errorRate);
        table.addRow({row.dataset, TextTable::num(cpuWfa, 0),
                      TextTable::num(gWfa, 0), TextTable::num(cpuSw, 0),
                      TextTable::num(gSw, 0),
                      TextTable::num(cpuWfa / gWfa, 2) + "x",
                      TextTable::num(cpuSw / gSw, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nPaper shape: GPU leads on short reads; occupancy "
                 "collapse hands long reads to QUETZAL (~2.7x over "
                 "WFA-GPU, ~1.1x over GASAL2). A40 area ~"
              << TextTable::num(device.areaMm2, 0)
              << " mm^2 (>10x a 16-core QUETZAL CPU slice).\n";
    bench::maybeWriteJson("fig15a_gpu", batch.outcome());
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
