/**
 * @file
 * Ablations of QUETZAL design choices (beyond the paper's port sweep):
 *
 *  1. Encoding width — the 2-bit DNA encoding quadruples both QBUFFER
 *     capacity and the bases each qzcount window covers (Section
 *     IV-A's rationale). Running DNA through the 8-bit path isolates
 *     that choice.
 *  2. Tiling window — Section VI's windowed path for ultra-long
 *     reads trades alignment accuracy (seam edits at window cuts)
 *     against WFA's quadratic per-window cost; the sweep exposes the
 *     trade and the 32.7 kbp capacity bound.
 */
#include "bench_common.hpp"

#include <optional>

#include "algos/tiled.hpp"
#include "algos/wfa_engine.hpp"
#include "genomics/readsim.hpp"
#include "quetzal/qzunit.hpp"

namespace {

quetzal::genomics::SequencePair
longRead(std::size_t length, double error, std::uint64_t seed)
{
    quetzal::genomics::ReadSimConfig config;
    config.readLength = length;
    config.errorRate = error;
    config.seed = seed;
    quetzal::genomics::ReadSimulator sim(config);
    return sim.generatePairs(1).front();
}

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Ablations: encoding width and tiling window");

    const double scale = bench::benchScale();

    // ---- 1. 2-bit vs 8-bit encoding on DNA (WFA, QUETZAL+C) -------
    {
        TextTable table({"Dataset", "2-bit cycles", "8-bit cycles",
                         "2-bit advantage"});
        struct Workload
        {
            const char *name;
            std::size_t length;
            double error;
            std::size_t count;
        };
        for (const Workload &w : {Workload{"250bp", 250, 0.05, 40},
                                  Workload{"6Kbp", 6000, 0.03, 2}}) {
            genomics::ReadSimConfig config;
            config.readLength = w.length;
            config.errorRate = w.error;
            config.seed = 17;
            genomics::ReadSimulator sim(config);
            const auto pairs = sim.generatePairs(std::max<std::size_t>(
                1, static_cast<std::size_t>(w.count * scale)));
            std::uint64_t cycles[2];
            int i = 0;
            for (auto esize : {genomics::ElementSize::Bits2,
                               genomics::ElementSize::Bits8}) {
                sim::SimContext ctx(sim::SystemParams::withQuetzal());
                isa::VectorUnit vpu(ctx.pipeline());
                accel::QzUnit qz(vpu, ctx.params().quetzal);
                auto engine =
                    algos::makeWfaEngine(Variant::QzC, &vpu, &qz);
                for (const auto &pair : pairs)
                    algos::wfaAlign(*engine, pair.pattern, pair.text,
                                    true, esize);
                cycles[i++] = ctx.pipeline().totalCycles();
            }
            table.addRow({w.name, std::to_string(cycles[0]),
                          std::to_string(cycles[1]),
                          TextTable::num(static_cast<double>(cycles[1]) /
                                             static_cast<double>(
                                                 cycles[0]),
                                         2) +
                              "x"});
        }
        std::cout << "\n[1] DNA through the 2-bit vs 8-bit encoder "
                     "(32 vs 8 bases per qzcount window):\n";
        table.print(std::cout);
    }

    // ---- 2. Tiling window sweep on an ultra-long read --------------
    {
        const auto pair = longRead(
            static_cast<std::size_t>(120000 * std::max(0.2, scale)),
            0.005, 7);
        TextTable table({"Window (bases)", "Windows", "Score",
                         "Cycles", "vs best"});
        struct Point
        {
            std::size_t window;
            std::uint64_t cycles;
            std::int64_t score;
            std::size_t count;
        };
        std::vector<Point> points;
        for (std::size_t window : {2000u, 8000u, 16000u, 30000u}) {
            sim::SimContext ctx(sim::SystemParams::withQuetzal());
            isa::VectorUnit vpu(ctx.pipeline());
            accel::QzUnit qz(vpu, ctx.params().quetzal);
            auto engine =
                algos::makeWfaEngine(Variant::QzC, &vpu, &qz);
            algos::TiledConfig config;
            config.windowBases = window;
            const auto result = algos::tiledAlign(
                *engine, pair.pattern, pair.text, config);
            points.push_back({window, ctx.pipeline().totalCycles(),
                              result.score,
                              algos::tiledWindowCount(
                                  pair.pattern.size(), config)});
        }
        std::uint64_t best = ~std::uint64_t{0};
        for (const auto &pt : points)
            best = std::min(best, pt.cycles);
        for (const auto &pt : points)
            table.addRow({std::to_string(pt.window),
                          std::to_string(pt.count),
                          std::to_string(pt.score),
                          std::to_string(pt.cycles),
                          TextTable::num(static_cast<double>(pt.cycles) /
                                             static_cast<double>(best),
                                         2) +
                              "x"});
        std::cout << "\n[2] Tiling-window sweep, "
                  << pair.pattern.size()
                  << " bp ONT-class read (QUETZAL+C):\n";
        table.print(std::cout);
        std::cout
            << "\nSmall windows are cheaper (WFA's wavefront work "
               "grows quadratically with the per-window score) but "
               "pay seam edits that inflate the reported distance; "
               "large windows approach the optimal score at higher "
               "cost, bounded by the 32.7 kbp QBUFFER capacity.\n";
    }
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
