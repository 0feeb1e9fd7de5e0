/**
 * @file
 * Extra study: the two pre-alignment filters side by side.
 *
 * SneakySnake and Shouji are alternative edit-distance approximations
 * (paper Section II-C cites both); running them on the same QUETZAL
 * hardware with just different instruction sequences is the
 * programmability pitch in action.
 */
#include "bench_common.hpp"

#include <optional>

#include "algos/shouji.hpp"
#include "algos/sneakysnake.hpp"
#include "quetzal/qzunit.hpp"

namespace {

int
runBench()
{
    using namespace quetzal;
    using algos::Variant;
    bench::banner("Filter study: SneakySnake vs Shouji on QUETZAL");

    TextTable table({"Dataset", "Filter", "Accepted", "QZ+C cycles",
                     "BASE cycles", "Speedup"});
    for (const char *name : {"100bp_1", "250bp_1"}) {
        const auto ds = algos::mixWithDecoys(
            genomics::makeDataset(name, bench::benchScale()));
        const std::int64_t e = algos::defaultSsThreshold(
            ds.readLength, ds.errorRate);

        for (int which = 0; which < 2; ++which) {
            std::uint64_t cycles[2] = {0, 0};
            std::size_t accepted = 0;
            int i = 0;
            for (Variant v : {Variant::QzC, Variant::Base}) {
                sim::SimContext ctx(
                    algos::needsQuetzal(v)
                        ? sim::SystemParams::withQuetzal()
                        : sim::SystemParams::baseline());
                isa::VectorUnit vpu(ctx.pipeline());
                std::optional<accel::QzUnit> qz;
                if (algos::needsQuetzal(v))
                    qz.emplace(vpu, ctx.params().quetzal);
                std::size_t acc = 0;
                if (which == 0) {
                    auto engine = algos::makeSsEngine(
                        v, &vpu, qz ? &*qz : nullptr);
                    algos::SsConfig config;
                    config.editThreshold = e;
                    for (const auto &pair : ds.pairs)
                        acc += algos::sneakySnake(*engine, pair.pattern,
                                                  pair.text, config)
                                   .accepted;
                } else {
                    for (const auto &pair : ds.pairs)
                        acc += algos::shouji(v, pair.pattern, pair.text,
                                             e, &vpu,
                                             qz ? &*qz : nullptr)
                                   .accepted;
                }
                accepted = acc;
                cycles[i++] = ctx.pipeline().totalCycles();
            }
            table.addRow({name, which == 0 ? "SneakySnake" : "Shouji",
                          std::to_string(accepted) + "/" +
                              std::to_string(ds.size()),
                          std::to_string(cycles[0]),
                          std::to_string(cycles[1]),
                          TextTable::num(static_cast<double>(cycles[1]) /
                                             static_cast<double>(
                                                 cycles[0]),
                                         2) +
                              "x"});
        }
    }
    table.print(std::cout);
    std::cout << "\nBoth filters run on identical hardware; switching "
                 "algorithms is a recompile, not a respin.\n";
    return 0;
}

} // namespace

int
main()
{
    return quetzal::guardedMain(runBench);
}
