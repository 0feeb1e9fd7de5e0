/**
 * @file
 * qz-merge: reassemble the per-shard JSON reports of one partitioned
 * bench sweep (QZ_BENCH_SHARD=K/N) into the report an unsharded run
 * would have produced — byte-identical, since both paths share the
 * algos::toJson(BenchReport) serializer.
 *
 *   qz-merge shard_1.json shard_2.json shard_3.json
 *   qz-merge shard_*.json --out merged.json
 */
#include <fstream>
#include <iostream>
#include <sstream>

#include "algos/report.hpp"
#include "cli_common.hpp"

namespace {

using namespace quetzal;

/** Parse one shard report file; fatal() names the offending file. */
algos::BenchReport
loadShardReport(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open '{}'", path);
    std::ostringstream text;
    text << in.rdbuf();
    const auto json = parseJson(text.str());
    fatal_if(!json, "'{}' is not valid JSON", path);
    auto report = algos::benchReportFromJson(*json);
    fatal_if(!report, "'{}' is not a bench report", path);
    fatal_if(!report->shard,
             "'{}' has no shard member — merge wants the per-shard "
             "files QZ_BENCH_SHARD runs emit",
             path);
    return std::move(*report);
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] {
        const cli::Args args(argc, argv);
        if (args.has("help") || args.positional().empty()) {
            std::cout
                << "qz-merge SHARD.json... [options]\n"
                   "  merge the per-shard QZ_BENCH_JSON reports of one\n"
                   "  QZ_BENCH_SHARD=K/N sweep into output "
                   "byte-identical\n"
                   "  to the unsharded run's report\n"
                   "  --out FILE   write the merged report to FILE\n"
                   "               (default: stdout)\n";
            return args.has("help") ? 0 : 2;
        }
        args.rejectUnknown({"out"}, cli::kAnyPositionals);

        std::vector<algos::BenchReport> shards;
        for (const std::string &path : args.positional())
            shards.push_back(loadShardReport(path));
        const algos::BenchReport merged =
            algos::mergeShardReports(std::move(shards));
        const std::string json = algos::toJson(merged);

        if (args.has("out")) {
            std::ofstream out(args.get("out"));
            fatal_if(!out, "cannot open '{}' for writing",
                     args.get("out"));
            out << json << "\n";
            std::cerr << "merged " << args.positional().size()
                      << " shard(s) into " << args.get("out") << "\n";
        } else {
            std::cout << json << "\n";
        }
        return 0;
    });
}
