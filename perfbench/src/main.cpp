/**
 * @file
 * qzbench: one benchmark run.
 *
 *   qzbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
 *
 * --trace 0 sets the workload up seven times (set-up time is their
 * median), repeats timed passes for S seconds (and until the request
 * latencies resolve a p99 with ten samples beyond it), checks every
 * output against the Ref models, and prints the end-to-end metrics,
 * each timing scaled to the reference host speed (hostspeed.hpp).
 * --trace 1 alternates untraced and traced passes of the workload for
 * the tracing overhead, runs one traced pass of the other two
 * workloads and the call-cost probes, and prints the per-layer
 * metrics. The last stdout line is the JSON result; perfbench/run.py
 * checks it against BENCHMARK.json.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "hostspeed.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace qzbench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "qzbench: " << why
              << "\nusage: qzbench --workload fig13a|store-stream|serve-closed"
                 " --seed N --seconds S --trace 0|1 --workdir DIR\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::set<std::string> seen;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[i + 1];
        seen.insert(key);
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || value[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds > 0.0) ||
                args.seconds > 60.0)
                usage("--seconds takes a number in (0, 60]");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (key == "--workdir") {
            args.workdir = value;
        } else {
            usage("unknown option " + key);
        }
    }
    for (const char *required :
         {"--workload", "--seed", "--seconds", "--trace", "--workdir"})
        if (!seen.count(required))
            usage(std::string("missing ") + required);
    return args;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, const Ops &ops, const Metrics &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ops.attempted);
    json += ", \"failed\": " + std::to_string(ops.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
}

void
add(Ops &total, const Ops &ops)
{
    total.attempted += ops.attempted;
    total.failed += ops.failed;
    total.retried += ops.retried;
}

/** Complete set-ups per run; set-up time is their median. */
constexpr int kSetUps = 7;

/** Half-width of the kernel-sample window that scales a request. */
constexpr std::int64_t kLatencyWindowNs = 250'000'000;

/** Values of one metric, as measured and scaled (hostspeed.hpp). */
struct Timings
{
    std::vector<double> raw, scaled;

    void
    add(double value, double scale)
    {
        raw.push_back(value);
        scaled.push_back(value * scale);
    }
};

/** kSetUps complete set-ups; returns their seconds. */
Timings
setUpRepeated(Bench &bench)
{
    Timings seconds;
    for (int i = 0; i < kSetUps; ++i) {
        const std::int64_t start = nowNs();
        bench.setUp();
        const std::int64_t end = nowNs();
        // Set-up has few operation boundaries: sample once after it.
        hostSpeed().sample();
        seconds.add(static_cast<double>(end - start) / 1e9,
                    hostSpeed().scaleOver(start, nowNs()));
    }
    return seconds;
}

/** Nearest-rank percentile @p pct of @p values. */
double
percentile(std::vector<double> values, double pct)
{
    std::sort(values.begin(), values.end());
    return percentileOf(values, pct);
}

int
runUntraced(const Args &args)
{
    auto bench = makeBench(args.workload, args.seed, args.workdir);
    hostSpeed().reset();
    const Timings setup = setUpRepeated(*bench);

    // Timed passes: at least three, at least --seconds, and enough
    // requests that the p99 leaves ten samples beyond it. A hard cap
    // keeps a pathological host inside the run's time limit.
    const std::size_t needed = samplesToResolve(99.0);
    Tracer off(false);
    Timings walls;
    std::vector<double> pairRates, requestRates;
    std::vector<std::size_t> passEnds; //!< latency count after each pass
    const std::int64_t start = nowNs();
    auto elapsed = [&] { return static_cast<double>(nowNs() - start) / 1e9; };
    while (walls.raw.size() < 3 || elapsed() < args.seconds ||
           bench->latencies().size() < needed) {
        if (elapsed() > 4.0 * args.seconds + 30.0)
            break;
        hostSpeed().tick();
        const std::int64_t passStart = nowNs();
        const PassWork work = bench->pass(off);
        const std::int64_t passEnd = nowNs();
        passEnds.push_back(bench->latencies().size());
        const double wall = static_cast<double>(passEnd - passStart) / 1e9;
        const double scale = hostSpeed().scaleOver(passStart, passEnd);
        walls.add(wall, scale);
        pairRates.push_back(static_cast<double>(work.pairs) / wall / scale);
        requestRates.push_back(static_cast<double>(work.requests) / wall /
                               scale);
    }
    bench->finish();
    const Ops ops = bench->verify();

    // A request is scaled by the kernel samples within kLatencyWindowNs
    // of its start: close enough to follow the host's phases (which
    // last seconds), many enough to average out a single sample's jitter.
    Timings lat;
    for (const Latency &l : bench->latencies())
        lat.add(l.ms, hostSpeed().scaleOver(l.startNs - kLatencyWindowNs,
                                            l.startNs + kLatencyWindowNs));
    if (!passEnds.empty())
        passEnds.back() = lat.scaled.size(); // samples closed by finish()
    std::vector<std::vector<double>> scaledByPass;
    for (std::size_t p = 0; p < passEnds.size(); ++p)
        scaledByPass.emplace_back(
            lat.scaled.begin() + static_cast<std::ptrdiff_t>(
                                     p ? passEnds[p - 1] : 0),
            lat.scaled.begin() + static_cast<std::ptrdiff_t>(passEnds[p]));
    const std::size_t samples = lat.raw.size();
    const bool resolved = resolves(samples, 99.0);
    const SimTotals sim = bench->sim();

    std::cout << "workload " << args.workload << " seed " << args.seed
              << ": " << walls.raw.size() << " passes, " << samples
              << " request samples (p99 leaves "
              << samplesBeyond(samples, 99.0)
              << " beyond; highest percentile with ten beyond: p"
              << highestResolvedPercentile(samples).value_or(0.0) << "), "
              << ops.attempted << " operations, " << ops.failed
              << " failed, " << ops.retried << " retried\n"
              << "sim: instructions " << sim.instructions << " mem_requests "
              << sim.memRequests << " cycles " << sim.cycles << " dram_bytes "
              << sim.dramBytes << "\nhost kernel: median "
              << hostSpeed().medianNs() << " ns over "
              << hostSpeed().samples() << " samples (reference "
              << HostSpeed::kReferenceNs << " ns)\nunscaled: wall_s "
              << median(walls.raw) << " setup_s " << median(setup.raw)
              << " req_p50_ms " << percentile(lat.raw, 50.0)
              << " req_p99_ms " << percentile(lat.raw, 99.0)
              << "\npass walls (s):";
    for (const double wall : walls.raw)
        std::cout << " " << wall;
    std::cout << "\n";

    const Metrics metrics = {
        {"wall_s", median(walls.scaled), "s"},
        {"pairs_per_s", median(pairRates), "pairs/s"},
        {"req_per_s", median(requestRates), "req/s"},
        {"req_p50_ms", percentileOverPasses(scaledByPass, 50.0), "ms"},
        {"req_p99_ms", percentileOverPasses(scaledByPass, 99.0), "ms"},
        {"setup_s", median(setup.scaled), "s"},
        {"peak_rss_mib", bench->peakRssMib(), "MiB"},
    };
    printResult(ops.failed == 0 && resolved, ops, metrics);
    return 0;
}

int
runTraced(const Args &args)
{
    std::vector<std::unique_ptr<Bench>> benches;
    Bench *target = nullptr;
    for (const std::string &name : benchNames()) {
        benches.push_back(makeBench(name, args.seed, args.workdir));
        if (name == args.workload) {
            target = benches.back().get();
            (void)setUpRepeated(*target);
        } else {
            benches.back()->setUp();
        }
    }

    // Tracing overhead: alternate untraced and traced passes of the
    // named workload and compare the medians.
    Tracer off(false);
    Tracer on(true);
    std::vector<double> untraced, traced;
    const std::int64_t start = nowNs();
    while (untraced.size() < 3 ||
           static_cast<double>(nowNs() - start) / 1e9 < args.seconds) {
        for (Tracer *tracer : {&off, &on}) {
            const std::int64_t passStart = nowNs();
            (void)target->pass(*tracer);
            (tracer == &on ? traced : untraced)
                .push_back(static_cast<double>(nowNs() - passStart) / 1e9);
        }
    }

    Metrics metrics;
    std::set<std::string> seen;
    Ops ops;
    auto collect = [&](Bench &bench, const Tracer &tracer) {
        Metrics layer;
        bench.layers(tracer, layer);
        for (Metric &m : layer)
            if (seen.insert(m.name).second)
                metrics.push_back(std::move(m));
    };
    target->finish();
    add(ops, target->verify());
    collect(*target, on);
    for (auto &bench : benches) {
        if (bench.get() == target)
            continue;
        Tracer companion(true);
        bench->reset();
        (void)bench->pass(companion);
        bench->finish();
        add(ops, bench->verify());
        collect(*bench, companion);
    }
    Metrics probes;
    runProbes(args.seed, on, probes);
    for (Metric &m : probes)
        metrics.push_back(std::move(m));

    const SimTotals sim = target->sim();
    metrics.push_back({"sim.instructions", static_cast<double>(sim.instructions), "count"});
    metrics.push_back({"sim.mem_requests", static_cast<double>(sim.memRequests), "count"});
    metrics.push_back({"sim.cycles", static_cast<double>(sim.cycles), "count"});
    metrics.push_back({"sim.dram_bytes", static_cast<double>(sim.dramBytes), "count"});
    double storeMib = target->storeMib();
    std::vector<double> serve;
    for (auto &bench : benches) {
        if (storeMib == 0.0)
            storeMib = bench->storeMib();
        if (serve.empty())
            serve = bench->serveCounts();
    }
    metrics.push_back({"genomics.store_mib", storeMib, "MiB"});
    metrics.push_back({"serve.errors", serve.at(0), "count"});
    metrics.push_back({"serve.redispatches", serve.at(1), "count"});
    metrics.push_back({"serve.respawns", serve.at(2), "count"});
    const double overhead =
        (median(traced) - median(untraced)) / median(untraced) * 100.0;
    metrics.push_back({"trace.overhead_pct", overhead, "%"});
    // The host speed the traced run's unscaled layer timings were taken at.
    metrics.push_back({"host.kernel_ns", hostSpeed().medianNs(), "ns"});

    const std::string tracePath =
        args.workdir + "/trace-" + args.workload + ".jsonl";
    on.write(tracePath);
    std::cout << "workload " << args.workload << " seed " << args.seed
              << " (traced): " << untraced.size() << " untraced / "
              << traced.size() << " traced passes, " << on.records().size()
              << " spans written to " << tracePath << "\n"
              << "sim: instructions " << sim.instructions << " mem_requests "
              << sim.memRequests << " cycles " << sim.cycles << " dram_bytes "
              << sim.dramBytes << "\n";
    printResult(ops.failed == 0, ops, metrics);
    return 0;
}

} // namespace
} // namespace qzbench

int
main(int argc, char **argv)
{
    const qzbench::Args args = qzbench::parseArgs(argc, argv);
    const auto &names = qzbench::benchNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        qzbench::usage("unknown workload '" + args.workload + "'");
    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);
    if (ec)
        qzbench::usage("cannot create --workdir " + args.workdir);
    try {
        return args.trace ? qzbench::runTraced(args)
                          : qzbench::runUntraced(args);
    } catch (const std::exception &error) {
        std::cerr << "qzbench: " << error.what() << "\n";
        return 1;
    }
}
