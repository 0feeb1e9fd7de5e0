/**
 * @file
 * qz-perf: host-throughput harness for the simulator itself.
 *
 * Sweeps the Fig. 13a evaluation matrix (or the pinned tiny subset)
 * and reports how fast the *host* simulated it: wall-clock per cell,
 * simulated instructions per second, memory accesses per second. The
 * simulated metrics are untouched observables — the point of the
 * harness is to pin them (via --metrics against the golden snapshot)
 * while tracking host throughput across revisions in
 * BENCH_hostperf.json (see docs/SIMULATOR.md, "Host performance").
 *
 * Options: see kUsage below (printed by --help).
 *
 * Exit status: 0 on success, 1 when a cell failed or the input was
 * rejected (one "fatal:" line on stderr), 2 on an internal error.
 *
 * Every run record also names the resolved host-SIMD backend
 * ("backend"/"compiler"/"simd_flags"), so throughput rows from
 * different machines or QZ_HOST_SIMD settings stay comparable.
 *
 * Deliberately restricted to long-stable APIs so the same source can
 * be compiled against an older revision to produce the baseline run.
 */
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <sys/resource.h>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "genomics/store.hpp"
#include "isa/hostsimd.hpp"
#include "cli_common.hpp"
#include "perf_matrix.hpp"

namespace {

using namespace quetzal;

/** The --help text; also the list of options runPerf accepts. */
constexpr const char *kUsage = R"(usage:
  qz-perf [--tiny | --kernels | --store S] [--scale S] [--threads N]
          [--repeat R] [--label NAME] [--out FILE] [--append]
          [--metrics FILE]

 --tiny     sweep the 12-cell golden subset instead of Fig. 13a
 --kernels  sweep the Fig. 15b kernel cells (histogram/SpMV) at the
            pinned tiny scale instead of Fig. 13a
 --store    stream one read-store range (FILE[:FROM-TO],
            docs/STORE.md) as a single cell: the large-scale
            bounded-memory sweep; --algo/--variant pick the
            workload (default SS, qzc). The record gains "pairs"
            and "rss_peak_kb" so BENCH_hostperf.json documents
            that RSS stays bounded however large the store is
 --scale    dataset scale for the full matrix (default 1.0)
 --threads  harness workers (default 1: comparable measurements)
 --repeat   time R sweeps and keep the fastest (default 1)
 --label    name this run carries in the output (default "current")
 --out      throughput record path (default BENCH_hostperf.json)
 --append   add this run to --out's existing "runs" array, so one
            file can hold baseline and current for comparison
 --metrics  also write the sweep's BenchReport JSON (simulated
            metrics only) for diffing against the golden snapshot
 --help     print this text and exit
)";

/** Peak resident set size of this process so far, in KiB. */
std::uint64_t
peakRssKb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/**
 * Serialize one run record (flat object, no trailing newline).
 * @p pairs and @p rssPeakKb are recorded for store sweeps only
 * (pairs > 0) — they document the bounded-memory claim.
 */
std::string
runRecord(const std::string &label, const std::string &matrix,
          double scale, unsigned threads, std::size_t cells,
          unsigned repeat, std::uint64_t hostNs,
          const algos::BatchOutcome &outcome, std::uint64_t pairs = 0,
          std::uint64_t rssPeakKb = 0)
{
    std::uint64_t instructions = 0, memRequests = 0, cycles = 0,
                  dramBytes = 0;
    for (const auto &result : outcome.results) {
        instructions += result.instructions;
        memRequests += result.memRequests;
        cycles += result.cycles;
        dramBytes += result.dramBytes;
    }
    const double seconds = static_cast<double>(hostNs) / 1e9;
    JsonWriter json;
    json.beginObject()
        .field("label", label)
        .field("backend", isa::hostSimd().name)
        .field("compiler", isa::hostSimdCompiler())
        .field("simd_flags", isa::hostSimdBuildFlags())
        .field("matrix", matrix)
        .field("scale", scale)
        .field("threads", std::uint64_t{threads})
        .field("repeat", std::uint64_t{repeat})
        .field("cells", std::uint64_t{cells})
        .field("host_ns", hostNs)
        .field("ns_per_cell",
               cells == 0 ? 0.0
                          : static_cast<double>(hostNs) /
                                static_cast<double>(cells))
        .field("sim_cycles", cycles)
        .field("sim_instructions", instructions)
        .field("sim_mem_requests", memRequests)
        .field("sim_dram_bytes", dramBytes)
        .field("instructions_per_sec",
               seconds == 0.0 ? 0.0
                              : static_cast<double>(instructions) /
                                    seconds)
        .field("accesses_per_sec",
               seconds == 0.0 ? 0.0
                              : static_cast<double>(memRequests) /
                                    seconds);
    if (pairs > 0)
        json.field("pairs", pairs)
            .field("rss_peak_kb", rssPeakKb);
    json.endObject();
    return json.str();
}

/**
 * Strip whitespace outside string literals: every row lands in the
 * file in one canonical compact shape no matter which revision of the
 * tool (or a hand edit) produced it. Works on the raw text, so the
 * numeric fields keep their exact original spelling — reformatting
 * must never change what a row *says*.
 */
std::string
compactJson(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    bool inString = false;
    bool escaped = false;
    for (const char c : text) {
        if (inString) {
            out.push_back(c);
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
            continue;
        out.push_back(c);
        if (c == '"')
            inString = true;
    }
    return out;
}

/**
 * Split the top-level elements of the runs array out of the raw file
 * text (string-aware bracket scan between the array's '[' and its
 * matching ']'). Raw spans, not re-serialized values: appending a row
 * must leave every existing row's text — numbers included —
 * byte-for-byte intact.
 */
std::vector<std::string>
splitRuns(const std::string &text)
{
    std::vector<std::string> rows;
    const std::size_t open = text.find('[');
    fatal_if(open == std::string::npos, "runs file has no array");
    int depth = 0;
    bool inString = false;
    bool escaped = false;
    std::size_t start = std::string::npos;
    for (std::size_t i = open + 1; i < text.size(); ++i) {
        const char c = text[i];
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"') {
            inString = true;
        } else if (c == '{' || c == '[') {
            if (depth == 0 && start == std::string::npos)
                start = i;
            ++depth;
        } else if (c == '}') {
            --depth;
            if (depth == 0) {
                rows.push_back(text.substr(start, i - start + 1));
                start = std::string::npos;
            }
        } else if (c == ']') {
            if (depth == 0)
                break;
            --depth;
        }
    }
    return rows;
}

/**
 * Write {"runs":[...]} to @p path, one compact row per line (stable
 * shape for diffs and for baseline/current comparisons). With
 * @p append, the existing rows are carried over verbatim modulo
 * whitespace normalization; a file that is not this tool's own fixed
 * shape is a fatal diagnostic, not data loss — the original text is
 * left untouched on failure.
 */
void
writeRuns(const std::string &path, const std::string &record,
          bool append)
{
    std::vector<std::string> rows;
    if (append) {
        std::ifstream in(path);
        if (in) {
            std::stringstream buffer;
            buffer << in.rdbuf();
            const std::string text = buffer.str();
            if (!text.empty()) {
                const auto parsed = parseJson(text);
                fatal_if(!parsed || !parsed->isObject() ||
                             !parsed->find("runs") ||
                             !parsed->find("runs")->isArray(),
                         "'{}' is not a qz-perf runs file; refusing "
                         "to append",
                         path);
                for (const std::string &row : splitRuns(text))
                    rows.push_back(compactJson(row));
            }
        }
    }
    rows.push_back(compactJson(record));

    std::ofstream file(path);
    fatal_if(!file, "cannot open '{}' for writing", path);
    file << "{\"runs\":[\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
        file << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
    file << "]}\n";
    std::cout << "wrote " << path << "\n";
}

int
runPerf(int argc, char **argv)
{
    using namespace quetzal;
    cli::Args args(argc, argv);
    if (args.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    // Checked before any sweep or write: a mistyped option must not
    // run a 17 s sweep and then overwrite the runs file.
    args.rejectUnknown({"tiny", "kernels", "store", "algo", "variant",
                        "scale", "threads", "repeat", "label", "out",
                        "append", "metrics"});

    const bool tiny = args.has("tiny");
    const bool kernels = args.has("kernels");
    const double scale = args.getDouble("scale", 1.0);
    const long threadsOpt = args.getInt("threads", 1);
    const long repeatOpt = args.getInt("repeat", 1);
    fatal_if(threadsOpt < 1, "--threads must be at least 1");
    fatal_if(repeatOpt < 1, "--repeat must be at least 1");
    const auto threads = static_cast<unsigned>(threadsOpt);
    const auto repeat = static_cast<unsigned>(repeatOpt);
    const std::string label = args.get("label", "current");
    const std::string outPath = args.get("out", "BENCH_hostperf.json");
    const std::string metricsPath = args.get("metrics");
    const std::string storeTarget = args.get("store");
    fatal_if(tiny && kernels, "--tiny and --kernels are exclusive");
    fatal_if(!storeTarget.empty() && (tiny || kernels),
             "--store is exclusive with --tiny/--kernels");

    // --store: one cell streaming a read-store range. A single cell
    // keeps the summed metrics deterministic (per-pair cycle counts
    // depend on the cache state the preceding pairs left, so any
    // partitioning would change the totals) and is exactly the
    // bounded-RSS configuration the record documents.
    std::shared_ptr<const genomics::PairSource> storeSource;
    const algos::Workload *storeWorkload = nullptr;
    algos::RunOptions storeOptions;
    double recordedScale = (tiny || kernels) ? perf::kTinyScale : scale;
    std::string matrix = kernels ? "kernels" : (tiny ? "tiny" : "fig13a");
    if (!storeTarget.empty()) {
        const genomics::StoreTarget target =
            genomics::parseStoreTarget(storeTarget);
        auto store = genomics::ReadStore::open(target.path);
        fatal_if(target.from > store->size(),
                 "store range starts at pair {} but '{}' holds only "
                 "{} pair(s)",
                 target.from, target.path, store->size());
        recordedScale = store->provenance().scale;
        matrix = "store";
        storeSource = std::make_shared<genomics::StorePairSource>(
            std::move(store), target.from, target.to);
        storeWorkload =
            &algos::workloadByName(args.get("algo", "SS"));
        storeOptions.variant =
            cli::parseVariant(args.get("variant", "qzc"));
    }

    std::cout << "qz-perf: sweeping the " << matrix << " matrix (scale "
              << recordedScale << ", " << threads << " thread(s), "
              << repeat << " repeat(s))\n"
              << "  host backend:   " << isa::hostSimd().name << " ("
              << isa::hostSimdCompiler() << ")\n";

    algos::BatchRunner runner(threads);
    // Host timing must measure this process's sweep, whole and alone:
    // neutralize sharding and fault injection inherited from the
    // environment.
    runner.setShard(std::nullopt);
    runner.setFaultInjection(std::nullopt);

    std::uint64_t bestNs = ~std::uint64_t{0};
    std::size_t cells = 0;
    algos::BatchOutcome outcome;
    for (unsigned r = 0; r < repeat; ++r) {
        if (storeSource) {
            runner.add(*storeWorkload, storeSource, storeOptions);
            cells = 1;
        } else {
            cells = kernels ? perf::addKernelMatrix(runner)
                            : perf::addPerfMatrix(runner, scale, tiny);
        }
        const auto started = std::chrono::steady_clock::now();
        algos::BatchOutcome sweep = runner.run();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - started)
                .count());
        for (const auto &failure : sweep.failures)
            warn("cell {} [{}] failed: {}", failure.cell, failure.key,
                 failure.message);
        if (ns < bestNs) {
            bestNs = ns;
            outcome = std::move(sweep);
        }
    }

    const std::uint64_t storePairs =
        storeSource ? std::uint64_t{storeSource->size()} : 0;
    const std::uint64_t rssKb = storeSource ? peakRssKb() : 0;
    const std::string record =
        runRecord(label, matrix, recordedScale, threads, cells, repeat,
                  bestNs, outcome, storePairs, rssKb);
    std::uint64_t instructions = 0, memRequests = 0;
    for (const auto &result : outcome.results) {
        instructions += result.instructions;
        memRequests += result.memRequests;
    }
    const double seconds = static_cast<double>(bestNs) / 1e9;
    std::cout << "  cells:          " << cells << "\n"
              << "  host time:      " << seconds << " s ("
              << (cells == 0 ? 0.0
                             : static_cast<double>(bestNs) /
                                   static_cast<double>(cells) / 1e6)
              << " ms/cell)\n"
              << "  sim instr/sec:  "
              << (seconds == 0.0
                      ? 0.0
                      : static_cast<double>(instructions) / seconds)
              << "\n"
              << "  sim access/sec: "
              << (seconds == 0.0
                      ? 0.0
                      : static_cast<double>(memRequests) / seconds)
              << "\n";
    if (storeSource)
        std::cout << "  pairs:          " << storePairs << "\n"
                  << "  peak RSS:       " << rssKb << " KiB\n";
    writeRuns(outPath, record, args.has("append"));

    if (!metricsPath.empty()) {
        const algos::BenchReport report = algos::makeBenchReport(
            "qz-perf", recordedScale, threads, outcome);
        std::ofstream file(metricsPath);
        fatal_if(!file, "cannot open '{}' for writing", metricsPath);
        file << algos::toJson(report) << "\n";
        std::cout << "wrote simulated metrics to " << metricsPath
                  << "\n";
    }
    return outcome.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return quetzal::guardedMain([&] { return runPerf(argc, argv); });
}
