/**
 * @file
 * qz-align: align a pair file on the simulated QUETZAL core.
 *
 *   qz-align pairs.txt                          # WFA, QUETZAL+C
 *   qz-align pairs.txt --algo biwfa --variant vec
 *   qz-align pairs.txt --algo nw --maxlen 500 --cigar
 *   qz-align long_pairs.txt --window 30000      # tiled ultra-long
 *   qz-align pairs.txt --threads 8              # shard across workers
 *   qz-align --store reads.qzs:0-50000          # on-disk store range
 */
#include <algorithm>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>

#include "algos/batch.hpp"
#include "algos/biwfa.hpp"
#include "algos/wfa_affine.hpp"
#include "algos/nw.hpp"
#include "algos/report.hpp"
#include "algos/sam.hpp"
#include "algos/swg.hpp"
#include "algos/tiled.hpp"
#include "algos/wfa.hpp"
#include "algos/wfa_engine.hpp"
#include "algos/workload.hpp"
#include "cli_common.hpp"
#include "common/json.hpp"
#include "common/threadpool.hpp"
#include "genomics/datasets.hpp"
#include "genomics/fasta.hpp"
#include "pair_input.hpp"
#include "quetzal/qzunit.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/context.hpp"

namespace {

using namespace quetzal;
using algos::Variant;

/** One worker's private simulated core + engines. */
struct ShardRig
{
    sim::SimContext core;
    isa::VectorUnit vpu;
    std::optional<accel::QzUnit> qz;
    std::unique_ptr<algos::WfaEngine> engine;

    explicit ShardRig(Variant variant)
        : core(algos::needsQuetzal(variant)
                   ? sim::SystemParams::withQuetzal()
                   : sim::SystemParams::baseline()),
          vpu(core.pipeline())
    {
        if (algos::needsQuetzal(variant))
            qz.emplace(vpu, core.params().quetzal);
        engine = algos::makeWfaEngine(variant, &vpu,
                                      qz ? &*qz : nullptr);
    }
};

/** Cycle/instruction totals harvested from one worker's core. */
struct ShardStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memRequests = 0;
    std::string profileJson;
};

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] {
        const cli::Args args(argc, argv);
        if (args.has("list")) {
            std::cout << algos::workloadListing();
            return 0;
        }
        if (args.has("help") ||
            (args.positional().empty() && !args.has("store"))) {
            std::cout
                << "qz-align PAIRFILE [options]\n"
                   "qz-align --store FILE[:FROM-TO] [options]\n"
                   "  --store S      stream an indexed read store "
                   "range (docs/STORE.md)\n"
                   "  --algo A       wfa|biwfa|affine|nw|sw (default wfa)\n"
                   "  --variant V    base|vec|qz|qzc (default qzc)\n"
                   "  --window N     tile ultra-long reads at N bases\n"
                   "  --maxlen N     truncate pairs to N bases\n"
                   "  --cigar        print each alignment's CIGAR\n"
                   "  --protein      use the 8-bit encoding\n"
                   "  --lag N        adaptive wavefront reduction "
                   "(WFA heuristic)\n"
                   "  --sam FILE     write alignments as SAM\n"
                   "  --threads N    split pairs across N simulated "
                   "cores (default 1)\n"
                   "  --shard K/N    align only pairs with index % N "
                   "== K-1 (multi-process runs)\n"
                   "  --checkpoint F resume per-pair progress from F "
                   "(JSONL, crash-safe)\n"
                   "  --serve        round-trip the pairs through a "
                   "qz-serve worker\n"
                   "                 and verify byte-identical "
                   "results\n"
                   "  --list         print the registered workloads "
                   "and exit\n"
                   "  --json         print an instruction profile as "
                   "JSON (one per worker)\n"
                   "SIGINT/SIGTERM flush the checkpoint and emit a "
                   "partial JSON report\n";
            return args.has("help") ? 0 : 2;
        }
        args.rejectUnknown({"list", "store", "algo", "variant", "window",
                            "maxlen", "cigar", "protein", "lag", "x", "o",
                            "e", "sam", "threads", "shard", "checkpoint",
                            "serve", "json"},
                           1);
        cli::installStopHandlers();

        const cli::PairInput input = cli::openPairInput(args);

        const Variant variant =
            cli::parseVariant(args.get("variant", "qzc"));
        const std::string algo = args.get("algo", "wfa");
        const auto maxLen = static_cast<std::size_t>(
            args.getInt("maxlen", 1 << 30));
        const auto esize = args.has("protein")
                               ? genomics::ElementSize::Bits8
                               : genomics::ElementSize::Bits2;
        const long threadsOpt = args.getInt("threads", 1);
        fatal_if(threadsOpt < 1, "--threads must be at least 1");

        // --serve: round-trip the whole pair file through a pooled
        // qz-serve worker process and require the served RunResult to
        // be byte-identical to an in-process run (docs/SERVICE.md).
        // QZ_FAULT_INJECT crash/hang kinds apply to the worker, so
        // this doubles as a client-side recovery check.
        if (args.has("serve")) {
            for (const char *unsupported :
                 {"window", "lag", "sam", "shard", "checkpoint",
                  "cigar", "json"})
                fatal_if(args.has(unsupported),
                         "--serve does not support --{}",
                         unsupported);
            serve::ServeRequest request;
            request.workload = [&]() -> std::string {
                if (algo == "wfa")
                    return "WFA";
                if (algo == "biwfa")
                    return "BiWFA";
                if (algo == "nw")
                    return "NW";
                if (algo == "sw")
                    return "SW";
                fatal("--serve supports --algo wfa|biwfa|nw|sw, "
                      "not '{}'",
                      algo);
            }();
            request.variant = args.get("variant", "qzc");
            if (args.has("maxlen"))
                request.maxLen = static_cast<std::uint64_t>(maxLen);
            request.protein = args.has("protein");
            if (input.backedByStore()) {
                // The worker streams the range from disk itself —
                // the request names it instead of carrying pairs.
                request.store = input.path();
                request.storeFrom = input.begin();
                request.storeTo = input.end();
            } else {
                request.pairs = input.filePairs();
                for (auto &pair : request.pairs)
                    pair.alphabet =
                        request.protein
                            ? genomics::AlphabetKind::Protein
                            : genomics::AlphabetKind::Dna;
            }
            return serve::serveRoundTripCheck(request, std::cout)
                       ? 0
                       : 1;
        }

        // --shard K/N: this process owns every pair whose GLOBAL
        // index i satisfies i % N == K-1 (same round-robin
        // partitioning as the batch engine's QZ_BENCH_SHARD, so a
        // sweep can be split across machines deterministically).
        // Store ranges keep store-global indices, so shards of
        // `reads.qzs:A-B` partition exactly like shards of the
        // equivalent pair file.
        const std::optional<algos::ShardSpec> shard =
            algos::parseShardSpec(args.get("shard", ""));
        std::vector<std::size_t> ownedPairs;
        for (std::size_t i = input.begin(); i < input.end(); ++i)
            if (!shard || shard->owns(i))
                ownedPairs.push_back(i);

        const unsigned threads = static_cast<unsigned>(std::max<
            std::size_t>(
            1, std::min<std::size_t>(
                   static_cast<std::size_t>(threadsOpt),
                   ownedPairs.size())));

        // Align @p pair on @p rig (each worker owns its rig).
        auto alignPair =
            [&](ShardRig &rig,
                const genomics::SequencePair &pair)
            -> algos::AlignResult {
            std::string_view pattern = pair.pattern;
            std::string_view text = pair.text;
            if (pattern.size() > maxLen)
                pattern = pattern.substr(0, maxLen);
            if (text.size() > maxLen)
                text = text.substr(0, maxLen);

            if (args.has("window")) {
                algos::TiledConfig config;
                config.windowBases = static_cast<std::size_t>(
                    args.getInt("window", 30000));
                return algos::tiledAlign(*rig.engine, pattern, text,
                                         config, esize);
            }
            if (algo == "wfa") {
                algos::WfaHeuristic heuristic;
                heuristic.maxLag = static_cast<std::int32_t>(
                    args.getInt("lag", 0));
                return algos::wfaAlign(*rig.engine, pattern, text,
                                       true, esize, heuristic);
            }
            if (algo == "biwfa")
                return algos::biwfaAlign(*rig.engine, pattern, text,
                                         true, esize);
            if (algo == "affine") {
                algos::AffinePenalties pen;
                pen.mismatch =
                    static_cast<std::int32_t>(args.getInt("x", 4));
                pen.gapOpen =
                    static_cast<std::int32_t>(args.getInt("o", 6));
                pen.gapExtend =
                    static_cast<std::int32_t>(args.getInt("e", 2));
                const auto affine = algos::affineWfaAlign(
                    *rig.engine, pattern, text, pen, true, esize);
                algos::AlignResult result;
                result.score = affine.score;
                result.cigar = affine.cigar;
                return result;
            }
            if (algo == "nw")
                return algos::nwAlign(variant, pattern, text, &rig.vpu,
                                      rig.qz ? &*rig.qz : nullptr);
            if (algo == "sw") {
                const auto swg = algos::swgAlign(
                    variant, pattern, text, algos::SwgParams{},
                    &rig.vpu, rig.qz ? &*rig.qz : nullptr);
                algos::AlignResult result;
                result.score = swg.score;
                result.cigar = swg.cigar;
                return result;
            }
            fatal("unknown algorithm '{}'", algo);
        };

        // Split the owned pairs into contiguous ranges, one simulated
        // core per worker; per-pair results keep their input index so
        // output order (and the --threads 1 output itself) is
        // identical to a serial run. A failing pair is recorded and
        // skipped — one bad input line must not waste the rest of the
        // run.
        // Per-pair state lives in count()-sized vectors indexed by
        // the LOCAL slot (global index minus input.begin()); every
        // externally visible identifier stays global.
        const auto alphabet = args.has("protein")
                                  ? genomics::AlphabetKind::Protein
                                  : genomics::AlphabetKind::Dna;
        std::vector<algos::AlignResult> results(input.count());
        std::vector<std::string> pairErrors(input.count());
        std::vector<char> done(input.count(), 0);
        std::vector<std::string> resumedCigar(input.count());

        // --checkpoint: one JSONL line per aligned pair, flushed as
        // written, so an interrupted or killed run resumes instead of
        // re-aligning. A torn trailing line (killed mid-write) is
        // truncated away before appending — same repair as the batch
        // engine's checkpoint.
        const std::string ckptPath = args.get("checkpoint", "");
        std::ofstream ckptOut;
        std::mutex ckptMutex;
        if (!ckptPath.empty()) {
            fatal_if(args.has("sam"),
                     "--checkpoint does not support --sam (resumed "
                     "pairs carry no traceback state)");
            algos::truncateTornCheckpointTail(ckptPath);
            std::ifstream ckptIn(ckptPath);
            std::string line;
            std::size_t resumed = 0;
            while (std::getline(ckptIn, line)) {
                if (line.empty())
                    continue;
                const auto json = parseJson(line);
                if (!json || !json->isObject() ||
                    !json->find("pair"))
                    continue; // loader skips unparseable lines
                const std::size_t i =
                    static_cast<std::size_t>(json->getUint("pair"));
                if (!input.contains(i) || done[input.slot(i)])
                    continue;
                const std::size_t s = input.slot(i);
                results[s].score = json->getInt("score");
                resumedCigar[s] = json->getString("cigar");
                done[s] = 1;
                ++resumed;
            }
            if (resumed > 0)
                std::cout << "checkpoint: resumed " << resumed
                          << " pair(s) from " << ckptPath << "\n";
            ckptOut.open(ckptPath, std::ios::app);
            if (!ckptOut)
                warn("cannot open checkpoint '{}' for appending; "
                     "this run will not be resumable",
                     ckptPath);
        }

        std::vector<ShardStats> workers(threads);
        const std::size_t perWorker =
            (ownedPairs.size() + threads - 1) / threads;
        parallelFor(threads, threads, [&](std::size_t s) {
            const std::size_t lo = s * perWorker;
            const std::size_t hi =
                std::min(ownedPairs.size(), lo + perWorker);
            ShardRig rig(variant);
            for (std::size_t j = lo; j < hi; ++j) {
                if (cli::stopRequested())
                    break; // flush what is recorded and report
                const std::size_t i = ownedPairs[j];
                const std::size_t s = input.slot(i);
                if (done[s])
                    continue; // resumed from the checkpoint
                rig.core.mem().newEpoch();
                try {
                    const genomics::SequencePair pair = input.pair(i);
                    genomics::validatePair(pair, alphabet, i,
                                           "qz-align");
                    results[s] = alignPair(rig, pair);
                    if (ckptOut.is_open()) {
                        JsonWriter json;
                        json.beginObject()
                            .field("pair", std::uint64_t{i})
                            .field("score",
                                   std::int64_t{results[s].score})
                            .field("cigar", results[s].cigar.rle())
                            .endObject();
                        std::lock_guard<std::mutex> lock(ckptMutex);
                        ckptOut << json.str()
                                << std::endl; // flush: crash safety
                    }
                } catch (const std::exception &e) {
                    pairErrors[s] = e.what();
                }
                done[s] = 1;
            }
            workers[s].cycles = rig.core.pipeline().totalCycles();
            workers[s].instructions =
                rig.core.pipeline().instructions();
            workers[s].memRequests = rig.core.mem().totalRequests();
            workers[s].profileJson =
                algos::instructionProfileJson(rig.core.pipeline());
        });
        if (ckptOut.is_open())
            ckptOut.close(); // flushed before any report below

        std::optional<std::ofstream> sam;
        if (args.has("sam")) {
            sam.emplace(args.get("sam"));
            fatal_if(!*sam, "cannot open '{}' for writing",
                     args.get("sam"));
            algos::writeSamHeader(
                *sam, "ref", input.pair(input.begin()).text.size());
        }

        std::int64_t totalScore = 0;
        std::size_t failedPairs = 0;
        std::size_t skippedPairs = 0;
        for (const std::size_t i : ownedPairs) {
            const std::size_t s = input.slot(i);
            if (!done[s]) {
                ++skippedPairs; // interrupted before this pair ran
                continue;
            }
            if (!pairErrors[s].empty()) {
                ++failedPairs;
                std::cout << "pair " << i << ": FAILED ("
                          << pairErrors[s] << ")\n";
                continue; // no score, no SAM record
            }
            const auto &result = results[s];
            totalScore += result.score;
            std::cout << "pair " << i << ": score " << result.score;
            if (args.has("cigar"))
                std::cout << "  "
                          << (resumedCigar[s].empty()
                                  ? result.cigar.rle()
                                  : resumedCigar[s]);
            std::cout << "\n";
            if (sam) {
                const genomics::SequencePair pair = input.pair(i);
                std::string_view pattern = pair.pattern;
                if (pattern.size() > maxLen)
                    pattern = pattern.substr(0, maxLen);
                algos::SamRecord record;
                record.qname = "pair_" + std::to_string(i);
                record.rname = "ref";
                record.cigar =
                    algos::toSamCigar(result.cigar, /*extended=*/true);
                record.seq = std::string(pattern);
                algos::writeSamRecord(*sam, record);
            }
        }

        std::uint64_t cycles = 0, instructions = 0, memRequests = 0;
        for (const auto &worker : workers) {
            cycles += worker.cycles;
            instructions += worker.instructions;
            memRequests += worker.memRequests;
        }
        std::cout << "\n";
        if (shard)
            std::cout << "shard " << algos::shardName(*shard) << ": "
                      << ownedPairs.size() << " of " << input.count()
                      << " pair(s) owned\n";
        std::cout << "aligned "
                  << (ownedPairs.size() - failedPairs - skippedPairs)
                  << " / " << ownedPairs.size() << " pairs, total "
                  << (algo == "sw" ? "alignment score " : "edits ")
                  << totalScore << "\n"
                  << "simulated cycles: " << cycles << " ("
                  << instructions << " instructions, " << memRequests
                  << " cache requests";
        if (threads > 1)
            std::cout << "; summed over " << threads
                      << " simulated cores";
        std::cout << ")\n";
        if (args.has("json")) {
            if (threads == 1) {
                std::cout << workers.front().profileJson << "\n";
            } else {
                std::cout << "[";
                for (std::size_t s = 0; s < workers.size(); ++s)
                    std::cout << (s ? "," : "")
                              << workers[s].profileJson;
                std::cout << "]\n";
            }
        }
        // Interrupted: the checkpoint is already flushed; emit a
        // partial JSON report so the caller knows exactly how far the
        // run got, and exit nonzero.
        if (cli::stopRequested()) {
            JsonWriter json;
            json.beginObject()
                .field("tool", "qz-align")
                .field("partial", true)
                .field("input", input.origin())
                .field("algo", algo)
                .field("variant", args.get("variant", "qzc"))
                .field("completed",
                       std::uint64_t{ownedPairs.size() -
                                     failedPairs - skippedPairs})
                .field("failed", std::uint64_t{failedPairs})
                .field("not_attempted", std::uint64_t{skippedPairs})
                .field("owned", std::uint64_t{ownedPairs.size()})
                .field("total_score", std::int64_t{totalScore});
            if (!ckptPath.empty())
                json.field("checkpoint", ckptPath);
            json.endObject();
            std::cout << json.str() << "\n";
            std::cerr << "interrupted: " << skippedPairs
                      << " pair(s) not attempted"
                      << (ckptPath.empty()
                              ? ""
                              : "; rerun with the same --checkpoint "
                                "to resume")
                      << "\n";
            return 130;
        }
        if (failedPairs > 0) {
            std::cerr << "error: " << failedPairs << " of "
                      << ownedPairs.size()
                      << " pair(s) failed (see FAILED lines above)\n";
            return 1;
        }
        return 0;
    });
}
