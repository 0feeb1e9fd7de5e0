/**
 * @file
 * qz-filter: SneakySnake pre-alignment filtering of a pair file.
 *
 *   qz-filter pairs.txt --threshold 8
 *   qz-filter pairs.txt --variant vec --accepted kept.txt
 *   qz-filter pairs.txt --threads 8    # shard across workers
 *   qz-filter --store reads.qzs:0-50000  # on-disk store range
 */
#include <algorithm>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>

#include "algos/batch.hpp"
#include "algos/shouji.hpp"
#include "algos/sneakysnake.hpp"
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

int
main(int argc, char **argv)
{
    using namespace quetzal;
    using algos::Variant;
    return guardedMain([&] {
        const cli::Args args(argc, argv);
        if (args.has("list")) {
            std::cout << algos::workloadListing();
            return 0;
        }
        if (args.has("help") ||
            (args.positional().empty() && !args.has("store"))) {
            std::cout
                << "qz-filter PAIRFILE [options]\n"
                   "qz-filter --store FILE[:FROM-TO] [options]\n"
                   "  --store S       stream an indexed read store "
                   "range (docs/STORE.md)\n"
                   "  --threshold E   edit threshold (default: 5% of "
                   "the read length)\n"
                   "  --variant V     base|vec|qz|qzc (default qzc)\n"
                   "  --filter F      sneakysnake|shouji (default "
                   "sneakysnake)\n"
                   "  --accepted F    write accepted pairs to F\n"
                   "  --threads N     split pairs across N simulated "
                   "cores (default 1)\n"
                   "  --shard K/N     filter only pairs with index % N "
                   "== K-1 (multi-process runs)\n"
                   "  --checkpoint F  resume per-pair verdicts from F "
                   "(JSONL, crash-safe)\n"
                   "  --serve         round-trip the pairs through a "
                   "qz-serve worker\n"
                   "                  and verify byte-identical "
                   "results\n"
                   "  --list          print the registered workloads "
                   "and exit\n"
                   "  --verbose       per-pair verdicts\n"
                   "SIGINT/SIGTERM flush the checkpoint and emit a "
                   "partial JSON report\n";
            return args.has("help") ? 0 : 2;
        }
        args.rejectUnknown({"list", "store", "threshold", "variant",
                            "filter", "accepted", "threads", "shard",
                            "checkpoint", "serve", "verbose"},
                           1);
        cli::installStopHandlers();

        const cli::PairInput input = cli::openPairInput(args);

        const Variant variant =
            cli::parseVariant(args.get("variant", "qzc"));
        const bool useShouji = args.get("filter") == "shouji";
        const long threadsOpt = args.getInt("threads", 1);
        fatal_if(threadsOpt < 1, "--threads must be at least 1");

        // --serve: round-trip the pair file through a pooled
        // qz-serve worker running the SS workload and require a
        // byte-identical RunResult (docs/SERVICE.md).
        if (args.has("serve")) {
            for (const char *unsupported :
                 {"shard", "checkpoint", "accepted", "verbose"})
                fatal_if(args.has(unsupported),
                         "--serve does not support --{}",
                         unsupported);
            fatal_if(useShouji,
                     "--serve supports the SneakySnake workload "
                     "only");
            serve::ServeRequest request;
            request.workload = "SS";
            request.variant = args.get("variant", "qzc");
            // Inline-pair datasets carry no nominal read length, so
            // the threshold the per-pair loop below would derive must
            // travel explicitly with the request.
            request.ssThreshold =
                args.has("threshold")
                    ? args.getInt("threshold", 0)
                    : algos::defaultSsThreshold(
                          input.pair(input.begin()).pattern.size(),
                          0.033);
            if (input.backedByStore()) {
                request.store = input.path();
                request.storeFrom = input.begin();
                request.storeTo = input.end();
            } else {
                request.pairs = input.filePairs();
            }
            return serve::serveRoundTripCheck(request, std::cout)
                       ? 0
                       : 1;
        }

        // --shard K/N: same round-robin pair ownership as qz-align
        // and the batch engine's QZ_BENCH_SHARD, over GLOBAL indices
        // (store ranges shard identically to the equivalent file).
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

        struct Verdict
        {
            bool ok = false;
            std::int64_t bound = 0;
            std::int64_t threshold = 0;
        };
        // count()-sized, LOCAL-slot-indexed state; every printed or
        // checkpointed identifier stays the global pair index.
        std::vector<Verdict> verdicts(input.count());
        std::vector<std::string> pairErrors(input.count());
        std::vector<char> done(input.count(), 0);
        std::vector<std::uint64_t> workerCycles(threads, 0);

        // --checkpoint: one JSONL verdict per pair, flushed as
        // written; torn trailing lines are truncated away exactly
        // like the batch engine's checkpoint.
        const std::string ckptPath = args.get("checkpoint", "");
        std::ofstream ckptOut;
        std::mutex ckptMutex;
        if (!ckptPath.empty()) {
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
                    continue;
                const std::size_t i =
                    static_cast<std::size_t>(json->getUint("pair"));
                if (!input.contains(i) || done[input.slot(i)])
                    continue;
                const std::size_t s = input.slot(i);
                verdicts[s].ok = json->getBool("ok");
                verdicts[s].bound = json->getInt("bound");
                verdicts[s].threshold = json->getInt("threshold");
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

        // Contiguous ranges of the owned pairs, one fresh simulated
        // core per worker; verdicts keep their pair index so the
        // report (and the --threads 1 output itself) matches the
        // serial run.
        const std::size_t perWorker =
            (ownedPairs.size() + threads - 1) / threads;
        parallelFor(threads, threads, [&](std::size_t s) {
            const std::size_t lo = s * perWorker;
            const std::size_t hi =
                std::min(ownedPairs.size(), lo + perWorker);
            sim::SimContext core(algos::needsQuetzal(variant)
                                     ? sim::SystemParams::withQuetzal()
                                     : sim::SystemParams::baseline());
            isa::VectorUnit vpu(core.pipeline());
            std::optional<accel::QzUnit> qz;
            if (algos::needsQuetzal(variant))
                qz.emplace(vpu, core.params().quetzal);
            auto engine =
                algos::makeSsEngine(variant, &vpu, qz ? &*qz : nullptr);

            // A failing pair is recorded and filtered out (rejected);
            // the remaining pairs still get verdicts.
            for (std::size_t j = lo; j < hi; ++j) {
                if (cli::stopRequested())
                    break; // flush what is recorded and report
                const std::size_t i = ownedPairs[j];
                const std::size_t s = input.slot(i);
                if (done[s])
                    continue; // resumed from the checkpoint
                core.mem().newEpoch();
                Verdict &v = verdicts[s];
                try {
                    const genomics::SequencePair pair = input.pair(i);
                    genomics::validatePair(pair, pair.alphabet, i,
                                           "qz-filter");
                    v.threshold =
                        args.has("threshold")
                            ? args.getInt("threshold", 0)
                            : algos::defaultSsThreshold(
                                  pair.pattern.size(), 0.033);
                    if (useShouji) {
                        const auto verdict = algos::shouji(
                            variant, pair.pattern, pair.text,
                            v.threshold, &vpu, qz ? &*qz : nullptr);
                        v.ok = verdict.accepted;
                        v.bound = verdict.zeroCount;
                    } else {
                        algos::SsConfig config;
                        config.editThreshold = v.threshold;
                        const auto verdict = algos::sneakySnake(
                            *engine, pair.pattern, pair.text,
                            config);
                        v.ok = verdict.accepted;
                        v.bound = verdict.editBound;
                    }
                    if (ckptOut.is_open()) {
                        JsonWriter json;
                        json.beginObject()
                            .field("pair", std::uint64_t{i})
                            .field("ok", v.ok)
                            .field("bound", std::int64_t{v.bound})
                            .field("threshold",
                                   std::int64_t{v.threshold})
                            .endObject();
                        std::lock_guard<std::mutex> lock(ckptMutex);
                        ckptOut << json.str()
                                << std::endl; // flush: crash safety
                    }
                } catch (const std::exception &e) {
                    pairErrors[s] = e.what();
                    v.ok = false;
                }
                done[s] = 1;
            }
            workerCycles[s] = core.pipeline().totalCycles();
        });
        if (ckptOut.is_open())
            ckptOut.close(); // flushed before any report below

        std::vector<genomics::SequencePair> accepted;
        std::size_t failedPairs = 0;
        std::size_t skippedPairs = 0;
        for (const std::size_t i : ownedPairs) {
            const std::size_t s = input.slot(i);
            const Verdict &v = verdicts[s];
            if (!done[s]) {
                ++skippedPairs; // interrupted before this pair ran
                continue;
            }
            if (!pairErrors[s].empty()) {
                ++failedPairs;
                std::cout << "pair " << i << ": FAILED ("
                          << pairErrors[s] << ")\n";
                continue;
            }
            if (v.ok)
                accepted.push_back(input.pair(i));
            if (args.has("verbose"))
                std::cout << "pair " << i << ": "
                          << (v.ok ? "ACCEPT" : "reject")
                          << " (edit bound " << v.bound << ", E "
                          << v.threshold << ")\n";
        }

        std::uint64_t cycles = 0;
        for (const auto c : workerCycles)
            cycles += c;
        if (shard)
            std::cout << "shard " << algos::shardName(*shard) << ": "
                      << ownedPairs.size() << " of " << input.count()
                      << " pair(s) owned\n";
        std::cout << "accepted " << accepted.size() << " / "
                  << ownedPairs.size() << " pairs (" << cycles
                  << " simulated cycles";
        if (threads > 1)
            std::cout << " summed over " << threads
                      << " simulated cores";
        std::cout << ")\n";
        if (args.has("accepted")) {
            std::ofstream out(args.get("accepted"));
            fatal_if(!out, "cannot open '{}' for writing",
                     args.get("accepted"));
            genomics::writePairFile(out, accepted);
            std::cout << "wrote accepted pairs to "
                      << args.get("accepted") << "\n";
        }
        // Interrupted: the checkpoint is already flushed; emit a
        // partial JSON report and exit nonzero.
        if (cli::stopRequested()) {
            JsonWriter json;
            json.beginObject()
                .field("tool", "qz-filter")
                .field("partial", true)
                .field("input", input.origin())
                .field("filter",
                       useShouji ? "shouji" : "sneakysnake")
                .field("variant", args.get("variant", "qzc"))
                .field("completed",
                       std::uint64_t{ownedPairs.size() -
                                     failedPairs - skippedPairs})
                .field("failed", std::uint64_t{failedPairs})
                .field("not_attempted", std::uint64_t{skippedPairs})
                .field("owned", std::uint64_t{ownedPairs.size()})
                .field("accepted", std::uint64_t{accepted.size()});
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
