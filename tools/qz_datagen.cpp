/**
 * @file
 * qz-datagen: generate read/reference pair workloads.
 *
 *   qz-datagen --dataset 100bp_1 --scale 0.5 --out pairs.txt
 *   qz-datagen --dataset 100bp_1 --scale 2500 --store reads.qzs
 *   qz-datagen --length 5000 --error 0.04 --count 20 --out pairs.txt
 *   qz-datagen --length 250 --count 100 --fasta reads.fa
 *
 * Generation streams through a GeneratorPairSource batch by batch, so
 * writing a million-pair store (or pair file) needs memory for one
 * batch, not the whole dataset.
 */
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "cli_common.hpp"
#include "genomics/datasets.hpp"
#include "genomics/fasta.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/readsim.hpp"
#include "genomics/store.hpp"

int
main(int argc, char **argv)
{
    using namespace quetzal;
    return guardedMain([&] {
        const cli::Args args(argc, argv);
        if (args.has("help")) {
            std::cout
                << "qz-datagen: generate pattern/text pair workloads\n"
                   "  --dataset NAME   Table II dataset "
                   "(100bp_1|250bp_1|10Kbp|30Kbp)\n"
                   "  --scale S        dataset scale factor "
                   "(default 1.0)\n"
                   "  --length N       custom read length\n"
                   "  --error R        custom per-base error rate "
                   "(default 0.03)\n"
                   "  --count N        custom pair count "
                   "(default 100)\n"
                   "  --seed N         RNG seed (default 42)\n"
                   "  --out FILE       write a '>'/'<' pair file "
                   "(default pairs.txt unless --store)\n"
                   "  --store FILE     write an indexed binary read "
                   "store (docs/STORE.md)\n"
                   "  --fasta FILE     also write the patterns as "
                   "FASTA\n";
            return 0;
        }
        args.rejectUnknown({"dataset", "scale", "length", "error", "count",
                            "seed", "out", "store", "fasta"});

        // The generator IS the dataset: catalog mode replays exactly
        // what makeDataset() would materialize (same seeds, same
        // low/high interleave), custom mode a single simulator.
        std::unique_ptr<genomics::GeneratorPairSource> source;
        if (args.has("dataset")) {
            source = std::make_unique<genomics::GeneratorPairSource>(
                args.get("dataset"), args.getDouble("scale", 1.0));
        } else {
            genomics::ReadSimConfig config;
            config.readLength =
                static_cast<std::size_t>(args.getInt("length", 250));
            config.errorRate = args.getDouble("error", 0.03);
            config.seed =
                static_cast<std::uint64_t>(args.getInt("seed", 42));
            source = std::make_unique<genomics::GeneratorPairSource>(
                config,
                static_cast<std::size_t>(args.getInt("count", 100)));
        }
        const genomics::SourceInfo &info = source->info();

        std::optional<genomics::StoreWriter> store;
        if (args.has("store")) {
            genomics::StoreProvenance provenance;
            provenance.name = info.name;
            provenance.scale = source->scale();
            provenance.seed = source->seed();
            provenance.readLength = info.readLength;
            provenance.errorRate = info.errorRate;
            store.emplace(args.get("store"), provenance);
        }

        // A pair file is written by default, but --store alone skips
        // it — the store is the artifact.
        const bool wantPairFile = args.has("out") || !store;
        const std::string outPath = args.get("out", "pairs.txt");
        std::ofstream file;
        if (wantPairFile) {
            file.open(outPath);
            fatal_if(!file, "cannot open '{}' for writing", outPath);
        }
        std::ofstream fa;
        if (args.has("fasta")) {
            fa.open(args.get("fasta"));
            fatal_if(!fa, "cannot open '{}' for writing",
                     args.get("fasta"));
        }

        // One pass over the stream feeds every sink: pair-file chunks
        // concatenate identically to one writePairFile() call, and
        // the store writer appends as it goes.
        std::size_t generated = 0;
        genomics::PairBatch batch;
        std::vector<genomics::SequencePair> chunk;
        std::vector<genomics::Sequence> reads;
        while (source->next(batch) > 0) {
            if (store)
                for (const genomics::PairView &view : batch.views())
                    store->add(genomics::SequencePair{
                        std::string(view.pattern),
                        std::string(view.text), view.alphabet,
                        view.trueEdits});
            if (wantPairFile) {
                chunk.clear();
                for (const genomics::PairView &view : batch.views())
                    chunk.push_back(genomics::SequencePair{
                        std::string(view.pattern),
                        std::string(view.text), view.alphabet,
                        view.trueEdits});
                genomics::writePairFile(file, chunk);
            }
            if (fa.is_open()) {
                reads.clear();
                for (const genomics::PairView &view : batch.views()) {
                    genomics::Sequence seq;
                    seq.id = "read_" +
                             std::to_string(generated + reads.size());
                    seq.bases = std::string(view.pattern);
                    reads.push_back(std::move(seq));
                }
                genomics::writeFasta(fa, reads);
            }
            generated += batch.size();
        }

        if (store) {
            store->finish();
            std::cout << "wrote " << generated << " pairs of ~"
                      << info.readLength << " bp to store "
                      << args.get("store") << "\n";
        }
        if (wantPairFile)
            std::cout << "wrote " << generated << " pairs of ~"
                      << info.readLength << " bp to " << outPath
                      << "\n";
        if (fa.is_open())
            std::cout << "wrote " << generated << " reads to "
                      << args.get("fasta") << "\n";
        return 0;
    });
}
