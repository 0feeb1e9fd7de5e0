/**
 * @file
 * Uniform pair intake for the CLI tools: either an in-RAM '>'/'<'
 * pair file or a range of an indexed on-disk read store
 * (docs/STORE.md, `--store FILE[:FROM-TO]`).
 *
 * Pairs keep their GLOBAL index: pair 1500 of `reads.qzs:1000-2000`
 * is store pair 1500, not local slot 500. Shard ownership
 * (i % N == K-1), checkpoint records, and printed per-pair lines all
 * use that global index, so a range processed whole, sharded, or
 * checkpoint-resumed — or the same pairs fed from a pair file —
 * reports byte-identically.
 */
#ifndef QUETZAL_TOOLS_PAIR_INPUT_HPP
#define QUETZAL_TOOLS_PAIR_INPUT_HPP

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.hpp"
#include "common/logging.hpp"
#include "genomics/fasta.hpp"
#include "genomics/sequence.hpp"
#include "genomics/store.hpp"

namespace quetzal::cli {

class PairInput
{
  public:
    /** Load a whole '>'/'<' pair file into RAM (global indices 0..n). */
    static PairInput
    fromPairFile(const std::string &path)
    {
        PairInput input;
        std::ifstream in(path);
        fatal_if(!in, "cannot open '{}'", path);
        input.pairs_ = genomics::readPairFile(in);
        fatal_if(input.pairs_.empty(), "no pairs in '{}'", path);
        input.to_ = input.pairs_.size();
        input.path_ = path;
        input.origin_ = path;
        return input;
    }

    /** Open a `FILE[:FROM-TO]` store range (checksum-verified). */
    static PairInput
    fromStore(const std::string &target)
    {
        PairInput input;
        const genomics::StoreTarget parsed =
            genomics::parseStoreTarget(target);
        input.store_ = genomics::ReadStore::open(parsed.path);
        fatal_if(parsed.from > input.store_->size(),
                 "store range starts at pair {} but '{}' holds only "
                 "{} pair(s)",
                 parsed.from, parsed.path, input.store_->size());
        input.from_ = parsed.from;
        input.to_ = std::min(parsed.to, input.store_->size());
        fatal_if(input.from_ == input.to_,
                 "store range '{}' selects no pairs", target);
        input.path_ = parsed.path;
        input.origin_ = target;
        return input;
    }

    /** First global pair index (0 for pair files). */
    std::size_t begin() const { return from_; }

    /** One past the last global pair index. */
    std::size_t end() const { return to_; }

    std::size_t count() const { return to_ - from_; }

    /** True when @p globalIndex falls inside this input's range. */
    bool
    contains(std::size_t globalIndex) const
    {
        return globalIndex >= from_ && globalIndex < to_;
    }

    /** Local vector slot of @p globalIndex (for count()-sized arrays). */
    std::size_t
    slot(std::size_t globalIndex) const
    {
        panic_if_not(contains(globalIndex),
                     "pair index {} outside input range [{}, {})",
                     globalIndex, from_, to_);
        return globalIndex - from_;
    }

    /**
     * Pair @p globalIndex by value. Thread-safe: store pairs decode
     * through the read-only store, file pairs copy out of the vector.
     */
    genomics::SequencePair
    pair(std::size_t globalIndex) const
    {
        panic_if_not(contains(globalIndex),
                     "pair index {} outside input range [{}, {})",
                     globalIndex, from_, to_);
        if (store_)
            return store_->pair(globalIndex);
        return pairs_[globalIndex];
    }

    /** True when the input is a store range (vs an in-RAM file). */
    bool backedByStore() const { return store_ != nullptr; }

    /** The in-RAM pairs; only valid for pair-file inputs. */
    const std::vector<genomics::SequencePair> &
    filePairs() const
    {
        panic_if_not(!store_,
                     "filePairs() on a store-backed input '{}'",
                     origin_);
        return pairs_;
    }

    /** Bare file path (range suffix stripped for store inputs). */
    const std::string &path() const { return path_; }

    /** The argument as given — for messages and reports. */
    const std::string &origin() const { return origin_; }

  private:
    PairInput() = default;

    std::shared_ptr<const genomics::ReadStore> store_;
    std::vector<genomics::SequencePair> pairs_;
    std::size_t from_ = 0;
    std::size_t to_ = 0;
    std::string path_;
    std::string origin_;
};

/**
 * Resolve a tool's pair input from its arguments: `--store` wins and
 * excludes the positional PAIRFILE; otherwise the first positional
 * names a pair file.
 */
inline PairInput
openPairInput(const Args &args)
{
    if (args.has("store")) {
        fatal_if(!args.positional().empty(),
                 "--store replaces the positional PAIRFILE "
                 "(got both '{}' and a positional argument)",
                 args.get("store"));
        return PairInput::fromStore(args.get("store"));
    }
    return PairInput::fromPairFile(args.positional().front());
}

} // namespace quetzal::cli

#endif // QUETZAL_TOOLS_PAIR_INPUT_HPP
