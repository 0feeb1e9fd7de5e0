#include "reference.hpp"

#include <algorithm>

#include "algos/biwfa.hpp"
#include "algos/nw.hpp"
#include "algos/sneakysnake.hpp"
#include "algos/swg.hpp"
#include "algos/wfa.hpp"
#include "common/logging.hpp"

namespace qzbench {

using namespace quetzal::algos;

Expected
referenceRun(std::string_view workload,
             quetzal::genomics::PairSource &source,
             const RunOptions &options)
{
    const auto wfaRef = makeWfaEngine(Variant::Ref, nullptr, nullptr);
    const auto ssRef = makeSsEngine(Variant::Ref, nullptr, nullptr);
    SsConfig ssConfig;
    ssConfig.editThreshold =
        options.ssThreshold > 0
            ? options.ssThreshold
            : defaultSsThreshold(source.info().readLength,
                                 source.info().errorRate);

    Expected want;
    source.rewind();
    quetzal::genomics::PairBatch batch;
    while (source.next(batch) > 0) {
        for (const auto &pair : batch.views()) {
            const std::string_view p =
                pair.pattern.substr(0, options.maxLen);
            const std::string_view t = pair.text.substr(0, options.maxLen);
            ++want.pairs;
            if (workload == "WFA" || workload == "BiWFA") {
                want.totalScore += wfaScore(*wfaRef, p, t);
            } else if (workload == "SS") {
                const SsResult r = sneakySnake(*ssRef, p, t, ssConfig);
                want.totalScore += r.editBound;
                want.accepted += r.accepted ? 1 : 0;
            } else if (workload == "SS+WFA") {
                if (sneakySnake(*ssRef, p, t, ssConfig).accepted) {
                    ++want.accepted;
                    want.totalScore += wfaScore(*wfaRef, p, t);
                }
            } else if (workload == "NW") {
                want.totalScore +=
                    nwAlign(Variant::Ref, p, t, nullptr, nullptr, false)
                        .score;
            } else if (workload == "SW") {
                want.totalScore += swgAlign(Variant::Ref, p, t,
                                            SwgParams{}, nullptr, nullptr,
                                            false)
                                       .score;
            } else {
                quetzal::fatal("no reference model for workload '{}'",
                               workload);
            }
        }
    }
    return want;
}

} // namespace qzbench
