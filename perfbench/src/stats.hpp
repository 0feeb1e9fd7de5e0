/**
 * @file
 * The benchmark's own arithmetic: medians, the percentile rule,
 * operation accounting and closed-loop latency bookkeeping. Kept free
 * of simulator types (apart from the serve response it classifies) so
 * tests/test_bench.cpp can pin every rule directly.
 */
#ifndef QZBENCH_STATS_HPP
#define QZBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "serve/protocol.hpp"

namespace qzbench {

/** One request's latency and when the request started (nowNs()). */
struct Latency
{
    std::int64_t startNs = 0;
    double ms = 0.0;
};

/** Median of @p values (mean of the middle two for even counts). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * 1-based nearest rank of percentile @p pct (0 < pct < 100) among @p n
 * samples: ceil(pct/100 * n), computed so that exact products such as
 * 99.9% of 10000 are not pushed up a rank by rounding.
 */
inline std::size_t
nearestRank(std::size_t n, double pct)
{
    const double exact = pct * static_cast<double>(n) / 100.0;
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

/** Nearest-rank percentile @p pct of the ascending @p sorted. */
inline double
percentileOf(const std::vector<double> &sorted, double pct)
{
    return sorted.empty() ? 0.0 : sorted[nearestRank(sorted.size(), pct) - 1];
}

/** Samples strictly above the nearest-rank percentile @p pct. */
inline std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n == 0 ? 0 : n - nearestRank(n, pct);
}

/** Fewest samples a reported percentile must leave beyond it. */
constexpr std::size_t kMinBeyond = 10;

/** True when @p n samples resolve percentile @p pct by the rule. */
inline bool
resolves(std::size_t n, double pct)
{
    return n > 0 && samplesBeyond(n, pct) >= kMinBeyond;
}

/**
 * The highest percentile of the ladder {50, 90, 99, 99.9, 99.99} that
 * still leaves at least kMinBeyond samples beyond it, or nullopt when
 * even the median does not.
 */
inline std::optional<double>
highestResolvedPercentile(std::size_t n)
{
    std::optional<double> best;
    for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99})
        if (resolves(n, pct))
            best = pct;
    return best;
}

/**
 * Percentile @p pct of latency samples grouped by timed pass. When
 * every pass alone resolves @p pct, the mean over passes of each
 * pass's nearest-rank percentile: a class of samples that one pass
 * takes in a single stretch (a fig13a cell) then counts each stretch
 * once, so a run whose stretches fell in fast and slow host phases
 * lands between the two instead of on whichever decides the pooled
 * rank. Otherwise the nearest-rank percentile of all samples pooled.
 */
inline double
percentileOverPasses(const std::vector<std::vector<double>> &passes,
                     double pct)
{
    bool each = !passes.empty();
    for (const auto &pass : passes)
        each = each && resolves(pass.size(), pct);
    if (each) {
        double sum = 0.0;
        for (auto pass : passes) {
            std::sort(pass.begin(), pass.end());
            sum += percentileOf(pass, pct);
        }
        return sum / static_cast<double>(passes.size());
    }
    std::vector<double> pooled;
    for (const auto &pass : passes)
        pooled.insert(pooled.end(), pass.begin(), pass.end());
    std::sort(pooled.begin(), pooled.end());
    return percentileOf(pooled, pct);
}

/** Smallest sample count that resolves percentile @p pct. */
inline std::size_t
samplesToResolve(double pct)
{
    std::size_t n = 1;
    while (!resolves(n, pct))
        ++n;
    return n;
}

/**
 * Operations attempted and failed. An operation is one fig13a cell,
 * one store-stream pass or one served request; a served request that
 * the pool re-dispatched after losing a worker and then completed
 * counts as retried, not failed.
 */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;

    void
    record(bool ok, unsigned attempts = 1)
    {
        ++attempted;
        failed += ok ? 0 : 1;
        retried += attempts > 1 ? attempts - 1 : 0;
    }
};

/** True when a served response is a correct completed request. */
inline bool
responseOk(const quetzal::serve::ServeResponse &response)
{
    return response.status == quetzal::serve::ResponseStatus::Ok &&
           response.result && response.result->outputsMatch;
}

/**
 * Closed-loop latency bookkeeping: one submit timestamp per request
 * id, closed by the response that carries the id. Latency runs from
 * submit() to the response reaching the sink, so it includes queueing,
 * both pipe hops and the protocol codec.
 */
class LatencyBook
{
  public:
    struct Sample
    {
        std::uint64_t id = 0;
        int requestClass = 0;
        unsigned client = 0;
        std::int64_t submitNs = 0;
        std::int64_t endNs = 0;
        double ms = 0.0;
        bool ok = false;
        unsigned attempts = 1; //!< dispatches the pool made
    };

    /** Open request @p id (ids are unique; reuse is a bug). */
    bool
    open(std::uint64_t id, int requestClass, unsigned client,
         std::int64_t nowNs)
    {
        return pending_
            .emplace(id, Pending{requestClass, client, nowNs})
            .second;
    }

    /**
     * Close the request @p response answers; nullopt when its id is
     * unknown or already closed (a duplicate response).
     */
    std::optional<Sample>
    close(const quetzal::serve::ServeResponse &response,
          std::int64_t nowNs)
    {
        const auto it = pending_.find(response.id);
        if (it == pending_.end())
            return std::nullopt;
        Sample sample;
        sample.id = response.id;
        sample.requestClass = it->second.requestClass;
        sample.client = it->second.client;
        sample.submitNs = it->second.submitNs;
        sample.endNs = nowNs;
        sample.ms = static_cast<double>(nowNs - it->second.submitNs) /
                    1e6;
        sample.ok = responseOk(response);
        sample.attempts = response.attempts;
        pending_.erase(it);
        samples_.push_back(sample);
        return sample;
    }

    std::size_t inFlight() const { return pending_.size(); }
    const std::vector<Sample> &samples() const { return samples_; }

    /** Operations of the samples closed from index @p from on. */
    Ops
    ops(std::size_t from = 0) const
    {
        Ops ops;
        for (std::size_t i = from; i < samples_.size(); ++i)
            ops.record(samples_[i].ok, samples_[i].attempts);
        return ops;
    }

  private:
    struct Pending
    {
        int requestClass;
        unsigned client;
        std::int64_t submitNs;
    };

    std::map<std::uint64_t, Pending> pending_;
    std::vector<Sample> samples_;
};

} // namespace qzbench

#endif // QZBENCH_STATS_HPP
