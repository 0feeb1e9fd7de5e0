/**
 * @file
 * Closed-loop client over serve::AlignService: each client keeps one
 * request outstanding and submits its next one from the response sink.
 * AlignService only pumps inside drain(), so its callers submit and
 * wait; a closed loop is the load they actually generate.
 */
#ifndef QZBENCH_CLOSEDLOOP_HPP
#define QZBENCH_CLOSEDLOOP_HPP

#include <functional>
#include <memory>

#include "serve/server.hpp"
#include "stats.hpp"

namespace qzbench {

class ClosedLoop
{
  public:
    /** Request number @p index (ids must be index + 1) and its class. */
    using MakeRequest =
        std::function<quetzal::serve::ServeRequest(std::uint64_t index)>;
    using ClassOf = std::function<int(std::uint64_t index)>;
    /** Observer of every closed request (tracing, sim sums). */
    using OnClose = std::function<void(const LatencyBook::Sample &,
                                       const quetzal::serve::ServeResponse &)>;

    ClosedLoop(quetzal::serve::ServeConfig config, unsigned clients,
               MakeRequest make, ClassOf classOf, OnClose onClose = {});

    ClosedLoop(const ClosedLoop &) = delete; // the sink captures this
    ClosedLoop &operator=(const ClosedLoop &) = delete;

    /**
     * Submit the next @p requests requests (continuing the index
     * sequence) with every client keeping one outstanding, and return
     * once all of them have been answered.
     */
    void runBlock(std::uint64_t requests);

    /** Close the pool and reap the workers. */
    void shutdown() { service_->shutdown(); }

    const LatencyBook &book() const { return book_; }
    const quetzal::serve::ServeStats &stats() const { return service_->stats(); }
    std::uint64_t submitted() const { return next_; }

  private:
    void submitNext(unsigned client);

    unsigned clients_;
    MakeRequest make_;
    ClassOf classOf_;
    OnClose onClose_;
    LatencyBook book_;
    std::uint64_t next_ = 0;
    std::uint64_t limit_ = 0;
    std::unique_ptr<quetzal::serve::AlignService> service_;
};

} // namespace qzbench

#endif // QZBENCH_CLOSEDLOOP_HPP
