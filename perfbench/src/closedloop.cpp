#include "closedloop.hpp"

#include "common/logging.hpp"
#include "trace.hpp"

namespace qzbench {

ClosedLoop::ClosedLoop(quetzal::serve::ServeConfig config, unsigned clients,
                       MakeRequest make, ClassOf classOf, OnClose onClose)
    : clients_(clients), make_(std::move(make)), classOf_(std::move(classOf)),
      onClose_(std::move(onClose))
{
    // The sink runs inside drain(); submitting from it is how a client
    // waits for its answer before asking again. submit() only queues
    // (or, when refused, answers through this same sink), so the
    // re-entry is safe — tests/test_bench.cpp pins both paths.
    service_ = std::make_unique<quetzal::serve::AlignService>(
        std::move(config), [this](const quetzal::serve::ServeResponse &r) {
            const auto sample = book_.close(r, nowNs());
            if (!sample)
                return;
            if (onClose_)
                onClose_(*sample, r);
            submitNext(sample->client);
        });
}

void
ClosedLoop::submitNext(unsigned client)
{
    if (next_ >= limit_)
        return;
    const std::uint64_t index = next_++;
    quetzal::serve::ServeRequest request = make_(index);
    quetzal::fatal_if(request.id != index + 1,
                      "closed loop: request {} carries id {}", index,
                      request.id);
    // Open before submit(): a refused request is answered from inside
    // submit(), and its sample must already be pending.
    book_.open(request.id, classOf_(index), client, nowNs());
    service_->submit(std::move(request));
}

void
ClosedLoop::runBlock(std::uint64_t requests)
{
    limit_ = next_ + requests;
    for (unsigned c = 0; c < clients_; ++c)
        submitNext(c);
    service_->drain();
    quetzal::fatal_if(book_.inFlight() != 0,
                      "closed loop: {} request(s) unanswered after drain",
                      book_.inFlight());
}

} // namespace qzbench
