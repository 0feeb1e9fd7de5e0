/**
 * @file
 * Unit tests for the qz-serve alignment service: pipe framing,
 * request/response wire schema, and the self-healing worker pool —
 * crash respawn without queue loss, deadline kills of hung workers,
 * admission-control shedding, graceful stop, and byte-identity of
 * served results against direct in-process / BatchRunner runs.
 *
 * Every pool test runs in fork-only mode (empty workerCommand), so
 * the worker is this test binary's forked image running workerMain()
 * directly — no external binary needed, same recovery machinery.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "genomics/readsim.hpp"
#include "genomics/store.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace quetzal {
namespace {

/** RAII pipe for the framing tests. */
struct Pipe
{
    int fds[2] = {-1, -1};

    Pipe() { EXPECT_EQ(::pipe(fds), 0); }

    ~Pipe()
    {
        closeRead();
        closeWrite();
    }

    void closeRead()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }

    void closeWrite()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

std::vector<genomics::SequencePair>
tinyPairs(std::size_t length, std::size_t count, std::uint64_t seed)
{
    genomics::ReadSimConfig config;
    config.readLength = length;
    config.errorRate = 0.05;
    config.seed = seed;
    genomics::ReadSimulator sim(config);
    return sim.generatePairs(count);
}

/** A cheap inline-pair request the fork-only workers finish fast. */
serve::ServeRequest
tinyRequest(std::uint64_t id, const std::string &workload = "WFA",
            const std::string &variant = "qzc")
{
    serve::ServeRequest request;
    request.id = id;
    request.workload = workload;
    request.variant = variant;
    if (workload == "SS")
        request.ssThreshold = 5;
    request.pairs = tinyPairs(40, 3, 7 + id);
    return request;
}

struct ServeRun
{
    std::vector<serve::ServeResponse> responses;
    serve::ServeStats stats;

    const serve::ServeResponse *
    byId(std::uint64_t id) const
    {
        for (const auto &response : responses)
            if (response.id == id)
                return &response;
        return nullptr;
    }
};

/** Construct a fork-only pool, serve every request, and shut down. */
ServeRun
serveAllCollect(serve::ServeConfig config,
                std::vector<serve::ServeRequest> requests)
{
    ServeRun run;
    serve::AlignService service(
        config, [&](const serve::ServeResponse &response) {
            run.responses.push_back(response);
        });
    service.serveAll(std::move(requests));
    service.shutdown();
    run.stats = service.stats();
    return run;
}

std::string
encodeFrame(const std::string &payload)
{
    const auto n = static_cast<std::uint32_t>(payload.size());
    std::string raw;
    raw.push_back(static_cast<char>(n & 0xff));
    raw.push_back(static_cast<char>((n >> 8) & 0xff));
    raw.push_back(static_cast<char>((n >> 16) & 0xff));
    raw.push_back(static_cast<char>((n >> 24) & 0xff));
    raw += payload;
    return raw;
}

TEST(ServeFraming, RoundTripsFramesThroughARealPipe)
{
    Pipe pipe;
    // All frames must fit the default pipe buffer (64 KiB): they are
    // written before anything reads, so a larger payload would block.
    const std::vector<std::string> payloads = {
        "{\"hello\":1}", "", std::string(30000, 'x')};
    for (const auto &payload : payloads)
        ASSERT_TRUE(serve::writeFrame(pipe.fds[1], payload));
    pipe.closeWrite();

    std::string got;
    for (const auto &payload : payloads) {
        ASSERT_EQ(serve::readFrame(pipe.fds[0], got),
                  serve::FrameRead::Frame);
        EXPECT_EQ(got, payload);
    }
    // Clean EOF lands exactly on the frame boundary.
    EXPECT_EQ(serve::readFrame(pipe.fds[0], got),
              serve::FrameRead::Eof);
}

TEST(ServeFraming, EofMidFrameIsAnError)
{
    Pipe pipe;
    const std::string raw = encodeFrame("full payload");
    // Writer dies mid-message: prefix promises 12 bytes, 4 arrive.
    ASSERT_EQ(::write(pipe.fds[1], raw.data(), 8),
              static_cast<ssize_t>(8));
    pipe.closeWrite();
    std::string got;
    EXPECT_EQ(serve::readFrame(pipe.fds[0], got),
              serve::FrameRead::Error);
}

TEST(ServeFraming, DecoderReassemblesFramesFedByteByByte)
{
    const std::vector<std::string> payloads = {"a", "",
                                               "second frame"};
    std::string raw;
    for (const auto &payload : payloads)
        raw += encodeFrame(payload);

    serve::FrameDecoder decoder;
    std::vector<std::string> got;
    std::string frame;
    for (const char byte : raw) {
        decoder.feed(&byte, 1);
        while (decoder.next(frame))
            got.push_back(frame);
    }
    EXPECT_EQ(got, payloads);
    EXPECT_EQ(decoder.pending(), 0u);
    EXPECT_FALSE(decoder.corrupt());
}

TEST(ServeFraming, DecoderFlagsOversizedLengthAsCorrupt)
{
    serve::FrameDecoder decoder;
    const char hostile[4] = {'\xff', '\xff', '\xff', '\xff'};
    decoder.feed(hostile, sizeof hostile);
    std::string frame;
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_TRUE(decoder.corrupt());
}

TEST(ServeProtocol, RequestJsonRoundTripsEveryField)
{
    serve::ServeRequest request = tinyRequest(42, "SS");
    request.attempt = 2;
    request.maxLen = 512;
    const auto json = parseJson(serve::toJson(request));
    ASSERT_TRUE(json.has_value());
    const auto back = serve::requestFromJson(*json);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->id, 42u);
    EXPECT_EQ(back->attempt, 2u);
    EXPECT_EQ(back->workload, "SS");
    EXPECT_EQ(back->variant, "qzc");
    EXPECT_EQ(back->maxLen, 512u);
    EXPECT_EQ(back->ssThreshold, 5);
    EXPECT_FALSE(back->protein);
    ASSERT_EQ(back->pairs.size(), request.pairs.size());
    for (std::size_t i = 0; i < request.pairs.size(); ++i) {
        EXPECT_EQ(back->pairs[i].pattern, request.pairs[i].pattern);
        EXPECT_EQ(back->pairs[i].text, request.pairs[i].text);
    }
}

TEST(ServeProtocol, RequestJsonRejectsIncompleteDocuments)
{
    // Missing workload.
    auto json = parseJson("{\"dataset\":\"100bp_1\"}");
    ASSERT_TRUE(json.has_value());
    EXPECT_FALSE(serve::requestFromJson(*json).has_value());
    // A workload but neither dataset nor pairs.
    json = parseJson("{\"workload\":\"WFA\"}");
    ASSERT_TRUE(json.has_value());
    EXPECT_FALSE(serve::requestFromJson(*json).has_value());
}

TEST(ServeProtocol, ResponseJsonRoundTripsOkAndError)
{
    serve::ServeResponse ok;
    ok.id = 3;
    ok.status = serve::ResponseStatus::Ok;
    ok.attempts = 2;
    ok.result = serve::runRequestInProcess(tinyRequest(3));
    const auto okJson = parseJson(serve::toJson(ok));
    ASSERT_TRUE(okJson.has_value());
    const auto okBack = serve::responseFromJson(*okJson);
    ASSERT_TRUE(okBack.has_value());
    EXPECT_EQ(okBack->id, 3u);
    EXPECT_EQ(okBack->attempts, 2u);
    ASSERT_TRUE(okBack->result.has_value());
    EXPECT_EQ(algos::toJson(*okBack->result),
              algos::toJson(*ok.result));

    serve::ServeResponse error;
    error.id = 4;
    error.status = serve::ResponseStatus::Error;
    error.kind = algos::FailureKind::Panic;
    error.message = "worker died";
    const auto errJson = parseJson(serve::toJson(error));
    ASSERT_TRUE(errJson.has_value());
    const auto errBack = serve::responseFromJson(*errJson);
    ASSERT_TRUE(errBack.has_value());
    EXPECT_EQ(errBack->status, serve::ResponseStatus::Error);
    EXPECT_EQ(errBack->kind, algos::FailureKind::Panic);
    EXPECT_EQ(errBack->message, "worker died");

    // An Ok without its result is a protocol violation.
    const auto bare = parseJson("{\"id\":1,\"status\":\"ok\"}");
    ASSERT_TRUE(bare.has_value());
    EXPECT_FALSE(serve::responseFromJson(*bare).has_value());
}

TEST(ServeProtocol, StatusAndStateNamesRoundTrip)
{
    using serve::ResponseStatus;
    for (const auto status :
         {ResponseStatus::Ok, ResponseStatus::Error,
          ResponseStatus::Overloaded, ResponseStatus::Shutdown}) {
        const auto name = serve::responseStatusName(status);
        const auto back = serve::responseStatusFromName(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, status);
    }
    EXPECT_FALSE(serve::responseStatusFromName("bogus").has_value());

    using serve::WorkerState;
    EXPECT_EQ(serve::workerStateName(WorkerState::Idle), "idle");
    EXPECT_EQ(serve::workerStateName(WorkerState::Working),
              "working");
    EXPECT_EQ(serve::workerStateName(WorkerState::Draining),
              "draining");
    EXPECT_EQ(serve::workerStateName(WorkerState::Dead), "dead");
}

TEST(ServePool, ServedResultsAreByteIdenticalToDirectRuns)
{
    std::vector<serve::ServeRequest> requests = {
        tinyRequest(0, "WFA", "qzc"), tinyRequest(1, "WFA", "base"),
        tinyRequest(2, "SS"), tinyRequest(3, "NW")};

    serve::ServeConfig config;
    config.workers = 2;
    const ServeRun run = serveAllCollect(config, requests);

    ASSERT_EQ(run.responses.size(), requests.size());
    EXPECT_EQ(run.stats.served, requests.size());
    EXPECT_EQ(run.stats.respawns, 0u);
    for (const auto &request : requests) {
        const auto *response = run.byId(request.id);
        ASSERT_NE(response, nullptr) << "request " << request.id;
        ASSERT_EQ(response->status, serve::ResponseStatus::Ok)
            << response->message;
        EXPECT_EQ(response->attempts, 1u);
        ASSERT_TRUE(response->result.has_value());

        // The worker-process result must match both reference
        // execution paths bit for bit: the shared in-process helper
        // and a plain BatchRunner cell built from the same identity.
        const std::string served = algos::toJson(*response->result);
        EXPECT_EQ(served, algos::toJson(
                              serve::runRequestInProcess(request)));
        algos::BatchRunner runner(1);
        runner.setFaultInjection(std::nullopt);
        runner.setShard(std::nullopt);
        runner.add(algos::workloadByName(request.workload),
                   std::make_shared<genomics::PairDataset>(
                       serve::datasetFor(request)),
                   serve::optionsFor(request));
        const auto outcome = runner.run();
        ASSERT_TRUE(outcome.ok());
        EXPECT_EQ(served, algos::toJson(outcome.results.front()));
    }
}

TEST(ServePool, CrashedWorkerRespawnsWithoutQueueLoss)
{
    std::vector<serve::ServeRequest> requests = {
        tinyRequest(0), tinyRequest(1), tinyRequest(2),
        tinyRequest(3)};

    serve::ServeConfig config;
    config.workers = 2;
    algos::FaultInjection inject;
    inject.cell = 1; // request id, not batch index, under qz-serve
    inject.kind = algos::FailureKind::Panic;
    inject.action = algos::FaultAction::Crash;
    inject.times = 1;
    config.inject = inject;

    const ServeRun run = serveAllCollect(config, requests);

    // Zero dropped, zero duplicated: one Ok per request id.
    ASSERT_EQ(run.responses.size(), requests.size());
    for (const auto &request : requests) {
        const auto *response = run.byId(request.id);
        ASSERT_NE(response, nullptr);
        ASSERT_EQ(response->status, serve::ResponseStatus::Ok)
            << response->message;
        EXPECT_EQ(response->attempts, request.id == 1 ? 2u : 1u);
        ASSERT_TRUE(response->result.has_value());
        EXPECT_EQ(algos::toJson(*response->result),
                  algos::toJson(
                      serve::runRequestInProcess(request)));
    }
    EXPECT_EQ(run.stats.redispatches, 1u);
    EXPECT_GE(run.stats.respawns, 1u);
    EXPECT_EQ(run.stats.errors, 0u);
}

TEST(ServePool, RepeatedCrashIsTerminalPanic)
{
    std::vector<serve::ServeRequest> requests = {tinyRequest(0),
                                                 tinyRequest(1)};

    serve::ServeConfig config;
    config.workers = 1;
    config.maxDispatchAttempts = 2;
    algos::FaultInjection inject;
    inject.cell = 1;
    inject.kind = algos::FailureKind::Panic;
    inject.action = algos::FaultAction::Crash;
    inject.times = 2; // outlives the retry budget
    config.inject = inject;

    const ServeRun run = serveAllCollect(config, requests);

    ASSERT_EQ(run.responses.size(), 2u);
    const auto *healthy = run.byId(0);
    ASSERT_NE(healthy, nullptr);
    EXPECT_EQ(healthy->status, serve::ResponseStatus::Ok);
    const auto *doomed = run.byId(1);
    ASSERT_NE(doomed, nullptr);
    EXPECT_EQ(doomed->status, serve::ResponseStatus::Error);
    EXPECT_EQ(doomed->kind, algos::FailureKind::Panic);
    EXPECT_EQ(doomed->attempts, 2u);
    EXPECT_EQ(run.stats.errors, 1u);
    EXPECT_EQ(run.stats.redispatches, 1u);
}

TEST(ServePool, DeadlineKillRecoversAHungWorker)
{
    std::vector<serve::ServeRequest> requests = {tinyRequest(0),
                                                 tinyRequest(1)};

    serve::ServeConfig config;
    config.workers = 1;
    config.deadlineMs = 300;
    algos::FaultInjection inject;
    inject.cell = 0;
    inject.kind = algos::FailureKind::Resource;
    inject.action = algos::FaultAction::Hang;
    inject.times = 1; // only the first delivery hangs
    config.inject = inject;

    const ServeRun run = serveAllCollect(config, requests);

    ASSERT_EQ(run.responses.size(), 2u);
    for (const auto &request : requests) {
        const auto *response = run.byId(request.id);
        ASSERT_NE(response, nullptr);
        ASSERT_EQ(response->status, serve::ResponseStatus::Ok)
            << response->message;
        EXPECT_EQ(response->attempts, request.id == 0 ? 2u : 1u);
    }
    EXPECT_EQ(run.stats.deadlineKills, 1u);
    EXPECT_EQ(run.stats.redispatches, 1u);
    EXPECT_GE(run.stats.respawns, 1u);
}

TEST(ServePool, HangExhaustionReportsResource)
{
    std::vector<serve::ServeRequest> requests = {tinyRequest(0)};

    serve::ServeConfig config;
    config.workers = 1;
    config.deadlineMs = 300;
    config.maxDispatchAttempts = 2;
    algos::FaultInjection inject;
    inject.cell = 0;
    inject.kind = algos::FailureKind::Resource;
    inject.action = algos::FaultAction::Hang;
    inject.times = 2; // hang every delivery the budget allows
    config.inject = inject;

    const ServeRun run = serveAllCollect(config, requests);

    ASSERT_EQ(run.responses.size(), 1u);
    EXPECT_EQ(run.responses.front().status,
              serve::ResponseStatus::Error);
    EXPECT_EQ(run.responses.front().kind,
              algos::FailureKind::Resource);
    EXPECT_EQ(run.responses.front().attempts, 2u);
    EXPECT_EQ(run.stats.deadlineKills, 2u);
}

TEST(ServePool, AdmissionControlShedsBeyondTheQueueBound)
{
    serve::ServeConfig config;
    config.workers = 1;
    config.queueBound = 2;

    std::vector<serve::ServeResponse> responses;
    serve::AlignService service(
        config, [&](const serve::ServeResponse &response) {
            responses.push_back(response);
        });

    // submit() only queues (dispatch happens in the event loop), so
    // the shed count is exact: 2 admitted, 3 rejected immediately.
    std::vector<bool> admitted;
    for (std::uint64_t id = 0; id < 5; ++id)
        admitted.push_back(service.submit(tinyRequest(id)));
    EXPECT_EQ(admitted,
              (std::vector<bool>{true, true, false, false, false}));
    EXPECT_EQ(responses.size(), 3u);
    for (const auto &response : responses) {
        EXPECT_EQ(response.status, serve::ResponseStatus::Overloaded);
        EXPECT_EQ(response.attempts, 0u);
    }

    service.drain();
    service.shutdown();
    EXPECT_EQ(service.stats().shed, 3u);
    EXPECT_EQ(service.stats().served, 2u);
    EXPECT_EQ(responses.size(), 5u);
}

TEST(ServePool, GracefulStopFinishesInFlightAndShedsTheQueue)
{
    serve::ServeConfig config;
    config.workers = 1;
    config.queueBound = 8;

    std::vector<serve::ServeResponse> responses;
    serve::AlignService *self = nullptr;
    serve::AlignService service(
        config, [&](const serve::ServeResponse &response) {
            responses.push_back(response);
            // First completion pulls the plug, like a signal would.
            if (response.status == serve::ResponseStatus::Ok)
                self->requestStop();
        });
    self = &service;

    for (std::uint64_t id = 0; id < 3; ++id)
        ASSERT_TRUE(service.submit(tinyRequest(id)));
    service.drain();

    // One request finished; the two still queued were shed with a
    // structured Shutdown response, not silently dropped.
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(service.stats().served, 1u);
    EXPECT_EQ(service.stats().shutdownShed, 2u);
    std::size_t shutdown = 0;
    for (const auto &response : responses)
        if (response.status == serve::ResponseStatus::Shutdown)
            ++shutdown;
    EXPECT_EQ(shutdown, 2u);

    // Late arrivals bounce straight off the draining service.
    EXPECT_FALSE(service.submit(tinyRequest(9)));
    EXPECT_EQ(responses.back().status,
              serve::ResponseStatus::Shutdown);
    service.shutdown();
}

/** Write @p pairs as a store at @p path, then wait until a verifying
 *  open may vouch for it (its timestamp tick has passed). */
void
writeSettledStore(const std::string &path,
                  const std::vector<genomics::SequencePair> &pairs)
{
    genomics::StoreWriter writer(path, genomics::StoreProvenance{});
    for (const auto &pair : pairs)
        writer.add(pair);
    writer.finish();
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    for (;;) {
        timespec now{};
        ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
        const auto newer = [&](const timespec &t) {
            return now.tv_sec != t.tv_sec ? now.tv_sec > t.tv_sec
                                          : now.tv_nsec > t.tv_nsec;
        };
        if (newer(st.st_mtim) && newer(st.st_ctim))
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

TEST(ServePool, LongLivedWorkerFollowsAStoreRewrittenInPlace)
{
    const std::string path = ::testing::TempDir() + "serve_store.qzs";
    std::vector<serve::ServeRequest> requests(2);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].id = i;
        requests[i].store = path;
        requests[i].storeFrom = 3 * i;
        requests[i].storeTo = 3 * i + 4;
    }
    requests[0].workload = "WFA";
    requests[1].workload = "SS+WFA";
    requests[1].ssThreshold = 5;

    std::vector<serve::ServeResponse> responses;
    serve::ServeConfig config;
    config.workers = 1;
    serve::AlignService service(
        config, [&](const serve::ServeResponse &response) {
            responses.push_back(response);
        });

    // Serve each store version twice, so the worker's second round
    // re-opens a version it has already verified.
    std::vector<std::string> firstVersion;
    for (const std::uint64_t seed : {11u, 12u}) {
        writeSettledStore(path, tinyPairs(60, 8, seed));
        std::vector<std::string> expected;
        for (const auto &request : requests)
            expected.push_back(algos::toJson(
                serve::runRequestInProcess(request)));
        for (int round = 0; round < 2; ++round) {
            responses.clear();
            for (const auto &request : requests)
                ASSERT_TRUE(service.submit(request));
            service.drain();
            ASSERT_EQ(responses.size(), requests.size());
            for (const auto &response : responses) {
                ASSERT_EQ(response.status, serve::ResponseStatus::Ok)
                    << response.message;
                EXPECT_EQ(algos::toJson(*response.result),
                          expected[response.id])
                    << "seed " << seed << " request " << response.id;
            }
        }
        if (firstVersion.empty())
            firstVersion = expected;
        else
            EXPECT_NE(expected, firstVersion);
    }
    EXPECT_EQ(service.stats().respawns, 0u);
    service.shutdown();
    std::remove(path.c_str());
}

TEST(ServePool, RoundTripCheckMatchesInProcessRun)
{
    std::ostringstream out;
    EXPECT_TRUE(serve::serveRoundTripCheck(tinyRequest(0), out));
    EXPECT_NE(out.str().find("byte-identical"), std::string::npos)
        << out.str();
}

} // namespace
} // namespace quetzal
