/**
 * @file
 * qz-serve: fault-isolated alignment service over a self-healing
 * worker-process pool (see docs/SERVICE.md).
 *
 *   qz-serve requests.jsonl                     # 2 workers
 *   qz-serve requests.jsonl --workers 4 --deadline 2000
 *   qz-serve requests.jsonl --out responses.jsonl --check
 *   qz-serve - < requests.jsonl                 # read stdin
 *
 * Each input line is one JSON request ({"workload":"WFA",
 * "dataset":"100bp_1","scale":0.05,...}; see docs/SERVICE.md for the
 * schema). Responses stream to stdout in completion order as the
 * pool produces them; --out additionally writes the full response
 * set sorted by request id, which is what CI diffs across
 * fault-injection runs. Worker crashes and hangs (including the
 * QZ_FAULT_INJECT crash/hang kinds) are recovered without dropping
 * or duplicating a single request.
 */
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include <unistd.h>

#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "cli_common.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/worker.hpp"

namespace {

using namespace quetzal;

/** Path of this binary, for fork/exec'ing workers. */
std::string
selfExecutable(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/** Parse one JSONL request line; fatal with line context on junk. */
serve::ServeRequest
parseRequestLine(const std::string &line, std::size_t lineNo,
                 std::uint64_t fallbackId)
{
    const auto json = parseJson(line);
    fatal_if(!json, "request line {} is not valid JSON", lineNo);
    auto request = serve::requestFromJson(*json);
    fatal_if(!request,
             "request line {} is missing required fields "
             "(want workload plus dataset or pairs)",
             lineNo);
    if (!json->find("id"))
        request->id = fallbackId;
    request->attempt = 1;
    return *request;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] {
        const cli::Args args(argc, argv);

        // Internal entry point: this process was fork/exec'd as a
        // pool worker and speaks frames on stdin/stdout. Re-point
        // fd 1 at stderr first so a stray print inside a workload
        // can never corrupt the frame stream.
        if (args.has("worker")) {
            const int requestFd = ::dup(STDIN_FILENO);
            const int responseFd = ::dup(STDOUT_FILENO);
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            return serve::workerMain(requestFd, responseFd,
                                     algos::faultInjectionFromEnv());
        }

        if (args.has("list")) {
            std::cout << algos::workloadListing();
            return 0;
        }
        if (args.has("help") || args.positional().empty()) {
            std::cout
                << "qz-serve REQUESTS.jsonl [options]   ('-' reads "
                   "stdin)\n"
                   "  --workers N    worker processes (default 2)\n"
                   "  --queue N      admission bound; requests beyond "
                   "it are shed\n"
                   "                 with status=overloaded under "
                   "--shed, queued\n"
                   "                 with backpressure otherwise "
                   "(default 64)\n"
                   "  --deadline MS  per-request wall clock; blown "
                   "deadlines kill\n"
                   "                 the worker (default 0 = none)\n"
                   "  --retries N    deliveries per request incl. the "
                   "first\n"
                   "                 (default 2)\n"
                   "  --shed         admission-control mode (see "
                   "--queue)\n"
                   "  --out FILE     also write responses sorted by "
                   "id\n"
                   "  --check        re-run ok responses in-process "
                   "and verify\n"
                   "                 byte-identical results\n"
                   "  --quiet        do not stream responses to "
                   "stdout\n"
                   "  --list         print the registered workloads "
                   "and exit\n"
                   "QZ_FAULT_INJECT=ID:KIND[:TIMES] injects faults "
                   "into workers\n"
                   "(kinds: crash|hang plus the exception taxonomy; "
                   "see docs/SERVICE.md)\n";
            return args.has("help") ? 0 : 2;
        }
        args.rejectUnknown({"worker", "list", "workers", "queue",
                            "deadline", "retries", "shed", "out", "check",
                            "quiet"},
                           1);

        // Intake: one JSON request per line. Requests without an
        // explicit id get their line index, so responses are always
        // attributable.
        std::vector<serve::ServeRequest> requests;
        const std::string &path = args.positional().front();
        std::istream *in = &std::cin;
        std::ifstream file;
        if (path != "-") {
            file.open(path);
            fatal_if(!file, "cannot open '{}'", path);
            in = &file;
        }
        std::string line;
        for (std::size_t lineNo = 1; std::getline(*in, line);
             ++lineNo) {
            if (line.empty())
                continue;
            requests.push_back(parseRequestLine(
                line, lineNo, requests.size()));
        }
        fatal_if(requests.empty(), "no requests in '{}'", path);

        serve::ServeConfig config;
        config.workers = static_cast<unsigned>(
            std::max(1L, args.getInt("workers", 2)));
        config.queueBound = static_cast<std::size_t>(
            std::max(1L, args.getInt("queue", 64)));
        config.deadlineMs = static_cast<unsigned>(
            std::max(0L, args.getInt("deadline", 0)));
        config.maxDispatchAttempts = static_cast<unsigned>(
            std::max(1L, args.getInt("retries", 2)));
        config.inject = algos::faultInjectionFromEnv();
        config.workerCommand = {selfExecutable(argv[0]), "--worker"};
        config.stopFlag = &cli::stopFlag();
        cli::installStopHandlers();

        const bool quiet = args.has("quiet");
        std::vector<serve::ServeResponse> responses;
        serve::AlignService service(
            config, [&](const serve::ServeResponse &response) {
                if (!quiet)
                    std::cout << serve::toJson(response) << "\n";
                responses.push_back(response);
            });

        if (args.has("shed")) {
            // Admission-control mode: what does not fit the queue is
            // shed with a structured Overloaded response.
            for (auto &request : requests)
                service.submit(std::move(request));
            service.drain();
        } else {
            service.serveAll(std::move(requests));
        }
        service.shutdown();

        std::sort(responses.begin(), responses.end(),
                  [](const serve::ServeResponse &a,
                     const serve::ServeResponse &b) {
                      return a.id < b.id;
                  });
        if (args.has("out")) {
            std::ofstream out(args.get("out"));
            fatal_if(!out, "cannot open '{}' for writing",
                     args.get("out"));
            for (const auto &response : responses)
                out << serve::toJson(response) << "\n";
        }

        // --check: every served result must be byte-identical to an
        // in-process run of the same request (cells are pure
        // functions of their identity; docs/SERVICE.md).
        std::size_t mismatches = 0;
        if (args.has("check")) {
            std::map<std::uint64_t, const serve::ServeResponse *>
                byId;
            for (const auto &response : responses)
                byId[response.id] = &response;
            // requests was moved out in serveAll mode; re-read it.
            std::ifstream again(path == "-" ? "/dev/null" : path);
            std::string checkLine;
            std::size_t index = 0;
            for (std::size_t lineNo = 1;
                 std::getline(again, checkLine); ++lineNo) {
                if (checkLine.empty())
                    continue;
                const auto request = parseRequestLine(
                    checkLine, lineNo, index++);
                const auto it = byId.find(request.id);
                if (it == byId.end() || !it->second->result)
                    continue; // shed or failed: nothing to compare
                const std::string served =
                    algos::toJson(*it->second->result);
                const std::string direct = algos::toJson(
                    serve::runRequestInProcess(request));
                if (served != direct) {
                    ++mismatches;
                    std::cerr << "check: request " << request.id
                              << " served result differs from the "
                                 "in-process run\n";
                }
            }
            if (mismatches == 0)
                std::cerr << "check: all served results "
                             "byte-identical to in-process runs\n";
        }

        const serve::ServeStats &stats = service.stats();
        std::cerr << "qz-serve: " << stats.served << " ok, "
                  << stats.errors << " error, " << stats.shed
                  << " overloaded, " << stats.shutdownShed
                  << " shutdown | " << stats.respawns << " respawn(s), "
                  << stats.deadlineKills << " deadline kill(s), "
                  << stats.redispatches << " redispatch(es)\n";

        if (mismatches > 0)
            return 1;
        if (cli::stopRequested())
            return 130;
        return stats.errors > 0 ? 1 : 0;
    });
}
