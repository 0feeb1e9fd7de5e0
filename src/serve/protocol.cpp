#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "common/logging.hpp"
#include "genomics/pairsource.hpp"

namespace quetzal::serve {

namespace {

/** write(2) all of @p count bytes, riding out EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t count)
{
    while (count > 0) {
        const ssize_t wrote = ::write(fd, data, count);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += wrote;
        count -= static_cast<std::size_t>(wrote);
    }
    return true;
}

/**
 * read(2) exactly @p count bytes. Returns Frame when filled, Eof when
 * the stream ended before the first byte (only honored when
 * @p eofIsClean), Error otherwise.
 */
FrameRead
readAll(int fd, char *data, std::size_t count, bool eofIsClean)
{
    std::size_t got = 0;
    while (got < count) {
        const ssize_t n = ::read(fd, data + got, count - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return FrameRead::Error;
        }
        if (n == 0)
            return got == 0 && eofIsClean ? FrameRead::Eof
                                          : FrameRead::Error;
        got += static_cast<std::size_t>(n);
    }
    return FrameRead::Frame;
}

void
encodeLength(std::uint32_t length, char out[4])
{
    out[0] = static_cast<char>(length & 0xff);
    out[1] = static_cast<char>((length >> 8) & 0xff);
    out[2] = static_cast<char>((length >> 16) & 0xff);
    out[3] = static_cast<char>((length >> 24) & 0xff);
}

std::uint32_t
decodeLength(const char in[4])
{
    const auto b = [&](int i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(in[i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

} // namespace

bool
writeFrame(int fd, std::string_view payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    char header[4];
    encodeLength(static_cast<std::uint32_t>(payload.size()), header);
    return writeAll(fd, header, sizeof header) &&
           writeAll(fd, payload.data(), payload.size());
}

FrameRead
readFrame(int fd, std::string &payload)
{
    char header[4];
    const FrameRead head =
        readAll(fd, header, sizeof header, /*eofIsClean=*/true);
    if (head != FrameRead::Frame)
        return head;
    const std::uint32_t length = decodeLength(header);
    if (length > kMaxFrameBytes)
        return FrameRead::Error;
    payload.resize(length);
    return readAll(fd, payload.data(), length, /*eofIsClean=*/false);
}

void
FrameDecoder::feed(const char *data, std::size_t count)
{
    buffer_.append(data, count);
}

bool
FrameDecoder::next(std::string &payload)
{
    if (corrupt_ || buffer_.size() < 4)
        return false;
    const std::uint32_t length = decodeLength(buffer_.data());
    if (length > kMaxFrameBytes) {
        corrupt_ = true;
        return false;
    }
    if (buffer_.size() < 4 + static_cast<std::size_t>(length))
        return false;
    payload.assign(buffer_, 4, length);
    buffer_.erase(0, 4 + static_cast<std::size_t>(length));
    return true;
}

std::string
toJson(const ServeRequest &request)
{
    JsonWriter json;
    json.beginObject()
        .field("id", std::uint64_t{request.id})
        .field("attempt", std::uint64_t{request.attempt})
        .field("workload", request.workload)
        .field("variant", request.variant);
    if (!request.dataset.empty())
        json.field("dataset", request.dataset)
            .field("scale", request.scale);
    if (request.maxLen > 0)
        json.field("maxlen", std::uint64_t{request.maxLen});
    if (request.ssThreshold != 0)
        json.field("ss_threshold",
                   std::int64_t{request.ssThreshold});
    if (request.protein)
        json.field("protein", true);
    if (!request.store.empty()) {
        json.field("store", request.store);
        if (request.storeFrom != 0)
            json.field("store_from",
                       std::uint64_t{request.storeFrom});
        if (request.storeTo != genomics::kStoreEnd)
            json.field("store_to", std::uint64_t{request.storeTo});
    }
    if (!request.pairs.empty()) {
        json.beginArray("pairs");
        for (const auto &pair : request.pairs) {
            json.beginObject()
                .field("pattern", pair.pattern)
                .field("text", pair.text);
            if (pair.trueEdits >= 0)
                json.field("edits", std::int64_t{pair.trueEdits});
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    return json.str();
}

std::optional<ServeRequest>
requestFromJson(const JsonValue &json)
{
    if (!json.isObject())
        return std::nullopt;
    ServeRequest request;
    request.id = json.getUint("id");
    request.attempt =
        static_cast<unsigned>(json.getUint("attempt", 1));
    request.workload = json.getString("workload");
    if (request.workload.empty())
        return std::nullopt;
    request.variant = json.getString("variant", "qzc");
    request.dataset = json.getString("dataset");
    const JsonValue *scale = json.find("scale");
    if (scale && scale->isNumber())
        request.scale = scale->asDouble();
    request.maxLen = json.getUint("maxlen", 0);
    request.ssThreshold = json.getInt("ss_threshold", 0);
    request.protein = json.getBool("protein", false);
    request.store = json.getString("store");
    request.storeFrom = static_cast<std::size_t>(
        json.getUint("store_from", 0));
    request.storeTo = static_cast<std::size_t>(json.getUint(
        "store_to", std::uint64_t{genomics::kStoreEnd}));
    if (request.storeTo < request.storeFrom)
        return std::nullopt;
    if (const JsonValue *pairs = json.find("pairs")) {
        if (!pairs->isArray())
            return std::nullopt;
        for (const JsonValue &item : pairs->items()) {
            if (!item.isObject())
                return std::nullopt;
            genomics::SequencePair pair;
            pair.pattern = item.getString("pattern");
            pair.text = item.getString("text");
            pair.trueEdits = item.getInt("edits", -1);
            pair.alphabet = request.protein
                                ? genomics::AlphabetKind::Protein
                                : genomics::AlphabetKind::Dna;
            if (pair.pattern.empty() || pair.text.empty())
                return std::nullopt;
            request.pairs.push_back(std::move(pair));
        }
    }
    if (request.dataset.empty() && request.pairs.empty() &&
        request.store.empty())
        return std::nullopt;
    return request;
}

std::string_view
responseStatusName(ResponseStatus status)
{
    switch (status) {
      case ResponseStatus::Ok:
        return "ok";
      case ResponseStatus::Error:
        return "error";
      case ResponseStatus::Overloaded:
        return "overloaded";
      case ResponseStatus::Shutdown:
        return "shutdown";
    }
    return "?";
}

std::optional<ResponseStatus>
responseStatusFromName(std::string_view name)
{
    for (ResponseStatus status :
         {ResponseStatus::Ok, ResponseStatus::Error,
          ResponseStatus::Overloaded, ResponseStatus::Shutdown})
        if (name == responseStatusName(status))
            return status;
    return std::nullopt;
}

std::string
toJson(const ServeResponse &response)
{
    JsonWriter json;
    json.beginObject()
        .field("id", std::uint64_t{response.id})
        .field("status", responseStatusName(response.status))
        .field("attempts", std::uint64_t{response.attempts});
    if (response.result)
        json.rawField("result", algos::toJson(*response.result));
    if (response.status == ResponseStatus::Error)
        json.field("kind", algos::failureKindName(response.kind));
    if (!response.message.empty())
        json.field("message", response.message);
    json.endObject();
    return json.str();
}

std::optional<ServeResponse>
responseFromJson(const JsonValue &json)
{
    if (!json.isObject())
        return std::nullopt;
    ServeResponse response;
    response.id = json.getUint("id");
    const auto status =
        responseStatusFromName(json.getString("status"));
    if (!status)
        return std::nullopt;
    response.status = *status;
    response.attempts =
        static_cast<unsigned>(json.getUint("attempts", 1));
    if (const JsonValue *result = json.find("result")) {
        auto parsed = algos::runResultFromJson(*result);
        if (!parsed)
            return std::nullopt;
        response.result = std::move(*parsed);
    }
    if (response.status == ResponseStatus::Ok && !response.result)
        return std::nullopt;
    const auto kind =
        algos::failureKindFromName(json.getString("kind", "unknown"));
    response.kind = kind.value_or(algos::FailureKind::Unknown);
    response.message = json.getString("message");
    return response;
}

namespace {

/**
 * Streaming source over the store range a request addresses. Each
 * request maps the store afresh; the content checksum runs once per
 * file version per worker process (ReadStore::open).
 */
genomics::StorePairSource
storeSourceFor(const ServeRequest &request)
{
    auto store = genomics::ReadStore::open(request.store);
    fatal_if(request.storeFrom > store->size(),
             "request {}: store range starts at {} but '{}' holds "
             "only {} pair(s)",
             request.id, request.storeFrom, request.store,
             store->size());
    return genomics::StorePairSource(std::move(store),
                                     request.storeFrom,
                                     request.storeTo);
}

} // namespace

genomics::PairDataset
datasetFor(const ServeRequest &request)
{
    if (!request.pairs.empty()) {
        genomics::PairDataset dataset;
        dataset.name =
            request.dataset.empty() ? "inline" : request.dataset;
        dataset.pairs = request.pairs;
        dataset.readLength = request.pairs.front().pattern.size();
        dataset.errorRate = 0.0;
        return dataset;
    }
    if (!request.store.empty())
        return storeSourceFor(request).materialize();
    fatal_if(request.dataset.empty(),
             "request {} names no dataset and carries no pairs or "
             "store range",
             request.id);
    const algos::Workload &workload =
        algos::workloadByName(request.workload);
    return workload.makeDataset(request.dataset, request.scale);
}

algos::RunOptions
optionsFor(const ServeRequest &request)
{
    algos::RunOptions options;
    options.variant = [&] {
        const std::string &name = request.variant;
        if (name == "base")
            return algos::Variant::Base;
        if (name == "vec")
            return algos::Variant::Vec;
        if (name == "qz")
            return algos::Variant::Qz;
        if (name == "qzc" || name == "quetzal")
            return algos::Variant::QzC;
        fatal("request {}: unknown variant '{}' "
              "(expected base|vec|qz|qzc)",
              request.id, name);
    }();
    // options.system stays at its baseline default: workload.cpp's
    // systemFor() upgrades to withQuetzal() for qz/qzc variants, and
    // keeping the request's RunOptions identical to a directly-built
    // BatchCell's is what makes served results byte-comparable.
    if (request.maxLen > 0)
        options.maxLen = static_cast<std::size_t>(request.maxLen);
    options.ssThreshold = request.ssThreshold;
    options.alphabet = request.protein
                           ? genomics::AlphabetKind::Protein
                           : genomics::AlphabetKind::Dna;
    return options;
}

algos::RunResult
runRequestInProcess(const ServeRequest &request)
{
    const algos::Workload &workload =
        algos::workloadByName(request.workload);
    if (!request.store.empty() && request.pairs.empty()) {
        // Stream the store range directly: bounded memory, and the
        // per-process store cache gives respawned-worker retries a
        // warm open. Byte-identical to the materializing path — the
        // dataset run() is itself a DatasetPairSource stream.
        genomics::StorePairSource source = storeSourceFor(request);
        return workload.runStream(source, optionsFor(request));
    }
    const genomics::PairDataset dataset = datasetFor(request);
    return workload.run(dataset, optionsFor(request));
}

} // namespace quetzal::serve
