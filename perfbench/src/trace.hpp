/**
 * @file
 * In-memory span recorder for the traced run. Spans are
 * recorded only around the benchmark's own calls into the program's
 * layers (a cell run, a stream pass, a served request, a probe), kept
 * in memory and written out as JSON lines when the run ends. With
 * tracing off a span costs one predictable branch and no clock read.
 */
#ifndef QZBENCH_TRACE_HPP
#define QZBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace qzbench {

/** Monotonic nanoseconds (steady clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Tracer
{
  public:
    struct Record
    {
        std::string name;   //!< layer boundary, e.g. "algos.cell"
        std::string detail; //!< e.g. "WFA/BASE/100bp_1"
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;       //!< index of the enclosing span
        std::uint64_t rid = 0; //!< request id (serve spans)

        double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
    };

    /** RAII span; inert when the tracer is off. */
    class Span
    {
      public:
        Span(Tracer *tracer, std::string_view name,
             std::string_view detail, std::uint64_t rid)
            : tracer_(tracer && tracer->enabled_ ? tracer : nullptr)
        {
            if (tracer_)
                index_ = tracer_->open(name, detail, rid);
        }
        ~Span()
        {
            if (tracer_)
                tracer_->close(index_);
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        int index_ = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    Span
    span(std::string_view name, std::string_view detail = {},
         std::uint64_t rid = 0)
    {
        return Span(this, name, detail, rid);
    }

    /** Record a finished interval measured elsewhere (closed loop). */
    void
    interval(std::string_view name, std::string_view detail,
             std::int64_t startNs, std::int64_t endNs,
             std::uint64_t rid)
    {
        if (!enabled_)
            return;
        records_.push_back(Record{std::string(name), std::string(detail),
                                  startNs, endNs,
                                  stack_.empty() ? -1 : stack_.back(),
                                  rid});
    }

    const std::vector<Record> &records() const { return records_; }

    /** Durations (ms) of every span named @p name. */
    std::vector<double>
    durations(std::string_view name) const
    {
        std::vector<double> out;
        for (const Record &r : records_)
            if (r.name == name)
                out.push_back(r.ms());
        return out;
    }

    /** Write the spans as JSON lines to @p path. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const Record &r : records_)
            out << "{\"span\":\"" << r.name << "\",\"detail\":\""
                << r.detail << "\",\"start_ns\":" << r.startNs
                << ",\"end_ns\":" << r.endNs << ",\"parent\":" << r.parent
                << ",\"rid\":" << r.rid << "}\n";
        return static_cast<bool>(out);
    }

  private:
    int
    open(std::string_view name, std::string_view detail, std::uint64_t rid)
    {
        const int index = static_cast<int>(records_.size());
        records_.push_back(Record{std::string(name), std::string(detail), 0,
                                  0, stack_.empty() ? -1 : stack_.back(),
                                  rid});
        stack_.push_back(index);
        records_.back().startNs = nowNs();
        return index;
    }

    void
    close(int index)
    {
        records_[static_cast<std::size_t>(index)].endNs = nowNs();
        stack_.pop_back();
    }

    bool enabled_;
    std::vector<Record> records_;
    std::vector<int> stack_;
};

} // namespace qzbench

#endif // QZBENCH_TRACE_HPP
