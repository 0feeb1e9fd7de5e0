/**
 * @file
 * Tiny argv helper shared by the command-line tools.
 */
#ifndef QUETZAL_TOOLS_CLI_COMMON_HPP
#define QUETZAL_TOOLS_CLI_COMMON_HPP

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <signal.h>

#include "algos/variant.hpp"
#include "common/logging.hpp"

namespace quetzal::cli {

/**
 * Process-wide stop flag set by SIGINT/SIGTERM once
 * installStopHandlers() ran. Long-running loops poll it (directly or
 * via stopRequested()) so an interrupted run can flush checkpoints
 * and emit a partial report instead of dying with work unrecorded.
 */
inline std::atomic<int> &
stopFlag()
{
    static std::atomic<int> flag{0};
    return flag;
}

inline void
onStopSignal(int)
{
    stopFlag().store(1, std::memory_order_relaxed);
}

/**
 * Install SIGINT/SIGTERM handlers that set stopFlag(). Deliberately
 * no SA_RESTART: a blocked poll()/read() wakes with EINTR, so event
 * loops notice the stop promptly instead of after the next event.
 */
inline void
installStopHandlers()
{
    struct sigaction action = {};
    action.sa_handler = onStopSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

/** True once a stop signal landed. */
inline bool
stopRequested()
{
    return stopFlag().load(std::memory_order_relaxed) != 0;
}

/**
 * True when @p arg is a numeric literal such as "-5", "-0.3", or
 * "+1e6" — i.e. a leading sign does NOT make it an option name.
 */
inline bool
looksLikeNumber(const std::string &arg)
{
    if (arg.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    std::strtod(arg.c_str(), &end);
    return end == arg.c_str() + arg.size() && errno == 0;
}

/** rejectUnknown() bound for tools that take any number of files. */
inline constexpr std::size_t kAnyPositionals =
    std::numeric_limits<std::size_t>::max();

/** Parsed "--key value" options plus positional arguments. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                const std::string key = arg.substr(2);
                // The next argv is this option's value unless it is
                // itself an option. A leading '-' only disqualifies it
                // when it isn't a number: "--ssthreshold -5" must bind
                // -5 as the value, not turn the option into a flag
                // with a stray "-5" positional.
                if (i + 1 < argc &&
                    (argv[i + 1][0] != '-' ||
                     looksLikeNumber(argv[i + 1]))) {
                    options_.insert_or_assign(key,
                                              std::string(argv[++i]));
                } else {
                    options_.insert_or_assign(key,
                                              std::string("1")); // flag
                }
            } else {
                positional_.push_back(std::move(arg));
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = options_.find(key);
        return it == options_.end() ? fallback : it->second;
    }

    /**
     * Integer option value. Malformed input is a fatal diagnostic —
     * the old atol() path silently turned garbage into 0.
     */
    long
    getInt(const std::string &key, long fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        errno = 0;
        char *end = nullptr;
        const long value = std::strtol(it->second.c_str(), &end, 10);
        fatal_if(it->second.empty() ||
                     end != it->second.c_str() + it->second.size(),
                 "option --{} expects an integer, got '{}'", key,
                 it->second);
        fatal_if(errno == ERANGE,
                 "option --{} value '{}' is out of range", key,
                 it->second);
        return value;
    }

    /** Floating-point option value; malformed input is fatal. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        errno = 0;
        char *end = nullptr;
        const double value = std::strtod(it->second.c_str(), &end);
        fatal_if(it->second.empty() ||
                     end != it->second.c_str() + it->second.size(),
                 "option --{} expects a number, got '{}'", key,
                 it->second);
        fatal_if(errno == ERANGE,
                 "option --{} value '{}' is out of range", key,
                 it->second);
        return value;
    }

    bool has(const std::string &key) const
    {
        return options_.contains(key);
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * Fatal diagnostic for the first option not in @p known, or the
     * first positional argument beyond the @p maxPositional a tool
     * takes (a PAIRFILE is 1; kAnyPositionals for a file list).
     */
    void
    rejectUnknown(std::initializer_list<std::string_view> known,
                  std::size_t maxPositional = 0) const
    {
        for (const auto &[key, value] : options_)
            fatal_if(std::find(known.begin(), known.end(), key) ==
                         known.end(),
                     "unknown option --{} (see --help)", key);
        if (positional_.size() > maxPositional)
            fatal("unexpected argument '{}' (see --help)",
                  positional_[maxPositional]);
    }

  private:
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

/** Parse a variant name ("base", "vec", "qz", "qzc"). */
inline algos::Variant
parseVariant(const std::string &name)
{
    if (name == "base")
        return algos::Variant::Base;
    if (name == "vec")
        return algos::Variant::Vec;
    if (name == "qz")
        return algos::Variant::Qz;
    if (name == "qzc" || name == "quetzal")
        return algos::Variant::QzC;
    fatal("unknown variant '{}' (expected base|vec|qz|qzc)", name);
}

} // namespace quetzal::cli

#endif // QUETZAL_TOOLS_CLI_COMMON_HPP
