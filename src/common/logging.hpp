/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (a bug in this library), fatal() for user-caused conditions the program
 * cannot continue from (bad configuration, invalid arguments), and
 * warn()/inform() for non-fatal status messages.
 */
#ifndef QUETZAL_COMMON_LOGGING_HPP
#define QUETZAL_COMMON_LOGGING_HPP

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/format.hpp"

namespace quetzal {

/** Exception thrown by fatal(): user error, recoverable by the caller. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown by panic(): internal invariant violation. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/**
 * A condition that is expected to clear on retry (I/O contention,
 * injected flakiness). The batch engine retries cells that raise it;
 * everything else is terminal on the first attempt.
 */
class TransientError : public std::runtime_error
{
  public:
    explicit TransientError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/**
 * A per-cell resource budget was exhausted even after graceful
 * degradation (see docs/ROBUSTNESS.md). Terminal like FatalError but
 * distinguishable in failure records.
 */
class ResourceError : public FatalError
{
  public:
    explicit ResourceError(const std::string &msg) : FatalError(msg) {}
};

/**
 * Report an internal invariant violation (a library bug) and throw.
 *
 * @param fmt "{}"-style format string followed by its arguments.
 */
template <typename... Args>
[[noreturn]] void
panic(std::string_view fmt, Args &&...args)
{
    std::string msg =
        "panic: " + qformat(fmt, std::forward<Args>(args)...);
    std::fputs((msg + "\n").c_str(), stderr);
    throw PanicError(msg);
}

/**
 * Report a user-caused unrecoverable condition (bad input or
 * configuration) and throw.
 */
template <typename... Args>
[[noreturn]] void
fatal(std::string_view fmt, Args &&...args)
{
    std::string msg =
        "fatal: " + qformat(fmt, std::forward<Args>(args)...);
    std::fputs((msg + "\n").c_str(), stderr);
    throw FatalError(msg);
}

/** Print a warning about suspicious but survivable behaviour. */
template <typename... Args>
void
warn(std::string_view fmt, Args &&...args)
{
    std::string msg =
        "warn: " + qformat(fmt, std::forward<Args>(args)...);
    std::fputs((msg + "\n").c_str(), stderr);
}

/** Print an informational status message. */
template <typename... Args>
void
inform(std::string_view fmt, Args &&...args)
{
    std::string msg =
        "info: " + qformat(fmt, std::forward<Args>(args)...);
    std::fputs((msg + "\n").c_str(), stdout);
}

/**
 * Assert a library invariant; on failure panics with the given message.
 * Unlike assert(), this is always enabled.
 */
template <typename... Args>
void
panic_if_not(bool cond, std::string_view fmt, Args &&...args)
{
    if (!cond)
        panic(fmt, std::forward<Args>(args)...);
}

/** Like fatal(), but only when the condition is true. */
template <typename... Args>
void
fatal_if(bool cond, std::string_view fmt, Args &&...args)
{
    if (cond)
        fatal(fmt, std::forward<Args>(args)...);
}

/**
 * Run @p body as a process's main(): its result is the exit code, a
 * fatal() exits 1 and a panic() exits 2. Both have already printed
 * their one diagnostic line, so nothing more is printed. Any other
 * exception prints its message as one "error:" line and exits 1.
 */
template <typename Body>
int
guardedMain(Body &&body)
{
    try {
        return body();
    } catch (const FatalError &) {
        return 1;
    } catch (const PanicError &) {
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace quetzal

#endif // QUETZAL_COMMON_LOGGING_HPP
