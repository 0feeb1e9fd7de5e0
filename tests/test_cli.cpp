/**
 * @file
 * Regression tests for the command-line option parser: negative
 * numeric values must bind as option values (not become flags), and
 * malformed numeric input must be a fatal diagnostic instead of
 * silently parsing as 0. The bench binaries' QZ_BENCH_* knobs follow
 * the same rule.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "../tools/cli_common.hpp"

namespace quetzal::cli {
namespace {

/** Build an Args from a brace list, faking argv[0]. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : storage_(std::move(args))
    {
        ptrs_.push_back(const_cast<char *>("test"));
        for (auto &arg : storage_)
            ptrs_.push_back(arg.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> ptrs_;
};

Args
parse(std::vector<std::string> args)
{
    Argv argv(std::move(args));
    return Args(argv.argc(), argv.argv());
}

TEST(Cli, LooksLikeNumberClassifiesLiterals)
{
    EXPECT_TRUE(looksLikeNumber("-5"));
    EXPECT_TRUE(looksLikeNumber("-0.3"));
    EXPECT_TRUE(looksLikeNumber("+1e6"));
    EXPECT_TRUE(looksLikeNumber("42"));
    EXPECT_FALSE(looksLikeNumber("--verbose"));
    EXPECT_FALSE(looksLikeNumber("-lag"));
    EXPECT_FALSE(looksLikeNumber(""));
    EXPECT_FALSE(looksLikeNumber("5x"));
}

TEST(Cli, NegativeIntegerBindsAsOptionValue)
{
    // Regression: "--ssthreshold -5" used to turn into a boolean flag
    // plus a stray "-5" positional.
    const Args args = parse({"pairs.txt", "--ssthreshold", "-5"});
    EXPECT_EQ(args.getInt("ssthreshold", 0), -5);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional().front(), "pairs.txt");
}

TEST(Cli, NegativeDoubleBindsAsOptionValue)
{
    const Args args = parse({"--bias", "-0.25"});
    EXPECT_DOUBLE_EQ(args.getDouble("bias", 0.0), -0.25);
    EXPECT_TRUE(args.positional().empty());
}

TEST(Cli, OptionFollowedByOptionStaysAFlag)
{
    const Args args = parse({"--verbose", "--threads", "4"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.get("verbose"), "1");
    EXPECT_EQ(args.getInt("threads", 1), 4);
}

TEST(Cli, TrailingOptionIsAFlag)
{
    const Args args = parse({"input.txt", "--cigar"});
    EXPECT_TRUE(args.has("cigar"));
    EXPECT_EQ(args.get("cigar"), "1");
}

TEST(Cli, MissingOptionFallsBack)
{
    const Args args = parse({"input.txt"});
    EXPECT_EQ(args.getInt("threads", 3), 3);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.5), 0.5);
    EXPECT_EQ(args.get("variant", "qzc"), "qzc");
}

TEST(Cli, MalformedIntegerIsFatal)
{
    // Regression: atol() silently returned 0 for garbage.
    const Args args = parse({"--threads", "abc"});
    EXPECT_THROW(args.getInt("threads", 1), FatalError);
    const Args trailing = parse({"--threads", "4x"});
    EXPECT_THROW(trailing.getInt("threads", 1), FatalError);
}

TEST(Cli, MalformedDoubleIsFatal)
{
    const Args args = parse({"--rate", "fast"});
    EXPECT_THROW(args.getDouble("rate", 0.0), FatalError);
    const Args trailing = parse({"--rate", "0.5pct"});
    EXPECT_THROW(trailing.getDouble("rate", 0.0), FatalError);
}

TEST(Cli, OutOfRangeIntegerIsFatal)
{
    const Args args =
        parse({"--big", "999999999999999999999999999999"});
    EXPECT_THROW(args.getInt("big", 0), FatalError);
}

TEST(Cli, WellFormedValuesStillParse)
{
    const Args args = parse({"--threads", "8", "--rate", "1.5e-2"});
    EXPECT_EQ(args.getInt("threads", 1), 8);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 0.015);
}

TEST(Cli, UnknownOptionOrArgumentIsFatal)
{
    // qz-perf's guard: a typo like --apend must stop the tool before
    // it sweeps or writes anything.
    EXPECT_THROW(parse({"--apend"}).rejectUnknown({"append", "out"}),
                 FatalError);
    EXPECT_THROW(parse({"--out", "x.json", "stray"})
                     .rejectUnknown({"append", "out"}),
                 FatalError);
    try {
        parse({"--tiny", "--apend"}).rejectUnknown({"tiny", "append"});
        ADD_FAILURE() << "--apend accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("--apend"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_NO_THROW(parse({"--append", "--out", "x.json"})
                        .rejectUnknown({"append", "out"}));
    EXPECT_NO_THROW(parse({}).rejectUnknown({}));
}

TEST(Cli, DeclaredPositionalsPassButUnknownOptionsStillFail)
{
    // qz-align/qz-filter/qz-serve take one input file, qz-merge any
    // number of shard reports; only a positional past that count is
    // stray.
    EXPECT_NO_THROW(parse({"pairs.txt", "--algo", "wfa"})
                        .rejectUnknown({"algo", "variant"}, 1));
    EXPECT_THROW(parse({"pairs.txt", "--algo", "wfa", "--varaint", "base"})
                     .rejectUnknown({"algo", "variant"}, 1),
                 FatalError);
    try {
        parse({"a.txt", "b.txt"}).rejectUnknown({}, 1);
        ADD_FAILURE() << "second positional accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("'b.txt'"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_NO_THROW(parse({"s1.json", "s2.json", "s3.json", "--out", "m"})
                        .rejectUnknown({"out"}, kAnyPositionals));
    EXPECT_THROW(parse({"s1.json", "s2.json", "--ot", "m"})
                     .rejectUnknown({"out"}, kAnyPositionals),
                 FatalError);
}

TEST(BenchEnv, MalformedKnobsAreFatal)
{
    for (const char *bad : {"abc", "2x", "0", "-1", "inf", "nan"}) {
        ::setenv("QZ_BENCH_SCALE", bad, 1);
        EXPECT_THROW(bench::benchScale(), FatalError) << bad;
    }
    for (const char *bad : {"abc", "2x", "0", "-3", "1.5", "1e12"}) {
        ::setenv("QZ_BENCH_THREADS", bad, 1);
        EXPECT_THROW(bench::benchThreads(), FatalError) << bad;
    }
    ::setenv("QZ_BENCH_SCALE", "0.25", 1);
    ::setenv("QZ_BENCH_THREADS", "3", 1);
    EXPECT_DOUBLE_EQ(bench::benchScale(), 0.25);
    EXPECT_EQ(bench::benchThreads(), 3u);
    // Unset and empty both take the default.
    ::setenv("QZ_BENCH_SCALE", "", 1);
    ::unsetenv("QZ_BENCH_THREADS");
    EXPECT_DOUBLE_EQ(bench::benchScale(), 1.0);
    EXPECT_EQ(bench::benchThreads(), ThreadPool::hardwareThreads());
    ::unsetenv("QZ_BENCH_SCALE");
}

TEST(BenchEnv, GuardedMainMapsErrorsToExitCodes)
{
    EXPECT_EQ(guardedMain([] { return 0; }), 0);
    EXPECT_EQ(guardedMain([]() -> int { fatal("bad input"); }),
              1);
    EXPECT_EQ(guardedMain([]() -> int { panic("bug"); }), 2);
    EXPECT_EQ(guardedMain([]() -> int {
                  throw std::runtime_error("disk full");
              }),
              1);
}

} // namespace
} // namespace quetzal::cli
