/**
 * @file
 * Tests for the bench harness's command-line contract: every flag
 * round-trips through BenchOptions::parseInto, unknown flags and
 * malformed values reject with a one-line error (never by reading past
 * argv), --shard arguments are validated, and takesValue() agrees with
 * the parser about which flags consume the following token.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/bench_harness.hh"

namespace momsim::driver
{
namespace
{

/** Run parseInto over a brace-list argv (argv[0] is added). */
bool
parseArgs(std::vector<std::string> args, BenchOptions &out,
          std::string &error)
{
    std::vector<std::string> storage;
    storage.push_back("bench");
    for (std::string &a : args)
        storage.push_back(std::move(a));
    std::vector<char *> argv;
    for (std::string &s : storage)
        argv.push_back(s.data());
    return BenchOptions::parseInto(static_cast<int>(argv.size()),
                                   argv.data(), out, error);
}

BenchOptions
expectOk(std::vector<std::string> args)
{
    BenchOptions opts;
    std::string error;
    EXPECT_TRUE(parseArgs(args, opts, error)) << error;
    return opts;
}

std::string
expectError(std::vector<std::string> args)
{
    BenchOptions opts;
    std::string error;
    EXPECT_FALSE(parseArgs(args, opts, error));
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(BenchOptions, DefaultsAreNeutral)
{
    BenchOptions opts = expectOk({});
    EXPECT_EQ(opts.jobs, 0);
    EXPECT_FALSE(opts.quick);
    EXPECT_FALSE(opts.dryRun);
    EXPECT_FALSE(opts.listWorkloads);
    EXPECT_EQ(opts.baseSeed, 0u);
    EXPECT_EQ(opts.maxCycles, 0u);
    EXPECT_EQ(opts.shardIndex, 1);
    EXPECT_EQ(opts.shardCount, 1);
    EXPECT_TRUE(opts.csvPath.empty());
    EXPECT_TRUE(opts.jsonPath.empty());
    EXPECT_TRUE(opts.cacheDir.empty());
    EXPECT_TRUE(opts.mergePaths.empty());
    EXPECT_TRUE(opts.workloads.empty());
}

TEST(BenchOptions, EveryFlagRoundTrips)
{
    BenchOptions opts = expectOk({ "--jobs", "3",
                                   "--quick", "--seed",
                                   "0x2a", "--max-cycles", "500000",
                                   "--csv", "a.csv", "--json",
                                   "b.json", "--cache-dir", "cache",
                                   "--shard", "2/5", "--merge", "x,y",
                                   "--workload", "paper,gsmx8",
                                   "--dry-run" });
    EXPECT_EQ(opts.jobs, 3);
    EXPECT_TRUE(opts.quick);
    EXPECT_TRUE(opts.dryRun);
    EXPECT_EQ(opts.baseSeed, 42u);
    EXPECT_EQ(opts.maxCycles, 500000u);
    EXPECT_EQ(opts.csvPath, "a.csv");
    EXPECT_EQ(opts.jsonPath, "b.json");
    EXPECT_EQ(opts.cacheDir, "cache");
    EXPECT_EQ(opts.shardIndex, 2);
    EXPECT_EQ(opts.shardCount, 5);
    ASSERT_EQ(opts.mergePaths.size(), 2u);
    EXPECT_EQ(opts.mergePaths[0], "x");
    EXPECT_EQ(opts.mergePaths[1], "y");
    ASSERT_EQ(opts.workloads.size(), 2u);
    EXPECT_EQ(opts.workloads[0], "paper");
    EXPECT_EQ(opts.workloads[1], "gsmx8");
}

TEST(BenchOptions, ShortJobsAliasAndRepeatableWorkload)
{
    BenchOptions opts = expectOk({ "-j", "2", "--workload", "paper",
                                   "--workload", "mpeg2x8" });
    EXPECT_EQ(opts.jobs, 2);
    ASSERT_EQ(opts.workloads.size(), 2u);
    EXPECT_EQ(opts.workloads[1], "mpeg2x8");
}

TEST(BenchOptions, ListWorkloadsIsAFlagNotAValue)
{
    BenchOptions opts = expectOk({ "--list-workloads" });
    EXPECT_TRUE(opts.listWorkloads);
    EXPECT_FALSE(BenchOptions::takesValue("--list-workloads"));
}

TEST(BenchOptions, UnknownFlagsReject)
{
    std::string error = expectError({ "--frobnicate" });
    EXPECT_NE(error.find("--frobnicate"), std::string::npos);
    expectError({ "--jobs3" });
    expectError({ "stray" });
}

TEST(BenchOptions, ValueFlagsAtEndOfArgvErrorInsteadOfReadingPast)
{
    for (const char *flag : { "--jobs", "-j", "--seed", "--max-cycles",
                              "--csv", "--json", "--cache-dir", "--shard",
                              "--merge", "--workload" }) {
        std::string error = expectError({ flag });
        EXPECT_NE(error.find("expects a value"), std::string::npos)
            << flag << ": " << error;
    }
}

TEST(BenchOptions, TakesValueMatchesTheParser)
{
    for (const char *flag : { "--jobs", "-j", "--seed",
                              "--max-cycles",
                              "--csv", "--json", "--cache-dir", "--shard",
                              "--merge", "--workload" })
        EXPECT_TRUE(BenchOptions::takesValue(flag)) << flag;
    for (const char *flag : { "--quick", "--dry-run", "--list-workloads",
                              "--help", "-h" })
        EXPECT_FALSE(BenchOptions::takesValue(flag)) << flag;
}

TEST(BenchOptions, FlagTableAgreesWithTheParser)
{
    // Every value-taking table flag must be known to the parser and
    // error with "expects a value" at end-of-argv; boolean flags must
    // parse standalone. This is the anti-drift contract: a flag added
    // to parseInto() without a table row (or vice versa) fails here.
    for (const BenchFlagInfo &info : BenchOptions::flagTable()) {
        EXPECT_TRUE(BenchOptions::isKnownFlag(info.flag)) << info.flag;
        if (info.alias)
            EXPECT_TRUE(BenchOptions::isKnownFlag(info.alias))
                << info.alias;
        EXPECT_NE(info.help, nullptr) << info.flag;
        if (std::string(info.flag) == "--help")
            continue;   // help "fails" parse by design (empty error)
        if (info.valueName) {
            std::string error = expectError({ info.flag });
            EXPECT_NE(error.find("expects a value"), std::string::npos)
                << info.flag << ": " << error;
        } else if (std::string(info.flag) != "--list-workloads") {
            expectOk({ info.flag });
        } else {
            expectOk({ info.flag });    // flag parses; parse() exits later
        }
    }
    // And the reverse direction: the parser rejects flags the table
    // does not declare, so parseInto cannot grow a hidden flag.
    EXPECT_FALSE(BenchOptions::isKnownFlag("--frobnicate"));
    expectError({ "--frobnicate" });
}

TEST(BenchOptions, UsageAndHelpAreGeneratedFromTheTable)
{
    std::string usage = BenchOptions::usageText("momsim fig6");
    std::string help = BenchOptions::helpText();
    EXPECT_NE(usage.find("usage: momsim fig6"), std::string::npos);
    for (const BenchFlagInfo &info : BenchOptions::flagTable()) {
        EXPECT_NE(usage.find(info.flag), std::string::npos) << info.flag;
        EXPECT_NE(help.find(info.flag), std::string::npos) << info.flag;
        EXPECT_NE(help.find(info.help), std::string::npos) << info.flag;
    }
}

TEST(BenchOptions, PositionalsCollectWhenRequested)
{
    // The explorer's calling convention: flags anywhere, everything
    // else positional — including "-"-prefixed non-flags.
    BenchOptions opts;
    std::string error;
    std::vector<std::string> positionals;
    std::vector<std::string> storage = { "bench",   "mom",  "--quick",
                                         "8",       "-j",   "2",
                                         "decoupled", "oc", "-5" };
    std::vector<char *> argv;
    for (std::string &s : storage)
        argv.push_back(s.data());
    ASSERT_TRUE(BenchOptions::parseInto(static_cast<int>(argv.size()),
                                        argv.data(), opts, error,
                                        &positionals))
        << error;
    EXPECT_TRUE(opts.quick);
    EXPECT_EQ(opts.jobs, 2);
    ASSERT_EQ(positionals.size(), 5u);
    EXPECT_EQ(positionals[0], "mom");
    EXPECT_EQ(positionals[1], "8");
    EXPECT_EQ(positionals[2], "decoupled");
    EXPECT_EQ(positionals[3], "oc");
    EXPECT_EQ(positionals[4], "-5");

    // Unknown "--" flags still reject even in positional mode.
    positionals.clear();
    std::vector<std::string> bad = { "bench", "--frobnicate" };
    std::vector<char *> argv2;
    for (std::string &s : bad)
        argv2.push_back(s.data());
    EXPECT_FALSE(BenchOptions::parseInto(static_cast<int>(argv2.size()),
                                         argv2.data(), opts, error,
                                         &positionals));
    // Without the positional sink, stray tokens keep rejecting.
    EXPECT_FALSE(parseArgs({ "stray" }, opts, error));
}

TEST(BenchOptions, ShardValidationRejectsOutOfRangeAndGarbage)
{
    // 1-based index: shard 0 does not exist.
    EXPECT_NE(expectError({ "--shard", "0/3" }).find("bad --shard"),
              std::string::npos);
    // Index beyond the shard count.
    EXPECT_NE(expectError({ "--shard", "4/3" }).find("bad --shard"),
              std::string::npos);
    // Malformed strings, trailing garbage, zero/negative counts.
    for (const char *v : { "nonsense", "1/", "/3", "1//3", "1/3,2/3",
                           "1/0", "-1/3", "0/0", "2", "" })
        EXPECT_NE(expectError({ "--shard", v }).find("bad --shard"),
                  std::string::npos) << "'" << v << "'";
    // The boundary cases that must be accepted.
    BenchOptions opts = expectOk({ "--shard", "1/1" });
    EXPECT_EQ(opts.shardCount, 1);
    opts = expectOk({ "--shard", "3/3" });
    EXPECT_EQ(opts.shardIndex, 3);
}

TEST(BenchOptions, JobsMustBePositive)
{
    expectError({ "--jobs", "0" });
    expectError({ "--jobs", "-2" });
    expectError({ "--jobs", "banana" });
    // The whole token must be the number: "4x" must not run 4 jobs.
    EXPECT_NE(expectError({ "--jobs", "4x" })
                  .find("bad --jobs '4x' (want an integer >= 1)"),
              std::string::npos);
}

TEST(BenchOptions, SeedIsAStrictUnsignedInteger)
{
    EXPECT_EQ(expectOk({ "--seed", "0" }).baseSeed, 0u);
    EXPECT_EQ(expectOk({ "--seed", "18446744073709551615" }).baseSeed,
              18446744073709551615ull);
    // Garbage must not run (and cache) as seed 0, and a negative seed
    // must not wrap to 2^64-1.
    for (const char *v : { "foo", "-1", "7x", "", "18446744073709551616" })
        EXPECT_NE(expectError({ "--seed", v }).find("bad --seed"),
                  std::string::npos) << "'" << v << "'";
}

TEST(BenchOptions, MaxCyclesRoundTripsAndRejectsGarbage)
{
    // Decimal and 0x-prefixed values parse; 0 means "grid default" and
    // is only reachable by not passing the flag at all.
    EXPECT_EQ(expectOk({ "--max-cycles", "1" }).maxCycles, 1u);
    EXPECT_EQ(expectOk({ "--max-cycles", "400000000" }).maxCycles,
              400000000u);
    EXPECT_EQ(expectOk({ "--max-cycles", "0x100" }).maxCycles, 256u);
    for (const char *v : { "0", "banana", "12banana", "", "-5" })
        EXPECT_NE(expectError({ "--max-cycles", v })
                      .find("bad --max-cycles"),
                  std::string::npos) << "'" << v << "'";
}

TEST(BenchOptions, WorkloadNamesAreValidatedAgainstTheRegistry)
{
    std::string error = expectError({ "--workload", "nonsense" });
    EXPECT_NE(error.find("unknown workload 'nonsense'"),
              std::string::npos);
    EXPECT_NE(error.find("--list-workloads"), std::string::npos);
    // Empty selections reject instead of silently sweeping nothing.
    expectError({ "--workload", "," });
    // Registry names and the paperxN pattern are accepted.
    expectOk({ "--workload",
               "paper,decode-heavy,encode-heavy,mpeg2x8,gsmx8,jpegx8" });
    expectOk({ "--workload", "paperx2" });
    expectError({ "--workload", "paperx1" });
    expectError({ "--workload", "paperx9" });
    expectError({ "--workload", "paperx2x" });
    // No aliases: signs and leading zeros would split cache identities.
    expectError({ "--workload", "paperx+3" });
    expectError({ "--workload", "paperx03" });
}

TEST(BenchOptions, RepeatedWorkloadNamesAreDeduplicated)
{
    // Duplicates would expand sweep points with identical ids, seeds
    // and cache keys; first-seen order wins.
    BenchOptions opts = expectOk({ "--workload", "paper,paper",
                                   "--workload", "gsmx8,paper" });
    ASSERT_EQ(opts.workloads.size(), 2u);
    EXPECT_EQ(opts.workloads[0], "paper");
    EXPECT_EQ(opts.workloads[1], "gsmx8");
}

TEST(BenchOptions, HelpRequestsSurfaceAsEmptyError)
{
    BenchOptions opts;
    std::string error = "sentinel";
    EXPECT_FALSE(parseArgs({ "--help" }, opts, error));
    EXPECT_TRUE(error.empty());
    error = "sentinel";
    EXPECT_FALSE(parseArgs({ "-h" }, opts, error));
    EXPECT_TRUE(error.empty());
}

} // namespace
} // namespace momsim::driver
