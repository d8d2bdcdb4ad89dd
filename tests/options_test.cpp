/**
 * @file
 * Tests for the nucabench command-line parser.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "harness/options.hpp"
#include "locks/any_lock.hpp"

namespace {

using namespace nucalock::harness;

TEST(Options, DefaultsWhenEmpty)
{
    const CliParse parsed = parse_cli({});
    ASSERT_TRUE(parsed.options.has_value());
    const CliOptions& o = *parsed.options;
    EXPECT_EQ(o.bench, CliBench::New);
    EXPECT_EQ(o.lock, "ALL");
    EXPECT_EQ(o.nodes, 2);
    EXPECT_EQ(o.cpus_per_node, 14);
    EXPECT_EQ(o.threads, 28);
    EXPECT_EQ(o.critical_work, 1500u);
    EXPECT_FALSE(o.preemption);
    EXPECT_FALSE(o.csv);
    EXPECT_FALSE(o.help);
}

TEST(Options, ParsesEveryKey)
{
    const CliParse parsed = parse_cli(
        {"--bench=traditional", "--lock=HBO_GT", "--nodes=4",
         "--cpus-per-node=8", "--threads=16", "--critical-work=500",
         "--private-work=1000", "--iterations=10", "--nuca-ratio=6.5",
         "--seed=42", "--preemption", "--csv"});
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    const CliOptions& o = *parsed.options;
    EXPECT_EQ(o.bench, CliBench::Traditional);
    EXPECT_EQ(o.lock, "HBO_GT");
    EXPECT_EQ(o.nodes, 4);
    EXPECT_EQ(o.cpus_per_node, 8);
    EXPECT_EQ(o.threads, 16);
    EXPECT_EQ(o.critical_work, 500u);
    EXPECT_EQ(o.private_work, 1000u);
    EXPECT_EQ(o.iterations, 10u);
    EXPECT_DOUBLE_EQ(o.nuca_ratio, 6.5);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_TRUE(o.preemption);
    EXPECT_TRUE(o.csv);
}

TEST(Options, BenchVariants)
{
    EXPECT_EQ(parse_cli({"--bench=new"}).options->bench, CliBench::New);
    EXPECT_EQ(parse_cli({"--bench=uncontested"}).options->bench,
              CliBench::Uncontested);
    EXPECT_FALSE(parse_cli({"--bench=warp"}).options.has_value());
}

TEST(Options, HelpFlag)
{
    EXPECT_TRUE(parse_cli({"--help"}).options->help);
    EXPECT_NE(cli_usage().find("nucabench"), std::string::npos);
}

/** Whitespace-separated words of @p usage's "locks:" paragraph. */
std::set<std::string>
usage_lock_words(const std::string& usage)
{
    const std::size_t begin = usage.find("\nlocks:");
    const std::size_t end = usage.find("\n\n", begin);
    std::istringstream paragraph(usage.substr(begin, end - begin));
    std::set<std::string> words;
    for (std::string word; paragraph >> word;)
        words.insert(word);
    return words;
}

TEST(Options, UsageTextsListEveryLock)
{
    // Whole words: "HBO" must not pass on the strength of "HBO_GT".
    for (const std::string& usage : {cli_usage(), prof_usage()}) {
        const std::set<std::string> words = usage_lock_words(usage);
        for (auto kind : nucalock::locks::all_lock_kinds())
            EXPECT_TRUE(words.count(nucalock::locks::lock_name(kind)))
                << nucalock::locks::lock_name(kind) << " missing from\n"
                << usage;
    }
    EXPECT_NE(prof_usage().find("nucaprof"), std::string::npos);
}

TEST(Options, RejectsUnknownKey)
{
    const CliParse parsed = parse_cli({"--frobnicate=1"});
    EXPECT_FALSE(parsed.options.has_value());
    EXPECT_NE(parsed.error.find("unknown option"), std::string::npos);
}

TEST(Options, RejectsNonDashArguments)
{
    EXPECT_FALSE(parse_cli({"threads=4"}).options.has_value());
}

TEST(Options, RejectsBadNumbers)
{
    EXPECT_FALSE(parse_cli({"--threads=zero"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--threads=0"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--nodes=-2"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--seed=9x"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--iterations=0"}).options.has_value());
}

TEST(Options, RejectsUnknownLock)
{
    const CliParse parsed = parse_cli({"--lock=SPINLOCK3000"});
    EXPECT_FALSE(parsed.options.has_value());
    EXPECT_NE(parsed.error.find("unknown lock"), std::string::npos);
}

TEST(Options, AcceptsEveryRealLockName)
{
    for (auto kind : nucalock::locks::all_lock_kinds()) {
        const std::string name = nucalock::locks::lock_name(kind);
        const CliParse parsed = parse_cli({"--lock=" + name});
        EXPECT_TRUE(parsed.options.has_value()) << name;
    }
}

TEST(Options, CrossChecksThreadsAgainstTopology)
{
    EXPECT_FALSE(
        parse_cli({"--nodes=2", "--cpus-per-node=2", "--threads=5"})
            .options.has_value());
    EXPECT_TRUE(
        parse_cli({"--nodes=2", "--cpus-per-node=2", "--threads=4"})
            .options.has_value());
}

TEST(Options, RhNodeLimitEnforced)
{
    EXPECT_FALSE(parse_cli({"--lock=RH", "--nodes=4", "--threads=4"})
                     .options.has_value());
    EXPECT_TRUE(parse_cli({"--lock=RH", "--nodes=2", "--threads=4"})
                    .options.has_value());
}

TEST(Options, NucaRatioValidation)
{
    EXPECT_FALSE(parse_cli({"--nuca-ratio=0.5"}).options.has_value());
    EXPECT_TRUE(parse_cli({"--nuca-ratio=1"}).options.has_value());
    EXPECT_TRUE(parse_cli({"--nuca-ratio=0"}).options.has_value());
}

TEST(Options, ThreadsDefaultToFullMachine)
{
    // Without --threads the run uses every simulated cpu, so shrinking the
    // machine shrinks the thread count instead of failing the cross-check.
    const CliParse parsed = parse_cli({"--nodes=2", "--cpus-per-node=4"});
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    EXPECT_EQ(parsed.options->threads, 8);
}

TEST(Options, ObservabilityPaths)
{
    const CliParse parsed = parse_cli(
        {"--lock=MCS", "--json=out.json", "--trace=out.trace.json",
         "--check-schema=prior.json"});
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    EXPECT_EQ(parsed.options->json, "out.json");
    EXPECT_EQ(parsed.options->trace, "out.trace.json");
    EXPECT_EQ(parsed.options->check_schema, "prior.json");
    // Empty paths are rejected rather than silently ignored.
    EXPECT_FALSE(parse_cli({"--json="}).options.has_value());
    EXPECT_FALSE(parse_cli({"--trace="}).options.has_value());
    EXPECT_FALSE(parse_cli({"--check-schema="}).options.has_value());
}

TEST(Options, TraceRequiresSingleLock)
{
    EXPECT_FALSE(parse_cli({"--trace=t.json"}).options.has_value());
    EXPECT_FALSE(
        parse_cli({"--lock=ALL", "--trace=t.json"}).options.has_value());
    EXPECT_TRUE(
        parse_cli({"--lock=TATAS", "--trace=t.json"}).options.has_value());
}

TEST(Options, TrafficFlag)
{
    EXPECT_FALSE(parse_cli({}).options->traffic);
    const CliParse parsed = parse_cli({"--traffic"});
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    EXPECT_TRUE(parsed.options->traffic);
}

TEST(Options, AppBenchAndKvKnobs)
{
    const CliParse parsed = parse_cli(
        {"--bench=app", "--app=kv", "--kv-keys=2048", "--kv-stripes=8",
         "--kv-read-pct=70", "--kv-write-pct=20", "--kv-scan-len=32",
         "--kv-skew=1.1", "--kv-ops=500", "--kv-storms=2"});
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    EXPECT_EQ(parsed.options->bench, CliBench::App);
    EXPECT_EQ(parsed.options->app, "kv");
    EXPECT_EQ(parsed.options->kv_keys, 2048u);
    EXPECT_EQ(parsed.options->kv_stripes, 8u);
    EXPECT_EQ(parsed.options->kv_read_pct, 70u);
    EXPECT_EQ(parsed.options->kv_write_pct, 20u);
    EXPECT_EQ(parsed.options->kv_scan_len, 32u);
    EXPECT_DOUBLE_EQ(parsed.options->kv_skew, 1.1);
    EXPECT_EQ(parsed.options->kv_ops, 500u);
    EXPECT_EQ(parsed.options->kv_storms, 2u);
}

TEST(Options, KvDefaultsAndValidation)
{
    const CliParse defaults = parse_cli({"--bench=app"});
    ASSERT_TRUE(defaults.options.has_value()) << defaults.error;
    EXPECT_EQ(defaults.options->app, "kv");
    EXPECT_EQ(defaults.options->kv_read_pct, 80u);
    EXPECT_EQ(defaults.options->kv_write_pct, 15u);

    // The mix must leave a non-negative scan remainder.
    EXPECT_FALSE(parse_cli({"--bench=app", "--kv-read-pct=80",
                            "--kv-write-pct=30"})
                     .options.has_value());
    EXPECT_FALSE(parse_cli({"--kv-read-pct=101"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--kv-keys=0"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--kv-stripes=0"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--kv-skew=-1"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--kv-ops=0"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--app="}).options.has_value());
    // Name existence is the tool's job (it owns the app registry); the
    // parser accepts any non-empty name.
    EXPECT_TRUE(parse_cli({"--bench=app", "--app=Raytrace"})
                    .options.has_value());
}

TEST(Options, MemtraceRequiresSingleLockAndPath)
{
    const CliParse parsed =
        parse_cli({"--lock=MCS", "--memtrace=mem.csv"});
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    EXPECT_EQ(parsed.options->memtrace, "mem.csv");
    EXPECT_FALSE(parse_cli({"--memtrace="}).options.has_value());
    EXPECT_FALSE(parse_cli({"--memtrace=mem.csv"}).options.has_value());
    EXPECT_FALSE(
        parse_cli({"--lock=ALL", "--memtrace=mem.csv"}).options.has_value());
}

TEST(Options, ParseShapeAcceptsNxC)
{
    EXPECT_EQ(parse_shape("2x14"), (ShapeSpec{2, 14}));
    EXPECT_EQ(parse_shape("64x16"), (ShapeSpec{64, 16}));
    EXPECT_EQ(parse_shape("1x1"), (ShapeSpec{1, 1}));
    EXPECT_EQ(parse_shape("64x16")->total_cpus(), 1024);
}

TEST(Options, ParseShapeRejectsMalformedInput)
{
    EXPECT_FALSE(parse_shape("").has_value());
    EXPECT_FALSE(parse_shape("2").has_value());
    EXPECT_FALSE(parse_shape("x14").has_value());
    EXPECT_FALSE(parse_shape("2x").has_value());
    EXPECT_FALSE(parse_shape("2y14").has_value());
    EXPECT_FALSE(parse_shape("0x14").has_value());
    EXPECT_FALSE(parse_shape("2x0").has_value());
    EXPECT_FALSE(parse_shape("-2x14").has_value());
    EXPECT_FALSE(parse_shape("2x14x3").has_value());
    EXPECT_FALSE(parse_shape("2 x 14").has_value());
}

TEST(Options, ParseShapeListSplitsOnCommas)
{
    const auto shapes = parse_shape_list("2x14,4x32,16x64,64x16");
    ASSERT_TRUE(shapes.has_value());
    ASSERT_EQ(shapes->size(), 4u);
    EXPECT_EQ((*shapes)[0], (ShapeSpec{2, 14}));
    EXPECT_EQ((*shapes)[3], (ShapeSpec{64, 16}));

    const auto single = parse_shape_list("8x8");
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->size(), 1u);

    EXPECT_FALSE(parse_shape_list("").has_value());
    EXPECT_FALSE(parse_shape_list("2x14,").has_value());
    EXPECT_FALSE(parse_shape_list(",2x14").has_value());
    EXPECT_FALSE(parse_shape_list("2x14,,4x32").has_value());
    EXPECT_FALSE(parse_shape_list("2x14,bogus").has_value());
}

TEST(Options, ShapeFlagSetsNodesAndCpus)
{
    const CliParse parsed = parse_cli({"--shape=4x32"});
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    EXPECT_EQ(parsed.options->nodes, 4);
    EXPECT_EQ(parsed.options->cpus_per_node, 32);
    // Like --nodes/--cpus-per-node, threads defaults to the full machine.
    EXPECT_EQ(parsed.options->threads, 128);

    EXPECT_FALSE(parse_cli({"--shape=bogus"}).options.has_value());
    EXPECT_FALSE(parse_cli({"--shape="}).options.has_value());
}

} // namespace
