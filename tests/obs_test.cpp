/**
 * @file
 * Tests for the observability subsystem (src/obs/): JSON writer/parser
 * round trips, the metrics registry's event folding, timeline
 * reconstruction and Chrome-trace export, report schema validation, and —
 * the load-bearing guarantee — that installing probes does not change the
 * simulated run (bit-identical acquisition order per seed).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "apps/kv_service.hpp"
#include "common/rng.hpp"
#include "harness/newbench.hpp"
#include "harness/sim_run.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/probe.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "sim/trace.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::obs;
using harness::BenchResult;
using harness::NewBenchConfig;
using locks::LockKind;

// ---------------------------------------------------------------- JSON --

TEST(Json, WriterBasicShapes)
{
    std::ostringstream oss;
    JsonWriter w(oss, /*pretty=*/false);
    w.begin_object()
        .kv("s", "hi")
        .kv("n", 3.5)
        .kv("i", std::uint64_t{7})
        .kv("b", true)
        .key("a")
        .begin_array()
        .value(1)
        .value(2)
        .end_array()
        .key("z")
        .null()
        .end_object();
    EXPECT_EQ(oss.str(),
              R"({"s":"hi","n":3.5,"i":7,"b":true,"a":[1,2],"z":null})");
}

TEST(Json, EscapesControlAndQuotes)
{
    EXPECT_EQ(json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
    std::ostringstream oss;
    JsonWriter w(oss, false);
    w.begin_object().kv("k\"ey", "v\nal").end_object();
    const auto parsed = json_parse(oss.str());
    ASSERT_TRUE(parsed.has_value());
    const JsonValue* v = parsed->find("k\"ey");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->string, "v\nal");
}

TEST(Json, NonFiniteBecomesNull)
{
    std::ostringstream oss;
    JsonWriter w(oss, false);
    w.begin_array()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .end_array();
    EXPECT_EQ(oss.str(), "[null,null]");
}

TEST(Json, ParserRoundTrip)
{
    const std::string text =
        R"({"a": [1, 2.5, -3e2], "b": {"c": "x", "d": null}, "e": false})";
    const auto parsed = json_parse(text);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->is_object());
    const JsonValue* a = parsed->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->is_array());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
    const JsonValue* d = parsed->find("b")->find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->type, JsonValue::Type::Null);
}

TEST(Json, ParserRejectsMalformed)
{
    std::string error;
    EXPECT_FALSE(json_parse("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(json_parse("[1,]").has_value());
    EXPECT_FALSE(json_parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(json_parse("[1] trailing").has_value());
}

TEST(Json, ParserDecodesUnicodeEscapes)
{
    const auto parsed = json_parse(R"(["Aé"])");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->array[0].string, "A\xc3\xa9");
}

// ---------------------------------------------------- metrics registry --

ProbeRecord
rec(LockEvent event, std::uint64_t t, std::uint64_t lock_id, int thread,
    int cpu, int node, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
{
    return ProbeRecord{event, t, lock_id, thread, cpu, node, a0, a1};
}

TEST(MetricsRegistry, ClassifiesHandovers)
{
    // Threads 0 (node 0), 1 (node 0), 2 (node 1) take the lock in turn:
    // t0 -> t1 is a local handover, t1 -> t2 remote, t2 -> t2 a repeat.
    MetricsRegistry reg;
    const std::uint64_t L = 42;
    std::uint64_t t = 0;
    const auto acquire_release = [&](int thread, int cpu, int node) {
        reg.on_event(rec(LockEvent::AcquireAttempt, ++t, L, thread, cpu, node));
        reg.on_event(rec(LockEvent::Acquired, ++t, L, thread, cpu, node));
        reg.on_event(rec(LockEvent::Released, ++t, L, thread, cpu, node));
    };
    acquire_release(0, 0, 0);
    acquire_release(1, 1, 0);
    acquire_release(2, 4, 1);
    acquire_release(2, 4, 1);
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    EXPECT_EQ(m.attempts, 4u);
    EXPECT_EQ(m.acquisitions, 4u);
    EXPECT_EQ(m.releases, 4u);
    EXPECT_EQ(m.handovers_local, 1u);
    EXPECT_EQ(m.handovers_remote, 1u);
    EXPECT_EQ(m.repeats, 1u);
    EXPECT_DOUBLE_EQ(m.local_handover_fraction(), 0.5);
    EXPECT_DOUBLE_EQ(m.remote_handover_fraction(), 0.5);
    // Node batches: node 0 held twice, then node 1 twice.
    EXPECT_EQ(m.node_batch_lengths.count(), 2u);
    EXPECT_DOUBLE_EQ(m.node_batch_lengths.mean(), 2.0);
    ASSERT_GE(m.per_node.size(), 2u);
    EXPECT_EQ(m.per_node[0].acquisitions, 2u);
    EXPECT_EQ(m.per_node[1].acquisitions, 2u);
    EXPECT_EQ(m.per_node[1].handovers_in, 1u);
}

TEST(MetricsRegistry, WaitAndHoldTimes)
{
    MetricsRegistry reg;
    const std::uint64_t L = 9;
    reg.on_event(rec(LockEvent::AcquireAttempt, 100, L, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 160, L, 0, 0, 0));
    reg.on_event(rec(LockEvent::Released, 260, L, 0, 0, 0));
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    EXPECT_EQ(m.wait_ns.count(), 1u);
    EXPECT_DOUBLE_EQ(m.wait_ns.mean(), 60.0);
    EXPECT_EQ(m.hold_ns.count(), 1u);
    EXPECT_DOUBLE_EQ(m.hold_ns.mean(), 100.0);
    ASSERT_GT(reg.cpus().size(), 0u);
    EXPECT_EQ(reg.cpus()[0].cs_ns, 100u);
}

TEST(MetricsRegistry, BackoffAttributedToOpenAttempt)
{
    MetricsRegistry reg;
    const std::uint64_t L = 7;
    reg.on_event(rec(LockEvent::AcquireAttempt, 10, L, 3, 2, 1));
    // Backoff events carry lock_id 0 (the shared helper has no lock);
    // the registry attributes them to the thread's open attempt on L.
    reg.on_event(rec(LockEvent::BackoffBegin, 20, 0, 3, 2, 1, /*a0=*/64,
                     /*a1=*/static_cast<std::uint64_t>(BackoffClass::Remote)));
    reg.on_event(rec(LockEvent::BackoffEnd, 84, 0, 3, 2, 1));
    reg.on_event(rec(LockEvent::Acquired, 90, L, 3, 2, 1));
    reg.on_event(rec(LockEvent::Released, 95, L, 3, 2, 1));
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    const auto remote = static_cast<std::size_t>(BackoffClass::Remote);
    EXPECT_EQ(m.backoff[remote].episodes, 1u);
    EXPECT_EQ(m.backoff[remote].total_ns, 64u);
    EXPECT_EQ(m.backoff_ns_total(), 64u);
    EXPECT_EQ(reg.cpus()[2].backoff_episodes, 1u);
    EXPECT_EQ(reg.cpus()[2].backoff_ns, 64u);
}

TEST(MetricsRegistry, GateAndAngryCounters)
{
    MetricsRegistry reg;
    const std::uint64_t L = 5;
    reg.on_event(rec(LockEvent::AcquireAttempt, 1, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GateBlocked, 2, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GatePassed, 3, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GatePublish, 4, L, 0, 0, 1, /*node=*/1));
    reg.on_event(
        rec(LockEvent::GatePublish, 5, L, 0, 0, 1, /*node=*/1, /*anger=*/1));
    reg.on_event(rec(LockEvent::AngryEnter, 6, L, 0, 0, 1, /*holder node=*/0));
    reg.on_event(rec(LockEvent::AngryExit, 7, L, 0, 0, 1));
    reg.on_event(rec(LockEvent::GateOpen, 8, L, 0, 0, 1, /*count=*/2));
    reg.on_event(rec(LockEvent::Acquired, 9, L, 0, 0, 1));
    reg.finalize();

    const LockMetrics& m = reg.lock(L);
    EXPECT_EQ(m.gate_blocked, 1u);
    EXPECT_EQ(m.gate_passed, 1u);
    EXPECT_DOUBLE_EQ(m.gate_block_fraction(), 0.5);
    EXPECT_EQ(m.gate_publishes, 2u);
    EXPECT_EQ(m.gates_closed_in_anger, 1u);
    EXPECT_EQ(m.angry_transitions, 1u);
    EXPECT_EQ(m.gate_opens, 2u);
    ASSERT_GE(m.per_node.size(), 2u);
    EXPECT_EQ(m.per_node[1].gate_blocked, 1u);
    EXPECT_EQ(m.per_node[1].gate_passed, 1u);
}

TEST(MetricsRegistry, PrimaryLockIsFirstEvent)
{
    MetricsRegistry reg;
    reg.on_event(rec(LockEvent::AcquireAttempt, 1, 11, 0, 0, 0));
    reg.on_event(rec(LockEvent::AcquireAttempt, 2, 22, 0, 0, 0)); // nested
    reg.on_event(rec(LockEvent::Acquired, 3, 22, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 4, 11, 0, 0, 0));
    reg.finalize();
    EXPECT_EQ(reg.primary_lock_id(), 11u);
    ASSERT_NE(reg.primary(), nullptr);
    EXPECT_EQ(reg.primary()->lock_id, 11u);
    EXPECT_EQ(reg.locks().size(), 2u);
}

// ---------------------------------------------------------- timeline ----

TEST(Timeline, ReconstructsWaitBackoffCritical)
{
    TimelineBuilder tb;
    const std::uint64_t L = 3;
    // Thread 1 on cpu 2/node 0 holds; thread 5 on cpu 9/node 1 waits with
    // one backoff episode, then gets the lock.
    tb.on_event(rec(LockEvent::AcquireAttempt, 0, L, 1, 2, 0));
    tb.on_event(rec(LockEvent::Acquired, 10, L, 1, 2, 0));
    tb.on_event(rec(LockEvent::AcquireAttempt, 20, L, 5, 9, 1));
    tb.on_event(rec(LockEvent::BackoffBegin, 30, 0, 5, 9, 1, 40,
                    static_cast<std::uint64_t>(BackoffClass::Remote)));
    tb.on_event(rec(LockEvent::BackoffEnd, 70, 0, 5, 9, 1));
    tb.on_event(rec(LockEvent::Released, 80, L, 1, 2, 0));
    tb.on_event(rec(LockEvent::Acquired, 90, L, 5, 9, 1));
    tb.on_event(rec(LockEvent::Released, 120, L, 5, 9, 1));
    tb.finalize();

    const auto& per_cpu = tb.intervals();
    ASSERT_TRUE(per_cpu.contains(2));
    ASSERT_TRUE(per_cpu.contains(9));
    // CPU 2: wait [0,10), critical [10,80).
    const auto& c2 = per_cpu.at(2);
    ASSERT_EQ(c2.size(), 2u);
    EXPECT_EQ(c2[1].state, CpuState::Critical);
    EXPECT_EQ(c2[1].begin_ns, 10u);
    EXPECT_EQ(c2[1].end_ns, 80u);
    // CPU 9: remote spin [20,30), backoff [30,70), remote spin [70,90),
    // critical [90,120). The holder (node 0) is remote to node 1.
    const auto& c9 = per_cpu.at(9);
    ASSERT_EQ(c9.size(), 4u);
    EXPECT_EQ(c9[0].state, CpuState::SpinningRemote);
    EXPECT_EQ(c9[1].state, CpuState::Backoff);
    EXPECT_EQ(c9[1].begin_ns, 30u);
    EXPECT_EQ(c9[1].end_ns, 70u);
    EXPECT_EQ(c9[2].state, CpuState::SpinningRemote);
    EXPECT_EQ(c9[3].state, CpuState::Critical);
    EXPECT_EQ(c9[3].end_ns, 120u);
}

TEST(Timeline, LocalSpinClassification)
{
    TimelineBuilder tb;
    const std::uint64_t L = 3;
    tb.on_event(rec(LockEvent::AcquireAttempt, 0, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Acquired, 5, L, 0, 0, 0));
    // Same-node waiter: spin classified local.
    tb.on_event(rec(LockEvent::AcquireAttempt, 10, L, 1, 1, 0));
    tb.on_event(rec(LockEvent::Released, 20, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Acquired, 25, L, 1, 1, 0));
    tb.on_event(rec(LockEvent::Released, 30, L, 1, 1, 0));
    tb.finalize();
    const auto& c1 = tb.intervals().at(1);
    ASSERT_GE(c1.size(), 2u);
    EXPECT_EQ(c1[0].state, CpuState::SpinningLocal);
}

TEST(Timeline, ChromeTraceIsValidJson)
{
    TimelineBuilder tb;
    const std::uint64_t L = 1;
    tb.on_event(rec(LockEvent::AcquireAttempt, 0, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Acquired, 100, L, 0, 0, 0));
    tb.on_event(rec(LockEvent::Released, 350, L, 0, 0, 0));
    tb.finalize();

    std::ostringstream oss;
    tb.write_chrome_trace(oss, "TATAS");
    std::string error;
    const auto parsed = json_parse(oss.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const JsonValue* events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    // Metadata (process + one thread name) plus two "X" intervals.
    bool saw_complete = false;
    for (const JsonValue& e : events->array) {
        const JsonValue* ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "X") {
            saw_complete = true;
            EXPECT_NE(e.find("ts"), nullptr);
            EXPECT_NE(e.find("dur"), nullptr);
            EXPECT_NE(e.find("name"), nullptr);
        }
    }
    EXPECT_TRUE(saw_complete);
}

// ------------------------------------------------------------ reports ---

TEST(Report, WriteThenValidate)
{
    MetricsRegistry reg;
    reg.on_event(rec(LockEvent::AcquireAttempt, 1, 10, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 2, 10, 0, 0, 0));
    reg.on_event(rec(LockEvent::Released, 3, 10, 0, 0, 0));
    reg.finalize();

    ReportConfig config;
    config.tool = "nucaprof";
    config.bench = "new";
    config.nodes = 2;
    config.cpus_per_node = 4;
    config.threads = 8;
    config.critical_work = 100;
    config.private_work = 200;
    config.iterations = 5;
    config.seed = 1;

    BenchResult result;
    result.total_time = 1000;
    result.total_acquires = 40;
    result.avg_iteration_ns = 25.0;
    result.node_handoff_ratio = 0.5;
    result.acquisition_order_hash = 0xdeadbeefULL;

    std::ostringstream oss;
    write_report(oss, config,
                 {ReportRun{"TATAS", result, &reg},
                  ReportRun{"MCS", result, nullptr}});

    std::string error;
    EXPECT_TRUE(validate_report_text(oss.str(), &error)) << error;

    // Spot-check content, not just validity.
    const auto parsed = json_parse(oss.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("schema")->string, kReportSchemaName);
    EXPECT_DOUBLE_EQ(parsed->find("schema_version")->number,
                     kReportSchemaVersion);
    const JsonValue* runs = parsed->find("runs");
    ASSERT_EQ(runs->array.size(), 2u);
    EXPECT_EQ(runs->array[0].find("lock")->string, "TATAS");
    EXPECT_TRUE(runs->array[0].find("metrics")->is_object());
    EXPECT_EQ(runs->array[1].find("metrics")->type, JsonValue::Type::Null);
    const JsonValue* r0 = runs->array[0].find("result");
    EXPECT_EQ(r0->find("acquisition_order_hash")->string,
              "0x00000000deadbeef");
}

TEST(Report, ValidationCatchesCorruption)
{
    ReportConfig config;
    config.tool = "nucaprof";
    config.bench = "new";
    std::ostringstream oss;
    write_report(oss, config, {ReportRun{"TATAS", BenchResult{}, nullptr}});
    std::string text = oss.str();
    std::string error;
    ASSERT_TRUE(validate_report_text(text, &error)) << error;

    // Wrong schema name.
    std::string bad = text;
    bad.replace(bad.find("nucalock-bench-report"), 21, "some-other-schema!!!!");
    EXPECT_FALSE(validate_report_text(bad, &error));

    // Drop a required key.
    bad = text;
    bad.replace(bad.find("total_acquires"), 14, "total_admirers");
    EXPECT_FALSE(validate_report_text(bad, &error));

    // Not JSON at all.
    EXPECT_FALSE(validate_report_text("not json", &error));
    EXPECT_FALSE(error.empty());
}

TEST(Report, VersionMismatchNamesBothVersions)
{
    ReportConfig config;
    config.tool = "nucaprof";
    config.bench = "new";
    std::ostringstream oss;
    write_report(oss, config, {ReportRun{"TATAS", BenchResult{}, nullptr}});
    std::string text = oss.str();

    // A report written by an older tool build must be rejected with a
    // message naming both versions, so a reader paired with the wrong
    // build is diagnosed immediately.
    const std::string current =
        "\"schema_version\": " + std::to_string(kReportSchemaVersion);
    const std::size_t pos = text.find(current);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, current.size(), "\"schema_version\": 5");

    std::string error;
    EXPECT_FALSE(validate_report_text(text, &error));
    const std::string expected = "report is v5, tool understands v" +
                                 std::to_string(kReportSchemaVersion);
    EXPECT_NE(error.find(expected), std::string::npos) << error;
}

/**
 * A report with every optional member present: a KV-service run with a
 * contention series, metrics with an ADAPTIVE gear switch, structs, host
 * stats and counted native traffic whose events carry a detail; a second
 * run whose counters were denied; and a robustness object with a failed
 * cell.
 */
JsonValue
full_report()
{
    MetricsRegistry reg;
    apps::KvServiceConfig kv;
    kv.topology = Topology::symmetric(2, 2);
    kv.threads = 4;
    kv.keys = 256;
    kv.stripes = 4;
    kv.ops_per_thread = 30;
    kv.probe = &reg;
    kv.contention_bin_ns = 10'000;
    const apps::KvOutcome outcome = apps::run_kv_service(LockKind::HboGt, kv);
    // a0 = from | (to << 8): tatas -> hbo; a1 = nuca_traffic.
    reg.on_event(rec(LockEvent::AdaptSwitch, outcome.bench.total_time,
                     reg.primary_lock_id(), 0, 0, 0, 1u << 8, 1));
    reg.finalize();

    FakeCounterSource::Steps steps;
    steps.remote_unsupported = true;
    FakeCounterSource source(steps);
    NativeCounterSession session(source);
    native::PhaseRecorder* recorder = session.bind_thread(0, 0);
    recorder->on_phase(0x20, sim::TxPhase::AcquireSpin);
    recorder->on_phase(0x20, sim::TxPhase::Critical);
    recorder->on_phase(0x20, sim::TxPhase::Release);
    NativeTrafficStats counted = session.finish();
    NativeTrafficStats denied;
    denied.source = "fake";
    denied.unavailable_reason = "denied by test policy";

    std::vector<ReportRun> runs;
    for (const NativeTrafficStats* native : {&counted, &denied}) {
        ReportRun run{"HBO_GT", outcome.bench, &reg};
        run.host.valid = true;
        run.host.wall_ns = 1e6;
        run.structs = &outcome.structs;
        run.native_traffic = native;
        runs.push_back(run);
    }

    RobustnessReport robustness;
    robustness.presets = {"holder", "death"};
    RobustnessCell cell;
    cell.lock = "MCS";
    cell.preset = "death";
    cell.failed = true;
    cell.what = "mutual exclusion violated";
    cell.stop = "deadlock";
    cell.trace = "nc1:0.1.0";
    cell.minimal_trace = "nc1:0";
    robustness.cells = {cell};
    RobustnessLockRow row;
    row.lock = "MCS";
    row.cells = 1;
    row.failures = 1;
    robustness.per_lock = {row};
    robustness.failures = 1;

    ReportConfig config;
    config.tool = "obs_test";
    config.bench = "app-kv";
    std::ostringstream oss;
    write_report(oss, config, runs, &robustness);
    return *json_parse(oss.str());
}

/** Call @p visit on every object in @p value with its path, array indices
 *  written as "[]". */
void
for_each_object(JsonValue& value, const std::string& path,
                const std::function<void(JsonValue&, const std::string&)>&
                    visit)
{
    if (value.is_object()) {
        visit(value, path);
        for (auto& [name, child] : value.object)
            for_each_object(child, path + "." + name, visit);
    }
    for (JsonValue& element : value.array)
        for_each_object(element, path + "[]", visit);
}

bool
same(const JsonValue& a, const JsonValue& b)
{
    if (a.type != b.type || a.boolean != b.boolean || a.number != b.number ||
        a.string != b.string || a.array.size() != b.array.size() ||
        a.object.size() != b.object.size())
        return false;
    for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!same(a.array[i], b.array[i]))
            return false;
    for (auto x = a.object.begin(), y = b.object.begin(); x != a.object.end();
         ++x, ++y)
        if (x->first != y->first || !same(x->second, y->second))
            return false;
    return true;
}

TEST(Report, EveryAlwaysEmittedMemberIsRequired)
{
    JsonValue doc = full_report();
    std::string error;
    ASSERT_TRUE(validate_report(doc, &error)) << error;

    // Delete each distinct member path at its first occurrence: only the
    // members the writer leaves out of some reports may go.
    std::set<std::string> tried;
    std::set<std::string> optional;
    for_each_object(doc, "report", [&](JsonValue& object,
                                       const std::string& path) {
        std::vector<std::string> names;
        for (const auto& [name, child] : object.object)
            names.push_back(name);
        for (const std::string& name : names) {
            if (!tried.insert(path + "." + name).second)
                continue;
            auto member = object.object.extract(name);
            if (validate_report(doc, nullptr))
                optional.insert(path + "." + name);
            object.object.insert(std::move(member));
        }
    });
    const std::set<std::string> expected = {
        "report.robustness",
        "report.robustness.cells[].minimal_trace",
        "report.robustness.cells[].trace",
        "report.robustness.cells[].what",
        "report.runs[].adaptive",
        "report.runs[].contention.resources[].busy_ns_bins",
        "report.runs[].contention.resources[].tx_bins",
        "report.runs[].host",
        "report.runs[].native_traffic",
        "report.runs[].native_traffic.events[].detail",
        "report.runs[].structs",
    };
    EXPECT_EQ(optional, expected);
    EXPECT_GT(tried.size(), 300u);
    ASSERT_TRUE(validate_report(doc, &error)) << error;
}

TEST(Report, UnknownMembersAreRejected)
{
    JsonValue doc = full_report();
    std::set<std::string> tried;
    std::vector<std::string> accepted;
    for_each_object(doc, "report", [&](JsonValue& object,
                                       const std::string& path) {
        if (!tried.insert(path).second)
            return;
        object.object["bogus"] = JsonValue{};
        std::string error;
        if (validate_report(doc, &error))
            accepted.push_back(path);
        else
            EXPECT_NE(error.find("unknown field 'bogus'"), std::string::npos)
                << error;
        object.object.erase("bogus");
    });
    EXPECT_EQ(accepted, std::vector<std::string>{});
    EXPECT_GT(tried.size(), 50u);
}

TEST(Report, StripRemovesHostDependentMembersOnly)
{
    const JsonValue doc = full_report();
    JsonValue expected = doc;
    for (JsonValue& run : expected.object["runs"].array) {
        ASSERT_EQ(run.object.erase("host"), 1u);
        ASSERT_EQ(run.object.erase("native_traffic"), 1u);
    }
    JsonValue stripped = doc;
    strip_nondeterministic(stripped);
    EXPECT_TRUE(same(stripped, expected));
    EXPECT_FALSE(same(stripped, doc));
}

std::string
read_source_file(const std::string& relative)
{
    std::ifstream in(std::string(NUCALOCK_SOURCE_DIR) + "/" + relative);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Report, DocsAgreeWithTheSchemaTable)
{
    // docs/observability.md embeds the rendered table between markers.
    const std::string doc = read_source_file("docs/observability.md");
    const std::string begin = "<!-- report-schema:begin -->\n";
    const std::size_t from = doc.find(begin);
    const std::size_t to = doc.find("<!-- report-schema:end -->");
    ASSERT_NE(from, std::string::npos);
    ASSERT_NE(to, std::string::npos);
    const std::string section =
        doc.substr(from + begin.size(), to - from - begin.size());
    EXPECT_EQ(section, report_schema_reference())
        << "replace the report-schema section of docs/observability.md "
           "with:\n"
        << report_schema_reference();

    // The committed reference report CI's events/sec floor reads.
    const std::string report =
        read_source_file("docs/reports/big_topology_scaling.json");
    ASSERT_FALSE(report.empty());
    std::string error;
    EXPECT_TRUE(validate_report_text(report, &error)) << error;
}

// --------------------------------------- probes do not perturb the run --

NewBenchConfig
small_config(std::uint64_t seed)
{
    NewBenchConfig config;
    config.topology = Topology::symmetric(2, 4);
    config.threads = 8;
    config.iterations_per_thread = 12;
    config.critical_work = 300;
    config.private_work = 800;
    config.seed = seed;
    return config;
}

void
expect_same_tx(const sim::TxCount& a, const sim::TxCount& b,
               const std::string& where)
{
    EXPECT_EQ(a.local_tx, b.local_tx) << where;
    EXPECT_EQ(a.global_tx, b.global_tx) << where;
}

/** Every resource's totals, queue-delay buckets and recorded series. */
void
expect_same_contention(const sim::ContentionStats& a,
                       const sim::ContentionStats& b, const std::string& name)
{
    EXPECT_EQ(a.sim_time_ns, b.sim_time_ns) << name;
    EXPECT_EQ(a.series_bin_ns, b.series_bin_ns) << name;
    ASSERT_EQ(a.resources.size(), b.resources.size()) << name;
    for (std::size_t r = 0; r < a.resources.size(); ++r) {
        const sim::ResourceUsage& x = a.resources[r];
        const sim::ResourceUsage& y = b.resources[r];
        const std::string where = name + " " + x.name;
        EXPECT_EQ(x.transactions, y.transactions) << where;
        EXPECT_EQ(x.busy_ns, y.busy_ns) << where;
        EXPECT_EQ(x.queue_ns, y.queue_ns) << where;
        for (int q = 0; q < stats::LogHistogram::kBuckets; ++q)
            EXPECT_EQ(x.queue_delay_ns.bucket_count(q),
                      y.queue_delay_ns.bucket_count(q))
                << where << " queue-delay bucket " << q;
        EXPECT_EQ(x.busy_ns_bins, y.busy_ns_bins) << where;
        EXPECT_EQ(x.tx_bins, y.tx_bins) << where;
    }
}

void
expect_same_run(const BenchResult& a, const BenchResult& b,
                const std::string& name)
{
    EXPECT_EQ(a.acquisition_order_hash, b.acquisition_order_hash) << name;
    EXPECT_EQ(a.total_time, b.total_time) << name;
    EXPECT_EQ(a.finish_times, b.finish_times) << name;
    EXPECT_EQ(a.traffic.local_tx, b.traffic.local_tx) << name;
    EXPECT_EQ(a.traffic.global_tx, b.traffic.global_tx) << name;
    EXPECT_EQ(a.traffic.data_fetch_tx, b.traffic.data_fetch_tx) << name;
    EXPECT_EQ(a.traffic.invalidation_tx, b.traffic.invalidation_tx) << name;
    EXPECT_EQ(a.traffic.atomic_tx, b.traffic.atomic_tx) << name;
    EXPECT_EQ(a.sim_memory_accesses, b.sim_memory_accesses) << name;
    EXPECT_EQ(a.sim_fiber_switches, b.sim_fiber_switches) << name;
    expect_same_contention(a.contention, b.contention, name);

    const sim::TrafficAttribution& x = a.traffic_attribution;
    const sim::TrafficAttribution& y = b.traffic_attribution;
    EXPECT_FALSE(x.per_lock.empty()) << name;
    EXPECT_EQ(x.per_lock.size(), y.per_lock.size()) << name;
    for (std::size_t i = 0; i < std::min(x.per_lock.size(), y.per_lock.size());
         ++i) {
        EXPECT_EQ(x.per_lock[i].lock_id, y.per_lock[i].lock_id) << name;
        for (std::size_t p = 0; p < sim::kNumTxPhases; ++p)
            expect_same_tx(x.per_lock[i].by_phase[p], y.per_lock[i].by_phase[p],
                           name + " lock row " + std::to_string(i) + " " +
                               sim::tx_phase_name(static_cast<sim::TxPhase>(p)));
    }
    EXPECT_EQ(x.per_node.size(), y.per_node.size()) << name;
    for (std::size_t n = 0; n < std::min(x.per_node.size(), y.per_node.size());
         ++n)
        expect_same_tx(x.per_node[n], y.per_node[n],
                       name + " node " + std::to_string(n));
}

/**
 * Run @p config three ways and require the same simulated run: bare,
 * where the engine parks the locks' backoff polls and replays the
 * critical-section walks; with a memtrace recorder, which makes both run
 * literally; and with a metrics and timeline sink installed, which also
 * does. So this is both the probe-neutrality check and the lazy-vs-literal
 * equivalence check. Compared: order hash, end and per-thread finish
 * times, traffic with its by-cause fields and its per-(lock, phase) and
 * per-node attribution, every resource's contention record, and the
 * engine's event and pick counts; the run-ahead counts between the two
 * literal runs. Returns the bare run; @p reg holds the probed run's
 * metrics.
 */
BenchResult
expect_probe_neutral(LockKind kind, const NewBenchConfig& config,
                     MetricsRegistry& reg)
{
    const std::string name = locks::lock_name(kind);
    const BenchResult bare = run_newbench(kind, config);

    sim::TraceRecorder recorder;
    recorder.set_max_events(1);
    NewBenchConfig traced = config;
    traced.memory_trace = &recorder;
    const BenchResult literal = run_newbench(kind, traced);

    TimelineBuilder tb;
    MultiSink sink;
    sink.add(&reg);
    sink.add(&tb);
    NewBenchConfig probed = config;
    probed.probe = &sink;
    const BenchResult observed = run_newbench(kind, probed);
    reg.finalize();

    expect_same_run(bare, literal, name + " (memtrace)");
    expect_same_run(bare, observed, name + " (sink)");
    EXPECT_EQ(literal.sim_run_ahead_picks, observed.sim_run_ahead_picks)
        << name;
    EXPECT_EQ(literal.sim_lazy_picks, 0u) << name;
    EXPECT_EQ(observed.sim_lazy_picks, 0u) << name;
    EXPECT_EQ(literal.sim_replayed_picks, 0u) << name;
    EXPECT_EQ(observed.sim_replayed_picks, 0u) << name;
    EXPECT_GT(reg.events_seen(), 0u) << name;
    return bare;
}

/** The locks whose acquire loops wait through locks::backoff_poll(). */
bool
polls(LockKind kind)
{
    return kind == LockKind::TatasExp || kind == LockKind::Ticket ||
           kind == LockKind::Rh || kind == LockKind::Hbo ||
           kind == LockKind::HboGt || kind == LockKind::HboGtSd ||
           kind == LockKind::HboHier || kind == LockKind::Reactive ||
           kind == LockKind::Cohort || kind == LockKind::Adaptive;
}

/**
 * The subsystem's core guarantee, pinned per lock family: enabling probes
 * must not change the simulated run. Identical acquisition order hash,
 * identical end time, identical coherence traffic.
 */
TEST(ProbeNeutrality, SimRunIsBitIdenticalWithProbesOn)
{
    for (LockKind kind :
         {LockKind::Tatas, LockKind::TatasExp, LockKind::Ticket,
          LockKind::Anderson, LockKind::Mcs, LockKind::Clh, LockKind::Rh,
          LockKind::Hbo, LockKind::HboGt, LockKind::HboGtSd,
          LockKind::HboHier, LockKind::Reactive, LockKind::Cohort,
          LockKind::ClhTry, LockKind::Adaptive}) {
        MetricsRegistry reg;
        const BenchResult bare = expect_probe_neutral(kind, small_config(7), reg);
        if (polls(kind))
            EXPECT_GT(bare.sim_lazy_picks, 0u) << locks::lock_name(kind);
        else
            EXPECT_EQ(bare.sim_lazy_picks, 0u) << locks::lock_name(kind);
    }
}

/** HBO_GT_SD at the Fig 5 shape (2x14, critical work 2500), long enough
 *  for node winners to get angry: the remote polls, which stop at the
 *  anger limit, park and are queued at that limit; the angry ones, at the
 *  constant local base, park too. */
TEST(ProbeNeutrality, AngryHboGtSdAtTheFig5Shape)
{
    NewBenchConfig config;
    config.iterations_per_thread = 4;
    config.critical_work = 2500;
    MetricsRegistry reg;
    const BenchResult bare =
        expect_probe_neutral(LockKind::HboGtSd, config, reg);
    EXPECT_GT(bare.sim_lazy_picks, bare.sim_fiber_switches / 2);
    ASSERT_NE(reg.primary(), nullptr);
    EXPECT_GT(reg.primary()->angry_transitions, 0u);
}

/** get_angry_limit = 1: every remote poll is the last before anger. */
TEST(ProbeNeutrality, AngerAtTheFirstRemotePoll)
{
    NewBenchConfig config = small_config(11);
    config.params.get_angry_limit = 1;
    MetricsRegistry reg;
    expect_probe_neutral(LockKind::HboGtSd, config, reg);
    ASSERT_NE(reg.primary(), nullptr);
    EXPECT_GT(reg.primary()->angry_transitions, 0u);
}

/** Preemption draws from the same generator as the backoff jitter: a
 *  lazy poll must interleave the two draws as the literal loop does. */
TEST(ProbeNeutrality, PreemptedPolls)
{
    NewBenchConfig config = small_config(5);
    config.preemption = true;
    config.preempt_mean_interval = 20'000;
    config.preempt_duration = 5'000;
    for (LockKind kind : {LockKind::TatasExp, LockKind::Rh, LockKind::Hbo,
                          LockKind::HboGt, LockKind::HboGtSd,
                          LockKind::HboHier}) {
        MetricsRegistry reg;
        const BenchResult bare = expect_probe_neutral(kind, config, reg);
        const NewBenchConfig quiet = small_config(5);
        EXPECT_GT(bare.total_time, run_newbench(kind, quiet).total_time)
            << locks::lock_name(kind);
    }
}

/** Eight nodes: a remote poller sees the holder move between other remote
 *  nodes, which ends a lazy poll on a value that is neither free nor
 *  ours. */
TEST(ProbeNeutrality, RemoteHolderChangesAtEightNodes)
{
    NewBenchConfig config;
    config.topology = Topology::symmetric(8, 8);
    config.threads = 64;
    config.iterations_per_thread = 4;
    config.critical_work = 500;
    config.private_work = 800;
    for (LockKind kind : {LockKind::Hbo, LockKind::HboGt}) {
        MetricsRegistry reg;
        const BenchResult bare = expect_probe_neutral(kind, config, reg);
        EXPECT_GT(bare.sim_lazy_picks, 0u) << locks::lock_name(kind);
    }
}

/** Counts probe events; installing it makes polls run their literal loops. */
class CountingSink final : public ProbeSink
{
  public:
    void on_event(const ProbeRecord&) override { ++events; }
    std::uint64_t events = 0;
};

/**
 * The lazy-vs-literal differential: forty configurations drawn from a
 * fixed seed, each run bare (lazy polls) and with a sink (the literal
 * loops), must give the same simulated run. The locks take turns (the ten
 * polling locks, and TATAS as a control that never polls); each draws a
 * shape, critical and private work, preemption on or off, and a seed.
 * HBO_GT_SD also draws its anger limit: its remote polls have that round
 * limit, and 1 << 30 keeps it out of reach, past the lookahead. Two of
 * the shapes have two chips per node, so HBO_HIER's same-node, other-chip
 * level is compared too.
 */
TEST(LazyPolls, MatchTheLiteralLoopsOnRandomConfigs)
{
    const LockKind kinds[] = {
        LockKind::TatasExp, LockKind::Ticket,   LockKind::Rh,
        LockKind::Hbo,      LockKind::HboGt,    LockKind::HboGtSd,
        LockKind::HboHier,  LockKind::Reactive, LockKind::Cohort,
        LockKind::Adaptive, LockKind::Tatas};
    const Topology shapes[] = {Topology::symmetric(1, 4),
                               Topology::symmetric(2, 14),
                               Topology::hierarchical(2, 2, 4),
                               Topology::symmetric(8, 8),
                               Topology::hierarchical(4, 2, 4)};
    const std::uint32_t critical[] = {0, 100, 500, 1500, 2500};
    const std::uint32_t priv[] = {0, 200, 800, 4000};
    const std::uint32_t angry_limits[] = {1, 2, 16, 1u << 30};
    Xoshiro256 rng(20030208);
    int hier_on_chips = 0;
    for (std::size_t i = 0; i < 40; ++i) {
        const LockKind kind = kinds[i % std::size(kinds)];
        NewBenchConfig config;
        // RH is a two-node lock.
        config.topology = shapes[rng.next_below(kind == LockKind::Rh ? 3 : 5)];
        config.threads = config.topology.num_cpus();
        config.iterations_per_thread = config.threads > 4 ? 3 : 12;
        config.critical_work = critical[rng.next_below(std::size(critical))];
        config.private_work = priv[rng.next_below(std::size(priv))];
        config.preemption = rng.next_below(2) == 1;
        config.preempt_mean_interval = 20'000;
        config.preempt_duration = 5'000;
        config.seed = 1 + rng.next_below(1000);
        if (kind == LockKind::HboGtSd)
            config.params.get_angry_limit =
                angry_limits[rng.next_below(std::size(angry_limits))];
        const std::string name =
            std::string(locks::lock_name(kind)) + " " +
            std::to_string(config.topology.num_nodes()) + "x" +
            std::to_string(config.topology.cpus_in_node(0)) +
            (config.topology.flat_chips()
                 ? ""
                 : " (" + std::to_string(config.topology.num_chips()) +
                       " chips)") +
            " cw " +
            std::to_string(config.critical_work) + " pw " +
            std::to_string(config.private_work) +
            (config.preemption ? " preempted" : "") + " seed " +
            std::to_string(config.seed) +
            (kind == LockKind::HboGtSd
                 ? " anger " + std::to_string(config.params.get_angry_limit)
                 : "");

        const BenchResult lazy = run_newbench(kind, config);
        CountingSink sink;
        config.probe = &sink;
        const BenchResult literal = run_newbench(kind, config);
        expect_same_run(lazy, literal, name);
        EXPECT_EQ(literal.sim_lazy_picks, 0u) << name;
        if (kind == LockKind::Tatas) {
            EXPECT_EQ(lazy.sim_lazy_picks, 0u) << name;
        }
        EXPECT_GT(sink.events, 0u) << name;
        if (kind == LockKind::HboHier && !config.topology.flat_chips())
            ++hier_on_chips;
    }
    EXPECT_GT(hier_on_chips, 0);
}

/**
 * @p config's threads each make 12 attempts at @p kind through
 * acquire_for, with no FaultInjector, under a timeout drawn per attempt
 * from 100 ns to 10 us. An attempt that times out is followed by a pause;
 * one that acquires walks two lines. So the locks' deadline-bounded polls
 * may park. Fills lock_timeouts.
 */
BenchResult
run_timed_attempts(LockKind kind, const harness::SimRunConfig& config)
{
    harness::SimRun run(config);
    locks::AnyLock<sim::SimContext> lock(run.machine(), kind, config.params);
    const sim::MemRef cs = run.machine().alloc_array(2, 0, 0);
    std::uint64_t timeouts = 0;
    run.add_threads([&](sim::SimContext& ctx, int) {
        ctx.delay(ctx.rng().next_below(801));
        for (int attempt = 0; attempt < 12; ++attempt) {
            ctx.cs_wait_begin();
            if (!lock.acquire_for(ctx, 100 + ctx.rng().next_below(9'901))) {
                ctx.cs_wait_abort();
                ++timeouts;
                ctx.delay(ctx.rng().next_below(400));
                continue;
            }
            run.enter(ctx);
            ctx.touch_array(cs, 2, true);
            ctx.cs_exit();
            lock.release(ctx);
            ctx.delay(ctx.rng().next_below(800));
        }
    });
    BenchResult result = run.finish();
    result.lock_timeouts = timeouts;
    return result;
}

/**
 * The lazy-vs-literal differential for timed waits: the eight locks with a
 * native timeout run run_timed_attempts() bare and with a sink (the
 * literal loops), flat and on chips, preempted in every other run, and
 * must give the same simulated run and timeouts. Every lock times out,
 * and those whose timed paths poll through backoff_poll park their
 * deadline-bounded polls (COHORT's timed pair and the queue locks' flag
 * waits do not poll).
 */
TEST(LazyPolls, TimedPollsMatchTheLiteralLoops)
{
    int i = 0;
    for (LockKind kind : locks::all_lock_kinds()) {
        if (!locks::lock_supports_native_timeout(kind))
            continue;
        std::uint64_t lazy_picks = 0;
        for (const bool chips : {false, true}) {
            harness::SimRunConfig config;
            config.topology = chips ? Topology::hierarchical(2, 2, 4)
                                    : Topology::symmetric(2, 4);
            config.threads = config.topology.num_cpus();
            config.seed = static_cast<std::uint64_t>(1 + i);
            config.preemption = i % 2 == 1;
            config.preempt_mean_interval = 20'000;
            config.preempt_duration = 5'000;
            ++i;
            const std::string name = std::string(locks::lock_name(kind)) +
                                     (chips ? " on chips" : " flat");
            const BenchResult lazy = run_timed_attempts(kind, config);
            CountingSink sink;
            config.probe = &sink;
            const BenchResult literal = run_timed_attempts(kind, config);
            expect_same_run(lazy, literal, name);
            EXPECT_EQ(lazy.lock_timeouts, literal.lock_timeouts) << name;
            EXPECT_GT(lazy.lock_timeouts, 0u) << name;
            EXPECT_EQ(literal.sim_lazy_picks, 0u) << name;
            EXPECT_GT(sink.events, 0u) << name;
            lazy_picks += lazy.sim_lazy_picks;
        }
        if (polls(kind) && kind != LockKind::Cohort) {
            EXPECT_GT(lazy_picks, 0u) << locks::lock_name(kind);
        }
    }
    EXPECT_EQ(i, 16);
}

/**
 * The replayed-vs-literal walk differential: seventy-five configurations,
 * each run bare (replayed walks, lazy polls) and with a sink (literal
 * walks and polls), must give the same simulated run. Every lock runs at
 * every critical-work level (0, 1, 2, 7 and 157 lines); a shape, private
 * work and a seed are drawn. Preemption is on in every fourth draw and a
 * contention series in the draw after it: both force the literal walk,
 * so those draws compare it with itself under the replaying engine's
 * other paths, and every lock keeps draws that replay.
 */
TEST(ReplayedWalks, MatchTheLiteralWalksOnRandomConfigs)
{
    const std::vector<LockKind> kinds = locks::all_lock_kinds();
    const Topology shapes[] = {Topology::symmetric(1, 4),
                               Topology::symmetric(2, 14),
                               Topology::hierarchical(2, 2, 4),
                               Topology::symmetric(8, 8)};
    const std::uint32_t critical[] = {0, 16, 32, 100, 2500};
    const std::uint32_t priv[] = {0, 200, 800, 4000};
    Xoshiro256 rng(20030209);
    std::map<LockKind, std::uint64_t> replayed;
    for (std::size_t i = 0; i < kinds.size() * std::size(critical); ++i) {
        const LockKind kind = kinds[i % kinds.size()];
        NewBenchConfig config;
        // RH is a two-node lock.
        config.topology = shapes[rng.next_below(kind == LockKind::Rh ? 3 : 4)];
        config.threads = config.topology.num_cpus();
        config.iterations_per_thread = config.threads > 4 ? 3 : 12;
        config.critical_work = critical[i / kinds.size()];
        config.private_work = priv[rng.next_below(std::size(priv))];
        config.preemption = i % 4 == 1;
        config.preempt_mean_interval = 20'000;
        config.preempt_duration = 5'000;
        config.contention_bin_ns = i % 4 == 2 ? 5'000 : 0;
        config.seed = 1 + rng.next_below(1000);
        const std::string name =
            std::string(locks::lock_name(kind)) + " " +
            std::to_string(config.topology.num_nodes()) + "x" +
            std::to_string(config.topology.cpus_in_node(0)) + " cw " +
            std::to_string(config.critical_work) + " pw " +
            std::to_string(config.private_work) +
            (config.preemption ? " preempted" : "") +
            (config.contention_bin_ns != 0 ? " series" : "") + " seed " +
            std::to_string(config.seed);

        const BenchResult bare = run_newbench(kind, config);
        CountingSink sink;
        config.probe = &sink;
        const BenchResult literal = run_newbench(kind, config);
        expect_same_run(bare, literal, name);
        EXPECT_EQ(literal.sim_replayed_picks, 0u) << name;
        if (config.preemption || config.contention_bin_ns != 0) {
            EXPECT_EQ(bare.sim_replayed_picks, 0u) << name;
        }
        replayed[kind] += bare.sim_replayed_picks;
    }
    for (LockKind kind : kinds)
        EXPECT_GT(replayed[kind], 0u) << locks::lock_name(kind);
}

/** The KV service, bare and with a sink, under every lock: its reads walk
 *  the stripe's lines without writing them. */
TEST(ReplayedWalks, KvServiceMatchesTheLiteralWalks)
{
    std::uint64_t replayed = 0;
    for (LockKind kind : locks::all_lock_kinds()) {
        apps::KvServiceConfig config;
        config.topology = Topology::symmetric(2, 4);
        config.threads = 8;
        config.keys = 256;
        config.stripes = 4;
        config.buckets_per_stripe = 8;
        config.ops_per_thread = 60;
        config.storm_inserts_per_thread = 8;
        const std::string name = locks::lock_name(kind);
        const BenchResult bare = apps::run_kv_service(kind, config).bench;
        CountingSink sink;
        config.probe = &sink;
        const BenchResult literal = apps::run_kv_service(kind, config).bench;
        expect_same_run(bare, literal, name);
        EXPECT_EQ(literal.sim_replayed_picks, 0u) << name;
        EXPECT_GT(sink.events, 0u) << name;
        replayed += bare.sim_replayed_picks;
    }
    EXPECT_GT(replayed, 0u);
}

TEST(ProbeNeutrality, HashIsSeedDeterministicAndSeedSensitive)
{
    const BenchResult a = run_newbench(LockKind::Mcs, small_config(3));
    const BenchResult b = run_newbench(LockKind::Mcs, small_config(3));
    const BenchResult c = run_newbench(LockKind::Mcs, small_config(4));
    EXPECT_EQ(a.acquisition_order_hash, b.acquisition_order_hash);
    EXPECT_NE(a.acquisition_order_hash, c.acquisition_order_hash);
}

// ------------------------------------------------- end-to-end metrics ---

TEST(EndToEnd, RegistryMatchesBenchResult)
{
    MetricsRegistry reg;
    NewBenchConfig config = small_config(1);
    config.probe = &reg;
    const BenchResult r = run_newbench(LockKind::Mcs, config);
    reg.finalize();

    const LockMetrics* m = reg.primary();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->acquisitions, r.total_acquires);
    EXPECT_EQ(m->releases, r.total_acquires);
    // Every acquisition after the first is a handover or a repeat.
    EXPECT_EQ(m->handovers_local + m->handovers_remote + m->repeats,
              m->acquisitions - 1);
    // The registry's remote-handover count must agree with the harness's
    // host-side node_handoff_ratio (same definition, independent plumbing).
    const double ratio = static_cast<double>(m->handovers_remote) /
                         static_cast<double>(m->acquisitions - 1);
    EXPECT_NEAR(ratio, r.node_handoff_ratio, 1e-12);
    EXPECT_EQ(m->wait_ns.count(), m->acquisitions);
    EXPECT_EQ(m->hold_ns.count(), m->releases);
}

TEST(EndToEnd, GatedLockEmitsGateAndBackoffEvents)
{
    MetricsRegistry reg;
    NewBenchConfig config = small_config(1);
    config.probe = &reg;
    run_newbench(LockKind::HboGtSd, config);
    reg.finalize();

    const LockMetrics* m = reg.primary();
    ASSERT_NE(m, nullptr);
    // Under contention the GT gate must have been consulted, and remote
    // spinners must have recorded remote-class backoff.
    EXPECT_GT(m->gate_blocked + m->gate_passed, 0u);
    const auto remote = static_cast<std::size_t>(BackoffClass::Remote);
    EXPECT_GT(m->backoff[remote].episodes, 0u);
    EXPECT_GT(m->backoff_ns_total(), 0u);
}

TEST(EndToEnd, TimelineCoversRunAndNests)
{
    TimelineBuilder tb;
    NewBenchConfig config = small_config(1);
    config.probe = &tb;
    const BenchResult r = run_newbench(LockKind::Hbo, config);
    tb.finalize();

    ASSERT_FALSE(tb.intervals().empty());
    EXPECT_LE(tb.last_time_ns(), static_cast<std::uint64_t>(r.total_time));
    for (const auto& [cpu, intervals] : tb.intervals()) {
        std::uint64_t prev_end = 0;
        std::uint64_t critical = 0;
        for (const Interval& iv : intervals) {
            EXPECT_LE(iv.begin_ns, iv.end_ns);
            EXPECT_GE(iv.begin_ns, prev_end) << "overlap on cpu " << cpu;
            prev_end = iv.end_ns;
            if (iv.state == CpuState::Critical)
                ++critical;
        }
        EXPECT_GT(critical, 0u) << "cpu " << cpu << " never held the lock";
    }
}

} // namespace
