/**
 * @file
 * Tests of the tracing substrate: span capture and nesting, category
 * masking, sink routing, the flight-recorder ring, Chrome-JSON export
 * shape, and the checkpoint-decomposition guarantee on a live system.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "persist/checkpoint.hh"
#include "trace/trace.hh"

namespace kindle::trace
{
namespace
{

TraceParams
paramsFor(bool spans, std::size_t ring, std::string categories = {})
{
    TraceParams p;
    p.spans = spans;
    p.ringDepth = ring;
    p.categories = std::move(categories);
    return p;
}

TEST(TraceTest, SpanCapturesStartDurationAndIdentity)
{
    Tick clock = 1000;
    TraceSink sink(paramsFor(true, 0), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "t.span");
        clock += 250;
    }
    ASSERT_EQ(sink.records().size(), 1u);
    const TraceRecord &rec = sink.records()[0];
    EXPECT_EQ(rec.start, 1000u);
    EXPECT_EQ(rec.dur, 250u);
    EXPECT_STREQ(rec.name, "t.span");
    EXPECT_EQ(rec.cat, Flag::checkpoint);
    EXPECT_EQ(rec.lane, Lane::ckpt);
    EXPECT_FALSE(rec.instant);
}

TEST(TraceTest, NestedSpansCompleteInnerFirstButExportOuterFirst)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 0), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "outer");
        clock += 10;
        {
            KINDLE_TRACE_SPAN(checkpoint, ckpt, "inner");
            clock += 30;
        }
        clock += 60;
    }

    // Capture order is completion order: the inner RAII span destructs
    // first.
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_STREQ(sink.records()[0].name, "inner");
    EXPECT_STREQ(sink.records()[1].name, "outer");
    EXPECT_LT(sink.records()[1].start, sink.records()[0].start);
    EXPECT_GT(sink.records()[1].dur, sink.records()[0].dur);

    // The Chrome export re-sorts so the parent precedes the child
    // (start ascending, duration descending on ties) — required for
    // Perfetto to nest them on one track.
    std::ostringstream os;
    sink.writeChromeJson(os);
    const auto doc = json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    std::vector<std::string> x_names;
    for (const auto &ev : doc->find("traceEvents")->items()) {
        if (ev.find("ph")->asString() == "X")
            x_names.push_back(ev.find("name")->asString());
    }
    const std::vector<std::string> expected = {"outer", "inner"};
    EXPECT_EQ(x_names, expected);
}

TEST(TraceTest, CategoryMaskRejectsUnlistedFlags)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 0, "redo,fault"),
                   [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    EXPECT_TRUE(sink.wants(Flag::redo));
    EXPECT_TRUE(sink.wants(Flag::fault));
    EXPECT_FALSE(sink.wants(Flag::checkpoint));

    KINDLE_TRACE_INSTANT(checkpoint, ckpt, "masked.out");
    KINDLE_TRACE_INSTANT(redo, redo, "kept");
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_STREQ(sink.records()[0].name, "kept");

    // Re-masking at runtime widens capture again; empty = all.
    sink.setCategories("");
    EXPECT_TRUE(sink.wants(Flag::checkpoint));
}

TEST(TraceTest, MaskedSpanSkipsArgumentFormatting)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(true, 0, "redo"),
                   [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    bool evaluated = false;
    auto touch = [&evaluated] {
        evaluated = true;
        return 42;
    };
    {
        KINDLE_TRACE_SPAN_ARGS(checkpoint, ckpt, "masked",
                               "v={}", touch());
    }
    EXPECT_FALSE(evaluated);
    EXPECT_TRUE(sink.records().empty());
}

TEST(TraceTest, NoSinkAndNullScopeAreInert)
{
    // Bare probe with no context installed: must not crash, must be
    // inactive.
    TraceSpan orphan(Flag::checkpoint, Lane::ckpt, "orphan");
    EXPECT_FALSE(orphan.active());

    // A context without a sink (a system that captures nothing)
    // leaves spans inactive and instants dropped.
    ProbeScope scope(ProbeContext{});
    TraceSpan unsunk(Flag::checkpoint, Lane::ckpt, "unsunk");
    EXPECT_FALSE(unsunk.active());
    KINDLE_TRACE_INSTANT(checkpoint, ckpt, "dropped");
}

TEST(TraceFlagsTest, CategoryListTrimsWhitespace)
{
    TraceSink sink(paramsFor(true, 0, "tlb, checkpoint ,hscc"),
                   [] { return Tick(0); });
    EXPECT_TRUE(sink.wants(Flag::tlb));
    EXPECT_TRUE(sink.wants(Flag::checkpoint));
    EXPECT_TRUE(sink.wants(Flag::hscc));
    EXPECT_FALSE(sink.wants(Flag::mem));
}

TEST(TraceFlagsTest, UnknownNamesAreTolerated)
{
    TraceSink sink(paramsFor(true, 0), [] { return Tick(0); });
    EXPECT_NO_THROW(sink.setCategories("nonsense,tlb"));
    EXPECT_TRUE(sink.wants(Flag::tlb));
    EXPECT_FALSE(sink.wants(Flag::mem));
}

TEST(TraceFlagsTest, EmptyListMeansAllCategories)
{
    TraceSink sink(paramsFor(true, 0, "redo"), [] { return Tick(0); });
    EXPECT_FALSE(sink.wants(Flag::event));
    for (const char *names : {"", "  "}) {
        sink.setCategories("redo");
        sink.setCategories(names);
        for (unsigned f = 0; f < unsigned(Flag::numFlags); ++f)
            EXPECT_TRUE(sink.wants(Flag(f))) << flagName(Flag(f));
    }
}

TEST(TraceFlagsTest, NamesRoundTrip)
{
    for (unsigned f = 0; f < unsigned(Flag::numFlags); ++f) {
        Flag back;
        ASSERT_TRUE(flagFromName(flagName(Flag(f)), back));
        EXPECT_EQ(back, Flag(f));
    }
    Flag unused;
    EXPECT_FALSE(flagFromName("nonsense", unused));
}

TEST(TraceTest, RingKeepsLastNRecordsOldestFirst)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(false, 4), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    for (int i = 0; i < 10; ++i) {
        clock = 100 * (i + 1);
        KINDLE_TRACE_INSTANT(fault, fault, "probe");
    }

    // Span collection is off: nothing accumulates unbounded.
    EXPECT_TRUE(sink.records().empty());
    EXPECT_EQ(sink.totalRecorded(), 10u);
    ASSERT_EQ(sink.ringSize(), 4u);
    // Oldest-first across the wraparound seam: ticks 700..1000.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(sink.ringAt(i).start, 700 + 100 * i);
        EXPECT_EQ(sink.ringAt(i).seq, 6 + i);
    }
}

TEST(TraceTest, RingShallowerThanTrafficStillChronological)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(false, 3), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    // Mixed spans and instants, enough to wrap several times.
    for (int i = 0; i < 17; ++i) {
        {
            KINDLE_TRACE_SPAN(checkpoint, ckpt, "w");
            clock += 5;
        }
        KINDLE_TRACE_INSTANT(redo, redo, "i");
    }
    EXPECT_EQ(sink.totalRecorded(), 34u);
    ASSERT_EQ(sink.ringSize(), 3u);
    for (std::size_t i = 1; i < sink.ringSize(); ++i) {
        EXPECT_GE(sink.ringAt(i).start, sink.ringAt(i - 1).start);
        EXPECT_GT(sink.ringAt(i).seq, sink.ringAt(i - 1).seq);
    }
}

TEST(TraceTest, FlightDumpIsSelfContainedJson)
{
    Tick clock = 0;
    TraceSink sink(paramsFor(false, 4), [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    for (int i = 0; i < 10; ++i) {
        clock += 50;
        KINDLE_TRACE_INSTANT(fault, fault, "breadcrumb");
    }

    FlightContext ctx;
    ctx.reason = "oracle-divergence";
    ctx.crashSite = "ckpt.after_commit";
    ctx.tick = clock;
    ctx.faultPlan = "power-loss @ ckpt.after_commit hit=3";
    std::ostringstream os;
    sink.writeFlightRecorder(os, ctx);

    const auto doc = json::parse(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    EXPECT_EQ(doc->find("reason")->asString(), "oracle-divergence");
    EXPECT_EQ(doc->find("crashSite")->asString(),
              "ckpt.after_commit");
    EXPECT_EQ(doc->find("faultPlan")->asString(),
              "power-loss @ ckpt.after_commit hit=3");
    EXPECT_EQ(doc->find("ringDepth")->asNumber(), 4);
    EXPECT_EQ(doc->find("totalRecorded")->asNumber(), 10);
    EXPECT_EQ(doc->find("dropped")->asNumber(), 6);
    const auto &records = doc->find("records")->items();
    ASSERT_EQ(records.size(), 4u);
    double prev = -1;
    for (const auto &rec : records) {
        EXPECT_EQ(rec.find("name")->asString(), "breadcrumb");
        EXPECT_EQ(rec.find("lane")->asString(), "fault");
        EXPECT_EQ(rec.find("cat")->asString(), "fault");
        const double tick = rec.find("tick")->asNumber();
        EXPECT_GT(tick, prev);
        prev = tick;
    }
}

/** Small checkpointing system used by the export-shape tests. */
KindleConfig
tracedConfig()
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 256 * oneMiB;
    cfg.memory.nvmBytes = 512 * oneMiB;
    cfg.persistence =
        persist::PersistParams{persist::PtScheme::rebuild, oneMs};
    cfg.trace.spans = true;
    return cfg;
}

std::unique_ptr<cpu::OpStream>
touchScript()
{
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 64 * pageSize, /*nvm=*/true);
    b.touchPages(micro::scriptBase, 64 * pageSize);
    for (int i = 0; i < 20; ++i)
        b.compute(1000000);  // ~0.3 ms each: crosses ckpt intervals
    b.munmap(micro::scriptBase, 64 * pageSize);
    b.exit();
    return b.build();
}

TEST(TraceTest, ChromeExportParsesAndIsChronological)
{
    KindleSystem sys(tracedConfig());
    sys.run(touchScript(), "trace-golden");

    std::ostringstream os;
    sys.writeTrace(os);
    std::string err;
    const auto doc = json::parse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->find("displayTimeUnit")->asString(), "ns");

    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool saw_process_name = false;
    std::size_t thread_names = 0;
    std::size_t complete = 0;
    double prev_ts = -1;
    for (const auto &ev : events->items()) {
        const std::string ph = ev.find("ph")->asString();
        if (ph == "M") {
            const std::string what = ev.find("name")->asString();
            saw_process_name |= what == "process_name";
            thread_names += what == "thread_name";
            continue;
        }
        // Payload events are strictly ordered for stream consumers:
        // ts never decreases after the metadata preamble.
        const double ts = ev.find("ts")->asNumber();
        EXPECT_GE(ts, prev_ts);
        prev_ts = ts;
        if (ph == "X") {
            ++complete;
            EXPECT_GE(ev.find("dur")->asNumber(), 0);
        }
    }
    EXPECT_TRUE(saw_process_name);
    EXPECT_GE(thread_names, 2u);  // at least ckpt + one more lane
    EXPECT_GT(complete, 0u);
}

TEST(TraceTest, CheckpointSpansDecomposeCkptTicks)
{
    KindleSystem sys(tracedConfig());
    sys.run(touchScript(), "trace-decompose");
    ASSERT_NE(sys.persistence(), nullptr);
    ASSERT_GT(sys.persistence()->checkpointsTaken(), 0u);

    // Sum of the top-level "ckpt" span durations must account for the
    // ticks the stat system attributes to checkpointing: the trace
    // explains the stats, bit for bit.
    double span_ticks = 0;
    for (const TraceRecord &rec : sys.traceSink().records()) {
        if (!rec.instant && std::strcmp(rec.name, "ckpt") == 0)
            span_ticks += static_cast<double>(rec.dur);
    }
    const double stat_ticks =
        sys.persistence()->stats().distribution("ckptTicks").sum();
    ASSERT_GT(stat_ticks, 0);
    EXPECT_GE(span_ticks, 0.95 * stat_ticks);
    EXPECT_DOUBLE_EQ(span_ticks, stat_ticks);
}

TEST(TraceTest, SystemFlightDumpNamesTheCrashSite)
{
    // Ring-only system (default): force a dump through the system
    // API and check it carries the context a post-mortem needs.
    KindleConfig cfg = tracedConfig();
    cfg.trace.spans = false;
    KindleSystem sys(cfg);
    sys.run(touchScript(), "flight");

    std::ostringstream os;
    sys.dumpFlightRecorder(os, "unit-test");
    const auto doc = json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("reason")->asString(), "unit-test");
    EXPECT_EQ(doc->find("ringDepth")->asNumber(), 512);
    EXPECT_GT(doc->find("records")->items().size(), 0u);
}

} // namespace
} // namespace kindle::trace
