/**
 * @file
 * Probe routing: the newest ProbeScope on a thread wins for the trace
 * sink, the crash injector and the profiler alike; a null member
 * shadows the outer system; leaving a scope restores the outer
 * system; and scopes must unwind LIFO.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/probe_context.hh"
#include "fault/fault.hh"
#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "telemetry/profiler.hh"
#include "trace/trace.hh"

namespace kindle
{
namespace
{

/** One system's worth of probe consumers on a fixed clock. */
struct Consumers
{
    Tick clock = 0;
    trace::TraceSink sink{trace::TraceParams{},
                          [this] { return clock; }};
    fault::CrashInjector injector{fault::FaultPlan{},
                                  [this] { return clock; }};
    telemetry::Profiler profiler;

    Consumers() { injector.activate(); }

    ProbeContext context() { return {&sink, &injector, &profiler}; }
};

/** Fire one probe of each kind at the current context. */
void
fireAll()
{
    KINDLE_TRACE_INSTANT(fault, fault, "probe");
    KINDLE_CRASH_SITE("probe.site");
    KINDLE_PROF_SCOPE(cache);
}

TEST(ProbeContextTest, NewestScopeWinsForAllThreeKinds)
{
    Consumers outer, inner;
    ProbeScope outer_scope(outer.context());
    {
        ProbeScope inner_scope(inner.context());
        EXPECT_EQ(trace::currentSink(), &inner.sink);
        EXPECT_EQ(fault::current(), &inner.injector);
        EXPECT_EQ(telemetry::currentProfiler(), &inner.profiler);
        fireAll();
    }
    EXPECT_EQ(inner.sink.totalRecorded(), 2u);  // instant + site crumb
    EXPECT_EQ(inner.injector.hitsOf("probe.site"), 1u);
    EXPECT_EQ(inner.profiler.categoryCalls(telemetry::ProfCat::cache),
              1);
    EXPECT_EQ(outer.sink.totalRecorded(), 0u);
    EXPECT_EQ(outer.injector.hitsOf("probe.site"), 0u);
    EXPECT_EQ(outer.profiler.categoryCalls(telemetry::ProfCat::cache),
              0);
}

TEST(ProbeContextTest, NullMembersShadowTheOuterSystem)
{
    Consumers outer;
    ProbeScope outer_scope(outer.context());
    {
        ProbeScope empty(ProbeContext{});
        EXPECT_EQ(trace::currentSink(), nullptr);
        EXPECT_EQ(fault::current(), nullptr);
        EXPECT_EQ(telemetry::currentProfiler(), nullptr);
        fireAll();
    }
    EXPECT_EQ(outer.sink.totalRecorded(), 0u);
    EXPECT_EQ(outer.injector.hitsOf("probe.site"), 0u);
    EXPECT_EQ(outer.profiler.categoryCalls(telemetry::ProfCat::cache),
              0);
}

TEST(ProbeContextTest, LeavingAScopeRestoresTheOuterSystem)
{
    Consumers outer, inner;
    ProbeScope outer_scope(outer.context());
    {
        ProbeScope inner_scope(inner.context());
    }
    EXPECT_EQ(trace::currentSink(), &outer.sink);
    EXPECT_EQ(fault::current(), &outer.injector);
    EXPECT_EQ(telemetry::currentProfiler(), &outer.profiler);
    fireAll();
    EXPECT_EQ(outer.injector.hitsOf("probe.site"), 1u);
    EXPECT_EQ(outer.profiler.categoryCalls(telemetry::ProfCat::cache),
              1);
}

TEST(ProbeContextTest, InnerSystemCrashSitesStayInTheInnerSystem)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 64 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.persistence =
        persist::PersistParams{persist::PtScheme::rebuild, oneMs / 4};

    KindleSystem outer(cfg);
    const double outer_hits =
        outer.injector().stats().scalarValue("siteHits");
    {
        KindleSystem inner(cfg);
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, 16 * pageSize, true);
        b.touchPages(micro::scriptBase, 16 * pageSize);
        b.compute(2000000);
        b.exit();
        inner.run(b.build(), "inner");
        EXPECT_GT(inner.injector().stats().scalarValue("siteHits"), 0);
    }
    EXPECT_EQ(outer.injector().stats().scalarValue("siteHits"),
              outer_hits);
    EXPECT_EQ(fault::current(), &outer.injector());
}

TEST(ProbeContextDeathTest, NonLifoUnwindingPanics)
{
    EXPECT_DEATH(
        {
            auto first = std::make_unique<ProbeScope>(ProbeContext{});
            ProbeScope second(ProbeContext{});
            first.reset();
        },
        "probe scopes must unwind LIFO");
}

} // namespace
} // namespace kindle
