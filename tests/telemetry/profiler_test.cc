/**
 * @file
 * Self-profiler semantics: probe gating through the probe context,
 * exclusive (self) time under nesting, and the prof.* stat-group
 * contract — present exactly when profiling was
 * requested, so default stat dumps stay deterministic.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"
#include "telemetry/profiler.hh"

namespace kindle::telemetry
{
namespace
{

/** Busy-wait so a scope accumulates real, bounded-below wall time. */
void
spinFor(std::uint64_t ns)
{
    const std::uint64_t until = hostNowNs() + ns;
    while (hostNowNs() < until) {
    }
}

TEST(ProfilerTest, ProbeWithoutProfilerIsInert)
{
    ASSERT_EQ(currentProfiler(), nullptr);
    // Must not crash or register anywhere; this is the default state
    // of every probe in the tree.
    for (int i = 0; i < 1000; ++i) {
        KINDLE_PROF_SCOPE(cache);
    }
    EXPECT_EQ(currentProfiler(), nullptr);
}

TEST(ProfilerTest, RecordsCallsAndTimePerCategory)
{
    Profiler prof;
    ProbeScope scope({.profiler = &prof});
    for (int i = 0; i < 100; ++i) {
        KINDLE_PROF_SCOPE(cache);
    }
    {
        KINDLE_PROF_SCOPE(redo);
        spinFor(100000);
    }
    EXPECT_EQ(prof.categoryCalls(ProfCat::cache), 100);
    EXPECT_EQ(prof.categoryCalls(ProfCat::redo), 1);
    EXPECT_GE(prof.categoryNs(ProfCat::redo), 100000);
    EXPECT_EQ(prof.categoryCalls(ProfCat::sched), 0);
    EXPECT_EQ(prof.totalNs(), prof.categoryNs(ProfCat::cache) +
                                  prof.categoryNs(ProfCat::redo));
}

TEST(ProfilerTest, NestedScopesChargeExclusiveTime)
{
    Profiler prof;
    ProbeScope scope({.profiler = &prof});
    {
        KINDLE_PROF_SCOPE(sched);
        {
            KINDLE_PROF_SCOPE(cache);
            spinFor(2000000);
        }
        // The outer scope does almost nothing itself: its self time
        // must exclude the child's 2 ms, not absorb it.
    }
    EXPECT_GE(prof.categoryNs(ProfCat::cache), 2000000);
    EXPECT_LT(prof.categoryNs(ProfCat::sched),
              prof.categoryNs(ProfCat::cache));
}

TEST(ProfilerTest, PrintTableListsActiveCategoriesAndTotal)
{
    Profiler prof;
    ProbeScope scope({.profiler = &prof});
    {
        KINDLE_PROF_SCOPE(ckpt);
        spinFor(50000);
    }
    std::ostringstream os;
    prof.printTable(os);
    const std::string table = os.str();
    EXPECT_NE(table.find("prof: ckpt"), std::string::npos);
    EXPECT_NE(table.find("prof: total"), std::string::npos);
    // Never-entered categories are suppressed, not printed as zeros.
    EXPECT_EQ(table.find("prof: scrub"), std::string::npos);
}

TEST(ProfilerTest, ProfStatsExistOnlyWhenProfilingRequested)
{
    auto snapshot = [](bool profiling) {
        KindleConfig cfg;
        cfg.memory.dramBytes = 128 * oneMiB;
        cfg.memory.nvmBytes = 128 * oneMiB;
        cfg.profiling = profiling;
        // Arm the sampler so the event loop demonstrably dispatches
        // (a bare microbench run can schedule no events at all).
        cfg.telemetry.sampleInterval = 100 * oneUs;
        KindleSystem sys(cfg);
        sys.run(micro::seqAllocTouch(oneMiB), "prof");
        return sys.snapshotStats();
    };

    const auto plain = snapshot(false);
    EXPECT_FALSE(plain.has("prof.eventLoopNs"));
    EXPECT_FALSE(plain.has("prof.schedCalls"));

    const auto profiled = snapshot(true);
    ASSERT_TRUE(profiled.has("prof.eventLoopNs"));
    ASSERT_TRUE(profiled.has("prof.schedCalls"));
    // The run dispatched events and scheduler epochs, so the probes
    // must have fired.
    EXPECT_GT(profiled.get("prof.eventLoopCalls"), 0);
    EXPECT_GT(profiled.get("prof.schedCalls"), 0);
    EXPECT_GT(profiled.get("prof.cacheCalls"), 0);
}

} // namespace
} // namespace kindle::telemetry
