/**
 * @file
 * Unit tests for the crash-point fault injector: plan arming, trigger
 * semantics, observe-only counting, and the thread-local routing
 * stack probes are dispatched through.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hh"

namespace kindle::fault
{
namespace
{

std::unique_ptr<CrashInjector>
makeInjector(FaultPlan plan, Tick now = 1000)
{
    auto inj = std::make_unique<CrashInjector>(std::move(plan),
                                               [now] { return now; });
    inj->activate();
    return inj;
}

TEST(FaultPlanTest, ArmedRequiresATrigger)
{
    EXPECT_FALSE(FaultPlan{}.armed());
    FaultPlan by_site;
    by_site.site = "ckpt.after_commit";
    EXPECT_TRUE(by_site.armed());
    FaultPlan by_write;
    by_write.atNthDurableWrite = 3;
    EXPECT_TRUE(by_write.armed());
    FaultPlan by_tick;
    by_tick.atTick = 500;
    EXPECT_TRUE(by_tick.armed());
}

TEST(FaultInjectionTest, SiteTriggerFiresAtNthOccurrence)
{
    FaultPlan plan;
    plan.site = "redo.after_append";
    plan.occurrence = 3;
    auto inj = makeInjector(plan);

    inj->site("redo.after_append");
    inj->site("some.other_site");
    inj->site("redo.after_append");
    EXPECT_FALSE(inj->fired());
    try {
        inj->site("redo.after_append");
        FAIL() << "third occurrence must fire";
    } catch (const PowerLoss &loss) {
        EXPECT_EQ(loss.site(), "redo.after_append");
        EXPECT_EQ(loss.tick(), 1000u);
    }
    EXPECT_TRUE(inj->fired());
    EXPECT_EQ(inj->firedSite(), "redo.after_append");
    // A fired injector is spent: further probes are inert.
    inj->site("redo.after_append");
    EXPECT_EQ(inj->hitsOf("redo.after_append"), 3u);
}

TEST(FaultInjectionTest, DurableWriteTriggerFires)
{
    FaultPlan plan;
    plan.atNthDurableWrite = 2;
    auto inj = makeInjector(plan);
    inj->durableWrite(10);
    EXPECT_FALSE(inj->fired());
    EXPECT_THROW(inj->durableWrite(20), PowerLoss);
    EXPECT_EQ(inj->durableWrites(), 2u);
}

TEST(FaultInjectionTest, TickTriggerFiresAtFirstProbeAtOrAfter)
{
    FaultPlan plan;
    plan.atTick = 1000;
    CrashInjector early(plan, [] { return Tick{999}; });
    early.activate();
    early.site("a");
    EXPECT_FALSE(early.fired());

    CrashInjector late(plan, [] { return Tick{1000}; });
    late.activate();
    EXPECT_THROW(late.site("a"), PowerLoss);
}

TEST(FaultInjectionTest, UnarmedInjectorObservesWithoutFiring)
{
    auto inj = makeInjector(FaultPlan{});
    for (int i = 0; i < 5; ++i)
        inj->site("pt.after_store");
    inj->durableWrite(1);
    EXPECT_FALSE(inj->fired());
    EXPECT_EQ(inj->hitsOf("pt.after_store"), 5u);
    EXPECT_EQ(inj->durableWrites(), 1u);
    EXPECT_EQ(inj->allHits().size(), 1u);
}

TEST(FaultInjectionTest, InactiveInjectorIgnoresProbes)
{
    FaultPlan plan;
    plan.site = "x";
    CrashInjector inj(plan, [] { return Tick{0}; });
    inj.site("x");
    EXPECT_FALSE(inj.fired());
    EXPECT_EQ(inj.hitsOf("x"), 0u);
}

TEST(FaultInjectionTest, ObserverSeesEveryHitIncludingTheFatalOne)
{
    FaultPlan plan;
    plan.site = "slot.commit_pre_fence";
    plan.occurrence = 2;
    auto inj = makeInjector(plan);
    std::vector<std::uint64_t> seen;
    inj->setObserver([&](const std::string &name, std::uint64_t count) {
        if (name == "slot.commit_pre_fence")
            seen.push_back(count);
    });
    inj->site("slot.commit_pre_fence");
    EXPECT_THROW(inj->site("slot.commit_pre_fence"), PowerLoss);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(FaultRoutingTest, ScopeRoutesProbesAndUnwinds)
{
    EXPECT_EQ(current(), nullptr);
    crashSite("free.floating");  // probes without a scope are no-ops

    auto inj = makeInjector(FaultPlan{});
    {
        ProbeScope scope({.injector = inj.get()});
        EXPECT_EQ(current(), inj.get());
        crashSite("a.site");
        onDurableNvmWrite(7);
    }
    EXPECT_EQ(current(), nullptr);
    EXPECT_EQ(inj->hitsOf("a.site"), 1u);
    EXPECT_EQ(inj->durableWrites(), 1u);
}

TEST(FaultInventoryTest, KnownSitesCoverTheInstrumentedProtocols)
{
    const auto &sites = knownCrashSites();
    EXPECT_GE(sites.size(), 16u);
    const auto has = [&](const char *name) {
        return std::find(sites.begin(), sites.end(), name) !=
               sites.end();
    };
    EXPECT_TRUE(has("ckpt.after_commit"));
    EXPECT_TRUE(has("redo.append_pre_fence"));
    EXPECT_TRUE(has("pt.after_clwb"));
    EXPECT_TRUE(has("slot.mid_working_write"));
    EXPECT_TRUE(has("alloc.bitmap_pre_fence"));
    EXPECT_TRUE(has("hscc.after_copy"));
}

} // namespace
} // namespace kindle::fault
