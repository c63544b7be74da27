/**
 * @file
 * Golden digests: reduced runs whose ticks and statistics are pinned
 * to a committed FNV-1a digest.  Two fleets cover the fleet path;
 * one point each of Figure 5 (SSP), Figure 6 (HSCC) and Table IV
 * (rebuild-scheme checkpoints) covers the paper's figure paths; a
 * crash at a named site followed by reboot and recovery covers the
 * fault and recovery probes.  A change that claims only host speed
 * or a simpler structure must leave every digest where it is; any
 * drift in a simulated tick or stat fails here.
 *
 * The digest has the same form as the `stat digest` that
 * kindle_perfbench prints: FNV-1a over "ticks=N\n" followed by
 * "path=%.17g\n" for every stat of the snapshot except the host-time
 * prof.* ones, in snapshot order.
 *
 * When a change alters the model on purpose, update the constant and
 * say in the change description why the simulated behaviour moved.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "base/rand.hh"
#include "hscc_common.hh"
#include "kindle/microbench.hh"
#include "runner/fleet_scenario.hh"
#include "runner/sweep_runner.hh"
#include "ssp_common.hh"

namespace kindle
{
namespace
{

std::uint64_t
digestOf(Tick ticks, const statistics::StatSnapshot &stats)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string &text) {
        for (const unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    mix("ticks=" + std::to_string(ticks) + "\n");
    char value[64];
    for (const auto &[path, v] : stats.entries()) {
        if (path.compare(0, 5, "prof.") == 0)
            continue;
        std::snprintf(value, sizeof(value), "=%.17g\n", v);
        mix(path + value);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

runner::RunResult
runPoint(const runner::Scenario &sc)
{
    runner::RunResult r = runner::SweepRunner::runOne(sc);
    EXPECT_TRUE(r.ok) << r.error;
    return r;
}

runner::RunResult
runFleet(const runner::FleetOptions &opts, unsigned cores)
{
    return runPoint(runner::makeFleetScenario("golden", {}, opts, cores));
}

TEST(GoldenDigestTest, ChurningFleet)
{
    // 128 tenants, 32 churn respawns, pressure plan and OOM armed,
    // 2 ms checkpoint storms, 1 core: clean-skipped sweeps, reclaim
    // walks and page-table teardown on exit all land in the digest.
    runner::FleetOptions opts;
    opts.params.seed = rand::deriveSeed(1, 0);
    opts.params.tenants = 128;
    opts.params.churnSpawns = 32;
    const runner::RunResult r = runFleet(opts, 1);
    EXPECT_EQ(r.stats.get("fleet.spawned"), 160.0);
    EXPECT_GT(r.stats.getOr("persist.cleanSkips", 0), 0.0);
    EXPECT_GT(r.stats.getOr("kernel.reclaim.pagesDemoted", 0), 0.0);
    EXPECT_GT(r.stats.getOr("kernel.oomKills", 0), 0.0);
    EXPECT_EQ(hex(digestOf(r.ticks, r.stats)), "91a29daa0f8833a6");
}

TEST(GoldenDigestTest, DenseFleet)
{
    // 16 tenants × 500 requests, no pressure, 4 cores: nearly every
    // tenant is dirty at every checkpoint, and the MESI directory and
    // shootdown IPIs are live.
    runner::FleetOptions opts;
    opts.params.seed = rand::deriveSeed(1, 0);
    opts.params.tenants = 16;
    opts.params.requestsPerTenant = 500;
    opts.pressure = false;
    const runner::RunResult r = runFleet(opts, 4);
    EXPECT_EQ(r.stats.get("fleet.requests"), 16.0 * 500.0);
    EXPECT_GT(r.stats.getOr("persist.checkpoints", 0), 0.0);
    EXPECT_EQ(hex(digestOf(r.ticks, r.stats)), "f8132c4cc1eea073");
}

TEST(GoldenDigestTest, Fig5SspPoint)
{
    // Figure 5 shape at reduced length: gapbs_pr replayed in a FASE
    // under SSP with a 1 ms consistency interval.
    ssp::SspParams params;
    params.consistencyInterval = oneMs;
    params.consolidationInterval = oneMs;
    const runner::RunResult r = runPoint(bench::makeSspScenario(
        prep::Benchmark::gapbsPr, 100000, params, "golden", {}));
    EXPECT_GT(r.stats.getOr("ssp.intervalCommits", 0), 0.0);
    EXPECT_EQ(hex(digestOf(r.ticks, r.stats)), "5bc0b6cde99e4412");
}

TEST(GoldenDigestTest, Fig6HsccPoint)
{
    // Figure 6 shape at reduced length: fetch threshold 5 with the
    // OS-side migration cost charged.
    const runner::RunResult r = runPoint(bench::makeHsccScenario(
        prep::Benchmark::gapbsPr, 200000, 5, true, "golden", {}));
    EXPECT_GT(r.stats.getOr("hscc.pagesMigrated", 0), 0.0);
    EXPECT_EQ(hex(digestOf(r.ticks, r.stats)), "f9e89ab040277002");
}

TEST(GoldenDigestTest, Table4RebuildPoint)
{
    // Table IV shape at reduced size: the rebuild page-table scheme
    // checkpointing every 10 ms under the churn benchmark.
    runner::Scenario sc;
    sc.name = "golden";
    sc.config.memory.dramBytes = 3 * oneGiB;
    sc.config.memory.nvmBytes = 2 * oneGiB;
    sc.config.persistence =
        persist::PersistParams{persist::PtScheme::rebuild, 10 * oneMs};
    sc.program = [] {
        return micro::churnBench(16 * oneMiB, 4 * oneMiB, 2, 3, true);
    };
    const runner::RunResult r = runPoint(sc);
    EXPECT_GT(r.stats.getOr("persist.checkpoints", 0), 0.0);
    EXPECT_EQ(hex(digestOf(r.ticks, r.stats)), "a56c7326c83eb30e");
}

TEST(GoldenDigestTest, CrashAndRecover)
{
    // A power loss at a named checkpoint site, then reboot and
    // recovery: pins the fault.* and recovery.* counters the crash
    // site and trace probes feed.
    runner::Scenario sc;
    sc.name = "golden";
    sc.config.memory.dramBytes = 128 * oneMiB;
    sc.config.memory.nvmBytes = 256 * oneMiB;
    sc.config.persistence =
        persist::PersistParams{persist::PtScheme::persistent, oneMs / 4};
    fault::FaultPlan plan;
    plan.site = "ckpt.after_replay";
    plan.occurrence = 3;
    sc.config.fault = plan;
    sc.drive = [](KindleSystem &sys, statistics::StatSnapshot &) {
        const Tick t0 = sys.now();
        micro::ScriptBuilder b;
        b.mmapFixed(micro::scriptBase, 48 * pageSize, true);
        b.touchPages(micro::scriptBase, 48 * pageSize);
        for (int r = 0; r < 6; ++r) {
            b.compute(500000);
            b.touchPages(micro::scriptBase, 16 * pageSize);
        }
        b.exit();
        EXPECT_THROW(sys.run(b.build(), "golden"), fault::PowerLoss);
        sys.crash();
        sys.reboot();
        return sys.now() - t0;
    };
    const runner::RunResult r = runPoint(sc);
    EXPECT_EQ(r.stats.get("fault.crashesInjected"), 1.0);
    EXPECT_GT(r.stats.get("fault.siteHits"), 0.0);
    EXPECT_GT(r.stats.get("fault.durableWrites"), 0.0);
    EXPECT_EQ(r.stats.get("recovery.reboots"), 1.0);
    EXPECT_GT(r.stats.get("recovery.processesRecovered"), 0.0);
    EXPECT_EQ(hex(digestOf(r.ticks, r.stats)), "7d6c623c40c66c15");
}

} // namespace
} // namespace kindle
