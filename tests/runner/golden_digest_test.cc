/**
 * @file
 * Golden digests for the fleet path: two reduced fleets whose ticks
 * and statistics are pinned to a committed FNV-1a digest.  A change
 * that claims only host speed (batched page-table reads, cheaper
 * checkpoint sweeps, direct counters) must leave both digests where
 * they are; any drift in a simulated tick or stat fails here.
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
#include "runner/fleet_scenario.hh"
#include "runner/sweep_runner.hh"

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
runFleet(const runner::FleetOptions &opts, unsigned cores)
{
    runner::RunResult r = runner::SweepRunner::runOne(
        runner::makeFleetScenario("golden", {}, opts, cores));
    EXPECT_TRUE(r.ok) << r.error;
    return r;
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

} // namespace
} // namespace kindle
