/**
 * @file
 * The repository benchmark driver: runs one named workload of the
 * simulator for a fixed host-time budget and prints its end-to-end
 * metrics (untraced) or its per-layer breakdown (traced).
 *
 *   kindle_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Every repeat boots a cold machine (empty caches, TLBs and DRAM)
 * through one SweepRunner job on this host thread, so the numbers
 * measure the simulator and not the host scheduler.  A repeat is
 * timed in two parts: set-up (constructing the KindleSystem and the
 * workload generators) and the run (KindleSystem::run or the fleet's
 * Scenario::drive).  One untimed warm-up repeat runs first; repeats
 * then continue until S host seconds have passed, and host figures are
 * medians over the repeats.
 *
 * Every repeat is checked: it fails when it throws, when the
 * workload's output check fails (the workload stopped exercising the
 * layer it exists for), or when the digest of its simulated stat
 * snapshot (ticks plus every non-prof.* stat) differs from the first
 * repeat's.  The digest is printed so two builds can be compared
 * mechanically: a pure speed change must leave it identical.
 *
 * --trace 1 interleaves untraced repeats with traced ones.  A traced
 * repeat enables the program's own self-profiler
 * (KindleConfig::profiling, the prof.<cat>Ns stats) and times op
 * generation from outside: a decorator around the replay stream, or
 * for the fleets the tenant streams of the same seed drained outside
 * the machine.  No probe is added to the simulator.
 *
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/rand.hh"
#include "kindle/kindle.hh"
#include "prep/replay.hh"
#include "prep/workloads.hh"
#include "runner/fleet_scenario.hh"
#include "runner/sweep_runner.hh"
#include "telemetry/profiler.hh"

namespace
{

using namespace kindle;
using statistics::StatSnapshot;

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Host timings one repeat records from inside its drive function. */
struct Probe
{
    bool traced = false;
    double setupEnd = 0;        ///< machine and generators built
    double runEnd = 0;          ///< the timed run returned
    std::uint64_t genNs = 0;    ///< replay op generation (traced)
    std::uint64_t records = 0;  ///< trace records replayed
};

/**
 * A replay program that counts the records it replayed and, in a
 * traced repeat, times every ReplayStream::next call.  Owns its trace
 * source like prep::OwningReplayStream.
 */
class ReplayProgram final : public cpu::OpStream
{
  public:
    ReplayProgram(std::unique_ptr<prep::TraceSource> source,
                  const prep::ReplayConfig &config, Probe &probe)
        : stream(std::move(source), config), probe(probe)
    {}

    bool
    next(cpu::Op &op) override
    {
        bool more;
        if (probe.traced) {
            const std::uint64_t t0 = telemetry::hostNowNs();
            more = stream.next(op);
            probe.genNs += telemetry::hostNowNs() - t0;
        } else {
            more = stream.next(op);
        }
        const std::uint64_t replayed = stream.recordsReplayed();
        probe.records += replayed - counted;
        counted = replayed;
        return more;
    }

    void
    onSyscallResult(std::uint64_t value) override
    {
        stream.onSyscallResult(value);
    }

  private:
    prep::OwningReplayStream stream;
    Probe &probe;
    std::uint64_t counted = 0;
};

/** A named benchmark workload. */
struct Workload
{
    const char *name;

    /** The scenario of one repeat; its drive fills @p probe. */
    std::function<runner::Scenario(std::uint64_t seed, Probe &probe)>
        make;

    /** Output check over a repeat's stats; returns the failures. */
    std::function<std::vector<std::string>(const StatSnapshot &)> check;

    /** Fleet workloads: the tenant population, for draining the
     *  generators outside the machine.  Unset for replays. */
    std::function<runner::FleetOptions(std::uint64_t seed)> fleet;
};

constexpr std::uint64_t replayRecordsSsp = 300000;
constexpr std::uint64_t replayRecordsHscc = 400000;
constexpr unsigned churnSpawns = 256;

const prep::Benchmark tableTwo[] = {prep::Benchmark::gapbsPr,
                                    prep::Benchmark::g500Sssp,
                                    prep::Benchmark::ycsbMem};

/**
 * The three Table II generators replayed back to back, one process
 * each, on one machine.  Each generator's seed derives from @p seed.
 */
runner::Scenario
replayScenario(const KindleConfig &config, const prep::ReplayConfig &rc,
               std::uint64_t records, std::uint64_t seed, Probe &probe)
{
    runner::Scenario sc;
    sc.name = "replay";
    sc.config = config;
    sc.drive = [rc, records, seed, &probe](KindleSystem &sys,
                                           StatSnapshot &extra) -> Tick {
        std::vector<std::unique_ptr<cpu::OpStream>> programs;
        for (std::size_t i = 0; i < std::size(tableTwo); ++i) {
            prep::WorkloadParams wp;
            wp.ops = records;
            wp.seed = rand::deriveSeed(seed, i);
            wp.scaleDown = 8;  // keep trace footprints inside NVM
            programs.push_back(std::make_unique<ReplayProgram>(
                prep::makeWorkload(tableTwo[i], wp), rc, probe));
        }
        probe.setupEnd = hostSeconds();
        Tick ticks = 0;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            ticks += sys.run(std::move(programs[i]),
                             prep::benchmarkName(tableTwo[i]));
        }
        probe.runEnd = hostSeconds();
        extra.set("bench.recordsReplayed",
                  static_cast<double>(probe.records));
        return ticks;
    };
    return sc;
}

/** The fleet scenario with its drive timed as the run. */
runner::Scenario
fleetScenario(const runner::FleetOptions &fo, unsigned cores,
              Probe &probe)
{
    runner::Scenario sc = runner::makeFleetScenario("fleet", {}, fo, cores);
    sc.drive = [inner = sc.drive, &probe](KindleSystem &sys,
                                          StatSnapshot &extra) -> Tick {
        probe.setupEnd = hostSeconds();
        const Tick ticks = inner(sys, extra);
        probe.runEnd = hostSeconds();
        return ticks;
    };
    return sc;
}

runner::FleetOptions
churnFleet(std::uint64_t seed)
{
    runner::FleetOptions fo;  // 1024 tenants, pressure + OOM, 2 ms ckpt
    fo.params.seed = rand::deriveSeed(seed, 0);
    fo.params.churnSpawns = churnSpawns;
    return fo;
}

runner::FleetOptions
denseFleet(std::uint64_t seed)
{
    runner::FleetOptions fo;
    fo.params.seed = rand::deriveSeed(seed, 0);
    fo.params.tenants = 64;
    fo.params.requestsPerTenant = 2000;
    fo.pressure = false;
    return fo;
}

KindleConfig
replayMachine()
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 3 * oneGiB;
    cfg.memory.nvmBytes = 2 * oneGiB;
    return cfg;
}

/** Append @p what to @p out unless @p ok. */
void
expect(std::vector<std::string> &out, bool ok, std::string what)
{
    if (!ok)
        out.push_back(std::move(what));
}

std::vector<Workload>
workloads()
{
    std::vector<Workload> all;

    all.push_back(
        {"replay_ssp",
         [](std::uint64_t seed, Probe &probe) {
             KindleConfig cfg = replayMachine();
             ssp::SspParams sp;
             sp.consistencyInterval = oneMs;
             sp.consolidationInterval = oneMs;
             cfg.ssp = sp;
             prep::ReplayConfig rc;
             rc.heapsInNvm = true;
             rc.stacksInNvm = true;
             rc.wrapInFase = true;
             return replayScenario(cfg, rc, replayRecordsSsp, seed,
                                   probe);
         },
         [](const StatSnapshot &s) {
             std::vector<std::string> bad;
             expect(bad, s.getOr("ssp.intervalCommits", 0) > 0,
                    "ssp.intervalCommits == 0");
             expect(bad,
                    s.get("core.memOps") ==
                        s.get("bench.recordsReplayed"),
                    "core.memOps != records replayed");
             expect(bad,
                    s.get("bench.recordsReplayed") ==
                        3.0 * replayRecordsSsp,
                    "a generator stopped short");
             return bad;
         },
         nullptr});

    all.push_back(
        {"hscc_migrate",
         [](std::uint64_t seed, Probe &probe) {
             KindleConfig cfg = replayMachine();
             hscc::HsccParams hp;
             hp.fetchThreshold = 5;
             hp.chargeOsTime = true;
             cfg.hscc = hp;
             prep::ReplayConfig rc;
             rc.heapsInNvm = true;  // data in NVM, DRAM is the cache
             rc.stacksInNvm = true;
             // Paced like Figure 6 so the run spans many 31.25 ms
             // migration intervals.
             rc.computePerRecord = 300;
             return replayScenario(cfg, rc, replayRecordsHscc, seed,
                                   probe);
         },
         [](const StatSnapshot &s) {
             std::vector<std::string> bad;
             expect(bad, s.getOr("hscc.pagesMigrated", 0) > 0,
                    "hscc.pagesMigrated == 0");
             expect(bad,
                    s.get("core.memOps") ==
                        s.get("bench.recordsReplayed"),
                    "core.memOps != records replayed");
             return bad;
         },
         nullptr});

    all.push_back(
        {"fleet_churn",
         [](std::uint64_t seed, Probe &probe) {
             return fleetScenario(churnFleet(seed), 1, probe);
         },
         [](const StatSnapshot &s) {
             std::vector<std::string> bad;
             expect(bad,
                    s.get("fleet.spawned") ==
                        s.get("fleet.tenants") + churnSpawns,
                    "fleet.spawned != tenants + churn");
             expect(bad, s.getOr("kernel.reclaim.pagesDemoted", 0) > 0,
                    "no reclaim demotions");
             expect(bad, s.getOr("kernel.oomKills", 0) > 0,
                    "no OOM kills");
             expect(bad, s.get("core.memOps") == s.get("fleet.requests"),
                    "core.memOps != fleet.requests");
             return bad;
         },
         churnFleet});

    all.push_back(
        {"fleet_smp",
         [](std::uint64_t seed, Probe &probe) {
             return fleetScenario(denseFleet(seed), 4, probe);
         },
         [](const StatSnapshot &s) {
             std::vector<std::string> bad;
             expect(bad,
                    s.getOr("cacheHierarchy.coherence.invalidations",
                            0) > 0,
                    "no coherence invalidations");
             expect(bad, s.getOr("kernel.tlbShootdownIpis", 0) > 0,
                    "no shootdown IPIs");
             const double tenant_ckpts =
                 s.getOr("persist.checkpoints", 0) *
                 s.get("fleet.tenants");
             expect(bad,
                    tenant_ckpts > 0 &&
                        s.getOr("persist.cleanSkips", 0) <
                            0.05 * tenant_ckpts,
                    "clean skips >= 5% of tenant-checkpoints");
             expect(bad, s.get("core.memOps") == s.get("fleet.requests"),
                    "core.memOps != fleet.requests");
             return bad;
         },
         denseFleet});

    return all;
}

/** FNV-1a over the simulated outcome: ticks and every non-prof stat. */
std::uint64_t
digestOf(Tick ticks, const StatSnapshot &stats)
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

/** One executed repeat. */
struct Sample
{
    bool traced = false;
    double setupS = 0;
    double runS = 0;
    Tick ticks = 0;
    StatSnapshot stats;
    std::uint64_t genNs = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> failures;
};

Sample
runRepeat(const Workload &wl, std::uint64_t seed, bool traced)
{
    Sample s;
    s.traced = traced;
    Probe probe;
    probe.traced = traced;
    runner::Scenario sc = wl.make(seed, probe);
    sc.config.profiling = traced;

    const double start = hostSeconds();
    runner::RunResult r = runner::SweepRunner::runOne(sc);
    if (!r.ok) {
        s.failures.push_back("run failed: " + r.error);
        return s;
    }
    s.setupS = probe.setupEnd - start;
    s.runS = probe.runEnd - probe.setupEnd;
    s.ticks = r.ticks;
    s.stats = std::move(r.stats);
    s.genNs = probe.genNs;
    s.digest = digestOf(s.ticks, s.stats);
    // A stat the check reads may be missing (get() is fatal, and
    // fatal throws here): that fails the repeat, not the process.
    try {
        s.failures = wl.check(s.stats);
    } catch (const SimError &e) {
        s.failures.push_back("output check: " + e.message());
    }
    if (s.stats.getOr("core.memOps", 0) <= 0)
        s.failures.push_back("no simulated memory ops");
    return s;
}

/** Host ns per memory op of the tenant generators, drained outside
 *  the machine for the ordinals the fleet actually spawned. */
double
drainedTenantNsPerOp(const runner::FleetOptions &fo, unsigned spawned)
{
    std::uint64_t ops = 0;
    const std::uint64_t t0 = telemetry::hostNowNs();
    for (unsigned i = 0; i < spawned; ++i) {
        auto tenant = fleet::makeTenant(fo.params, i);
        cpu::Op op;
        while (tenant->next(op)) {
            if (op.kind == cpu::Op::Kind::read ||
                op.kind == cpu::Op::Kind::write)
                ++ops;
        }
    }
    const std::uint64_t ns = telemetry::hostNowNs() - t0;
    return ops ? static_cast<double>(ns) / static_cast<double>(ops) : 0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** End-to-end metrics over the untraced repeats. */
std::vector<Metric>
endToEnd(const std::vector<const Sample *> &timed)
{
    std::vector<double> setup, ns_per_op, sim_per_host;
    for (const Sample *s : timed) {
        const double ops = s->stats.get("core.memOps");
        setup.push_back(s->setupS);
        ns_per_op.push_back(s->runS * 1e9 / ops);
        sim_per_host.push_back(static_cast<double>(s->ticks) /
                               static_cast<double>(oneSec) / s->runS);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return {
        {"setup_s", median(setup), "s"},
        {"host_ns_per_op", median(ns_per_op), "ns/op"},
        {"sim_per_host", median(sim_per_host), "s/s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MiB"},
        {"sim_ms", ticksToMs(timed.front()->ticks), "ms"},
    };
}

/**
 * Per-layer breakdown: host self times from the traced repeats
 * (medians, per simulated memory op), simulated counts from the
 * stat snapshot (exact), and the tracing cost against the untraced
 * repeats of the same process.
 */
std::vector<Metric>
perLayer(const Workload &wl, std::uint64_t seed,
         const std::vector<const Sample *> &traced,
         const std::vector<const Sample *> &untraced)
{
    const StatSnapshot &st = traced.front()->stats;
    const auto stat = [&st](const char *path) {
        return st.getOr(path, 0);
    };
    const double ops = stat("core.memOps");

    // A fleet's generators run inside the machine; their cost per op
    // is measured on the same tenant streams drained outside it.
    double fleet_gen_ns_per_op = 0;
    if (wl.fleet) {
        fleet_gen_ns_per_op = drainedTenantNsPerOp(
            wl.fleet(seed),
            static_cast<unsigned>(stat("fleet.spawned")));
    }

    std::vector<double> gen, event_loop, sched, tlb_walk, cache,
        mem_ctrl, reclaim, ckpt, redo, wall, unattributed;
    for (const Sample *s : traced) {
        const auto prof = [s](const char *cat) {
            return s->stats.getOr(std::string("prof.") + cat + "Ns", 0);
        };
        const double gen_ns =
            wl.fleet ? fleet_gen_ns_per_op * ops
                     : static_cast<double>(s->genNs);
        gen.push_back(gen_ns / ops);
        event_loop.push_back(prof("eventLoop") / ops);
        // Generation runs inside the scheduler's probe.
        sched.push_back((prof("sched") - gen_ns) / ops);
        tlb_walk.push_back(prof("tlbWalk") / ops);
        cache.push_back(prof("cache") / ops);
        mem_ctrl.push_back(prof("memCtrl") / ops);
        reclaim.push_back(prof("reclaim") / ops);
        ckpt.push_back(prof("ckpt") / ops);
        redo.push_back(prof("redo") / ops);
        double attributed = 0;
        for (unsigned c = 0; c < telemetry::numProfCats; ++c)
            attributed += prof(telemetry::profCatName(
                telemetry::ProfCat(c)));
        wall.push_back(s->runS);
        unattributed.push_back(1.0 - attributed / (s->runS * 1e9));
    }
    std::vector<double> untraced_wall;
    for (const Sample *s : untraced)
        untraced_wall.push_back(s->runS);

    const double tlb_lookups = stat("core.tlb.l1Hits") +
                               stat("core.tlb.l2Hits") +
                               stat("core.tlb.misses");
    const double llc_lookups =
        stat("cacheHierarchy.llc.hits") + stat("cacheHierarchy.llc.misses");
    const double checkpoints = stat("persist.checkpoints");

    return {
        {"prep.gen_ns_per_op", median(gen), "ns/op"},
        {"sim.event_loop_ns_per_op", median(event_loop), "ns/op"},
        {"cpu.sched_ns_per_op", median(sched), "ns/op"},
        {"cpu.tlb_walk_ns_per_op", median(tlb_walk), "ns/op"},
        {"cpu.tlb_miss_ratio", ratio(stat("core.tlb.misses"), tlb_lookups),
         "ratio"},
        {"cpu.walks", stat("core.pageWalker.walks"), "count"},
        {"cpu.page_faults", stat("core.pageFaults"), "count"},
        {"cache.ns_per_op", median(cache), "ns/op"},
        {"cache.accesses", stat("cacheHierarchy.accesses"), "count"},
        {"cache.llc_miss_ratio",
         ratio(stat("cacheHierarchy.llc.misses"), llc_lookups), "ratio"},
        {"cache.clwbs", stat("cacheHierarchy.clwbs"), "count"},
        {"cache.coherence_invalidations",
         stat("cacheHierarchy.coherence.invalidations"), "count"},
        {"mem.ctrl_ns_per_op", median(mem_ctrl), "ns/op"},
        {"mem.pcm_reads", stat("hybridMem.PCMCtrl.PCM.readReqs"), "count"},
        {"mem.pcm_writes", stat("hybridMem.PCMCtrl.PCM.writeReqs"),
         "count"},
        {"mem.dram_reads",
         stat("hybridMem.DDR4-2400Ctrl.DDR4-2400.readReqs"), "count"},
        {"mem.dram_writes",
         stat("hybridMem.DDR4-2400Ctrl.DDR4-2400.writeReqs"), "count"},
        {"mem.pcm_write_stall_ms",
         ticksToMs(static_cast<Tick>(
             stat("hybridMem.PCMCtrl.writeStallTicks"))),
         "ms"},
        {"ssp.lines_flushed", stat("ssp.linesFlushed"), "count"},
        {"ssp.interval_commits", stat("ssp.intervalCommits"), "count"},
        {"ssp.commit_ms",
         ticksToMs(static_cast<Tick>(stat("ssp.commitTicks"))), "ms"},
        {"hscc.pages_migrated", stat("hscc.pagesMigrated"), "count"},
        {"hscc.map_lookups", stat("hscc.hsccMapTable.lookups"), "count"},
        {"hscc.copy_ms", ticksToMs(static_cast<Tick>(stat("hscc.copyTicks"))),
         "ms"},
        {"hscc.selection_ms",
         ticksToMs(static_cast<Tick>(stat("hscc.selectionTicks"))), "ms"},
        {"os.reclaim_ns_per_op", median(reclaim), "ns/op"},
        {"os.context_switches", stat("kernel.contextSwitches"), "count"},
        {"os.reclaim_demotions", stat("kernel.reclaim.pagesDemoted"),
         "count"},
        {"os.oom_kills", stat("kernel.oomKills"), "count"},
        {"os.shootdown_ipis", stat("kernel.tlbShootdownIpis"), "count"},
        {"os.pt_entry_writes", stat("kernel.pageTables.entryWrites"),
         "count"},
        {"persist.ckpt_ns_per_op", median(ckpt), "ns/op"},
        {"persist.redo_ns_per_op", median(redo), "ns/op"},
        {"persist.checkpoints", checkpoints, "count"},
        {"persist.clean_skips_per_ckpt",
         ratio(stat("persist.cleanSkips"), checkpoints), "count/ckpt"},
        {"persist.redo_appends", stat("persist.redoLog.appends"), "count"},
        {"fleet.requests", stat("fleet.requests"), "count"},
        {"fleet.peak_live", stat("fleet.peakLive"), "count"},
        {"trace_overhead", median(wall) / median(untraced_wall), "ratio"},
        {"unattributed_share", median(unattributed), "ratio"},
    };
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "kindle_perfbench: %s\n"
                 "usage: kindle_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

std::uint64_t
numberArg(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return static_cast<std::uint64_t>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    std::uint64_t trace = 2;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("every flag takes a value");
        const char *flag = argv[i];
        const char *value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0)
            name = value;
        else if (std::strcmp(flag, "--seed") == 0)
            seed = numberArg(value, flag);
        else if (std::strcmp(flag, "--seconds") == 0)
            seconds = numberArg(value, flag);
        else if (std::strcmp(flag, "--trace") == 0)
            trace = numberArg(value, flag);
        else
            usage((std::string("unknown flag ") + flag).c_str());
    }
    if (seconds < 1 || seconds > 600)
        usage("--seconds must be 1..600");
    if (trace > 1)
        usage("--trace must be 0 or 1");

    const std::vector<Workload> all = workloads();
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Workload &w) {
                                     return name == w.name;
                                 });
    if (it == all.end())
        usage(("unknown workload '" + name + "'").c_str());
    const Workload &wl = *it;

    // Simulator fatal()/panic() become exceptions, which the runner
    // reports as a failed repeat instead of ending the process.
    setErrorsThrow(true);

    // The warm-up repeat is checked but not timed.
    std::vector<Sample> samples;
    samples.push_back(runRepeat(wl, seed, false));
    const double deadline = hostSeconds() + static_cast<double>(seconds);
    do {
        samples.push_back(runRepeat(wl, seed, false));
        if (trace)
            samples.push_back(runRepeat(wl, seed, true));
    } while (hostSeconds() < deadline);

    std::uint64_t failed = 0;
    std::vector<const Sample *> untraced, traced;
    const std::uint64_t reference = samples.front().digest;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        Sample &s = samples[i];
        if (s.failures.empty() && s.digest != reference)
            s.failures.push_back("stat digest differs from repeat 0");
        std::printf("repeat %zu%s: setup %.6f s, run %.6f s\n", i,
                    s.traced ? " (traced)" : "", s.setupS, s.runS);
        for (const auto &f : s.failures) {
            std::printf("repeat %zu%s FAILED: %s\n", i,
                        s.traced ? " (traced)" : "", f.c_str());
        }
        if (!s.failures.empty()) {
            ++failed;
        } else if (i > 0) {
            (s.traced ? traced : untraced).push_back(&s);
        }
    }

    // Metrics need at least one clean timed repeat of each kind; when
    // none is left the failures above already mark the run incorrect.
    std::vector<Metric> metrics;
    if (!untraced.empty() && (!trace || !traced.empty())) {
        metrics = trace ? perLayer(wl, seed, traced, untraced)
                        : endToEnd(untraced);
    }
    bool finite = true;
    for (const Metric &m : metrics)
        finite = finite && std::isfinite(m.value);
    if (!finite) {
        std::printf("non-finite metric value\n");
        failed = std::max<std::uint64_t>(failed, 1);
    }

    std::printf("workload %s seed %llu: %zu repeats (%zu untraced, %zu "
                "traced timed)\n",
                wl.name, static_cast<unsigned long long>(seed),
                samples.size(), untraced.size(), traced.size());
    std::printf("stat digest %016llx (ticks %llu)\n",
                static_cast<unsigned long long>(reference),
                static_cast<unsigned long long>(samples.front().ticks));
    for (const Metric &m : metrics)
        std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit);

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(samples.size());
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; finite && i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value);
        json += buf;
        json += std::string("\"unit\": \"") + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
