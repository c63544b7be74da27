/**
 * @file
 * Shared plumbing for the golden-run fuzz harnesses.
 *
 * Every fuzz binary (crash recovery, memory pressure, core loss)
 * follows the same recipe: take a *golden run* with an unarmed
 * (observe-only) injector to learn site hit counts, the durable-write
 * budget and the committed-state oracle; generate a deterministic
 * site × occurrence grid padded with seeded-random Nth-durable-write
 * points; run every point with an armed FaultPlan; audit the recovered
 * machine against the oracle; and on failure leave a flight-recorder
 * dump plus a one-line repro command behind.
 *
 * This header holds the pieces that recipe shares — the oracle types,
 * the committed-state observer, point generation, divergence dumps,
 * the common flag set and the repro-line builder — so the harnesses
 * differ only in their workloads, their extra knobs and their audits.
 *
 * The audits and tripwires read the per-point stat snapshots through
 * StatSnapshot::get()/getOr(), which resolve paths through the
 * snapshot's lazily built O(1) name index — hundreds of sweep points
 * times dozens of lookups stays cheap, and the telemetry sampler's
 * per-sample channel extraction rides the same path.
 */

#ifndef KINDLE_BENCH_FUZZ_COMMON_HH
#define KINDLE_BENCH_FUZZ_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rand.hh"
#include "kindle/kindle.hh"

namespace kindle::bench::fuzz
{

/** Committed states a recovered process may legally resume from. */
using Oracle = std::set<std::pair<std::uint64_t, std::uint64_t>>;

/** Per-process recovered state, for the idempotence comparison. */
using RecoveredSet =
    std::set<std::tuple<Pid, std::uint64_t, std::uint64_t>>;

/** What a golden run learns about the crash-point space. */
struct Golden
{
    std::map<std::string, std::uint64_t> hits;
    std::uint64_t durableWrites = 0;
    Oracle committed;
};

inline std::uint64_t
envCount(const char *name, std::uint64_t fallback)
{
    if (const char *env = std::getenv(name)) {
        const auto v = std::strtoull(env, nullptr, 10);
        if (v > 0)
            return v;
    }
    return fallback;
}

/** The media plan shared by golden run and every crash point: the
 *  oracle is only meaningful if both run over the same medium. */
inline fault::MediaFaultPlan
mediaPlan()
{
    fault::MediaFaultPlan media;
    media.bitFlipRate = 1e-3;  // per line write; SECDED-correctable
    media.seed = 99;           // fixed: independent of the sweep seed
    return media;
}

/** The committed (rip, mappedBytes) of @p proc — the exact register
 *  source checkpointProcess() serializes. */
inline std::pair<std::uint64_t, std::uint64_t>
committedState(KindleSystem &sys, const os::Process &proc)
{
    return {sys.kernel().contextOf(proc).rip,
            proc.aspace.mappedBytes()};
}

/** Hook the injector so every committed checkpoint records the live
 *  process states into @p g's oracle.  Both references must outlive
 *  the run. */
inline void
observeCommitted(KindleSystem &sys, Golden &g)
{
    sys.injector().setObserver(
        [&sys, &g](const std::string &name, std::uint64_t) {
            if (name != "ckpt.after_commit")
                return;
            for (const auto &proc : sys.kernel().processes()) {
                if (proc->state == os::ProcState::zombie)
                    continue;
                g.committed.insert(committedState(sys, *proc));
            }
        });
}

/** The (pid, rip, mappedBytes) of every restored process — compared
 *  across a second crash/reboot for the idempotence audit. */
inline RecoveredSet
recoveredSet(KindleSystem &sys)
{
    RecoveredSet set;
    for (const auto &proc : sys.kernel().processes()) {
        if (!proc->restored)
            continue;
        set.insert({proc->pid, proc->context.rip,
                    proc->aspace.mappedBytes()});
    }
    return set;
}

/** One crash point of a sweep. */
struct Point
{
    std::string label;
    fault::FaultPlan plan;
};

/**
 * Crash points: a site × occurrence grid first (every site the golden
 * run hit, occurrence levels round-robin so scarce sites are fully
 * covered before frequent ones repeat), then seeded-random
 * Nth-durable-write points up to @p total.  Deterministic in
 * (@p g, @p total, @p seed): a point's plan is seeded by its index, so
 * it is identical whether it runs inside the full sweep or alone
 * under --filter.
 */
inline std::vector<Point>
makePoints(const Golden &g, std::uint64_t total, std::uint64_t seed)
{
    std::vector<Point> pts;
    const std::uint64_t grid_target = total * 3 / 5;
    for (std::uint64_t occ = 1; pts.size() < grid_target; ++occ) {
        bool any = false;
        for (const auto &[site, hits] : g.hits) {
            if (hits < occ)
                continue;
            any = true;
            Point p;
            p.label = site + "#" + std::to_string(occ);
            p.plan.site = site;
            p.plan.occurrence = occ;
            // Substream derivation, not `seed + index`: adjacent
            // xorshift64* states are correlated, splitmix64-derived
            // ones are not (base/rand.hh).
            p.plan.seed = rand::deriveSeed(seed, pts.size());
            pts.push_back(std::move(p));
            if (pts.size() >= grid_target)
                break;
        }
        if (!any)
            break;
    }
    Random rng(seed);
    while (pts.size() < total) {
        Point p;
        p.plan.atNthDurableWrite = 1 + rng.uniform(g.durableWrites);
        p.plan.seed = rand::deriveSeed(seed, pts.size());
        p.label = "durable_write#" +
                  std::to_string(p.plan.atNthDurableWrite);
        pts.push_back(std::move(p));
    }
    return pts;
}

/**
 * Write the flight recorder for a diverged point.  The dump goes to
 * the path the --flight-out routing configured for this system, or to
 * @p prefix<point>.json in the working directory as a fallback — a
 * divergence must always leave its timeline behind.
 */
inline void
dumpDivergence(KindleSystem &sys, const char *prefix,
               const std::string &point_name, const char *reason)
{
    std::string path = sys.traceSink().params().flightDumpPath;
    if (path.empty()) {
        std::string safe = point_name;
        for (char &c : safe) {
            if (c == '/')
                c = '.';
        }
        path = std::string(prefix) + safe + ".json";
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write flight dump to %s\n",
                     path.c_str());
        return;
    }
    sys.dumpFlightRecorder(out, reason);
    std::printf("flight recorder: %s\n", path.c_str());
}

/** The flags every fuzz harness shares.  Harness-local knobs stay in
 *  the harness; this is only the common subset. */
struct CommonFuzzOptions
{
    std::uint64_t points = 128;
    std::uint64_t seed = 0;
    unsigned cores = 1;
    bool mediaFaults = false;
    std::string filter;
};

/** "--flag V" value for a harness-local parse loop; fatal when the
 *  value is missing. */
inline std::uint64_t
fuzzNumeric(int &i, int argc, char **argv, const char *flag)
{
    if (i + 1 >= argc)
        kindle_fatal("{} needs a value", flag);
    return std::strtoull(argv[++i], nullptr, 10);
}

/**
 * Consume one common fuzz flag at @p i (advancing it past any value).
 * Returns false when argv[i] is not a common flag — the caller then
 * tries its own flags and finally defers to the runner parser.
 */
inline bool
parseCommonFuzzFlag(int &i, int argc, char **argv,
                    CommonFuzzOptions &fz)
{
    if (std::strcmp(argv[i], "--points") == 0) {
        fz.points = fuzzNumeric(i, argc, argv, "--points");
        if (fz.points == 0)
            kindle_fatal("--points must be positive");
        return true;
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
        fz.seed = fuzzNumeric(i, argc, argv, "--seed");
        return true;
    }
    if (std::strcmp(argv[i], "--cores") == 0) {
        fz.cores = static_cast<unsigned>(
            fuzzNumeric(i, argc, argv, "--cores"));
        if (fz.cores == 0 || fz.cores > 32)
            kindle_fatal("--cores must be in 1..32");
        return true;
    }
    if (std::strcmp(argv[i], "--media-faults") == 0) {
        fz.mediaFaults = true;
        return true;
    }
    if (std::strcmp(argv[i], "--filter") == 0) {
        if (i + 1 >= argc)
            kindle_fatal("--filter needs a value");
        fz.filter = argv[++i];
        return true;
    }
    return false;
}

/**
 * The exact command line that re-runs one point alone.
 * @p extra_flags carries the harness-local flags ("--no-oom", ...)
 * that must survive into the repro, already joined and space-led (or
 * empty).
 */
inline std::string
reproCommand(const char *argv0, const CommonFuzzOptions &fz,
             const std::string &extra_flags,
             const std::string &point_name)
{
    std::string cmd = argv0;
    cmd += " --points " + std::to_string(fz.points);
    cmd += " --seed " + std::to_string(fz.seed);
    if (fz.cores > 1)
        cmd += " --cores " + std::to_string(fz.cores);
    if (fz.mediaFaults)
        cmd += " --media-faults";
    cmd += extra_flags;
    cmd += " --filter '" + point_name + "' --jobs 1";
    return cmd;
}

} // namespace kindle::bench::fuzz

#endif // KINDLE_BENCH_FUZZ_COMMON_HH
