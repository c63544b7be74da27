/**
 * @file
 * Host-side self-profiler: scoped RAII wall-clock timers over the
 * event dispatch loop and the major subsystem entry points, feeding a
 * `prof.*` stat group of per-category self-time and call counts.
 *
 * The ROADMAP's throughput item needs attribution, not just totals:
 * fig5 points cost ~112 ms each, but *where* does host time go —
 * event dispatch, cache lookups, page walks, checkpoints?  Each
 * KINDLE_PROF_SCOPE(cat) probe times the rest of its enclosing block
 * and charges the category with its **exclusive (self) time**: the
 * elapsed wall time minus whatever nested probes already claimed.
 * Self times therefore partition the run, and their sum approximates
 * total measured wall time — the property the CI perf gate and the
 * --prof table rely on.
 *
 * Everything here is header-only and `inline`, so instrumented
 * headers (sim/simulation.hh's event loop) need no link dependency on
 * the telemetry library.  Probes deliver to the profiler of the
 * current ProbeContext (base/probe_context.hh); a system without one
 * installs a null profiler, which shadows any outer profiled system.
 * A probe with no profiler is one thread-local load, one field load
 * and a branch.
 *
 * prof.* stats are wall-clock derived and thus nondeterministic, so a
 * Profiler must only be attached when profiling was explicitly
 * requested — BENCH_*.json's "everything except wall_ms is
 * deterministic" contract depends on the default snapshot never
 * containing them.
 */

#ifndef KINDLE_TELEMETRY_PROFILER_HH
#define KINDLE_TELEMETRY_PROFILER_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "base/probe_context.hh"
#include "base/stats.hh"

namespace kindle::telemetry
{

/** Profiled host-time categories, one per major subsystem path. */
enum class ProfCat : unsigned
{
    eventLoop, ///< event queue dispatch (outside any handler's probe)
    sched,     ///< scheduler epochs: dispatch, slices, runqueues
    cache,     ///< cache-hierarchy access path
    tlbWalk,   ///< page-table walks on TLB misses
    memCtrl,   ///< memory-controller request service
    ckpt,      ///< checkpoint construction and commit
    redo,      ///< redo-log append and replay
    recovery,  ///< post-crash recovery pipeline
    scrub,     ///< NVM patrol scrubber passes
    reclaim,   ///< watermark reclaim patrol + emergency passes
    numCats,
};

inline constexpr unsigned numProfCats =
    static_cast<unsigned>(ProfCat::numCats);

/** Canonical short name of @p cat (stat names derive from it). */
inline const char *
profCatName(ProfCat cat)
{
    static constexpr std::array<const char *, numProfCats> names = {
        "eventLoop", "sched",     "cache", "tlbWalk", "memCtrl",
        "ckpt",      "redo",      "recovery", "scrub", "reclaim",
    };
    return names[static_cast<unsigned>(cat)];
}

/** Monotonic host clock, in nanoseconds. */
inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class ProfScope;

/**
 * Per-system accumulator of self-time and call counts, owning the
 * "prof" stat group.  Construct one only when profiling is requested;
 * installing it in a ProbeContext is what turns the probes on.
 */
class Profiler
{
  public:
    Profiler()
        : group("prof",
                "host-side self-profiler (exclusive wall ns and "
                "calls per category; nondeterministic)")
    {
        for (unsigned i = 0; i < numProfCats; ++i) {
            const std::string base = profCatName(ProfCat(i));
            selfNs[i] = &group.addScalar(
                base + "Ns",
                "exclusive host wall ns spent in " + base);
            calls[i] = &group.addScalar(
                base + "Calls", "probe entries into " + base);
        }
    }

    statistics::StatGroup &stats() { return group; }

    double
    categoryNs(ProfCat cat) const
    {
        return selfNs[static_cast<unsigned>(cat)]->value();
    }

    double
    categoryCalls(ProfCat cat) const
    {
        return calls[static_cast<unsigned>(cat)]->value();
    }

    /** Sum of every category's exclusive time, in ns. */
    double
    totalNs() const
    {
        double total = 0;
        for (unsigned i = 0; i < numProfCats; ++i)
            total += selfNs[i]->value();
        return total;
    }

    /**
     * Print the sorted category table (self-ms descending):
     *
     *   prof: category      calls      self-ms   share
     *   prof: cache       1234567        45.21   40.3%
     */
    void
    printTable(std::ostream &os) const
    {
        struct Row
        {
            const char *name;
            double calls;
            double ns;
        };
        std::array<Row, numProfCats> rows;
        for (unsigned i = 0; i < numProfCats; ++i) {
            rows[i] = {profCatName(ProfCat(i)), calls[i]->value(),
                       selfNs[i]->value()};
        }
        std::sort(rows.begin(), rows.end(),
                  [](const Row &a, const Row &b) { return a.ns > b.ns; });
        const double total = totalNs();
        char line[128];
        std::snprintf(line, sizeof(line), "prof: %-10s %12s %12s %7s\n",
                      "category", "calls", "self-ms", "share");
        os << line;
        for (const Row &r : rows) {
            if (r.calls == 0 && r.ns == 0)
                continue;
            std::snprintf(line, sizeof(line),
                          "prof: %-10s %12.0f %12.3f %6.1f%%\n", r.name,
                          r.calls, r.ns / 1e6,
                          total ? 100.0 * r.ns / total : 0.0);
            os << line;
        }
        std::snprintf(line, sizeof(line),
                      "prof: %-10s %12s %12.3f\n", "total", "",
                      total / 1e6);
        os << line;
    }

  private:
    friend class ProfScope;

    void
    record(ProfCat cat, std::uint64_t self_ns)
    {
        *selfNs[static_cast<unsigned>(cat)] +=
            static_cast<double>(self_ns);
        ++*calls[static_cast<unsigned>(cat)];
    }

    statistics::StatGroup group;
    std::array<statistics::Scalar *, numProfCats> selfNs{};
    std::array<statistics::Scalar *, numProfCats> calls{};

    /** Innermost live ProfScope on the installing thread. */
    ProfScope *top = nullptr;
};

/** The profiler installed on this thread, or nullptr. */
inline Profiler *
currentProfiler()
{
    return probes().profiler;
}

/**
 * RAII probe: times the rest of the enclosing block and charges
 * @p cat with the *exclusive* portion — elapsed minus the time nested
 * probes already claimed.  Nesting is tracked through the profiler's
 * scope stack, so categories partition wall time instead of double
 * counting it.
 */
class ProfScope
{
  public:
    explicit ProfScope(ProfCat cat)
        : prof(currentProfiler()), cat(cat)
    {
        if (!prof)
            return;
        // The remaining members are set up only on the armed path, so
        // a disarmed probe is one context load and this branch.
        parent = prof->top;
        prof->top = this;
        childNs = 0;
        start = hostNowNs();
    }

    ~ProfScope()
    {
        if (!prof)
            return;
        const std::uint64_t elapsed = hostNowNs() - start;
        // Clock granularity can make children report more time than
        // the parent observed; clamp so self time never goes negative.
        prof->record(cat, elapsed - std::min(childNs, elapsed));
        prof->top = parent;
        if (parent)
            parent->childNs += elapsed;
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    Profiler *prof;
    ProfScope *parent;
    ProfCat cat;
    std::uint64_t start;
    std::uint64_t childNs;
};

} // namespace kindle::telemetry

/**
 * Self-profiler probe macro: times the rest of the enclosing block
 * under the given category.
 *
 *   KINDLE_PROF_SCOPE(cache);
 */
#define KINDLE_PROF_CAT2_(a, b) a##b
#define KINDLE_PROF_CAT_(a, b) KINDLE_PROF_CAT2_(a, b)

#define KINDLE_PROF_SCOPE(cat)                                          \
    ::kindle::telemetry::ProfScope KINDLE_PROF_CAT_(kindleProf_,        \
                                                    __LINE__)(          \
        ::kindle::telemetry::ProfCat::cat)


#endif // KINDLE_TELEMETRY_PROFILER_HH
