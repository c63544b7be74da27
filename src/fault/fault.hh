/**
 * @file
 * Crash-point fault injection.
 *
 * A FaultPlan arms exactly one power-loss crash, triggered either at an
 * absolute simulation tick, at the Nth durable NVM write the controller
 * accepts, or at the Nth hit of a *named crash site* — a lightweight
 * probe (KINDLE_CRASH_SITE("ckpt.after_commit")) placed between the
 * individual steps of multi-step durable protocols: checkpoint commit,
 * redo-log append, wrapped PTE stores, allocator bitmap persists, HSCC
 * page copies.  When the trigger fires the injector throws PowerLoss,
 * which unwinds to KindleSystem::run()'s caller; the caller then calls
 * crash() + reboot() exactly like the hand-written crash tests do — but
 * the crash lands *inside* the protocol rather than between operations.
 *
 * Probes are free-function calls (fault::crashSite) that deliver to the
 * injector of the current ProbeContext (base/probe_context.hh), so
 * instrumented subsystems need no plumbing; each KindleSystem installs
 * its injector for the duration of its lifetime, and concurrent
 * SweepRunner workers each see only their own system's injector.
 */

#ifndef KINDLE_FAULT_FAULT_HH
#define KINDLE_FAULT_FAULT_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/probe_context.hh"
#include "base/stats.hh"
#include "base/types.hh"

namespace kindle::fault
{

/** One targeted media fault: stuck-at bits on a named NVM frame. */
struct MediaFault
{
    /** Frame index within the NVM range (0 = first NVM frame). */
    std::uint64_t frame = 0;
    /** Cache-line index within the frame. */
    std::uint64_t line = 0;
    /** Error bits to plant (1 = ECC-correctable, >=2 = uncorrectable). */
    unsigned bits = 1;
    /** Stuck-at (survives rewrites) vs transient (a scrub clears it). */
    bool sticky = true;
};

/**
 * NVM media reliability configuration.  Orthogonal to the crash
 * trigger: an armed media plan degrades the medium itself — seeded
 * transient bit flips per line write, per-frame write endurance that
 * develops stuck-at cells once exhausted, and targeted named-frame
 * injections — while the SECDED model in src/mem decides what a read
 * returns.  Plain data so config plumbing stays header-only.
 */
struct MediaFaultPlan
{
    /** Probability that one media line write leaves a transient flip. */
    double bitFlipRate = 0.0;
    /** Media writes a frame tolerates before cells stick (0 = ∞). */
    std::uint64_t writeEndurance = 0;
    /** Seed for flip positions and victims (deterministic). */
    std::uint64_t seed = 7;
    /** Targeted injections applied when the model is built. */
    std::vector<MediaFault> faults;

    bool
    enabled() const
    {
        return bitFlipRate > 0.0 || writeEndurance != 0 ||
               !faults.empty();
    }
};

/**
 * Memory-pressure configuration.  Orthogonal to the crash trigger and
 * the media model: an enabled pressure plan shrinks the physical zones
 * the kernel hands to its frame allocators, injects seeded transient
 * allocation failures (forcing the retry/backoff path), and switches
 * the kernel's exhaustion handling from kindle_fatal to the graceful
 * ENOMEM → reclaim → OOM-kill escalation.  Plain data so config
 * plumbing stays header-only, like MediaFaultPlan above.
 */
struct PressurePlan
{
    /** Cap the DRAM user zone to this many frames (0 = whole zone). */
    std::uint64_t dramZoneFrames = 0;
    /** Cap the NVM user pool to this many frames (0 = whole pool). */
    std::uint64_t nvmZoneFrames = 0;

    /** Probability one tryAlloc is failed artificially (transient). */
    double allocFailRate = 0.0;
    /** Seed for the injected-failure coin flips (deterministic). */
    std::uint64_t seed = 11;
    /** Allocation retries before escalating to reclaim/OOM. */
    unsigned maxRetries = 4;
    /** Simulated backoff charged per allocation retry. */
    Tick retryBackoff = 10 * oneUs;

    /** Watermarks in frames; 0 derives low = max(8, frames/16) and
     *  high = max(2*low, frames/8) from the (possibly shrunk) zone. */
    std::uint64_t dramLowWatermark = 0;
    std::uint64_t dramHighWatermark = 0;
    std::uint64_t nvmLowWatermark = 0;
    std::uint64_t nvmHighWatermark = 0;

    /** Reclaim engine patrol period. */
    Tick reclaimInterval = oneMs / 4;
    /** Max pages demoted DRAM→NVM per reclaim pass. */
    unsigned reclaimBatchPages = 8;
    /** Minimum gap between reclaim-requested early checkpoints (an
     *  NVM zone pinned at its cap sits below-low forever; unthrottled
     *  relief then checkpoints every patrol pass).  0 = no throttle. */
    Tick reclaimCheckpointMinGap = 0;

    /** Redo-log fill fraction that triggers an early checkpoint
     *  (truncates the log before it can wrap).  0 disables. */
    double redoHighWaterFraction = 0.75;

    /** Last-resort deterministic OOM killer (victim by RSS). */
    bool oomEnabled = true;

    bool
    enabled() const
    {
        return dramZoneFrames != 0 || nvmZoneFrames != 0 ||
               allocFailRate > 0.0;
    }
};

/**
 * One seeded CPU-core fault.  A fault either *fail-stops* the core
 * (stallTicks == 0: the core never executes or acknowledges anything
 * again, and the kernel watchdog eventually declares it dead and
 * offlines it) or *transiently stalls* it (stallTicks > 0: the core is
 * unresponsive — IPIs go unacknowledged, its timeslices are skipped —
 * until the stall window elapses, exercising the retry path without
 * killing the core).  The trigger is either an absolute simulation
 * tick or the Nth TLB-shootdown IPI the core *receives* (1-based),
 * which plants the fault precisely inside the ack-timeout protocol.
 */
struct CoreFault
{
    /** Victim core. */
    CpuId cpu = 0;
    /** Fire at the first evaluation at or after this tick (0 = off). */
    Tick atTick = 0;
    /** Fire when the core receives its Nth shootdown IPI (0 = off). */
    std::uint64_t atNthIpi = 0;
    /** 0 = fail-stop (permanent); >0 = stall for this many ticks. */
    Tick stallTicks = 0;
};

/**
 * CPU-fault configuration: a list of seeded core faults.  Orthogonal
 * to the crash trigger, the media model, and the pressure plan — plain
 * data so config plumbing stays header-only, like the plans above.
 * An empty plan is guaranteed zero-cost: the kernel never evaluates
 * triggers, takes no extra event-queue bumps, and registers no stats,
 * so runs without a plan stay byte-identical to a tree without the
 * subsystem.
 */
struct CoreFaultPlan
{
    std::vector<CoreFault> faults;

    bool enabled() const { return !faults.empty(); }
};

/** What to crash on.  At most one trigger should be armed. */
struct FaultPlan
{
    /** Named crash site to trip on ("" = disabled). */
    std::string site;
    /** Fire at the Nth hit of @c site (1-based). */
    std::uint64_t occurrence = 1;
    /** Fire at the Nth durable NVM write (0 = disabled, 1-based). */
    std::uint64_t atNthDurableWrite = 0;
    /** Fire at the first probe at or after this tick (0 = disabled). */
    Tick atTick = 0;
    /** Lose undrained controller-buffer writes with a torn store. */
    bool tornStore = true;
    /** Seed for the deterministic torn-store victim choice. */
    std::uint64_t seed = 1;

    /** Media error/wear model configuration (independent of the
     *  crash trigger; may be enabled with no crash armed at all). */
    MediaFaultPlan media;

    bool
    armed() const
    {
        return !site.empty() || atNthDurableWrite != 0 || atTick != 0;
    }
};

/** Thrown when an armed trigger fires; unwinds out of run(). */
class PowerLoss : public std::exception
{
  public:
    PowerLoss(std::string site, Tick tick)
        : _site(std::move(site)), _tick(tick),
          msg("power loss injected at crash site '" + _site + "'")
    {}

    const char *what() const noexcept override { return msg.c_str(); }
    const std::string &site() const { return _site; }
    Tick tick() const { return _tick; }

  private:
    std::string _site;
    Tick _tick;
    std::string msg;
};

/**
 * Per-system crash injector.  Counts site hits and durable NVM writes
 * even when no trigger is armed (observe-only mode), which is how the
 * fuzz harness sizes its crash-point space from a golden run.
 */
class CrashInjector
{
  public:
    CrashInjector(FaultPlan plan, std::function<Tick()> now_fn);

    /**
     * Arm the probes.  Until activate() the injector only exists; the
     * owning system activates it after boot so that construction-time
     * durable writes do not consume trigger budget (keeping golden and
     * faulted runs aligned on the same counting base).
     */
    void activate() { active = true; }
    void deactivate() { active = false; }

    /**
     * Swap in a fresh plan and re-activate the probes with cleared
     * trigger state (hit counts, durable-write count, fired flag).
     * This is how a test arms a *second* crash on an already-crashed
     * system — e.g. inside the recovery path of the next reboot(),
     * proving recovery survives being interrupted.
     */
    void rearm(FaultPlan plan);

    /** Probe: a named crash site was reached. */
    void site(const char *name);
    /** Probe: a durable write was accepted by the NVM controller. */
    void durableWrite(Tick now);

    /**
     * Observer called on every site hit with (name, hit-count), before
     * any trigger evaluation.  The fuzz harness uses it to snapshot its
     * oracle at protocol boundaries.
     */
    void
    setObserver(std::function<void(const std::string &, std::uint64_t)> fn)
    {
        observer = std::move(fn);
    }

    const FaultPlan &plan() const { return _plan; }
    bool fired() const { return _fired; }
    const std::string &firedSite() const { return _firedSite; }
    std::uint64_t durableWrites() const { return _durableWrites; }
    std::uint64_t
    hitsOf(const std::string &name) const
    {
        const auto it = hits.find(name);
        return it == hits.end() ? 0 : it->second;
    }
    const std::map<std::string, std::uint64_t> &allHits() const
    {
        return hits;
    }

    statistics::StatGroup &stats() { return statGroup; }
    const statistics::StatGroup &stats() const { return statGroup; }

  private:
    [[noreturn]] void fire(const std::string &name);

    FaultPlan _plan;
    std::function<Tick()> nowFn;
    std::function<void(const std::string &, std::uint64_t)> observer;

    bool active = false;
    bool _fired = false;
    std::string _firedSite;
    std::uint64_t _durableWrites = 0;
    std::map<std::string, std::uint64_t> hits;

    statistics::StatGroup statGroup;
    statistics::Scalar &siteHits;
    statistics::Scalar &durableWriteStat;
    statistics::Scalar &crashesInjected;
};

/** The injector probes route to on this thread (may be null). */
inline CrashInjector *
current()
{
    return probes().injector;
}

/** Probe entry points used by instrumented code. */
void crashSite(const char *name);
void onDurableNvmWrite(Tick now);

/** One entry of the crash-site inventory: name + what the protocol
 *  has (and has not) done when the probe fires. */
struct CrashSiteInfo
{
    const char *name;
    const char *description;
};

/** Inventory of every named crash site compiled into the tree, with
 *  a one-line description per site (drives --list-crash-sites and the
 *  generated DESIGN.md table). */
const std::vector<CrashSiteInfo> &crashSiteCatalog();

/** Inventory of every named crash site compiled into the tree. */
const std::vector<std::string> &knownCrashSites();

} // namespace kindle::fault

/** Probe macro — reads as a labelled no-op at the instrumented line. */
#define KINDLE_CRASH_SITE(name) ::kindle::fault::crashSite(name)

#endif // KINDLE_FAULT_FAULT_HH
