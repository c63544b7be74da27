/**
 * @file
 * The Kindle public API: one object assembling the full system.
 *
 * KindleSystem wires together the simulation kernel, the hybrid
 * DRAM+NVM memory, the cache hierarchy, the in-order core, the gemOS
 * kernel, and — when configured — the process-persistence domain and
 * the SSP/HSCC prototype engines.  It also owns the crash/reboot
 * protocol: crash() drops every volatile structure while the NVM
 * durable image survives, and reboot() boots a fresh OS that runs the
 * recovery procedure over that image.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   kindle::KindleConfig cfg;
 *   cfg.persistence = kindle::persist::PersistParams{};
 *   kindle::KindleSystem sys(cfg);
 *   sys.kernel().spawn(std::move(program), "init");
 *   sys.runAll();
 */

#ifndef KINDLE_KINDLE_KINDLE_HH
#define KINDLE_KINDLE_KINDLE_HH

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "base/probe_context.hh"
#include "base/stats.hh"
#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "fault/fault.hh"
#include "hscc/hscc_engine.hh"
#include "mem/hybrid_memory.hh"
#include "mem/scrubber.hh"
#include "os/kernel.hh"
#include "persist/checkpoint.hh"
#include "persist/recovery.hh"
#include "sim/simulation.hh"
#include "ssp/ssp_engine.hh"
#include "telemetry/profiler.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

namespace kindle
{

/** Whole-system configuration. */
struct KindleConfig
{
    mem::HybridMemoryParams memory{};
    cache::HierarchyParams caches{};
    cpu::CoreParams core{};
    os::KernelParams kernel{};

    /**
     * Number of CPU cores.  Every core gets its own TLB, page walker
     * and private L1/L2; the LLC is shared and kept coherent by a
     * MESI-lite directory.  At 1 (the default) the machine is
     * bit-identical to the original uniprocessor model — no directory,
     * no IPIs, the classic stat-tree layout.
     */
    unsigned numCores = 1;

    /** Enable process persistence with these parameters. */
    std::optional<persist::PersistParams> persistence;

    /** Enable the SSP prototype. */
    std::optional<ssp::SspParams> ssp;

    /** Enable the HSCC prototype. */
    std::optional<hscc::HsccParams> hscc;

    /**
     * Arm one injected power-loss crash (see fault::FaultPlan).  An
     * unarmed plan still counts site hits and durable writes, which is
     * how the fuzz harness sizes its crash-point space.  The plan's
     * media sub-config (bit-flip rate, endurance, targeted faults) is
     * forwarded into the memory system at construction.
     */
    std::optional<fault::FaultPlan> fault;

    /**
     * Arm a memory-pressure plan (see fault::PressurePlan): shrunken
     * zones, injected transient allocation failures, watermark-driven
     * reclaim, checkpoint/redo backpressure, and the OOM killer.  The
     * plan is forwarded into the kernel, enables write-buffer stall
     * tracking on both memory controllers, and — when persistence is
     * also configured — arms redo-log backpressure and routes the
     * reclaim engine's NVM-pressure relief to early checkpoints.
     * Survives reboot(): the same pressure regime governs every boot.
     */
    std::optional<fault::PressurePlan> pressure;

    /**
     * Arm seeded CPU-core faults (see fault::CoreFaultPlan): chosen
     * cores fail-stop or transiently stall at a tick / Nth-received-IPI
     * trigger, exercising the kernel's IPI ack-timeout/retry protocol
     * and hotplug-style offlining.  Survives reboot(): dead hardware
     * stays dead, so the same core re-fails on every boot of the same
     * configuration.  Requires numCores >= 2 (a fail-stop of the last
     * core halts the machine).
     */
    std::optional<fault::CoreFaultPlan> coreFault;

    /**
     * Patrol-scrubber cadence.  The scrubber is built whenever the
     * media model is enabled (using defaults if this is unset); set
     * this to tune the patrol interval/chunk or to run the scrubber
     * without media faults (it then simply idles).
     */
    std::optional<mem::ScrubParams> scrub;

    /**
     * Telemetry capture (see trace::TraceParams).  The flight-recorder
     * ring is on by default; span collection for Chrome-JSON export is
     * opt-in because it keeps every record of the run.
     */
    trace::TraceParams trace{};

    /**
     * Time-series sampling (see telemetry::TelemetryParams).  Off by
     * default (sampleInterval == 0): no sampler event is scheduled and
     * runs stay byte-identical to an unsampled tree.
     */
    telemetry::TelemetryParams telemetry{};

    /**
     * Attach the host-side self-profiler (--prof).  Off by default:
     * prof.* stats are wall-clock derived and nondeterministic, so
     * they must never appear in a default-config stat dump.
     */
    bool profiling = false;
};

/** The assembled machine. */
class KindleSystem
{
  public:
    explicit KindleSystem(const KindleConfig &config);
    ~KindleSystem();

    KindleSystem(const KindleSystem &) = delete;
    KindleSystem &operator=(const KindleSystem &) = delete;

    /** @name Component access. */
    /// @{
    sim::Simulation &simulation() { return sim; }
    mem::HybridMemory &memory() { return *mem_; }
    cache::Hierarchy &caches() { return *caches_; }

    /** Core @p cpu of the machine (0 <= cpu < numCores()). */
    cpu::Core &core(CpuId cpu) { return *cores_.at(cpu); }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    os::Kernel &kernel() { return *kernel_; }

    /** Null when the feature is not configured. */
    persist::PersistDomain *persistence() { return persist_.get(); }
    ssp::SspEngine *sspEngine() { return ssp_.get(); }
    hscc::HsccEngine *hsccEngine() { return hscc_.get(); }

    /** The patrol scrubber (null unless media/scrub configured). */
    mem::PatrolScrubber *scrubber() { return scrubber_.get(); }

    /** The system's crash injector (always present; may be unarmed). */
    fault::CrashInjector &injector() { return injector_; }

    /** The system's trace sink (always present; may be capturing
     *  nothing when both spans and the ring are disabled). */
    trace::TraceSink &traceSink() { return traceSink_; }

    /** The time-series sampler (null unless sampleInterval > 0). */
    telemetry::Sampler *sampler() { return sampler_.get(); }

    /** The self-profiler (null unless config.profiling). */
    telemetry::Profiler *profiler() { return profiler_.get(); }
    /// @}

    /** Current simulated time. */
    Tick now() const { return sim.now(); }

    /**
     * Spawn a program and run the machine until everything exits.
     * Fatal on a crashed machine; if an armed fault fires mid-run,
     * fault::PowerLoss propagates to the caller, who then drives the
     * crash()/reboot() protocol.
     */
    Tick run(std::unique_ptr<cpu::OpStream> program,
             const std::string &name);

    /** Run until all processes exit. */
    void runAll();

    /**
     * Power failure at the current instant: caches, TLBs, DRAM, MSRs,
     * the OS and pending events all vanish; only durable NVM content
     * survives.  The system is unusable until reboot().
     */
    void crash();

    /**
     * Boot a fresh OS over the surviving NVM image and, if
     * persistence is configured, run the recovery procedure and
     * restart the persistence domain.
     */
    persist::RecoveryReport reboot();

    /**
     * Swap in a fresh fault plan and re-arm the (possibly fired)
     * injector.  This is how tests crash a machine a *second* time —
     * in particular inside the next reboot()'s recovery path, which
     * is the recovery-idempotence scenario.  The plan's media config
     * does not rebuild the media model (the medium is hardware).
     */
    void armFault(const fault::FaultPlan &plan);

    /** True between crash() and reboot(). */
    bool crashed() const { return isCrashed; }

    /** What the last crash() did to the controller write buffer. */
    const mem::CrashOutcome &lastCrashOutcome() const
    {
        return crashOutcome;
    }

    /** The report from the last reboot()'s recovery pass. */
    const persist::RecoveryReport &lastRecovery() const
    {
        return lastRecovery_;
    }

    /**
     * Drive @p visitor over every component's stat tree (memory,
     * caches, core, kernel, persistence/SSP/HSCC when configured) in
     * the fixed dump order.  Serializers, snapshots and ad-hoc stat
     * queries all build on this.
     */
    void acceptStats(statistics::StatVisitor &visitor) const;

    /** Dump the complete statistics tree as text. */
    void dumpStats(std::ostream &os) const;

    /** Dump the complete statistics tree as one JSON object. */
    void dumpStatsJson(std::ostream &os) const;

    /** Capture every stat as a flat path→value snapshot. */
    statistics::StatSnapshot snapshotStats() const;

    /** Export collected spans as Chrome trace-event JSON. */
    void writeTrace(std::ostream &os) const;

    /**
     * Export the sampler's time series; @p csv picks the format.
     * No-op (writes nothing) when the sampler is off.
     */
    void writeTelemetry(std::ostream &os, bool csv = false) const;

    /**
     * Dump the flight-recorder ring as JSON, annotated with @p reason
     * ("power-loss", "oracle-divergence", ...), the armed fault plan
     * and the crash site that fired (if any).  Harness code calls
     * this on failures the system cannot see itself — e.g. the fuzz
     * oracle diverging; power losses and recovery errors dump
     * automatically when trace.flightDumpPath is configured.
     */
    void dumpFlightRecorder(std::ostream &os,
                            const std::string &reason) const;

  private:
    void buildOsLayer();
    void buildSampler();
    void wirePressureHooks();
    mem::PowerLossModel lossModel() const;
    void teardownToCrashed();
    std::vector<cpu::Core *> corePtrs() const;

    /** Write the flight recorder to trace.flightDumpPath, if set. */
    void autoFlightDump(const std::string &reason) const;

    KindleConfig config;

    sim::Simulation sim;

    // The probe consumers and the scope that installs them outlive
    // every component that can fire a probe or emit a span (members
    // destroy in reverse order, so the scope uninstalls only after
    // the OS layer is gone).
    trace::TraceSink traceSink_;
    fault::CrashInjector injector_;
    std::unique_ptr<telemetry::Profiler> profiler_;
    ProbeScope probeScope_;

    std::unique_ptr<mem::HybridMemory> mem_;
    std::unique_ptr<mem::PatrolScrubber> scrubber_;
    std::unique_ptr<cache::Hierarchy> caches_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<persist::PersistDomain> persist_;
    std::unique_ptr<ssp::SspEngine> ssp_;
    std::unique_ptr<hscc::HsccEngine> hscc_;
    std::unique_ptr<telemetry::Sampler> sampler_;

    bool isCrashed = false;
    mem::CrashOutcome crashOutcome;
    persist::RecoveryReport lastRecovery_;

    // Reboot-survivable counters: the group is created once with the
    // system (never re-registered on reboot) and accumulates across
    // crash/reboot cycles.
    statistics::StatGroup recoveryStats;
    statistics::Scalar &reboots;
    statistics::Scalar &recoveredProcs;
    statistics::Scalar &quarantinedProcs;
    statistics::Scalar &framesReclaimed;
    statistics::Scalar &tornPtRolledBack;
    statistics::Scalar &recoveryErrors;
    statistics::Histogram &recoveryDuration;

    // SMP aggregate rollup: a counters-only mirror of one core's stat
    // tree, re-accumulated over every core each time stats are
    // visited.  Only built when numCores > 1, so the uniprocessor
    // stat dump stays byte-identical to the pre-SMP layout.
    mutable std::unique_ptr<statistics::StatGroup> coreAggregate_;
    mutable std::vector<std::unique_ptr<statistics::StatGroup>>
        aggregateChildren_;
    mutable std::vector<statistics::Scalar *> aggregateSlots_;
};

} // namespace kindle

#endif // KINDLE_KINDLE_KINDLE_HH
