#include "kindle/kindle.hh"

#include <fstream>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "os/reclaim.hh"

namespace kindle
{

KindleSystem::KindleSystem(const KindleConfig &config_arg)
    : config(config_arg),
      // The probe consumers exist before any component, so spans and
      // crash-site breadcrumbs emitted during construction, boot and
      // teardown all land in this system.  The injector exists even
      // when no fault is configured: an unarmed plan just counts probe
      // hits (observe mode).  The self-profiler exists only on
      // request: prof.* stats are wall-clock derived and
      // nondeterministic, and the BENCH JSON contract requires default
      // stat dumps never to contain them.  Installing a null profiler
      // still shadows any outer profiled system on the thread.
      traceSink_(config.trace, [this] { return sim.now(); }),
      injector_(config.fault.value_or(fault::FaultPlan{}),
                [this] { return sim.now(); }),
      profiler_(config.profiling ? std::make_unique<telemetry::Profiler>()
                                 : nullptr),
      probeScope_({&traceSink_, &injector_, profiler_.get()}),
      recoveryStats("recovery",
                    "crash recovery outcomes (cumulative over reboots)"),
      reboots(recoveryStats.addScalar("reboots", "reboot() calls")),
      recoveredProcs(recoveryStats.addScalar(
          "processesRecovered", "processes restored by recovery")),
      quarantinedProcs(recoveryStats.addScalar(
          "processesQuarantined", "slots fenced off by recovery")),
      framesReclaimed(recoveryStats.addScalar(
          "framesReclaimed", "leaked NVM frames reclaimed")),
      tornPtRolledBack(recoveryStats.addScalar(
          "tornPtStoresRolledBack", "torn PTE stores undone")),
      recoveryErrors(recoveryStats.addScalar(
          "errors", "classified recovery errors")),
      recoveryDuration(recoveryStats.addHistogram(
          "duration", "per-reboot recovery ticks"))
{
    // The page-table home follows the persistence scheme.
    if (config.persistence) {
        config.kernel.ptInNvm =
            config.persistence->scheme == persist::PtScheme::persistent;
    }

    // The fault plan's media sub-config rides into the memory system;
    // the medium is hardware, so this is construction-time only.
    if (config.fault)
        config.memory.media = config.fault->media;

    // A pressure plan rides into the kernel and turns on write-buffer
    // stall telemetry (pressure shows up first as controller stalls).
    if (config.pressure) {
        config.kernel.pressure = *config.pressure;
        config.memory.dramCtrl.trackStalls = true;
        config.memory.nvmCtrl.trackStalls = true;
    }

    // A core-fault plan rides into the kernel.  It lives in `config`,
    // so reboot()'s fresh kernel re-arms it: dead hardware stays dead
    // across boots of the same machine.
    if (config.coreFault)
        config.kernel.coreFaults = *config.coreFault;

    const unsigned n = std::max(1u, config.numCores);
    mem_ = std::make_unique<mem::HybridMemory>(config.memory);
    caches_ = std::make_unique<cache::Hierarchy>(config.caches, *mem_,
                                                 n);
    // One core keeps the historical "core" stat-group name; an SMP
    // machine names them "cpu0".."cpuN-1" and grows an aggregate
    // rollup (see acceptStats).
    for (unsigned c = 0; c < n; ++c) {
        cores_.push_back(std::make_unique<cpu::Core>(
            config.core, sim, *mem_, *caches_, c,
            n == 1 ? std::string("core") : csprintf("cpu{}", c)));
    }

    // The scrubber lives with the machine (stats accumulate across
    // reboots); its retirement handler dereferences the *current*
    // kernel, so no rebinding is needed after reboot().
    if (mem_->media() || config.scrub) {
        scrubber_ = std::make_unique<mem::PatrolScrubber>(
            sim, *mem_, config.scrub.value_or(mem::ScrubParams{}));
        scrubber_->setBadFrameHandler(
            [this](Addr frame, const char *reason) {
                kernel_->retireNvmFrame(frame, reason);
            });
    }

    buildOsLayer();
    if (scrubber_)
        scrubber_->start();
    buildSampler();

    // Activate only after boot so construction-time durable writes do
    // not consume trigger budget.
    injector_.activate();
}

KindleSystem::~KindleSystem()
{
    // Engines detach before the kernel they reference disappears.
    ssp_.reset();
    hscc_.reset();
    persist_.reset();
    kernel_.reset();
}

std::vector<cpu::Core *>
KindleSystem::corePtrs() const
{
    std::vector<cpu::Core *> ptrs;
    ptrs.reserve(cores_.size());
    for (const auto &c : cores_)
        ptrs.push_back(c.get());
    return ptrs;
}

void
KindleSystem::buildOsLayer()
{
    kernel_ = std::make_unique<os::Kernel>(config.kernel, sim, *mem_,
                                           *caches_, corePtrs());
    if (config.persistence) {
        persist_ = std::make_unique<persist::PersistDomain>(
            *config.persistence, *kernel_);
        persist_->start();
    }
    if (config.ssp) {
        ssp_ = std::make_unique<ssp::SspEngine>(*config.ssp, *kernel_);
        ssp_->start();
    }
    if (config.hscc) {
        hscc_ = std::make_unique<hscc::HsccEngine>(*config.hscc,
                                                   *kernel_);
        hscc_->start();
    }
    wirePressureHooks();
}

void
KindleSystem::buildSampler()
{
    if (config.telemetry.sampleInterval == 0)
        return;
    sampler_ = std::make_unique<telemetry::Sampler>(
        sim, config.telemetry, [this] { return snapshotStats(); });
    using Kind = telemetry::Sampler::Kind;

    // Levels: the machine's occupancy picture at the sample instant.
    sampler_->addStatChannel("dramFramesUsed", Kind::level,
                             "kernel.dramAlloc.framesInUse");
    sampler_->addStatChannel("nvmFramesUsed", Kind::level,
                             "kernel.nvmAlloc.framesInUse");
    sampler_->addCallbackChannel(
        "residentPages", Kind::level, [this] {
            return kernel_ ? static_cast<double>(
                                 kernel_->residentPagesTotal())
                           : 0.0;
        });
    sampler_->addCallbackChannel("runnable", Kind::level, [this] {
        return kernel_
                   ? static_cast<double>(kernel_->runnableCount())
                   : 0.0;
    });
    // Fleet-scale population and per-tier occupancy: how many tenants
    // are alive and what fraction of each zone they hold.
    sampler_->addCallbackChannel("liveProcs", Kind::level, [this] {
        return kernel_
                   ? static_cast<double>(kernel_->liveProcessCount())
                   : 0.0;
    });
    sampler_->addCallbackChannel("dramOccupancy", Kind::level, [this] {
        if (!kernel_)
            return 0.0;
        const os::FrameAllocator &a = kernel_->dramAllocator();
        return static_cast<double>(a.allocatedFrames()) /
               static_cast<double>(a.totalFrames());
    });
    sampler_->addCallbackChannel("nvmOccupancy", Kind::level, [this] {
        if (!kernel_)
            return 0.0;
        const os::FrameAllocator &a = kernel_->nvmAllocator();
        return static_cast<double>(a.allocatedFrames()) /
               static_cast<double>(a.totalFrames());
    });
    if (config.persistence) {
        sampler_->addCallbackChannel(
            "redoLogPending", Kind::level, [this] {
                return persist_ ? static_cast<double>(
                                      persist_->redoLog().pending())
                                : 0.0;
            });
    }

    // Rates: per-interval activity deltas.  Paths that do not exist
    // in a sample (lazily-registered stats, unconfigured subsystems)
    // read as zero, so channels can cover optional machinery.
    sampler_->addStatChannel("pageFaults", Kind::rate,
                             "kernel.pageFaults");
    sampler_->addStatChannel("reclaimDemotions", Kind::rate,
                             "kernel.reclaim.pagesDemoted");
    sampler_->addStatChannel("shootdownIpis", Kind::rate,
                             "kernel.tlbShootdownIpis");
    if (config.persistence) {
        sampler_->addStatChannel("checkpoints", Kind::rate,
                                 "persist.checkpoints");
    }
    if (config.hscc) {
        sampler_->addStatChannel("hsccMigrations", Kind::rate,
                                 "hscc.pagesMigrated");
    }
    sampler_->start();
}

void
KindleSystem::wirePressureHooks()
{
    if (!config.pressure || !persist_)
        return;
    // Redo-log high water pulls the next checkpoint forward before
    // the log can wrap; the early checkpoint truncates the log and
    // compacts dead saved-state slots.
    if (config.pressure->redoHighWaterFraction > 0.0) {
        persist_->enableBackpressure(
            config.pressure->redoHighWaterFraction);
    }
    // NVM-zone pressure has no page-level relief valve; the reclaim
    // engine asks the persistence domain to shed metadata instead.
    if (auto *rec = kernel_->reclaimEngine()) {
        rec->setCheckpointHook([this] {
            if (persist_)
                persist_->requestEarlyCheckpoint();
        });
    }
}

Tick
KindleSystem::run(std::unique_ptr<cpu::OpStream> program,
                  const std::string &name)
{
    if (isCrashed) {
        kindle_fatal("KindleSystem::run() between crash() and "
                     "reboot() — the machine has no OS; call reboot() "
                     "to recover the durable image first");
    }
    const Tick t0 = sim.now();
    kernel_->spawn(std::move(program), name);
    try {
        kernel_->run();
    } catch (const fault::PowerLoss &) {
        autoFlightDump("power-loss");
        throw;
    }
    return sim.now() - t0;
}

void
KindleSystem::runAll()
{
    if (isCrashed) {
        kindle_fatal("KindleSystem::runAll() between crash() and "
                     "reboot() — the machine has no OS; call reboot() "
                     "to recover the durable image first");
    }
    try {
        kernel_->run();
    } catch (const fault::PowerLoss &) {
        autoFlightDump("power-loss");
        throw;
    }
}

mem::PowerLossModel
KindleSystem::lossModel() const
{
    mem::PowerLossModel loss;
    if (config.fault) {
        loss.tornStore = config.fault->tornStore;
        loss.seed = config.fault->seed;
    }
    return loss;
}

void
KindleSystem::teardownToCrashed()
{
    // Volatile hardware state disappears; durable NVM survives —
    // except the lines still queued in the controller write buffer,
    // which are lost (and possibly torn) by the power-loss model.
    // Media error state is physical and survives untouched.
    if (scrubber_)
        scrubber_->stop();
    caches_->invalidateAll();
    for (auto &core : cores_)
        core->reset();
    crashOutcome = mem_->crash(sim.now(), lossModel());
    sim.hardReset();

    // The injector's job is done once the crash lands; silence the
    // probes until the post-reboot system is whole again.
    injector_.deactivate();
}

void
KindleSystem::crash()
{
    kindle_assert(!isCrashed, "double crash");
    isCrashed = true;

    // Stop the engines first so their events and hooks detach from
    // the dying kernel; their host-side indexes are volatile state.
    if (ssp_)
        ssp_->stop();
    if (hscc_)
        hscc_->stop();
    if (persist_)
        persist_->stop();
    ssp_.reset();
    hscc_.reset();
    persist_.reset();
    kernel_.reset();

    teardownToCrashed();
}

persist::RecoveryReport
KindleSystem::reboot()
{
    kindle_assert(isCrashed, "reboot without a crash");
    isCrashed = false;

    // Fresh kernel over the surviving NVM image.
    kernel_ = std::make_unique<os::Kernel>(config.kernel, sim, *mem_,
                                           *caches_, corePtrs());

    persist::RecoveryReport report;
    if (config.persistence) {
        try {
            report = persist::recover(*kernel_,
                                      config.persistence->scheme);
        } catch (const fault::PowerLoss &) {
            // Power failed *during recovery* (a re-armed injector
            // tripped one of the recover.* probes).  The half-booted
            // machine dies exactly like any other crash; the durable
            // image — including whatever recovery managed to persist
            // — is what the next reboot() starts from.
            autoFlightDump("power-loss-in-recovery");
            kernel_.reset();
            teardownToCrashed();
            isCrashed = true;
            throw;
        }
        persist_ = std::make_unique<persist::PersistDomain>(
            *config.persistence, *kernel_);
        persist_->start();
    }
    if (config.ssp) {
        ssp_ = std::make_unique<ssp::SspEngine>(*config.ssp, *kernel_);
        ssp_->start();
    }
    if (config.hscc) {
        hscc_ = std::make_unique<hscc::HsccEngine>(*config.hscc,
                                                   *kernel_);
        hscc_->start();
    }
    if (scrubber_)
        scrubber_->start();
    // The crash cleared the sampler's pending event with the rest of
    // the queue; resume it over the rebooted machine (rate baselines
    // re-prime, since the fresh kernel's counters restarted).
    if (sampler_)
        sampler_->restart();
    wirePressureHooks();

    // The injector stays deactivated: its one armed crash has fired
    // (or been skipped), and recovery/rerun probes must not refire it.
    ++reboots;
    recoveredProcs += static_cast<double>(report.processesRecovered);
    quarantinedProcs +=
        static_cast<double>(report.processesQuarantined);
    framesReclaimed += static_cast<double>(report.framesReclaimed);
    tornPtRolledBack +=
        static_cast<double>(report.tornPtStoresRolledBack);
    recoveryErrors += static_cast<double>(report.errors.size());
    recoveryDuration.sample(
        static_cast<double>(report.recoveryTicks));
    lastRecovery_ = report;
    if (!report.errors.empty())
        autoFlightDump("recovery-error");
    return report;
}

void
KindleSystem::armFault(const fault::FaultPlan &plan)
{
    config.fault = plan;
    injector_.rearm(plan);
}

namespace
{

/**
 * Builds a counters-only mirror of a stat tree: same group structure,
 * same scalar names/descriptions, no gauges/distributions/histograms
 * (extrema and shapes do not sum meaningfully across cores).  The
 * scalars are collected in canonical visit order so an Accumulator
 * pass over a structurally identical tree can match them by index.
 */
class MirrorBuilder : public statistics::StatVisitor
{
  public:
    MirrorBuilder(
        statistics::StatGroup &root,
        std::vector<std::unique_ptr<statistics::StatGroup>> &owned,
        std::vector<statistics::Scalar *> &slots)
        : owned(owned), slots(slots)
    {
        stack.push_back(&root);
    }

    void
    beginGroup(const std::string &name,
               const std::string &desc) override
    {
        ++depth;
        if (depth == 1)
            return;  // the source root maps onto the mirror root
        owned.push_back(
            std::make_unique<statistics::StatGroup>(name, desc));
        stack.back()->addChild(*owned.back());
        stack.push_back(owned.back().get());
    }

    void
    endGroup() override
    {
        if (depth > 1)
            stack.pop_back();
        --depth;
    }

    void
    visitScalar(const std::string &name, const std::string &desc,
                const statistics::Scalar &) override
    {
        slots.push_back(&stack.back()->addScalar(name, desc));
    }

    void visitGauge(const std::string &, const std::string &,
                    const statistics::Gauge &) override
    {}
    void visitDistribution(const std::string &, const std::string &,
                           const statistics::Distribution &) override
    {}
    void visitHistogram(const std::string &, const std::string &,
                        const statistics::Histogram &) override
    {}

  private:
    std::vector<std::unique_ptr<statistics::StatGroup>> &owned;
    std::vector<statistics::Scalar *> &slots;
    std::vector<statistics::StatGroup *> stack;
    unsigned depth = 0;
};

/** Adds every scalar of a tree into the mirror's slots, in order. */
class MirrorAccumulator : public statistics::StatVisitor
{
  public:
    explicit MirrorAccumulator(
        const std::vector<statistics::Scalar *> &slots)
        : slots(slots)
    {}

    void beginGroup(const std::string &, const std::string &) override
    {}
    void endGroup() override {}

    void
    visitScalar(const std::string &, const std::string &,
                const statistics::Scalar &stat) override
    {
        kindle_assert(idx < slots.size(),
                      "core stat trees diverged under the rollup");
        *slots[idx++] += stat.value();
    }

    void visitGauge(const std::string &, const std::string &,
                    const statistics::Gauge &) override
    {}
    void visitDistribution(const std::string &, const std::string &,
                           const statistics::Distribution &) override
    {}
    void visitHistogram(const std::string &, const std::string &,
                        const statistics::Histogram &) override
    {}

  private:
    const std::vector<statistics::Scalar *> &slots;
    std::size_t idx = 0;
};

} // namespace

void
KindleSystem::acceptStats(statistics::StatVisitor &visitor) const
{
    mem_->stats().accept(visitor);
    if (scrubber_)
        scrubber_->stats().accept(visitor);
    caches_->stats().accept(visitor);
    for (const auto &core : cores_)
        core->stats().accept(visitor);
    if (cores_.size() > 1) {
        // Aggregate rollup: "core.*" becomes the machine-wide sum of
        // the per-cpu counters, so cross-config tooling keyed on the
        // uniprocessor names keeps working against SMP runs.
        if (!coreAggregate_) {
            coreAggregate_ = std::make_unique<statistics::StatGroup>(
                "core", "aggregate over all cpus");
            MirrorBuilder builder(*coreAggregate_, aggregateChildren_,
                                  aggregateSlots_);
            cores_[0]->stats().accept(builder);
        }
        coreAggregate_->resetAll();
        for (const auto &core : cores_) {
            MirrorAccumulator acc(aggregateSlots_);
            core->stats().accept(acc);
        }
        coreAggregate_->accept(visitor);
    }
    if (kernel_)
        kernel_->stats().accept(visitor);
    if (persist_)
        persist_->stats().accept(visitor);
    if (ssp_)
        ssp_->stats().accept(visitor);
    if (hscc_)
        hscc_->stats().accept(visitor);
    injector_.stats().accept(visitor);
    recoveryStats.accept(visitor);
    if (profiler_)
        profiler_->stats().accept(visitor);
}

void
KindleSystem::dumpStats(std::ostream &os) const
{
    statistics::TextSerializer text(os);
    acceptStats(text);
}

void
KindleSystem::dumpStatsJson(std::ostream &os) const
{
    json::Writer writer(os);
    writer.beginObject();
    statistics::JsonSerializer ser(writer);
    acceptStats(ser);
    writer.endObject();
    os << '\n';
}

statistics::StatSnapshot
KindleSystem::snapshotStats() const
{
    statistics::StatSnapshot snap;
    statistics::StatSnapshot::Builder builder(snap);
    acceptStats(builder);
    return snap;
}

namespace
{

/** One-line human summary of a fault plan for flight-recorder dumps. */
std::string
describePlan(const std::optional<fault::FaultPlan> &plan)
{
    if (!plan)
        return "none";
    const fault::FaultPlan &p = *plan;
    std::string out;
    if (!p.site.empty())
        out = csprintf("site={}#{}", p.site, p.occurrence);
    else if (p.atNthDurableWrite != 0)
        out = csprintf("durable-write#{}", p.atNthDurableWrite);
    else if (p.atTick != 0)
        out = csprintf("at-tick={}", p.atTick);
    else
        out = "unarmed";
    out += csprintf(" torn={} seed={}", p.tornStore ? 1 : 0, p.seed);
    if (p.media.enabled()) {
        out += csprintf(" media(flip={} endurance={} targeted={})",
                        p.media.bitFlipRate, p.media.writeEndurance,
                        p.media.faults.size());
    }
    return out;
}

} // namespace

void
KindleSystem::writeTrace(std::ostream &os) const
{
    traceSink_.writeChromeJson(os);
}

void
KindleSystem::writeTelemetry(std::ostream &os, bool csv) const
{
    if (!sampler_)
        return;
    if (csv)
        sampler_->writeCsv(os);
    else
        sampler_->writeJson(os);
}

void
KindleSystem::dumpFlightRecorder(std::ostream &os,
                                 const std::string &reason) const
{
    trace::FlightContext ctx;
    ctx.reason = reason;
    ctx.crashSite = injector_.firedSite();
    ctx.tick = sim.now();
    ctx.faultPlan = describePlan(config.fault);
    traceSink_.writeFlightRecorder(os, ctx);
}

void
KindleSystem::autoFlightDump(const std::string &reason) const
{
    const std::string &path = config.trace.flightDumpPath;
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        warn("cannot write flight-recorder dump to '{}'", path);
        return;
    }
    dumpFlightRecorder(out, reason);
}

} // namespace kindle
