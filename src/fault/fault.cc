#include "fault/fault.hh"

#include "base/logging.hh"
#include "trace/trace.hh"

namespace kindle::fault
{

CrashInjector::CrashInjector(FaultPlan plan, std::function<Tick()> now_fn)
    : _plan(std::move(plan)),
      nowFn(std::move(now_fn)),
      statGroup("fault", "crash-point fault injection"),
      siteHits(statGroup.addScalar("siteHits",
                                   "named crash-site probes reached")),
      durableWriteStat(statGroup.addScalar(
          "durableWrites", "durable NVM writes observed")),
      crashesInjected(statGroup.addScalar(
          "crashesInjected", "power-loss crashes fired by the plan"))
{
    kindle_assert(nowFn, "CrashInjector needs a clock");
}

void
CrashInjector::rearm(FaultPlan plan)
{
    _plan = std::move(plan);
    _fired = false;
    _firedSite.clear();
    _durableWrites = 0;
    hits.clear();
    active = true;
}

void
CrashInjector::fire(const std::string &name)
{
    _fired = true;
    _firedSite = name;
    ++crashesInjected;
    KINDLE_TRACE_INSTANT_ARGS(fault, fault, "crash.fire", "site={}",
                              name);
    throw PowerLoss(name, nowFn());
}

void
CrashInjector::site(const char *name)
{
    if (!active || _fired)
        return;
    // Every protocol probe doubles as a flight-recorder breadcrumb:
    // the ring's tail is the exact step sequence leading into a crash.
    KINDLE_TRACE_INSTANT(fault, fault, name);
    ++siteHits;
    const std::uint64_t count = ++hits[name];
    if (observer)
        observer(name, count);
    if (_plan.atTick != 0 && nowFn() >= _plan.atTick)
        fire(name);
    if (!_plan.site.empty() && _plan.site == name &&
        count == _plan.occurrence) {
        fire(name);
    }
}

void
CrashInjector::durableWrite(Tick now)
{
    if (!active || _fired)
        return;
    ++durableWriteStat;
    ++_durableWrites;
    if (_plan.atNthDurableWrite != 0 &&
        _durableWrites == _plan.atNthDurableWrite) {
        fire("nvm.durable_write#" + std::to_string(_durableWrites));
    }
    if (_plan.atTick != 0 && now >= _plan.atTick)
        fire("nvm.durable_write#" + std::to_string(_durableWrites));
}

void
crashSite(const char *name)
{
    if (CrashInjector *inj = current())
        inj->site(name);
}

void
onDurableNvmWrite(Tick now)
{
    if (CrashInjector *inj = current())
        inj->durableWrite(now);
}

const std::vector<CrashSiteInfo> &
crashSiteCatalog()
{
    // Keep in sync with every KINDLE_CRASH_SITE() in the tree; the
    // crash-site parameterized test cross-checks this list by crashing
    // at each entry and asserting the probe actually fired.  The
    // descriptions feed --list-crash-sites and the DESIGN.md table.
    static const std::vector<CrashSiteInfo> sites = {
        {"ckpt.before_cpu_log", "checkpoint: before CPU redo record"},
        {"ckpt.after_log_append", "checkpoint: CPU record durable"},
        {"ckpt.after_replay", "checkpoint: metadata log replayed"},
        {"ckpt.after_working_write",
         "checkpoint: working context written"},
        {"ckpt.after_mapping_update",
         "checkpoint: mapping list / pt root"},
        {"ckpt.after_commit", "checkpoint: slot flipped consistent"},
        {"ckpt.complete", "checkpoint: log reset + undo retire"},
        {"redo.after_append", "redo log: record fully durable"},
        {"redo.append_pre_fence", "redo log: record clwb'd, unfenced"},
        {"pt.after_undo_append", "pt policy: undo record durable"},
        {"pt.after_store", "pt policy: PTE stored, not flushed"},
        {"pt.after_clwb", "pt policy: PTE clwb'd, unfenced"},
        {"slot.mid_working_write", "saved state: context half-flushed"},
        {"slot.commit_pre_fence",
         "saved state: header clwb'd, unfenced"},
        {"alloc.bitmap_pre_fence",
         "frame alloc: bitmap clwb'd, unfenced"},
        {"hscc.after_copy", "hscc: page copied, PTE not remapped"},
        {"badframe.retire_pre_fence",
         "bad-frame table: bit clwb'd, unfenced"},
        {"recover.after_bitmap", "recovery: allocator bitmap adopted"},
        {"recover.after_log_audit", "recovery: redo log audited"},
        {"recover.after_pt_rollback",
         "recovery: torn PT stores undone"},
        {"recover.after_slot_restore", "recovery: one slot restored"},
        {"recover.after_quarantine", "recovery: one slot fenced off"},
        {"recover.before_reclaim", "recovery: leak reclaim starting"},
        {"recover.complete", "recovery: procedure finished"},
        {"redo.pre_wrap", "redo log: tail about to fold forward"},
        {"redo.pre_truncate",
         "redo log: backpressure epoch bump next"},
        {"reclaim.pre_demote",
         "reclaim: NVM frame held, page not moved"},
        {"oom.pre_kill", "oom: victim chosen, teardown next"},
        {"core.pre_offline",
         "hotplug: core declared dead, teardown next"},
        {"ipi.pre_retry", "shootdown: ack timed out, resend next"},
    };
    return sites;
}

const std::vector<std::string> &
knownCrashSites()
{
    static const std::vector<std::string> sites = [] {
        std::vector<std::string> names;
        for (const CrashSiteInfo &info : crashSiteCatalog())
            names.emplace_back(info.name);
        return names;
    }();
    return sites;
}

} // namespace kindle::fault
