#include "os/reclaim.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "os/kernel.hh"
#include "telemetry/profiler.hh"
#include "trace/trace.hh"

namespace kindle::os
{

ReclaimEngine::ReclaimEngine(Kernel &kernel_arg, ReclaimParams params)
    : kernel(kernel_arg),
      _params(params),
      event(*this),
      statGroup("reclaim", "watermark-driven memory reclaim"),
      passes(statGroup.addScalar("passes", "patrol passes run")),
      emergencyPasses(statGroup.addScalar(
          "emergencyPasses", "direct-reclaim passes for failed allocs")),
      pagesDemoted(statGroup.addScalar(
          "pagesDemoted", "cold DRAM pages demoted to NVM")),
      demoteStallsNoNvm(statGroup.addScalar(
          "demoteStallsNoNvm",
          "demotions abandoned for lack of NVM frames")),
      checkpointsRequested(statGroup.addScalar(
          "checkpointsRequested",
          "early checkpoints requested under NVM pressure"))
{
    kindle_assert(_params.interval > 0, "reclaim interval cannot be 0");
    kindle_assert(_params.batchPages > 0, "reclaim batch cannot be 0");
}

ReclaimEngine::~ReclaimEngine()
{
    // ~Event deschedules itself; nothing else to unwind.
}

void
ReclaimEngine::start()
{
    if (started)
        return;
    started = true;
    scheduleNext();
}

void
ReclaimEngine::stop()
{
    if (!started)
        return;
    started = false;
    kernel.simulation().eventq().deschedule(&event);
}

void
ReclaimEngine::scheduleNext()
{
    if (!started)
        return;
    kernel.simulation().eventq().schedule(
        &event, kernel.simulation().now() + _params.interval);
}

void
ReclaimEngine::patrol()
{
    KINDLE_PROF_SCOPE(reclaim);
    ++passes;
    if (kernel.dramAllocator().belowLow())
        demoteBatch(_params.batchPages);
    if (kernel.nvmAllocator().belowLow())
        maybeRequestCheckpoint();
}

void
ReclaimEngine::emergencyPass()
{
    KINDLE_PROF_SCOPE(reclaim);
    ++emergencyPasses;
    demoteBatch(_params.batchPages);
    // Direct reclaim runs exactly when the machine is at its
    // tightest; if the NVM relief valve is itself low, ask the
    // persistence domain for an early checkpoint (truncating the redo
    // log and compacting slots) rather than waiting for the next
    // patrol to notice — NVM saturation windows can be far shorter
    // than the patrol interval.
    if (kernel.nvmAllocator().belowLow())
        maybeRequestCheckpoint();
}

void
ReclaimEngine::maybeRequestCheckpoint()
{
    if (!checkpointHook)
        return;
    const Tick now = kernel.simulation().now();
    if (checkpointEverRequested &&
        now - lastCheckpointRequest < _params.checkpointMinGap) {
        return;
    }
    checkpointEverRequested = true;
    lastCheckpointRequest = now;
    ++checkpointsRequested;
    checkpointHook();
}

unsigned
ReclaimEngine::demoteBatch(unsigned budget)
{
    FrameAllocator &dram = kernel.dramAllocator();
    const std::uint64_t target = dram.highWatermark();

    // Victim processes: anything not resident on a core right now
    // (the only coldness signal the tree maintains) and not inside a
    // failure-atomic section.  Round-robin the start point so one big
    // sleeper does not absorb every pass.
    std::vector<Process *> victims;
    for (const auto &p : kernel.processes()) {
        if (p->state == ProcState::zombie || p->ptRoot == invalidAddr)
            continue;
        if (p->faseActive)
            continue;
        bool resident = false;
        for (CpuId c = 0; c < kernel.numCores(); ++c) {
            if (kernel.runningOn(c) == p.get()) {
                resident = true;
                break;
            }
        }
        if (!resident)
            victims.push_back(p.get());
    }
    std::sort(victims.begin(), victims.end(),
              [](const Process *a, const Process *b) {
                  return a->pid < b->pid;
              });
    const auto pivot = std::find_if(
        victims.begin(), victims.end(),
        [this](const Process *p) { return p->pid > cursor; });
    std::rotate(victims.begin(), pivot, victims.end());

    unsigned demoted = 0;
    for (Process *proc : victims) {
        if (demoted >= budget || dram.freeFrames() >= target)
            break;
        // Collect this process's DRAM-backed leaves (the software
        // walk is charged — scanning for victims is real work).
        std::vector<Addr> pages;
        kernel.pageTables().forEachLeaf(
            proc->ptRoot, [&](Addr va, cpu::Pte pte, Addr) {
                if (pte.present() && !pte.nvmBacked() &&
                    !pte.hsccRemapped()) {
                    pages.push_back(va);
                }
            });
        for (const Addr va : pages) {
            if (demoted >= budget || dram.freeFrames() >= target)
                break;
            if (!kernel.demotePage(*proc, va)) {
                // No NVM frame to demote onto: further candidates
                // fare no better this pass.
                ++demoteStallsNoNvm;
                cursor = proc->pid;
                return demoted;
            }
            ++pagesDemoted;
            ++demoted;
        }
        cursor = proc->pid;
    }
    return demoted;
}

} // namespace kindle::os
