/**
 * @file
 * Clean-process checkpoint skips (PersistParams::skipCleanProcesses):
 * a process whose context is unchanged since its last sweep and whose
 * NVM mappings did not move is skipped, everything else is swept, and
 * persist.cleanSkips counts the skips exactly and in sweep order.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle::persist
{
namespace
{

constexpr unsigned numProcs = 3;

/** Three processes that each fault in four DRAM pages, then compute
 *  for far longer than any test runs them.  The checkpoint timer is
 *  set beyond the test horizon: every checkpoint is taken by hand. */
struct Fleet
{
    Fleet() : sys(config())
    {
        for (unsigned i = 0; i < numProcs; ++i) {
            micro::ScriptBuilder b;
            b.mmapFixed(micro::scriptBase, 4 * pageSize, false);
            b.touchPages(micro::scriptBase, 4 * pageSize);
            for (int c = 0; c < 200; ++c)
                b.compute(1000000);
            b.exit();
            sys.kernel().spawn(b.build(), "p" + std::to_string(i));
        }
        // Every process gets at least one 1 ms timeslice.
        run(5 * oneMs);
        for (const auto &p : sys.kernel().processes())
            procs.push_back(p.get());
        EXPECT_EQ(procs.size(), numProcs);
    }

    static KindleConfig
    config()
    {
        KindleConfig cfg;
        cfg.memory.dramBytes = 256 * oneMiB;
        cfg.memory.nvmBytes = 512 * oneMiB;
        PersistParams pp;
        pp.scheme = PtScheme::rebuild;
        pp.checkpointInterval = oneSec;
        pp.skipCleanProcesses = true;
        cfg.persistence = pp;
        return cfg;
    }

    void run(Tick span) { sys.kernel().runUntil(sys.now() + span); }

    PersistDomain &domain() { return *sys.persistence(); }

    double
    stat(const char *name)
    {
        return domain().stats().scalarValue(name);
    }

    /** Demote one faulted-in DRAM page of @p proc to NVM, as reclaim
     *  does: the context stays put, the NVM mapping set changes. */
    void
    demote(os::Process &proc)
    {
        ASSERT_TRUE(sys.kernel().demotePage(proc, micro::scriptBase));
    }

    KindleSystem sys;
    std::vector<os::Process *> procs;
};

TEST(CleanSkipTest, IdleProcessesAreSkippedAndCountedExactly)
{
    Fleet f;
    // First checkpoint: nothing committed yet, so everything is swept.
    f.domain().checkpointNow();
    EXPECT_EQ(f.stat("cleanSkips"), 0.0);

    // Nothing ran since: every process is clean, and no CPU-state
    // record is logged for any of them.
    const double redo0 = f.stat("redoRecords");
    f.domain().checkpointNow();
    EXPECT_EQ(f.stat("cleanSkips"), double(numProcs));
    EXPECT_EQ(f.stat("redoRecords"), redo0);

    f.domain().checkpointNow();
    EXPECT_EQ(f.stat("cleanSkips"), double(2 * numProcs));
    EXPECT_EQ(f.stat("checkpoints"), 3.0);
}

TEST(CleanSkipTest, ProcessesThatRanAreSwept)
{
    Fleet f;
    f.domain().checkpointNow();
    f.run(5 * oneMs);  // every process runs again
    const double redo0 = f.stat("redoRecords");
    f.domain().checkpointNow();
    EXPECT_EQ(f.stat("cleanSkips"), 0.0);
    // One CPU-state record per swept process.
    EXPECT_EQ(f.stat("redoRecords") - redo0, double(numProcs));
}

TEST(CleanSkipTest, DemotedMappingSweepsAnUnchangedContext)
{
    Fleet f;
    f.domain().checkpointNow();
    f.demote(*f.procs[1]);
    const double redo0 = f.stat("redoRecords");
    f.domain().checkpointNow();
    EXPECT_EQ(f.stat("cleanSkips"), double(numProcs - 1));
    EXPECT_EQ(f.stat("redoRecords") - redo0, 1.0);

    // Swept once, the demoted process is clean again.
    f.domain().checkpointNow();
    EXPECT_EQ(f.stat("cleanSkips"), double(2 * numProcs - 1));
}

TEST(CleanSkipTest, CrashAfterReplayCountsNoSkips)
{
    Fleet f;
    f.domain().checkpointNow();
    f.domain().checkpointNow();
    ASSERT_EQ(f.stat("cleanSkips"), double(numProcs));

    // The skips of a checkpoint are counted only as its sweep runs,
    // after ckpt.after_replay: a crash there counts none of them.
    fault::FaultPlan plan;
    plan.site = "ckpt.after_replay";
    f.sys.armFault(plan);
    EXPECT_THROW(f.domain().checkpointNow(), fault::PowerLoss);
    EXPECT_EQ(f.stat("cleanSkips"), double(numProcs));
}

TEST(CleanSkipTest, CrashMidSweepCountsOnlyEarlierSkips)
{
    Fleet f;
    f.domain().checkpointNow();
    // First and last dirty, the middle one clean.
    f.demote(*f.procs[0]);
    f.demote(*f.procs[2]);

    // Crash in the second swept process: the clean process before it
    // has been counted, nothing after it has.
    fault::FaultPlan plan;
    plan.site = "ckpt.after_working_write";
    plan.occurrence = 2;
    f.sys.armFault(plan);
    EXPECT_THROW(f.domain().checkpointNow(), fault::PowerLoss);
    EXPECT_EQ(f.stat("cleanSkips"), 1.0);
}

} // namespace
} // namespace kindle::persist
