#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "os/nvm_layout.hh"
#include "persist/redo_log.hh"

namespace kindle::persist
{
namespace
{

struct Rig
{
    Rig()
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 64 * oneMiB;
              p.nvmBytes = 128 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          layout(os::NvmLayout::standard(memory.nvmRange()))
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    os::KernelMem kmem;
    os::NvmLayout layout;
};

TEST(RedoLogTest, AppendAndReplay)
{
    Rig rig;
    RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    for (std::uint32_t i = 0; i < 5; ++i) {
        RedoRecord rec;
        rec.type = RedoType::vmaAdded;
        rec.pid = i;
        rec.a = i * 100;
        log.append(rec);
    }
    EXPECT_EQ(log.pending(), 5u);

    std::vector<std::uint64_t> seen;
    log.replay([&](const RedoRecord &r) { seen.push_back(r.a); });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 100, 200, 300,
                                                400}));
}

TEST(RedoLogTest, AppendChargesSimTime)
{
    Rig rig;
    RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    const Tick t0 = rig.sim.now();
    log.append(RedoRecord{});
    EXPECT_GT(rig.sim.now(), t0);
}

TEST(RedoLogTest, ResetTruncates)
{
    Rig rig;
    RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    log.append(RedoRecord{});
    log.reset();
    EXPECT_EQ(log.pending(), 0u);
    int replayed = 0;
    log.replay([&](const RedoRecord &) { ++replayed; });
    EXPECT_EQ(replayed, 0);
}

TEST(RedoLogTest, RecordsAreDurableImmediately)
{
    Rig rig;
    {
        RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
        RedoRecord rec;
        rec.type = RedoType::processCreated;
        rec.pid = 7;
        log.append(rec);
    }
    rig.memory.crash();

    RedoLog fresh(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    const auto records = fresh.recoverRecords();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].type, RedoType::processCreated);
    EXPECT_EQ(records[0].pid, 7u);
}

TEST(RedoLogTest, RecoveryIgnoresRecordsFromOlderEpochs)
{
    Rig rig;
    {
        RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
        log.append(RedoRecord{});
        log.append(RedoRecord{});
        log.reset();  // epoch bump
        RedoRecord rec;
        rec.type = RedoType::cpuState;
        log.append(rec);
    }
    rig.memory.crash();

    RedoLog fresh(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    const auto records = fresh.recoverRecords();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].type, RedoType::cpuState);
}

TEST(RedoLogTest, AppendsContinueAfterRecovery)
{
    Rig rig;
    {
        RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
        log.append(RedoRecord{});
    }
    rig.memory.crash();
    RedoLog fresh(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    fresh.recoverRecords();
    fresh.append(RedoRecord{});
    EXPECT_EQ(fresh.pending(), 2u);
}

TEST(RedoLogTest, RecoverScanTruncatesAtACorruptTailRecord)
{
    Rig rig;
    {
        RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
        for (std::uint32_t i = 0; i < 5; ++i) {
            RedoRecord rec;
            rec.type = RedoType::vmaAdded;
            rec.pid = i;
            log.append(rec);
        }
    }
    rig.memory.crash();

    // Scribble over record 3's payload — a torn append: magic and
    // epoch still match but the record no longer checksums.
    const Addr rec3_payload =
        rig.layout.redoLog + lineSize + 3 * sizeof(RedoRecord) + 24;
    const std::uint64_t junk = 0xdeadbeefdeadbeefull;
    rig.memory.writeDataDurable(rec3_payload, &junk, sizeof(junk));

    const RedoScan scan =
        RedoLog::audit(rig.kmem, rig.layout.redoLog, oneMiB);
    EXPECT_FALSE(scan.headerCorrupt);
    EXPECT_TRUE(scan.truncatedTail);
    ASSERT_EQ(scan.records.size(), 3u);  // the valid prefix survives
    for (std::uint32_t i = 0; i < 3; ++i)
        EXPECT_EQ(scan.records[i].pid, i);

    // recoverScan agrees and leaves the log positioned to append
    // after the surviving prefix.
    RedoLog fresh(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    const RedoScan rescan = fresh.recoverScan();
    EXPECT_TRUE(rescan.truncatedTail);
    EXPECT_EQ(rescan.records.size(), 3u);
    EXPECT_EQ(fresh.pending(), 3u);
}

TEST(RedoLogTest, RecoverScanReportsACorruptHeader)
{
    Rig rig;
    {
        RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
        log.append(RedoRecord{});
    }
    rig.memory.crash();

    const std::uint64_t junk = 0x6a756e6b6a756e6bull;
    rig.memory.writeDataDurable(rig.layout.redoLog, &junk,
                                sizeof(junk));

    const RedoScan scan =
        RedoLog::audit(rig.kmem, rig.layout.redoLog, oneMiB);
    EXPECT_TRUE(scan.headerCorrupt);
    EXPECT_TRUE(scan.records.empty());

    // The legacy strict path refuses a corrupt header outright.
    RedoLog fresh(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    rig.memory.writeDataDurable(rig.layout.redoLog, &junk,
                                sizeof(junk));
    setErrorsThrow(true);
    EXPECT_THROW(fresh.recoverRecords(), SimError);
    setErrorsThrow(false);
}

TEST(RedoLogTest, WrapAroundIsCountedNotFatal)
{
    Rig rig;
    // Tiny region: header + 4 records.
    RedoLog log(rig.kmem, rig.layout.redoLog, 5 * 64, "log");
    EXPECT_EQ(log.capacityRecords(), 4u);
    for (int i = 0; i < 6; ++i)
        log.append(RedoRecord{});
    EXPECT_EQ(log.stats().scalarValue("wraps"), 1);
    // Two post-wrap appends landed on slots replay can no longer see.
    EXPECT_EQ(log.wrapDestroyedRecords(), 2u);
    EXPECT_EQ(log.stats().scalarValue("wrapDestroyed"), 2);
    // reset() re-opens the full window: subsequent appends are whole
    // again and the destruction counter stops climbing.
    log.reset();
    log.append(RedoRecord{});
    EXPECT_EQ(log.wrapDestroyedRecords(), 2u);
}

TEST(RedoLogTest, WrapDestroyedStatAbsentUntilFirstWrap)
{
    Rig rig;
    RedoLog log(rig.kmem, rig.layout.redoLog, oneMiB, "log");
    log.append(RedoRecord{});
    // Lazily registered: a run that never wraps exports no stat, so
    // default-config figure output stays byte-identical.
    EXPECT_FALSE(log.stats().hasScalar("wrapDestroyed"));
}

TEST(RedoLogTest, CrashAtPreWrapSalvagesTheFullConsistentPrefix)
{
    Rig rig;

    // Arm power loss on the wrap itself: the append that would fold
    // the tail forward dies *before* overwriting slot 0.
    fault::FaultPlan plan;
    plan.site = "redo.pre_wrap";
    fault::CrashInjector injector(
        plan, [&rig] { return rig.sim.now(); });
    ProbeScope scope({.injector = &injector});
    injector.activate();

    {
        RedoLog log(rig.kmem, rig.layout.redoLog, 5 * 64, "log");
        for (std::uint32_t i = 0; i < 4; ++i) {
            RedoRecord rec;
            rec.type = RedoType::vmaAdded;
            rec.pid = i;
            log.append(rec);
        }
        // The fifth append trips the wrap path and the lights go out.
        RedoRecord doomed;
        doomed.type = RedoType::cpuState;
        EXPECT_THROW(log.append(doomed), fault::PowerLoss);
        EXPECT_EQ(log.stats().scalarValue("wraps"), 0);
    }
    rig.memory.crash();

    // Every record durable before the wrap survives as a consistent
    // prefix: the log is full, uncorrupted, and in append order.
    const RedoScan scan =
        RedoLog::audit(rig.kmem, rig.layout.redoLog, 5 * 64);
    EXPECT_FALSE(scan.headerCorrupt);
    EXPECT_FALSE(scan.truncatedTail);
    ASSERT_EQ(scan.records.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(scan.records[i].pid, i);
        EXPECT_EQ(scan.records[i].type, RedoType::vmaAdded);
    }

    // A recovering log adopts the salvaged prefix and keeps going.
    injector.deactivate();
    RedoLog fresh(rig.kmem, rig.layout.redoLog, 5 * 64, "log");
    const RedoScan rescan = fresh.recoverScan();
    EXPECT_EQ(rescan.records.size(), 4u);
    EXPECT_EQ(fresh.pending(), 4u);
    fresh.reset();
    fresh.append(RedoRecord{});
    EXPECT_EQ(fresh.pending(), 1u);
}

} // namespace
} // namespace kindle::persist
