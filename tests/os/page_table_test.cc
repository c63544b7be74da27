#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "os/page_table.hh"

namespace kindle::os
{
namespace
{

struct Rig
{
    Rig()
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 128 * oneMiB;
              p.nvmBytes = 64 * oneMiB;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          alloc("tables", AddrRange(oneMiB, 64 * oneMiB), kmem),
          plain(kmem),
          mgr(kmem, alloc, plain)
    {}

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    KernelMem kmem;
    FrameAllocator alloc;
    PlainPtWrite plain;
    PageTableManager mgr;
};

TEST(PageTableTest, MapThenReadLeaf)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0x10000000, 0x5000, true, true);
    const auto leaf = rig.mgr.readLeaf(root, 0x10000000);
    EXPECT_TRUE(leaf.present());
    EXPECT_TRUE(leaf.writable());
    EXPECT_TRUE(leaf.nvmBacked());
    EXPECT_EQ(leaf.frameAddr(), 0x5000u);
}

TEST(PageTableTest, UnmappedLeafReadsAbsent)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    EXPECT_FALSE(rig.mgr.readLeaf(root, 0x123456000).present());
}

TEST(PageTableTest, UnmapReturnsOldMapping)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0x20000000, 0x6000, true, false);
    const auto old = rig.mgr.unmap(root, 0x20000000);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->frameAddr(), 0x6000u);
    EXPECT_FALSE(rig.mgr.readLeaf(root, 0x20000000).present());
    EXPECT_FALSE(rig.mgr.unmap(root, 0x20000000).has_value());
}

TEST(PageTableTest, IntermediateTablesAllocatedOnDemand)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto before = rig.alloc.allocatedFrames();
    // First page: PDPT + PD + PT (3 tables).  A second page 1 GiB
    // away shares the PDPT and adds PD + PT (2 more).
    rig.mgr.map(root, 0, 0x1000, true, false);
    rig.mgr.map(root, oneGiB, 0x2000, true, false);
    EXPECT_EQ(rig.alloc.allocatedFrames() - before, 5u);
    // Two pages in the same 2 MiB region share everything.
    rig.mgr.map(root, pageSize, 0x3000, true, false);
    EXPECT_EQ(rig.alloc.allocatedFrames() - before, 5u);
}

TEST(PageTableTest, StridePatternsTouchDifferentLevels)
{
    // The Figure 4b mechanism: larger strides force more table pages.
    auto tables_for_stride = [](std::uint64_t stride) {
        Rig rig;
        const Addr root = rig.mgr.newRoot();
        const auto before = rig.alloc.allocatedFrames();
        for (unsigned i = 0; i < 10; ++i)
            rig.mgr.map(root, Addr(i) * stride, 0x1000, true, true);
        return rig.alloc.allocatedFrames() - before;
    };
    const auto t4k = tables_for_stride(4 * oneKiB);
    const auto t2m = tables_for_stride(2 * oneMiB);
    const auto t1g = tables_for_stride(oneGiB);
    EXPECT_LT(t4k, t2m);
    EXPECT_LT(t2m, t1g);
}

TEST(PageTableTest, ForEachLeafVisitsAllMappings)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    std::map<Addr, Addr> expect;
    for (unsigned i = 0; i < 100; ++i) {
        const Addr va = 0x40000000 + Addr(i) * pageSize;
        const Addr fa = 0x100000 + Addr(i) * pageSize;
        rig.mgr.map(root, va, fa, true, i % 2 == 0);
        expect[va] = fa;
    }
    std::map<Addr, Addr> seen;
    rig.mgr.forEachLeaf(root, [&](Addr va, cpu::Pte pte, Addr) {
        seen[va] = pte.frameAddr();
    });
    EXPECT_EQ(seen, expect);
}

TEST(PageTableTest, WriteLeafUpdatesInPlace)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    rig.mgr.map(root, 0x50000000, 0x7000, true, true);
    auto leaf = rig.mgr.readLeaf(root, 0x50000000);
    leaf.setAccessCount(42);
    leaf.setHsccRemapped(true);
    rig.mgr.writeLeaf(root, 0x50000000, leaf);
    const auto back = rig.mgr.readLeaf(root, 0x50000000);
    EXPECT_EQ(back.accessCount(), 42u);
    EXPECT_TRUE(back.hsccRemapped());
}

TEST(PageTableTest, TeardownFreesEveryTableFrame)
{
    Rig rig;
    const auto base = rig.alloc.allocatedFrames();
    const Addr root = rig.mgr.newRoot();
    for (unsigned i = 0; i < 50; ++i)
        rig.mgr.map(root, Addr(i) * 4 * oneMiB, 0x1000, true, false);
    EXPECT_GT(rig.alloc.allocatedFrames(), base);
    rig.mgr.teardown(root);
    EXPECT_EQ(rig.alloc.allocatedFrames(), base);
}

TEST(PageTableTest, EntryWritesCharged)
{
    Rig rig;
    const Addr root = rig.mgr.newRoot();
    const auto w0 = rig.mgr.entryWrites();
    rig.mgr.map(root, 0x60000000, 0x8000, true, false);
    // First map in an empty root: 3 intermediate + 1 leaf.
    EXPECT_EQ(rig.mgr.entryWrites() - w0, 4u);
}

TEST(PageTableTest, ConsistentPolicyInvokedPerStore)
{
    struct CountingPolicy : PtWritePolicy
    {
        explicit CountingPolicy(KernelMem &kmem) : inner(kmem) {}
        void
        writeEntry(Addr a, std::uint64_t v) override
        {
            ++count;
            inner.writeEntry(a, v);
        }
        PlainPtWrite inner;
        int count = 0;
    };

    Rig rig;
    CountingPolicy policy(rig.kmem);
    PageTableManager mgr(rig.kmem, rig.alloc, policy);
    const Addr root = mgr.newRoot();
    mgr.map(root, 0x70000000, 0x9000, true, false);
    EXPECT_EQ(policy.count, 4);
    // Unmapping the only page clears the leaf and unlinks the three
    // now-empty tables from their parents: four wrapped stores.
    mgr.unmap(root, 0x70000000);
    EXPECT_EQ(policy.count, 8);
}

// ---------------------------------------------------------------------
// Whole-table traversals read each table page on the host in one piece
// (DRAM) or entry by entry (NVM).  The simulated charges must be those
// of the per-entry reference below, whatever the host does.

/** A leaf as forEachLeaf reports it: (va, pte, entry_addr). */
using Leaf = std::tuple<Addr, std::uint64_t, Addr>;

/** Leaves at entry indices 0, 1 and 511 of two leaf tables that hang
 *  off two different upper-level tables (1 GiB apart). */
std::vector<Addr>
spreadVaddrs()
{
    std::vector<Addr> vas;
    for (const Addr base : {Addr(oneGiB), Addr(2 * oneGiB)}) {
        for (const unsigned idx : {0u, 1u, 511u})
            vas.push_back(base + Addr(idx) * pageSize);
    }
    return vas;
}

void
mapSpread(PageTableManager &mgr, Addr root)
{
    unsigned n = 0;
    for (const Addr va : spreadVaddrs()) {
        mgr.map(root, va, 0x100000 + Addr(n) * pageSize, true, n % 2);
        ++n;
    }
}

/** The per-entry walk: one bulk read charged per table page, then an
 *  8-byte functional read per entry, children visited in order. */
void
referenceWalk(KernelMem &kmem, Addr table, unsigned level, Addr va_base,
              std::vector<Leaf> &out)
{
    const std::uint64_t span =
        std::uint64_t(1) << (pageShift + level * cpu::ptIndexBits);
    kmem.simulation().bump(kmem.mem().submit(
        {mem::MemCmd::bulkRead, table, pageSize},
        kmem.simulation().now()));
    for (unsigned i = 0; i < cpu::ptEntriesPerPage; ++i) {
        const Addr entry_addr = table + i * cpu::ptEntrySize;
        const cpu::Pte pte{kmem.mem().readT<std::uint64_t>(entry_addr)};
        if (!pte.present())
            continue;
        const Addr va = va_base + i * span;
        if (level == 0)
            out.emplace_back(va, pte.raw, entry_addr);
        else
            referenceWalk(kmem, pte.frameAddr(), level - 1, va, out);
    }
}

/** The per-entry teardown charge: one cached 8-byte read per entry of
 *  every interior table (leaf tables are freed unread). */
void
referenceTeardownReads(KernelMem &kmem, Addr table, unsigned level)
{
    if (level == 0)
        return;
    for (unsigned i = 0; i < cpu::ptEntriesPerPage; ++i) {
        const cpu::Pte pte{kmem.read64(table + i * cpu::ptEntrySize)};
        if (pte.present())
            referenceTeardownReads(kmem, pte.frameAddr(), level - 1);
    }
}

std::vector<Leaf>
walk(PageTableManager &mgr, Addr root)
{
    std::vector<Leaf> leaves;
    mgr.forEachLeaf(root, [&](Addr va, cpu::Pte pte, Addr entry_addr) {
        leaves.emplace_back(va, pte.raw, entry_addr);
    });
    return leaves;
}

TEST(PageTableWalkTest, ForEachLeafMatchesPerEntryWalk)
{
    Rig rig;
    Rig ref;
    const Addr root = rig.mgr.newRoot();
    ASSERT_EQ(ref.mgr.newRoot(), root);
    mapSpread(rig.mgr, root);
    mapSpread(ref.mgr, root);
    ASSERT_EQ(rig.sim.now(), ref.sim.now());

    const double walks0 = rig.mgr.stats().scalarValue("softWalks");
    const Tick t0 = rig.sim.now();
    const std::vector<Leaf> got = walk(rig.mgr, root);
    const Tick walk_ticks = rig.sim.now() - t0;

    std::vector<Leaf> want;
    referenceWalk(ref.kmem, root, cpu::ptLevels - 1, 0, want);
    const Tick ref_ticks = ref.sim.now() - t0;

    ASSERT_EQ(got.size(), spreadVaddrs().size());
    EXPECT_EQ(got, want);
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Addr va = std::get<0>(got[i]);
        EXPECT_EQ(va, spreadVaddrs()[i]);
        EXPECT_EQ(std::get<2>(got[i]) % pageSize,
                  cpu::ptIndex(va, 0) * cpu::ptEntrySize);
    }
    EXPECT_GT(walk_ticks, 0u);
    EXPECT_EQ(walk_ticks, ref_ticks);
    EXPECT_EQ(rig.mgr.stats().scalarValue("softWalks") - walks0, 1.0);
}

TEST(PageTableWalkTest, TeardownChargesOneCachedReadPerInteriorEntry)
{
    Rig rig;
    Rig ref;
    const Addr root = rig.mgr.newRoot();
    ASSERT_EQ(ref.mgr.newRoot(), root);
    mapSpread(rig.mgr, root);
    mapSpread(ref.mgr, root);

    // Interior tables: root, one PDPT, two PDs.  The two leaf tables
    // are freed without reading their entries.
    const unsigned interior = 4;
    const double acc0 = rig.hier.stats().scalarValue("accesses");
    const auto frames0 = rig.alloc.allocatedFrames();
    const Tick t0 = rig.sim.now();
    rig.mgr.teardown(root);
    EXPECT_EQ(rig.hier.stats().scalarValue("accesses") - acc0,
              double(interior * cpu::ptEntriesPerPage));
    EXPECT_EQ(frames0 - rig.alloc.allocatedFrames(), interior + 2);

    referenceTeardownReads(ref.kmem, root, cpu::ptLevels - 1);
    EXPECT_EQ(rig.sim.now() - t0, ref.sim.now() - t0);
}

/** Entry stores made durable at once, so table lines sit on the media
 *  (where the ECC filter applies) rather than in the volatile overlay. */
class DurablePtWrite : public PtWritePolicy
{
  public:
    explicit DurablePtWrite(KernelMem &kmem) : kmem(kmem) {}

    void
    writeEntry(Addr entry_addr, std::uint64_t value) override
    {
        kmem.write64(entry_addr, value);
        kmem.clwb(entry_addr);
        kmem.sfence();
    }

  private:
    KernelMem &kmem;
};

/** Tables in NVM, with the media model armed (no faults yet). */
struct NvmRig
{
    NvmRig()
        : memory([] {
              mem::HybridMemoryParams p;
              p.dramBytes = 128 * oneMiB;
              p.nvmBytes = 64 * oneMiB;
              p.media.writeEndurance = std::uint64_t(1) << 40;
              return p;
          }()),
          hier(cache::HierarchyParams{}, memory),
          kmem(sim, memory, hier),
          alloc("nvmTables",
                AddrRange(memory.nvmRange().start(),
                          memory.nvmRange().start() + 16 * oneMiB),
                kmem),
          policy(kmem),
          mgr(kmem, alloc, policy)
    {}

    double
    mediaStat(const char *name)
    {
        return memory.media()->stats().scalarValue(name);
    }

    sim::Simulation sim;
    mem::HybridMemory memory;
    cache::Hierarchy hier;
    KernelMem kmem;
    FrameAllocator alloc;
    DurablePtWrite policy;
    PageTableManager mgr;
};

TEST(PageTableWalkTest, NvmTableWalkKeepsPerEntryEccCounts)
{
    NvmRig rig;
    ASSERT_NE(rig.memory.media(), nullptr);
    const Addr root = rig.mgr.newRoot();
    mapSpread(rig.mgr, root);
    ASSERT_EQ(rig.memory.nvmPendingLines(), 0u);
    ASSERT_EQ(rig.memory.nvmInflightLines(), 0u);

    const std::vector<Leaf> clean = walk(rig.mgr, root);
    ASSERT_EQ(clean.size(), spreadVaddrs().size());
    EXPECT_EQ(rig.mediaStat("demandCorrections"), 0.0);

    // One correctable bit on the line holding leaf entries 0..7 of the
    // first leaf table.
    const Addr line = roundDown(std::get<2>(clean.front()), lineSize);
    rig.memory.media()->injectError(line, 1);

    const double corr0 = rig.mediaStat("demandCorrections");
    const double unc0 = rig.mediaStat("uncorrectableReads");
    const std::vector<Leaf> again = walk(rig.mgr, root);
    EXPECT_EQ(again, clean);  // SECDED hands back pristine entries
    // One 8-byte read per entry: every entry on the line is a read.
    EXPECT_EQ(rig.mediaStat("demandCorrections") - corr0,
              double(lineSize / cpu::ptEntrySize));
    EXPECT_EQ(rig.mediaStat("uncorrectableReads") - unc0, 0.0);
}

} // namespace
} // namespace kindle::os
