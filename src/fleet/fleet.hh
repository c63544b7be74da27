/**
 * @file
 * Multi-tenant server-fleet workload generator.
 *
 * Models a consolidated server running a fleet of small key-value
 * tenant processes (the YCSB shape): every tenant owns a private
 * MAP_NVM heap sized by a skewed size-class draw, issues open-loop
 * requests whose think times follow an exponential (Poisson-arrival)
 * or bursty distribution, and touches heap pages through a per-tenant
 * Zipfian key popularity curve.  Tenants exit after a fixed request
 * budget, so a churning fleet continuously destroys and (via the
 * scenario driver) respawns processes through the crash-consistent
 * exitProcess / spawn paths while periodic checkpoints sweep the
 * whole population — the checkpoint-storm regime the paper's
 * multiprogrammed experiments point toward but never scale.
 *
 * Everything is derived deterministically from one fleet seed via
 * splitmix64 substream derivation (base/rand.hh): tenant i of seed S
 * behaves identically no matter how many cores run the fleet or in
 * which order processes are scheduled.
 */

#ifndef KINDLE_FLEET_FLEET_HH
#define KINDLE_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/rand.hh"
#include "base/types.hh"
#include "cpu/op.hh"

namespace kindle::fleet
{

/** Inter-request arrival process shaping tenant think times. */
enum class Arrival : std::uint8_t
{
    poisson,  ///< exponential think times (open-loop Poisson)
    bursty,   ///< Poisson modulated by on/off burst phases
};

const char *arrivalName(Arrival a);

/** Fleet-wide configuration. */
struct FleetParams
{
    /** Number of tenant processes alive at steady state. */
    unsigned tenants = 1024;

    /** Master seed; every per-tenant stream derives from it. */
    std::uint64_t seed = 42;

    /** Zipfian skew of each tenant's key popularity (YCSB 0.99). */
    double zipfTheta = 0.99;

    /** Arrival process shaping think times. */
    Arrival arrival = Arrival::poisson;

    /** Requests a tenant serves before exiting. */
    unsigned requestsPerTenant = 24;

    /** Mean think cycles between requests (Poisson mean). */
    std::uint64_t meanThinkCycles = 20000;

    /** Replacement tenants the churn driver spawns after exits
     *  (0 = a single generation, no churn). */
    unsigned churnSpawns = 0;

    /**
     * Size-class weights (small/medium/large heaps).  The defaults
     * give the long-tailed fleet mix: most tenants are small, a few
     * are hundred-MiB-class heavies that dominate checkpoint cost.
     */
    double weightSmall = 0.80;
    double weightMedium = 0.15;
    double weightLarge = 0.05;

    /** Heap pages per size class. */
    std::uint64_t smallPages = 64;
    std::uint64_t mediumPages = 256;
    std::uint64_t largePages = 1024;
};

/** One tenant's derived identity (deterministic in params.seed). */
struct TenantSpec
{
    unsigned id = 0;            ///< fleet-unique ordinal
    std::uint64_t seed = 0;     ///< substream seed for all draws
    std::uint64_t heapPages = 0;
    std::uint64_t heapBytes() const { return heapPages * pageSize; }
};

/** Shared run accounting, owned by the scenario driver. */
struct FleetCounters
{
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

/**
 * Derive tenant @p ordinal of the fleet: the size class comes from a
 * weighted draw on a substream of params.seed, so the fleet mix is a
 * pure function of (seed, ordinal) — churn replacements get fresh
 * ordinals and therefore fresh, reproducible identities.
 */
TenantSpec makeTenantSpec(const FleetParams &params, unsigned ordinal);

/**
 * A tenant process program: one lazy OpStream (requests are generated
 * on demand, so a million-tenant fleet holds no pre-built scripts).
 *
 *   mmap(MAP_NVM) heap
 *   repeat requestsPerTenant times:
 *     compute(think)            think ~ arrival process
 *     read/write 8B at a Zipfian-popular heap page (~71/29 YCSB-B)
 *   exit                        → crash-consistent teardown
 */
class TenantWorkload : public cpu::OpStream
{
  public:
    TenantWorkload(const FleetParams &params, TenantSpec spec,
                   FleetCounters *counters = nullptr);

    bool next(cpu::Op &op) override;

    const TenantSpec &spec() const { return _spec; }

  private:
    /** Think cycles before the next request (arrival process). */
    std::uint64_t thinkCycles();

    enum class Phase : std::uint8_t
    {
        mapHeap,
        think,
        access,
        exited,
        done,
    };

    FleetParams params;
    TenantSpec _spec;
    FleetCounters *counters;

    Phase phase = Phase::mapHeap;
    unsigned requestsLeft;
    Random rng;             ///< think times, read/write mix, bursts
    ZipfianGenerator keys;  ///< page popularity
    Addr keyAddr = 0;       ///< address picked for the pending access

    /** Bursty modulation state: requests left in the current phase
     *  and whether the phase is hot (short thinks) or idle (long). */
    unsigned burstLeft = 0;
    bool burstHot = false;
};

/** Spawn-time helper: program factory + canonical tenant name. */
std::unique_ptr<cpu::OpStream>
makeTenant(const FleetParams &params, unsigned ordinal,
           FleetCounters *counters = nullptr);

std::string tenantName(unsigned ordinal);

} // namespace kindle::fleet

#endif // KINDLE_FLEET_FLEET_HH
