/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in Kindle (workload generators, zipfian
 * key pickers, fault and pressure plans, fleet tenants) draws from an
 * explicitly seeded xorshift64* stream, so a given configuration
 * always produces the same simulation, tick for tick.  Host
 * randomness and wall-clock time are never consulted.
 *
 * In namespace kindle:
 *
 *  - Random: the xorshift64* generator;
 *  - ZipfianGenerator: YCSB-style skewed item picker.
 *
 * In namespace kindle::rand, the seed plumbing shared by the fleet
 * workload generator (src/fleet) and the fuzz harnesses
 * (bench/fuzz_common.hh):
 *
 *  - splitmix64(): the Steele et al. finalizer, the standard way to
 *    turn a counter into a decorrelated 64-bit seed;
 *  - deriveSeed(): substream derivation — deriveSeed(base, k) gives
 *    stream k of base, decorrelated from streams k-1 and k+1 (unlike
 *    `base + k`, whose adjacent xorshift states are correlated);
 *  - expInterval(): exponential inter-arrival draws for open-loop
 *    Poisson request generators;
 *  - WeightedPicker: seeded draw from a small discrete distribution
 *    (tenant size classes, request type mixes).
 */

#ifndef KINDLE_BASE_RAND_HH
#define KINDLE_BASE_RAND_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace kindle
{

/** Seedable xorshift64* PRNG; small, fast, deterministic. */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 1)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be non-zero. */
    std::uint64_t
    uniform(std::uint64_t bound)
    {
        kindle_assert(bound != 0, "uniform() with zero bound");
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        kindle_assert(hi >= lo, "range() with hi < lo");
        return lo + uniform(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniformReal()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniformReal() < p; }

  private:
    std::uint64_t state;
};

/**
 * Zipfian distribution over [0, n) with skew theta, using the
 * Gray et al. rejection-free inverse-CDF approximation popularized by
 * the YCSB workload generator.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n      Number of items.
     * @param theta  Skew; YCSB default 0.99.
     * @param seed   PRNG seed for draws.
     */
    ZipfianGenerator(std::uint64_t n, double theta, std::uint64_t seed);

    /** Draw the next item index in [0, n). */
    std::uint64_t next();

    std::uint64_t items() const { return n; }
    double skew() const { return theta; }

  private:
    double zeta(std::uint64_t count, double theta_arg) const;

    std::uint64_t n;
    double theta;
    double alpha;
    double zetan;
    double eta;
    Random rng;
};

} // namespace kindle

namespace kindle::rand
{

/**
 * The splitmix64 finalizer (Steele, Lea & Flood): a bijective mixer
 * whose output is decorrelated even for sequential inputs.  Use it to
 * turn counters, ids and composite keys into PRNG seeds.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Seed for substream @p stream of master seed @p base.  Adjacent
 * streams are decorrelated (unlike `base + stream`, which hands
 * xorshift64* nearly identical start states).
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    return splitmix64(base ^ splitmix64(stream));
}

/**
 * One exponential inter-arrival interval with mean @p mean (an
 * open-loop Poisson process draws these back to back).  Always
 * positive; the 1-u transform keeps log() away from zero.
 */
inline double
expInterval(Random &rng, double mean)
{
    kindle_assert(mean > 0.0, "expInterval with non-positive mean");
    return -mean * std::log(1.0 - rng.uniformReal());
}

/**
 * Seedless draw from a small discrete distribution: pick(rng) returns
 * the index of one weight, with probability proportional to it.
 * Weights are cumulated once at construction; draws are a binary
 * search, so per-tenant class picks stay O(log n) however many
 * classes a fleet defines.
 */
class WeightedPicker
{
  public:
    explicit WeightedPicker(std::vector<double> weights)
    {
        double sum = 0.0;
        for (double w : weights) {
            kindle_assert(w >= 0.0, "negative weight");
            sum += w;
            cum.push_back(sum);
        }
        kindle_assert(sum > 0.0, "weights sum to zero");
    }

    std::size_t
    pick(Random &rng) const
    {
        const double x = rng.uniformReal() * cum.back();
        std::size_t lo = 0, hi = cum.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cum[mid] > x)
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    }

    std::size_t size() const { return cum.size(); }

  private:
    std::vector<double> cum;
};

} // namespace kindle::rand

#endif // KINDLE_BASE_RAND_HH
