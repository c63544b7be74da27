/**
 * @file
 * Per-system probe routing: where crash sites, trace spans and
 * profiler probes deliver on the current thread.
 *
 * Instrumented code never holds a pointer to the system it runs in.
 * Each KindleSystem installs one ProbeContext (its trace sink, crash
 * injector and optional profiler) for its whole lifetime through a
 * ProbeScope, and every probe reads probes() to find its consumer.
 * Concurrent SweepRunner workers each see only their own system.
 *
 * Rules:
 *  - The newest scope on a thread wins, for all three members at
 *    once.  A null member shadows the outer system: a system without
 *    a profiler never charges its probe time to an older, profiled
 *    system on the same thread.
 *  - Scopes unwind LIFO.  Destroying a scope that is not the newest
 *    one is a simulator bug and panics.
 *  - With no scope installed, probes() is an empty context, so a
 *    probe costs one thread-local load, one field load and a branch.
 */

#ifndef KINDLE_BASE_PROBE_CONTEXT_HH
#define KINDLE_BASE_PROBE_CONTEXT_HH

#include "base/logging.hh"

namespace kindle
{

namespace trace
{
class TraceSink;
}
namespace fault
{
class CrashInjector;
}
namespace telemetry
{
class Profiler;
}

/** The consumers one system's probes deliver to; any may be null. */
struct ProbeContext
{
    trace::TraceSink *sink = nullptr;
    fault::CrashInjector *injector = nullptr;
    telemetry::Profiler *profiler = nullptr;
};

namespace detail
{
inline constexpr ProbeContext noProbes{};
/** The context probes on this thread read; never null. */
inline constinit thread_local const ProbeContext *currentProbes =
    &noProbes;
} // namespace detail

/** The probe context installed on this thread. */
inline const ProbeContext &
probes()
{
    return *detail::currentProbes;
}

/** RAII installation of a copy of one context on this thread. */
class ProbeScope
{
  public:
    explicit ProbeScope(const ProbeContext &ctx)
        : ctx(ctx), outer(detail::currentProbes)
    {
        detail::currentProbes = &this->ctx;
    }

    ~ProbeScope()
    {
        kindle_assert(detail::currentProbes == &ctx,
                      "probe scopes must unwind LIFO");
        detail::currentProbes = outer;
    }

    ProbeScope(const ProbeScope &) = delete;
    ProbeScope &operator=(const ProbeScope &) = delete;

  private:
    const ProbeContext ctx;
    const ProbeContext *outer;
};

} // namespace kindle

#endif // KINDLE_BASE_PROBE_CONTEXT_HH
