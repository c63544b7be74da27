/**
 * @file
 * Tick-accurate tracing: protocol spans and the crash flight recorder.
 *
 * Every KindleSystem owns one TraceSink.  Instrumented code does not
 * hold a sink pointer: spans and instants deliver to the sink of the
 * system's ProbeContext (base/probe_context.hh), so the checkpoint
 * pipeline, the recovery phases, the scrubber and friends emit into
 * whichever system is live on the current thread — and concurrent
 * SweepRunner workers each record into their own system's sink with
 * no sharing.
 *
 * Two capture modes, independently enabled:
 *
 *  - Span collection (TraceParams::spans): every record is kept and
 *    can be exported as Chrome trace-event JSON (writeChromeJson),
 *    loadable in Perfetto / chrome://tracing.  One "thread" lane per
 *    simulated component (Lane), nesting by time containment.
 *
 *  - Flight recorder (TraceParams::ringDepth): a fixed ring of the
 *    last N records, cheap enough to leave on for every run.  When a
 *    crash injector fires, recovery reports errors, or the fuzz
 *    oracle diverges, writeFlightRecorder() turns the ring plus the
 *    fault plan and crash site into a self-contained JSON timeline of
 *    the moments before the failure.
 *
 * Records are gated on categories (Flag): the sink carries a category
 * mask, defaulting to all-on, so "--trace-flags=checkpoint,redo"
 * narrows a trace to those protocols.  Timestamps are simulated ticks
 * (picoseconds) end to end; the Chrome export converts to
 * microseconds only at serialization.
 */

#ifndef KINDLE_TRACE_TRACE_HH
#define KINDLE_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/probe_context.hh"
#include "base/str.hh"
#include "base/types.hh"

namespace kindle::trace
{

/** Trace categories; one bit each in a sink's mask. */
enum class Flag : unsigned
{
    event = 0,
    mem,
    cache,
    tlb,
    pwalk,
    vma,
    syscall,
    checkpoint,
    recovery,
    ssp,
    hscc,
    replay,
    pt,
    redo,
    scrub,
    fault,
    sched,
    numFlags
};

/** Printable name of @p f ("checkpoint", "redo", ...). */
const char *flagName(Flag f);

/** Reverse of flagName(); false when @p name is unknown. */
bool flagFromName(std::string_view name, Flag &out);

/**
 * Timeline lane a record renders into — one per simulated component,
 * mapped to a Chrome trace "thread".  Enum order is display order.
 */
enum class Lane : std::uint8_t
{
    sim = 0,
    cpu,
    mem,
    scrub,
    ckpt,
    pt,
    redo,
    recovery,
    hscc,
    ssp,
    os,
    fault,
    numLanes
};

/** Printable lane name ("ckpt", "recovery", ...). */
const char *laneName(Lane lane);

/** One captured span or instant. */
struct TraceRecord
{
    Tick start = 0;
    Tick dur = 0;
    Flag cat = Flag::event;
    Lane lane = Lane::sim;
    /** Static-duration string (macro call sites pass literals). */
    const char *name = "";
    /** Optional preformatted "k=v" payload. */
    std::string args;
    /** Per-sink emission sequence — total order within one system. */
    std::uint64_t seq = 0;
    bool instant = false;
};

/** Capture configuration, carried inside KindleConfig. */
struct TraceParams
{
    /** Keep every record for Chrome-JSON export. */
    bool spans = false;

    /** Flight-recorder depth in records; 0 disables the ring. */
    std::size_t ringDepth = 512;

    /**
     * Comma-separated category names (flagName() vocabulary, e.g.
     * "checkpoint,redo,fault"); empty means all categories.
     */
    std::string categories;

    /**
     * When non-empty, the owning system dumps the flight recorder to
     * this file automatically on an injected power loss or a recovery
     * pass that reports errors.
     */
    std::string flightDumpPath;
};

/** Everything a flight-recorder dump says about why it exists. */
struct FlightContext
{
    /** "power-loss", "recovery-error", "oracle-divergence", ... */
    std::string reason;
    /** Crash site that fired (empty when not site-triggered). */
    std::string crashSite;
    /** Simulated tick of the failure. */
    Tick tick = 0;
    /** Preformatted description of the armed fault plan. */
    std::string faultPlan;
};

/**
 * Per-system trace collector.  Single-threaded by construction (one
 * simulated machine is single threaded); concurrent machines own
 * disjoint sinks.
 */
class TraceSink
{
  public:
    TraceSink(TraceParams params, std::function<Tick()> now_fn);

    /** Would a record in @p cat be captured at all right now? */
    bool
    wants(Flag cat) const
    {
        return capturing && mask[static_cast<unsigned>(cat)];
    }

    Tick now() const { return nowFn(); }

    /** Replace the category mask (empty @p names = all categories). */
    void setCategories(std::string_view names);

    /** Record a completed span [@p start, @p end). */
    void complete(Flag cat, Lane lane, const char *name, Tick start,
                  Tick end, std::string args);

    /** Record an instantaneous event at the current tick. */
    void instant(Flag cat, Lane lane, const char *name,
                 std::string args = {});

    const TraceParams &params() const { return _params; }

    /** Records captured for export (empty unless spans enabled). */
    const std::vector<TraceRecord> &records() const { return _records; }

    /** Total records ever emitted into this sink. */
    std::uint64_t totalRecorded() const { return totalSeen; }

    /** Records currently held by the flight ring. */
    std::size_t ringSize() const;

    /** Ring record @p i, oldest first (i < ringSize()). */
    const TraceRecord &ringAt(std::size_t i) const;

    /**
     * Export collected spans as Chrome trace-event JSON: metadata
     * names the process and one thread per used lane, then complete
     * ("X") and instant ("i") events sorted chronologically (ties
     * broken longest-duration-first so nested spans stay inside
     * their parents).
     */
    void writeChromeJson(std::ostream &os) const;

    /** Dump the flight ring plus @p ctx as one JSON object. */
    void writeFlightRecorder(std::ostream &os,
                             const FlightContext &ctx) const;

  private:
    void push(TraceRecord &&rec);

    TraceParams _params;
    std::function<Tick()> nowFn;

    bool capturing = false;
    std::array<bool, static_cast<unsigned>(Flag::numFlags)> mask{};

    std::vector<TraceRecord> _records;
    std::vector<TraceRecord> ring;
    std::size_t ringNext = 0;
    std::uint64_t totalSeen = 0;
};

/** The sink records route to on this thread (may be null). */
inline TraceSink *
currentSink()
{
    return probes().sink;
}

/**
 * RAII protocol span: captures the start tick at construction and
 * emits one complete record at destruction.  When tracing is off (no
 * sink, or the category is masked) construction is one thread-local
 * load, one field load and two branches, and the destructor does
 * nothing.
 */
class TraceSpan
{
  public:
    TraceSpan(Flag cat, Lane lane, const char *name)
    {
        TraceSink *s = currentSink();
        if (s && s->wants(cat)) {
            sink = s;
            this->cat = cat;
            this->lane = lane;
            this->name = name;
            start = s->now();
        }
    }

    ~TraceSpan()
    {
        if (sink) {
            sink->complete(cat, lane, name, start, sink->now(),
                           std::move(args));
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** True when this span will be recorded (guard arg formatting). */
    bool active() const { return sink != nullptr; }

    /** Attach a preformatted "k=v" payload to the record. */
    void setArgs(std::string a) { args = std::move(a); }

  private:
    TraceSink *sink = nullptr;
    Tick start = 0;
    Flag cat = Flag::event;
    Lane lane = Lane::sim;
    const char *name = "";
    std::string args;
};

/** Free-function instant probe (mirrors fault::crashSite). */
inline void
emitInstant(Flag cat, Lane lane, const char *name,
            std::string args = {})
{
    TraceSink *s = currentSink();
    if (s && s->wants(cat))
        s->instant(cat, lane, name, std::move(args));
}

} // namespace kindle::trace

/**
 * Instrumentation macros.
 *
 *   KINDLE_TRACE_SPAN(checkpoint, ckpt, "ckpt.ptWalk");
 *   KINDLE_TRACE_SPAN_ARGS(checkpoint, ckpt, "ckpt.process",
 *                          "pid={}", pid);
 *   KINDLE_TRACE_INSTANT(redo, redo, "redo.append");
 *
 * The first two declare an anonymous RAII span covering the rest of
 * the enclosing block; the _ARGS form formats its payload only when
 * the span is actually being recorded.
 */
#define KINDLE_TRACE_CAT2_(a, b) a##b
#define KINDLE_TRACE_CAT_(a, b) KINDLE_TRACE_CAT2_(a, b)

#define KINDLE_TRACE_SPAN(cat, lane, name)                              \
    ::kindle::trace::TraceSpan KINDLE_TRACE_CAT_(kindleSpan_,           \
                                                 __LINE__)(             \
        ::kindle::trace::Flag::cat, ::kindle::trace::Lane::lane, name)

#define KINDLE_TRACE_SPAN_ARGS(cat, lane, name, ...)                    \
    ::kindle::trace::TraceSpan KINDLE_TRACE_CAT_(kindleSpan_,           \
                                                 __LINE__)(             \
        ::kindle::trace::Flag::cat, ::kindle::trace::Lane::lane,        \
        name);                                                          \
    if (KINDLE_TRACE_CAT_(kindleSpan_, __LINE__).active())              \
        KINDLE_TRACE_CAT_(kindleSpan_, __LINE__)                        \
            .setArgs(::kindle::csprintf(__VA_ARGS__))

#define KINDLE_TRACE_INSTANT(cat, lane, name)                           \
    ::kindle::trace::emitInstant(::kindle::trace::Flag::cat,            \
                                 ::kindle::trace::Lane::lane, name)

#define KINDLE_TRACE_INSTANT_ARGS(cat, lane, name, ...)                 \
    do {                                                                \
        ::kindle::trace::TraceSink *kindleSink_ =                       \
            ::kindle::trace::currentSink();                             \
        if (kindleSink_ &&                                              \
            kindleSink_->wants(::kindle::trace::Flag::cat)) {           \
            kindleSink_->instant(::kindle::trace::Flag::cat,            \
                                 ::kindle::trace::Lane::lane, name,     \
                                 ::kindle::csprintf(__VA_ARGS__));      \
        }                                                               \
    } while (0)

#endif // KINDLE_TRACE_TRACE_HH
