#include "trace/trace.hh"

#include <algorithm>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace kindle::trace
{

namespace
{

constexpr std::array<const char *,
                     static_cast<unsigned>(Lane::numLanes)>
    laneNames = {
        "sim",  "cpu",      "mem",  "scrub", "ckpt", "pt",
        "redo", "recovery", "hscc", "ssp",   "os",   "fault",
};

constexpr std::array<const char *,
                     static_cast<unsigned>(Flag::numFlags)>
    flagNames = {
        "event",   "mem",        "cache",    "tlb", "pwalk", "vma",
        "syscall", "checkpoint", "recovery", "ssp", "hscc",  "replay",
        "pt",      "redo",       "scrub",    "fault", "sched",
};

} // namespace

const char *
flagName(Flag f)
{
    return flagNames[static_cast<unsigned>(f)];
}

bool
flagFromName(std::string_view name, Flag &out)
{
    for (unsigned i = 0; i < flagNames.size(); ++i) {
        if (name == flagNames[i]) {
            out = static_cast<Flag>(i);
            return true;
        }
    }
    return false;
}

const char *
laneName(Lane lane)
{
    return laneNames[static_cast<unsigned>(lane)];
}

TraceSink::TraceSink(TraceParams params, std::function<Tick()> now_fn)
    : _params(std::move(params)), nowFn(std::move(now_fn))
{
    kindle_assert(nowFn != nullptr, "TraceSink needs a clock");
    capturing = _params.spans || _params.ringDepth > 0;
    if (_params.ringDepth > 0)
        ring.resize(_params.ringDepth);
    setCategories(_params.categories);
}

void
TraceSink::setCategories(std::string_view names)
{
    if (trim(names).empty()) {
        mask.fill(true);
        return;
    }
    mask.fill(false);
    for (const auto &name : split(names, ',')) {
        const std::string wanted = trim(name);
        if (wanted.empty())
            continue;
        Flag f;
        if (flagFromName(wanted, f))
            mask[static_cast<unsigned>(f)] = true;
        else
            warn("unknown trace category '{}'", wanted);
    }
}

void
TraceSink::push(TraceRecord &&rec)
{
    rec.seq = totalSeen++;
    if (_params.ringDepth > 0) {
        ring[ringNext] = _params.spans ? rec : std::move(rec);
        ringNext = (ringNext + 1) % _params.ringDepth;
    }
    if (_params.spans)
        _records.push_back(std::move(rec));
}

void
TraceSink::complete(Flag cat, Lane lane, const char *name, Tick start,
                    Tick end, std::string args)
{
    TraceRecord rec;
    rec.start = start;
    rec.dur = end >= start ? end - start : 0;
    rec.cat = cat;
    rec.lane = lane;
    rec.name = name;
    rec.args = std::move(args);
    push(std::move(rec));
}

void
TraceSink::instant(Flag cat, Lane lane, const char *name,
                   std::string args)
{
    TraceRecord rec;
    rec.start = nowFn();
    rec.cat = cat;
    rec.lane = lane;
    rec.name = name;
    rec.args = std::move(args);
    rec.instant = true;
    push(std::move(rec));
}

std::size_t
TraceSink::ringSize() const
{
    if (_params.ringDepth == 0)
        return 0;
    return totalSeen < _params.ringDepth
               ? static_cast<std::size_t>(totalSeen)
               : _params.ringDepth;
}

const TraceRecord &
TraceSink::ringAt(std::size_t i) const
{
    kindle_assert(i < ringSize(), "flight-recorder index out of range");
    if (totalSeen < _params.ringDepth)
        return ring[i];
    return ring[(ringNext + i) % _params.ringDepth];
}

namespace
{

/** Simulated picoseconds → Chrome's microsecond timestamp unit. */
double
ticksToChromeUs(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

void
writeEventArgs(json::Writer &w, const TraceRecord &rec)
{
    w.key("args");
    w.beginObject();
    w.keyValue("cat", flagName(rec.cat));
    if (!rec.args.empty())
        w.keyValue("detail", rec.args);
    w.endObject();
}

} // namespace

void
TraceSink::writeChromeJson(std::ostream &os) const
{
    // Chronological export: Perfetto requires a parent complete event
    // to precede the children it encloses, which (start asc, dur
    // desc) guarantees; seq breaks the remaining ties so output is
    // deterministic.
    std::vector<const TraceRecord *> sorted;
    sorted.reserve(_records.size());
    for (const auto &rec : _records)
        sorted.push_back(&rec);
    std::sort(sorted.begin(), sorted.end(),
              [](const TraceRecord *a, const TraceRecord *b) {
                  if (a->start != b->start)
                      return a->start < b->start;
                  if (a->dur != b->dur)
                      return a->dur > b->dur;
                  return a->seq < b->seq;
              });

    std::array<bool, static_cast<unsigned>(Lane::numLanes)> laneUsed{};
    for (const auto *rec : sorted)
        laneUsed[static_cast<unsigned>(rec->lane)] = true;

    json::Writer w(os);
    w.beginObject();
    w.keyValue("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();

    // Metadata: name the process and each used lane; sort lanes in
    // enum (display) order.
    w.beginObject();
    w.keyValue("name", "process_name");
    w.keyValue("ph", "M");
    w.keyValue("pid", 1);
    w.keyValue("tid", 0);
    w.key("args");
    w.beginObject();
    w.keyValue("name", "kindle");
    w.endObject();
    w.endObject();
    for (unsigned lane = 0;
         lane < static_cast<unsigned>(Lane::numLanes); ++lane) {
        if (!laneUsed[lane])
            continue;
        w.beginObject();
        w.keyValue("name", "thread_name");
        w.keyValue("ph", "M");
        w.keyValue("pid", 1);
        w.keyValue("tid", lane);
        w.key("args");
        w.beginObject();
        w.keyValue("name", laneNames[lane]);
        w.endObject();
        w.endObject();
        w.beginObject();
        w.keyValue("name", "thread_sort_index");
        w.keyValue("ph", "M");
        w.keyValue("pid", 1);
        w.keyValue("tid", lane);
        w.key("args");
        w.beginObject();
        w.keyValue("sort_index", lane);
        w.endObject();
        w.endObject();
    }

    for (const auto *rec : sorted) {
        w.beginObject();
        w.keyValue("name", rec->name);
        w.keyValue("cat", flagName(rec->cat));
        w.keyValue("ph", rec->instant ? "i" : "X");
        w.keyValue("ts", ticksToChromeUs(rec->start));
        if (!rec->instant)
            w.keyValue("dur", ticksToChromeUs(rec->dur));
        else
            w.keyValue("s", "t");
        w.keyValue("pid", 1);
        w.keyValue("tid", static_cast<unsigned>(rec->lane));
        writeEventArgs(w, *rec);
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << '\n';
    kindle_assert(w.balanced(), "trace export left unbalanced JSON");
}

void
TraceSink::writeFlightRecorder(std::ostream &os,
                               const FlightContext &ctx) const
{
    json::Writer w(os);
    w.beginObject();
    w.keyValue("reason", ctx.reason);
    w.keyValue("crashSite", ctx.crashSite);
    w.keyValue("tick", static_cast<std::uint64_t>(ctx.tick));
    w.keyValue("faultPlan", ctx.faultPlan);
    w.keyValue("ringDepth",
               static_cast<std::uint64_t>(_params.ringDepth));
    w.keyValue("totalRecorded", totalSeen);
    const std::size_t n = ringSize();
    w.keyValue("dropped", totalSeen - n);
    w.key("records");
    w.beginArray();
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = ringAt(i);
        w.beginObject();
        w.keyValue("seq", rec.seq);
        w.keyValue("tick", static_cast<std::uint64_t>(rec.start));
        if (!rec.instant)
            w.keyValue("dur", static_cast<std::uint64_t>(rec.dur));
        w.keyValue("lane", laneName(rec.lane));
        w.keyValue("cat", flagName(rec.cat));
        w.keyValue("name", rec.name);
        if (!rec.args.empty())
            w.keyValue("detail", rec.args);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    kindle_assert(w.balanced(),
                  "flight-recorder dump left unbalanced JSON");
}

} // namespace kindle::trace
