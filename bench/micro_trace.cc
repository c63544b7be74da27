/**
 * @file
 * google-benchmark microbenchmarks of the tracing substrate: the
 * *host-side* cost of an instrumentation probe in each gating state.
 *
 * The interesting number is the disabled cost — probes are compiled
 * into every protocol hot path, so a run that never exports a trace
 * must not pay for them:
 *
 *   - NoSink:    no probe context installed on the thread (bench/test
 *                code outside a KindleSystem) — one thread-local
 *                load, one field load and a branch.
 *   - MaskedOff: sink present but the category mask excludes the
 *                probe (--trace-flags narrowing).
 *   - RingOnly:  flight recorder armed, span export off — the default
 *                KindleSystem configuration.
 *   - FullSpans: span collection for Chrome export (keeps every
 *                record; the unbounded-growth mode).
 *
 * Probes are always compiled in; NoSink is the floor every probe pays
 * outside a traced run.
 */

#include <benchmark/benchmark.h>

#include "trace/trace.hh"

namespace
{

using namespace kindle;

trace::TraceParams
paramsFor(bool spans, std::size_t ring, std::string categories = {})
{
    trace::TraceParams p;
    p.spans = spans;
    p.ringDepth = ring;
    p.categories = std::move(categories);
    return p;
}

void
BM_SpanNoSink(benchmark::State &state)
{
    // No probe context: the macro reads a null sink from the empty
    // default context and does nothing else.  This is the cost paid by every probe in code not
    // running under a KindleSystem.
    Tick clock = 0;
    for (auto _ : state) {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "bench.span");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanNoSink);

void
BM_SpanMaskedOff(benchmark::State &state)
{
    Tick clock = 0;
    // Sink captures only "redo": the checkpoint-category probe is
    // rejected by the mask after the context load.
    trace::TraceSink sink(paramsFor(false, 512, "redo"),
                          [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    for (auto _ : state) {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "bench.span");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanMaskedOff);

void
BM_SpanRingOnly(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512),
                          [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    for (auto _ : state) {
        KINDLE_TRACE_SPAN(checkpoint, ckpt, "bench.span");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanRingOnly);

void
BM_SpanFull(benchmark::State &state)
{
    Tick clock = 0;
    // Fresh sink per batch so the record vector's growth amortizes
    // the way it does in a real bounded run.
    for (auto _ : state) {
        state.PauseTiming();
        trace::TraceSink sink(paramsFor(true, 512),
                              [&clock] { return clock; });
        ProbeScope scope({.sink = &sink});
        state.ResumeTiming();
        for (int i = 0; i < 1024; ++i) {
            KINDLE_TRACE_SPAN(checkpoint, ckpt, "bench.span");
            benchmark::DoNotOptimize(++clock);
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SpanFull);

void
BM_SpanArgsMaskedOff(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512, "redo"),
                          [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    std::uint64_t pid = 0;
    // The payload csprintf must not run when the span is rejected.
    for (auto _ : state) {
        KINDLE_TRACE_SPAN_ARGS(checkpoint, ckpt, "bench.span",
                               "pid={}", ++pid);
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_SpanArgsMaskedOff);

void
BM_InstantRingOnly(benchmark::State &state)
{
    Tick clock = 0;
    trace::TraceSink sink(paramsFor(false, 512),
                          [&clock] { return clock; });
    ProbeScope scope({.sink = &sink});
    for (auto _ : state) {
        KINDLE_TRACE_INSTANT(fault, fault, "bench.instant");
        benchmark::DoNotOptimize(++clock);
    }
}
BENCHMARK(BM_InstantRingOnly);

} // namespace

BENCHMARK_MAIN();
