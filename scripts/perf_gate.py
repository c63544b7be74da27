#!/usr/bin/env python3
"""Perf-regression gate over a BENCH_*.json report.

    scripts/perf_gate.py check     BENCH_fig5_ssp_interval.json
    scripts/perf_gate.py attribute BENCH_fig5_ssp_interval.json
    scripts/perf_gate.py update    BENCH_fig5_ssp_interval.json \
        --prof-report PROFILED/BENCH_fig5_ssp_interval.json

``check`` compares the total wall_ms of an *unprofiled* run (no
--prof) against the committed baseline in bench/baselines.json and
exits non-zero when the run is more than ``tolerance`` times slower.
The self-profiler's probes cost enough on per-access paths to move the
very wall time being gated, so a profiled report is refused.

``attribute`` explains a failed check: given a report of the same
bench re-run with --prof, it prints the per-category diff of the
``prof.*`` self-profiler stats against the baseline's, largest growth
first, so the regression is attributed to a subsystem.

``update`` rewrites the bench's entry in bench/baselines.json: the
wall time from the unprofiled report, the per-category profile from
``--prof-report``.  Run it on the reference CI machine after an
intentional perf-relevant change, and commit the result.

Wall-clock baselines are machine-relative; the generous default
tolerance (1.5x) absorbs host jitter and modest hardware skew while
still catching algorithmic regressions (accidental O(n^2), a probe
left enabled, a lost fast path), which shift wall time by integer
factors.
"""

import argparse
import json
import pathlib
import sys

DEFAULT_BASELINE = pathlib.Path(__file__).parent.parent / "bench" / "baselines.json"
PROF_PREFIX = "prof."
PROF_SUFFIX = "Ns"


def summarize(report_path):
    """Reduce a BENCH report to (name, total wall_ms, prof ms per cat)."""
    doc = json.loads(pathlib.Path(report_path).read_text())
    wall_ms = 0.0
    prof_ms = {}
    for point in doc["points"]:
        if not point.get("ok"):
            raise SystemExit(f"{report_path}: point {point['name']} failed: "
                             f"{point.get('error', '?')}")
        wall_ms += point["wall_ms"]
        for path, value in point.get("stats", {}).items():
            if path.startswith(PROF_PREFIX) and path.endswith(PROF_SUFFIX):
                cat = path[len(PROF_PREFIX):-len(PROF_SUFFIX)]
                prof_ms[cat] = prof_ms.get(cat, 0.0) + value / 1e6
    return doc["bench"], wall_ms, prof_ms


def load_baselines(path):
    if path.exists():
        return json.loads(path.read_text())
    return {"schema_version": 1, "benches": {}}


def unprofiled(report_path):
    """(name, wall_ms) of a report that must come from a run without
    --prof."""
    name, wall_ms, prof_ms = summarize(report_path)
    if prof_ms:
        raise SystemExit(f"{report_path}: profiled run (prof.* stats "
                         f"present); the gate compares unprofiled wall "
                         f"time — run the bench without --prof")
    return name, wall_ms


def cmd_update(args):
    name, wall_ms = unprofiled(args.report)
    if args.prof_report is None:
        raise SystemExit("update needs --prof-report (the same bench "
                         "run with --prof)")
    prof_name, _, prof_ms = summarize(args.prof_report)
    if prof_name != name or not prof_ms:
        raise SystemExit(f"{args.prof_report}: not a profiled run of "
                         f"'{name}'")
    doc = load_baselines(args.baseline)
    doc["benches"][name] = {
        "wall_ms": round(wall_ms, 3),
        "prof_ms": {c: round(ms, 3) for c, ms in sorted(prof_ms.items())},
    }
    args.baseline.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{args.baseline}: {name} baseline set to {wall_ms:.1f} ms")
    return 0


def baseline_for(args, name):
    doc = load_baselines(args.baseline)
    base = doc["benches"].get(name)
    if base is None:
        raise SystemExit(f"{args.baseline}: no baseline for '{name}' "
                         f"(run: scripts/perf_gate.py update {args.report} "
                         f"--prof-report PROFILED_REPORT)")
    return base


def cmd_check(args):
    name, wall_ms = unprofiled(args.report)
    base = baseline_for(args, name)
    limit = base["wall_ms"] * args.tolerance
    verdict = "OK" if wall_ms <= limit else "REGRESSION"
    print(f"perf[{name}]: {wall_ms:.1f} ms vs baseline "
          f"{base['wall_ms']:.1f} ms (limit {limit:.1f} ms at "
          f"{args.tolerance}x): {verdict}")
    if wall_ms <= limit:
        if wall_ms * args.tolerance < base["wall_ms"]:
            print(f"perf[{name}]: note: >{args.tolerance}x faster than "
                  f"baseline — consider refreshing bench/baselines.json")
        return 0
    print(f"perf[{name}]: re-run with --prof and use 'attribute' to "
          f"name the category that grew")
    return 1


def cmd_attribute(args):
    name, _, prof_ms = summarize(args.report)
    base = baseline_for(args, name)
    print(f"perf[{name}]: prof.* category diff (self-ms):")
    base_prof = base.get("prof_ms", {})
    cats = sorted(set(base_prof) | set(prof_ms),
                  key=lambda c: prof_ms.get(c, 0.0) - base_prof.get(c, 0.0),
                  reverse=True)
    if not prof_ms:
        print("  (no prof.* stats in report — run the bench with --prof)")
    for cat in cats:
        b, n = base_prof.get(cat, 0.0), prof_ms.get(cat, 0.0)
        print(f"  {cat:<10} {b:10.1f} -> {n:10.1f}  ({n - b:+.1f} ms)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=["check", "attribute", "update"])
    parser.add_argument("report", help="BENCH_*.json produced by a bench run")
    parser.add_argument("--prof-report", type=pathlib.Path,
                        help="update: the same bench run with --prof")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed slowdown factor (default 1.5)")
    args = parser.parse_args()
    commands = {"check": cmd_check, "attribute": cmd_attribute,
                "update": cmd_update}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
