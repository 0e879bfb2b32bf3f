#!/usr/bin/env python3
"""Compare a fresh bench perf artifact against a committed baseline.

Usage:
  bench_trend.py --baseline BENCH_x.json --current out/x.perf.json
                 [--update-baseline] [--require-fingerprint]
                 [--allow-missing]
  bench_trend.py --self-test

Both files are `paraleon.bench.v1` documents (the shape every bench binary
emits via --perf-out). The baseline additionally carries per-metric gate
fields:

  "metrics": {
    "events_executed": {
      "value": 1234,          # the committed reference value
      "unit": "events",
      "direction": "two_sided" | "higher_better" | "lower_better",
      "rel_tol": 0.25,        # fractional tolerance on the worse side
      "abs_tol": 2.0,         # absolute tolerance (either may be given;
                              # whichever allows the value passes)
      "gate": true            # false = tracked and reported, never fails
    }, ...
  }

A metric regresses when it moves in the "worse" direction (both directions
for two_sided) beyond every given tolerance. Improvements never fail.
Gated metrics present in the baseline but missing from the current run
fail (a bench silently dropping a metric is itself a regression); an
ungated ("gate": false) missing metric only warns, so a baseline may carry
tracking rows that not every invocation emits. --allow-missing downgrades
ALL missing metrics to warnings — for partial-run comparisons against a
full baseline.
New metrics in the current run are reported as candidates for the
baseline.

The fingerprint (compiler, build type, hardware threads — the same fields
the bench scaling notes print) is compared and any mismatch is printed as
a warning, because wall-clock metrics are only comparable on like
machines; with --require-fingerprint a mismatch fails the run. Gate
deterministic metrics tightly and wall-clock metrics loosely (or with
"gate": false) so the trend survives heterogeneous CI runners.

--update-baseline rewrites the baseline's metric values and fingerprint
from the current run, preserving each metric's gate fields and adding
conservative defaults for new metrics (see docs/PERFORMANCE.md for the
workflow).

Exit codes: 0 ok, 1 regression (or fingerprint failure under
--require-fingerprint), 2 usage/file error.
"""
import argparse
import json
import os
import sys

SCHEMA = "paraleon.bench.v1"
DIRECTIONS = {"two_sided", "higher_better", "lower_better"}
FINGERPRINT_KEYS = ("compiler", "build_type", "hardware_threads")
DEFAULT_GATE = {"direction": "two_sided", "rel_tol": 0.5, "gate": False}


def fail(msg):
    print(f"bench_trend: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(doc.get("metrics"), dict):
        fail(f"{path}: missing 'metrics' object")
    return doc


def metric_value(entry, where):
    v = entry.get("value")
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(f"{where}: metric value must be numeric, got {v!r}")
    return float(v)


def regression(baseline_entry, current_value, name):
    """Returns a human-readable reason when `current_value` regresses
    against `baseline_entry`, else None."""
    base = float(baseline_entry["value"])
    direction = baseline_entry.get("direction", "two_sided")
    if direction not in DIRECTIONS:
        fail(f"metric {name}: unknown direction {direction!r}")
    delta = current_value - base
    if direction == "higher_better" and delta >= 0:
        return None
    if direction == "lower_better" and delta <= 0:
        return None
    worse = abs(delta)
    rel_tol = baseline_entry.get("rel_tol")
    abs_tol = baseline_entry.get("abs_tol")
    if rel_tol is None and abs_tol is None:
        rel_tol = 0.0
    if rel_tol is not None and worse <= abs(base) * float(rel_tol):
        return None
    if abs_tol is not None and worse <= float(abs_tol):
        return None
    pct = (worse / abs(base) * 100.0) if base != 0 else float("inf")
    return (f"{name}: {current_value:g} vs baseline {base:g} "
            f"({direction}, off by {worse:g} = {pct:.1f}%)")


def compare(baseline, current, require_fingerprint=False, out=sys.stdout,
            allow_missing=False):
    """Returns (regressions, warnings) over the two documents."""
    regressions, warnings = [], []
    if baseline.get("bench") != current.get("bench"):
        warnings.append(f"bench name mismatch: baseline "
                        f"{baseline.get('bench')!r} vs current "
                        f"{current.get('bench')!r}")
    base_fp = baseline.get("fingerprint", {})
    cur_fp = current.get("fingerprint", {})
    for key in FINGERPRINT_KEYS:
        if base_fp.get(key) != cur_fp.get(key):
            msg = (f"fingerprint {key}: baseline {base_fp.get(key)!r} vs "
                   f"current {cur_fp.get(key)!r} — wall-clock metrics are "
                   f"not comparable across machines")
            (regressions if require_fingerprint else warnings).append(msg)

    for name in sorted(baseline["metrics"]):
        entry = baseline["metrics"][name]
        if name not in current["metrics"]:
            msg = (f"{name}: present in baseline but missing from the "
                   f"current run")
            if allow_missing or not entry.get("gate", True):
                warnings.append(msg)
            else:
                regressions.append(msg)
            continue
        cur = metric_value(current["metrics"][name], f"current {name}")
        gated = entry.get("gate", True)
        reason = regression(entry, cur, name)
        base = float(entry["value"])
        drift = ((cur - base) / base * 100.0) if base != 0 else 0.0
        status = "REGRESSED" if reason and gated else (
            "tracked" if reason else "ok")
        print(f"  {name:<34} {cur:>14g}  (baseline {base:g}, "
              f"{drift:+.1f}%) {status}", file=out)
        if reason:
            (regressions if gated else warnings).append(reason)

    for name in sorted(set(current["metrics"]) - set(baseline["metrics"])):
        warnings.append(f"{name}: new metric not in the baseline "
                        f"(add it via --update-baseline)")
    return regressions, warnings


def update_baseline(baseline_path, baseline, current):
    for name, entry in sorted(current["metrics"].items()):
        gate = baseline["metrics"].get(name, dict(DEFAULT_GATE))
        gate = {k: v for k, v in gate.items() if k != "value"}
        merged = {"value": entry["value"]}
        if "unit" in entry:
            merged["unit"] = entry["unit"]
        elif "unit" in gate:
            merged["unit"] = gate.pop("unit")
        merged.update({k: v for k, v in gate.items() if k != "unit"})
        baseline["metrics"][name] = merged
    baseline["metrics"] = {k: baseline["metrics"][k]
                           for k in sorted(baseline["metrics"])
                           if k in current["metrics"]}
    baseline["bench"] = current.get("bench", baseline.get("bench"))
    baseline["fingerprint"] = current.get("fingerprint", {})
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"bench_trend: baseline {baseline_path} updated "
          f"({len(baseline['metrics'])} metrics)")


def self_test():
    """Synthetic regression/pass cases: the ctest gate proving the
    comparator exits nonzero on an injected regression."""
    fp = {"compiler": "gcc-0.0", "build_type": "Release",
          "hardware_threads": 1}
    baseline = {"schema": SCHEMA, "bench": "selftest", "fingerprint": fp,
                "metrics": {
                    "tput_gbps": {"value": 100.0, "unit": "Gbps",
                                  "direction": "higher_better",
                                  "rel_tol": 0.10},
                    "overhead_pct": {"value": 1.0, "unit": "%",
                                     "direction": "lower_better",
                                     "abs_tol": 1.5},
                    "events": {"value": 1000, "unit": "events",
                               "direction": "two_sided", "rel_tol": 0.05},
                    "wall_seconds": {"value": 2.0, "unit": "s",
                                     "direction": "lower_better",
                                     "rel_tol": 0.5, "gate": False},
                }}

    def run(metrics, expect_regressions, allow_missing=False):
        current = {"schema": SCHEMA, "bench": "selftest", "fingerprint": fp,
                   "metrics": {k: {"value": v} for k, v in metrics.items()}}
        sink = open(os.devnull, "w")
        regs, _ = compare(baseline, current, out=sink,
                          allow_missing=allow_missing)
        sink.close()
        return len(regs) == expect_regressions, regs

    cases = [
        # Everything within tolerance (wall over its rel_tol but ungated).
        ("clean", {"tput_gbps": 95.0, "overhead_pct": 2.0, "events": 1010,
                   "wall_seconds": 9.0}, 0),
        # Improvements never regress.
        ("improvement", {"tput_gbps": 140.0, "overhead_pct": 0.1,
                         "events": 1000, "wall_seconds": 0.5}, 0),
        # Injected throughput regression beyond rel_tol.
        ("tput_drop", {"tput_gbps": 80.0, "overhead_pct": 1.0,
                       "events": 1000, "wall_seconds": 2.0}, 1),
        # Overhead blows through its absolute tolerance.
        ("overhead_spike", {"tput_gbps": 100.0, "overhead_pct": 4.0,
                            "events": 1000, "wall_seconds": 2.0}, 1),
        # Deterministic count drift is two-sided.
        ("events_drift", {"tput_gbps": 100.0, "overhead_pct": 1.0,
                          "events": 900, "wall_seconds": 2.0}, 1),
        # A dropped gated metric is a regression in its own right.
        ("missing_metric", {"tput_gbps": 100.0, "overhead_pct": 1.0,
                            "wall_seconds": 2.0}, 1),
        # A missing ungated metric only warns (tracking rows that not
        # every bench invocation emits).
        ("missing_ungated", {"tput_gbps": 100.0, "overhead_pct": 1.0,
                             "events": 1000}, 0),
        # --allow-missing downgrades even gated misses to warnings
        # (partial-run comparisons against a full baseline).
        ("missing_allowed", {"tput_gbps": 100.0}, 0, True),
        # Two failures are both reported.
        ("double", {"tput_gbps": 50.0, "overhead_pct": 9.0,
                    "events": 1000, "wall_seconds": 2.0}, 2),
    ]
    ok = True
    for name, metrics, expected, *rest in cases:
        passed, regs = run(metrics, expected, *rest)
        print(f"bench_trend self-test {name}: "
              f"{'ok' if passed else 'FAIL'} ({len(regs)} regressions, "
              f"expected {expected})")
        ok &= passed
    if not ok:
        sys.exit(1)
    print("bench_trend: self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__, add_help=True)
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--require-fingerprint", action="store_true")
    ap.add_argument("--allow-missing", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.baseline or not args.current:
        fail("need --baseline and --current (or --self-test)")
    baseline = load(args.baseline)
    current = load(args.current)

    if args.update_baseline:
        update_baseline(args.baseline, baseline, current)
        return

    print(f"bench_trend: {current.get('bench')} vs {args.baseline}")
    regressions, warnings = compare(baseline, current,
                                    args.require_fingerprint,
                                    allow_missing=args.allow_missing)
    for w in warnings:
        print(f"bench_trend: warning: {w}")
    if regressions:
        for r in regressions:
            print(f"bench_trend: REGRESSION: {r}", file=sys.stderr)
        sys.exit(1)
    print("bench_trend: ok — no regressions against the baseline")


if __name__ == "__main__":
    main()
