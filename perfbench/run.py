#!/usr/bin/env python3
"""The simulator benchmark: one workload per call, every metric by name.

    python3 perfbench/run.py --workload influx --seed 0 --seconds 20 --trace 0

Builds the perfbench program from the sources next to this directory
(Release, into .bench_build/perfbench), runs the workload through it and
prints every metric with its unit and its sample count or ratio base. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(BENCHMARK.json lists both). Seed 0 runs the frozen workload documents as
committed and checks their run_digests against the pinned identities; any
other seed reseeds the workload's random inputs (see seeded_doc). Exits 1
when the correctness gate fails and 2 when the program cannot be built or
run.
See NOTES.md for the workloads, the metrics and what each should move.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (document, pinned run_digest per cell at seed 0)
WORKLOADS = {
    "influx": ("influx.json", ["01dca01ffb1e12fe"]),
    "alltoall_static": ("alltoall_static.json", ["d8550b8be1af739d"]),
    "multitenant_grid": ("multitenant_grid.json", [
        "5976b717b74957ed", "c78971094c9c6dd8", "d78be1bf820a8b1d",
        "d7fd0b84ccae1bdb", "4fd9ad5625f53f90", "b8f84b70c66fa2ff",
        "a652ea7f9bdfa2d9", "8ec57f3b055ce99e",
    ]),
}
DEFAULT_SEED = 0
# Component kinds that draw from a random stream (the others are periodic).
RANDOM_KINDS = ("poisson", "permutation")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def die(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def build(out):
    """Configures and builds the program (both quick once it is current)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j",
                 jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def component_seed(seed, name):
    """A nonzero 63-bit stream seed per (workload seed, component name)."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1 or 1


def seeded_doc(workload, seed, out):
    """The workload document for this seed, written under the build tree.

    Every random traffic component gets a fresh stream seed, so the traffic
    changes while the scenario seed, which salts ECMP hashing and seeds the
    tuner's own random stream, stays frozen. A workload without random
    traffic (alltoall_static) takes the seed as its scenario seed instead.
    """
    with open(os.path.join(HERE, "workloads", WORKLOADS[workload][0])) as f:
        doc = json.load(f)
    if seed != DEFAULT_SEED:
        random = [c for c in doc["workload"] if c["kind"] in RANDOM_KINDS]
        for component in random:
            component["seed"] = component_seed(seed, component["name"])
        if not random:
            doc["seed"] = seed
    path = os.path.join(out, "inputs", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    return path


def report(m):
    for name, (value, unit, note) in m.rows.items():
        print(f"  {name:<28} {metrics.fmt(value):>14} {unit:<6} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")

    out = build_dir()
    binary = build(out)
    doc = seeded_doc(args.workload, args.seed, out)
    pinned = WORKLOADS[args.workload][1]
    cmd = [binary, "--doc", doc, "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"program exited {proc.returncode}")
    raw = json.loads(proc.stdout)

    problems, bad = metrics.gate(
        raw, pinned if args.seed == DEFAULT_SEED else None)
    try:
        m = metrics.per_layer(raw) if args.trace else metrics.end_to_end(raw)
    except metrics.GateError as e:
        die(str(e))
    problems += metrics.non_finite(m)
    if problems:
        bad.update(range(len(raw["reps"][0]["cells"])))

    cells = raw["reps"][0]["cells"]
    attempted = sum(c["flows_started"] for c in cells)
    failed = sum(cells[i]["flows_started"] for i in bad)
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} {kind}: "
          f"{len(raw['reps'])} runs of {len(cells)} cell(s)")
    report(m)
    for p in problems:
        print(f"  GATE FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in m.rows.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
