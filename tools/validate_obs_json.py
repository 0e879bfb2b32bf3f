#!/usr/bin/env python3
"""Validate the observability JSON the benches and flight recorder emit.

Usage:
  validate_obs_json.py OBS_JSON [TRACE_JSON]
  validate_obs_json.py --bundle BUNDLE_DIR
  validate_obs_json.py --trace-only TRACE_JSON
  validate_obs_json.py --bench BENCH_JSON
  validate_obs_json.py --grid GRID_JSON [TIMELINE_JSON]

OBS_JSON is the per-run obs report (runner::obs_report_json): the scheme,
the full counter registry, trace-recorder totals, tuning-episode timelines, the
FCT slowdown summary and the event-loop perf section (paraleon.perf.v1).
TRACE_JSON is the Chrome trace-event file; when given, it is checked for
Perfetto-loadable shape.

--bundle validates a flight-recorder post-mortem directory (manifest,
config, counters, trace, ports, episodes, attribution, perf, and
failure.json when the reason is check_failure), including that config and
manifest agree on the seed and that the manifest's replay horizon (what
--replay-flight reads) extends past the trigger. --trace-only checks just
a trace file (e.g. the replay.trace.json a --replay-flight run writes
back).
--bench checks a paraleon.bench.v1 document: the --perf-out artifact the
bench binaries emit and the committed BENCH_*.json baselines that
tools/bench_trend.py compares them against.
--grid checks a paraleon.grid.v1 document (the GridRunner artifact of a
scenario sweep): row-major cell enumeration against the axes' cross
product (every coordinate present exactly once, in order), per-cell digest
format and fct shape, aggregate consistency over the cells, the
deterministic/wall split (jobs and wall seconds only ever under "wall"),
and the wall section's pool bookkeeping (per-worker busy+idle vs the pool
wall window, queue-wait histogram and job spans vs the job count). With
TIMELINE_JSON it also checks the grid's Perfetto timeline: metadata-named
tracks, one 'X' span per executed job on a worker track, and paired
's'/'f' flow arrows.
Scenario files themselves are not checked here: the C++ parser in
src/scenario is the only definition of that schema (run any file through
bench/paraleon_run, or the ScenarioPack tests, to lint it).

Exits nonzero with a message on the first violation, so the CI smoke job
fails loudly when an emitter drifts from the documented schema.
"""
import json
import os
import re
import sys


def fail(msg):
    print(f"validate_obs_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


# Instrument names every traced run must register: MMU, PFC, ECN, DCQCN
# RP stages, CNP pacing and the simulator. Checked against counters+gauges
# together — whether a subsystem surfaces as a slot or a callback is its
# own choice.
REQUIRED_INSTRUMENTS = [
    (r"^switch\.\d+\.mmu\.drops$", "MMU drop counters"),
    (r"^switch\.\d+\.mmu\.buffer_used$", "MMU occupancy gauges"),
    (r"^switch\.\d+\.pfc\.pauses_sent$", "PFC pause counters"),
    (r"^switch\.\d+\.port\.\d+\.pfc\.pauses_received$",
     "PFC pauses-received gauges"),
    (r"^switch\.\d+\.port\.\d+\.paused_ns$", "PFC pause-time gauges"),
    (r"^switch\.\d+\.ecn\.marks$", "ECN mark counters"),
    (r"^switch\.\d+\.port\.\d+\.tx_data_bytes$", "per-port byte gauges"),
    (r"^host\.\d+\.rp\.cuts$", "DCQCN RP stage counters"),
    (r"^host\.\d+\.rp\.hyper_increase$", "DCQCN RP stage counters"),
    (r"^host\.\d+\.cnp\.sent$", "CNP counters"),
    (r"^host\.\d+\.cnp\.suppressed$", "CNP pacing counters"),
    (r"^sim\.events_executed$", "simulator gauges"),
]

# What a scheme whose controller drains an ElasticSketch per ToR registers
# on top: the sketch and the SA controller. The obs document's "scheme" is
# the display name (runner::kSchemeTable); only these schemes build that
# controller.
SKETCH_CONTROLLER_SCHEMES = {"PARALEON", "naive_SA", "ElasticSketch",
                             "PerPod"}
SKETCH_CONTROLLER_INSTRUMENTS = [
    (r"^sketch\.tor\.\d+\.insertions$", "sketch gauges"),
    (r"^sketch\.tor\.\d+\.ostracism_votes$", "sketch ostracism gauges"),
    (r"^controller\.\d+\.sa\.episodes$", "SA controller gauges"),
]

PARAM_KEYS = {
    "ai_rate_mbps", "hai_rate_mbps", "rpg_time_reset_us", "rpg_byte_reset",
    "rpg_threshold", "min_rate_mbps", "rate_reduce_monitor_period_us",
    "clamp_tgt_rate", "alpha_update_period_us", "g",
    "min_time_between_cnps_us", "kmin_kb", "kmax_kb", "pmax",
}

TRACE_CATEGORIES = {"packet", "pfc", "rp", "monitor", "sa"}

QUANTILE_KEYS = {"count", "mean", "p50", "p95", "p99", "p999"}

FLIGHT_REASONS = {"check_failure", "pfc_pause_rate", "mmu_drop_burst",
                  "sa_revert", "utility_collapse"}


def check_registry(reg, where):
    require(set(reg) == {"counters", "gauges"},
            f"{where}: registry must hold exactly counters+gauges")
    counters, gauges = reg["counters"], reg["gauges"]
    for name, value in counters.items():
        require(isinstance(value, int) and value >= 0,
                f"counter {name} must be a nonnegative integer, got {value!r}")
    for name, value in gauges.items():
        require(isinstance(value, (int, float)),
                f"gauge {name} must be numeric, got {value!r}")
    return counters, gauges


def check_episodes(episodes, where):
    require(isinstance(episodes, list), f"{where}: episodes must be a list")
    n_trials = 0
    for controller in episodes:
        require(isinstance(controller, list),
                f"{where}: per-controller episode log must be a list")
        for ep in controller:
            for key in ("index", "start_ms", "trigger", "kl_value",
                        "start_params", "trials", "best_params",
                        "best_utility", "reverted"):
                require(key in ep, f"{where}: episode missing '{key}'")
            require(ep["trigger"] in {"kl", "forced", "blind", "steady"},
                    f"unknown trigger {ep['trigger']!r}")
            require(set(ep["start_params"]) == PARAM_KEYS,
                    "start_params keys drifted from the DCQCN parameter set")
            for trial in ep["trials"]:
                n_trials += 1
                for key in ("t_ms", "iteration", "temperature", "params",
                            "utility", "accepted"):
                    require(key in trial, f"{where}: trial missing '{key}'")
                require(isinstance(trial["accepted"], bool),
                        "trial.accepted must be a bool")
                require(set(trial["params"]) == PARAM_KEYS,
                        "trial params keys drifted")
    return n_trials


def check_slowdown_stats(s, where):
    require(set(s) == QUANTILE_KEYS,
            f"{where}: slowdown stats keys drifted, got {sorted(s)}")
    require(isinstance(s["count"], int) and s["count"] >= 0,
            f"{where}: count must be a nonnegative int")
    for key in QUANTILE_KEYS - {"count"}:
        require(isinstance(s[key], (int, float)),
                f"{where}: {key} must be numeric")
    if s["count"] > 0:
        require(s["p50"] <= s["p95"] <= s["p99"] <= s["p999"],
                f"{where}: tail quantiles are not monotone")


def check_fct(fct, where):
    for key in ("started", "finished", "slowdown", "buckets"):
        require(key in fct, f"{where}: fct missing '{key}'")
    require(fct["finished"] <= fct["started"],
            f"{where}: finished more flows than started")
    check_slowdown_stats(fct["slowdown"], f"{where}.slowdown")
    require(isinstance(fct["buckets"], list),
            f"{where}: fct.buckets must be a list")
    total = 0
    for bucket in fct["buckets"]:
        for key in ("label", "min_size", "stats"):
            require(key in bucket, f"{where}: fct bucket missing '{key}'")
        check_slowdown_stats(bucket["stats"],
                             f"{where}.buckets[{bucket['label']}]")
        total += bucket["stats"]["count"]
    require(total == fct["slowdown"]["count"],
            f"{where}: bucket counts sum to {total}, overall says "
            f"{fct['slowdown']['count']}")


def check_perf(perf, where):
    """Validates a paraleon.perf.v1 section (obs report or bundle file)."""
    require(isinstance(perf, dict), f"{where}: perf section must be a dict")
    require(perf.get("schema") == "paraleon.perf.v1",
            f"{where}: bad perf schema {perf.get('schema')!r}")
    require(isinstance(perf.get("enabled"), bool),
            f"{where}: perf.enabled must be a bool")
    ev = perf.get("events")
    require(isinstance(ev, dict), f"{where}: perf.events must be a dict")
    for key in ("executed", "scheduled", "max_queue_depth"):
        require(isinstance(ev.get(key), int) and ev[key] >= 0,
                f"{where}: perf.events.{key} must be a nonnegative int")
    for key in ("by_tag", "by_layer"):
        require(isinstance(ev.get(key), dict),
                f"{where}: perf.events.{key} must be a dict")
        for tag, count in ev[key].items():
            require(isinstance(count, int) and count >= 0,
                    f"{where}: perf count {tag} must be a nonnegative int")
    for key in ("queue_depth_log2", "schedule_horizon_log2_ns"):
        hist = perf.get(key)
        require(isinstance(hist, list),
                f"{where}: perf.{key} must be a list")
        for i, n in enumerate(hist):
            require(isinstance(n, int) and n >= 0,
                    f"{where}: perf.{key}[{i}] must be a nonnegative int")
    # Every executed event lands in exactly one depth bucket, every
    # scheduled one in exactly one horizon bucket.
    require(sum(perf["queue_depth_log2"]) == ev["executed"],
            f"{where}: queue_depth_log2 does not sum to events.executed")
    require(sum(perf["schedule_horizon_log2_ns"]) == ev["scheduled"],
            f"{where}: schedule_horizon_log2_ns does not sum to "
            f"events.scheduled")
    require(sum(ev["by_tag"].values()) <= ev["executed"],
            f"{where}: tagged event counts exceed events.executed")
    alloc = perf.get("alloc")
    require(isinstance(alloc, dict), f"{where}: perf.alloc must be a dict")
    for key in ("closure_bytes", "closure_heap_allocs", "packet_enqueues",
                "packet_bytes"):
        require(isinstance(alloc.get(key), int) and alloc[key] >= 0,
                f"{where}: perf.alloc.{key} must be a nonnegative int")
    wall = perf.get("wall")
    require(isinstance(wall, dict), f"{where}: perf.wall must be a dict")
    for key in ("seconds", "events_per_sec"):
        v = wall.get(key)
        require(isinstance(v, (int, float)) and v >= 0,
                f"{where}: perf.wall.{key} must be nonnegative")
    require(isinstance(wall.get("profiled_layer_ns"), dict),
            f"{where}: perf.wall.profiled_layer_ns must be a dict")
    if not perf["enabled"]:
        require(ev["executed"] == 0 and ev["scheduled"] == 0,
                f"{where}: disabled perf section must be the zero stub")
    return ev["executed"]


BENCH_DIRECTIONS = {"two_sided", "higher_better", "lower_better"}


def check_bench(path):
    """Validates a paraleon.bench.v1 document (artifact or baseline)."""
    doc = load(path)
    require(doc.get("schema") == "paraleon.bench.v1",
            f"{path}: bad schema {doc.get('schema')!r}")
    require(isinstance(doc.get("bench"), str) and doc["bench"],
            f"{path}: 'bench' must be a nonempty string")
    fp = doc.get("fingerprint")
    require(isinstance(fp, dict), f"{path}: missing 'fingerprint'")
    for key in ("compiler", "build_type", "hardware_threads"):
        require(key in fp, f"{path}: fingerprint missing '{key}'")
    require(isinstance(fp["hardware_threads"], int)
            and fp["hardware_threads"] > 0,
            f"{path}: fingerprint.hardware_threads must be a positive int")
    metrics = doc.get("metrics")
    require(isinstance(metrics, dict) and metrics,
            f"{path}: 'metrics' must be a nonempty dict")
    for name, m in metrics.items():
        require(isinstance(m, dict) and "value" in m,
                f"{path}: metric {name} must be a dict with 'value'")
        require(isinstance(m["value"], (int, float))
                and not isinstance(m["value"], bool),
                f"{path}: metric {name} value must be numeric")
        if "unit" in m:
            require(isinstance(m["unit"], str),
                    f"{path}: metric {name} unit must be a string")
        # Baseline gate fields are optional but typed when present.
        if "direction" in m:
            require(m["direction"] in BENCH_DIRECTIONS,
                    f"{path}: metric {name} direction {m['direction']!r}")
        for tol in ("rel_tol", "abs_tol"):
            if tol in m:
                require(isinstance(m[tol], (int, float)) and m[tol] >= 0,
                        f"{path}: metric {name} {tol} must be nonnegative")
        if "gate" in m:
            require(isinstance(m["gate"], bool),
                    f"{path}: metric {name} gate must be a bool")
    return doc["bench"], len(metrics)


def approx(a, b, rel=1e-9, abs_tol=1e-12):
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def check_grid_timeline(path, grid_doc):
    """Validates a grid's pool timeline against its grid document."""
    doc = load(path)
    require("traceEvents" in doc, f"{path}: missing 'traceEvents'")
    events = doc["traceEvents"]
    require(len(events) > 0, f"{path}: timeline holds zero events")
    thread_names = {}
    n_spans = 0
    flow_starts, flow_ends = set(), set()
    used_tids = set()
    for ev in events:
        for key in ("name", "ph", "pid", "tid"):
            require(key in ev, f"{path}: timeline event missing '{key}': "
                    f"{ev}")
        ph = ev["ph"]
        require(ph in {"M", "X", "s", "f"},
                f"{path}: unknown timeline phase {ph!r}")
        if ph == "M":
            require(ev["name"] in {"process_name", "thread_name"},
                    f"{path}: unknown metadata event {ev['name']!r}")
            if ev["name"] == "thread_name":
                thread_names[ev["tid"]] = ev["args"]["name"]
            continue
        require(ev.get("cat") == "grid",
                f"{path}: timeline category must be 'grid'")
        require(isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0,
                f"{path}: bad ts {ev.get('ts')!r}")
        if ph == "X":
            require(isinstance(ev.get("dur"), (int, float))
                    and ev["dur"] >= 0, f"{path}: 'X' span needs dur >= 0")
            require(ev["tid"] >= 1,
                    f"{path}: job span on non-worker track tid {ev['tid']}")
            used_tids.add(ev["tid"])
            n_spans += 1
        elif ph == "s":
            require(ev["tid"] == 0,
                    f"{path}: flow start must sit on the submit track")
            flow_starts.add(ev["id"])
        else:  # 'f'
            require(ev.get("bp") == "e",
                    f"{path}: flow finish must bind to enclosing slice")
            flow_ends.add(ev["id"])
    require(flow_ends <= flow_starts,
            f"{path}: flow arrows finish without a matching start")
    require(0 in thread_names and thread_names[0] == "submit",
            f"{path}: missing the 'submit' track metadata")
    for tid in used_tids:
        require(tid in thread_names,
                f"{path}: track tid {tid} has no thread_name metadata")
    pool = grid_doc.get("wall", {}).get("pool")
    if pool is not None:
        n_workers = pool["workers"]
        require(len(thread_names) == n_workers + 1,
                f"{path}: {len(thread_names)} named tracks, expected "
                f"{n_workers} workers + submit")
        require(n_spans == pool["jobs_completed"],
                f"{path}: {n_spans} job spans, pool ran "
                f"{pool['jobs_completed']} jobs")
    return len(events), n_spans


# Reserved aggregate names a grid document must carry beside the scraped
# instruments; their per-cell values sit in the cell rows.
GRID_ROW_AGGREGATES = {
    "metric_value": lambda cell: cell["value"],
    "events_executed": lambda cell: cell["events_executed"],
    "fct.finished": lambda cell: cell["fct"]["finished"],
    "fct.slowdown_mean": lambda cell: cell["fct"]["slowdown"]["mean"],
    "fct.slowdown_p95": lambda cell: cell["fct"]["slowdown"]["p95"],
    "fct.slowdown_p999": lambda cell: cell["fct"]["slowdown"]["p999"],
}

GRID_SLOWDOWN_KEYS = {"mean", "p50", "p95", "p99", "p999"}


def check_grid_pool(path, wall, pool):
    """Validates the pool facts under a grid document's "wall": the pool
    summary, per-worker busy/idle against the pool wall window, the
    queue-wait histogram and job spans against the job count, and the
    stragglers."""
    require(isinstance(pool, dict), f"{path}: wall.pool must be a dict")
    for key in ("workers", "jobs_completed"):
        require(isinstance(pool.get(key), int) and pool[key] >= 0,
                f"{path}: wall.pool.{key} must be a nonnegative int")
    for key in ("pool_wall_seconds", "busy_seconds", "idle_seconds"):
        require(isinstance(pool.get(key), (int, float)) and pool[key] >= 0,
                f"{path}: wall.pool.{key} must be nonnegative")
    n_workers = pool["workers"]
    n_jobs = pool["jobs_completed"]

    workers = wall.get("workers")
    require(isinstance(workers, list) and len(workers) == n_workers,
            f"{path}: wall.workers must list {n_workers} workers")
    jobs_sum = 0
    for w in workers:
        for key in ("jobs", "busy_seconds", "idle_seconds"):
            require(key in w, f"{path}: wall worker missing '{key}'")
        jobs_sum += w["jobs"]
    require(jobs_sum == n_jobs,
            f"{path}: per-worker job counts sum to {jobs_sum}, pool says "
            f"{n_jobs}")
    # Each worker's busy+idle is accounted against the pool wall window;
    # allow slack for attach/join edges and clock granularity.
    if n_workers > 0 and pool["pool_wall_seconds"] > 0:
        accounted = pool["busy_seconds"] + pool["idle_seconds"]
        window = n_workers * pool["pool_wall_seconds"]
        require(accounted <= window * 1.15 + 0.05,
                f"{path}: busy+idle {accounted:.3f}s exceeds workers x "
                f"wall window {window:.3f}s")
        require(accounted >= window * 0.5 - 0.05,
                f"{path}: busy+idle {accounted:.3f}s accounts for under "
                f"half the workers x wall window {window:.3f}s")

    hist = wall.get("queue_wait_log2_us")
    require(isinstance(hist, list),
            f"{path}: wall.queue_wait_log2_us must be a list")
    require(sum(hist) == n_jobs,
            f"{path}: queue-wait histogram sums to {sum(hist)}, pool ran "
            f"{n_jobs} jobs")
    spans = wall.get("spans")
    require(isinstance(spans, list) and len(spans) == n_jobs,
            f"{path}: wall.spans must list the {n_jobs} jobs")
    for s in spans:
        for key in ("job", "worker", "submit_us", "start_us", "end_us"):
            require(key in s, f"{path}: wall job span missing '{key}'")
        require(s["submit_us"] <= s["start_us"] <= s["end_us"],
                f"{path}: job {s['job']} span is not ordered "
                f"submit <= start <= end")
        require(0 <= s["worker"] < n_workers,
                f"{path}: job {s['job']} ran on unknown worker "
                f"{s['worker']}")
    stragglers = wall.get("stragglers")
    require(isinstance(stragglers, list),
            f"{path}: wall.stragglers must be a list")
    for s in stragglers:
        for key in ("job", "z", "seconds"):
            require(key in s, f"{path}: straggler missing '{key}'")
        require(s["z"] > 0, f"{path}: straggler z must be positive")


def check_grid(path):
    """Validates a paraleon.grid.v1 document; returns the parsed doc."""
    doc = load(path)
    require(doc.get("schema") == "paraleon.grid.v1",
            f"{path}: bad schema {doc.get('schema')!r}")
    require(isinstance(doc.get("scenario"), str) and doc["scenario"],
            f"{path}: 'scenario' must be a nonempty string")
    require(isinstance(doc.get("seed"), int) and doc["seed"] >= 0,
            f"{path}: 'seed' must be a nonnegative int")
    require(isinstance(doc.get("metric"), str) and doc["metric"],
            f"{path}: 'metric' must be a nonempty string")

    axes = doc.get("axes")
    require(isinstance(axes, list), f"{path}: 'axes' must be a list")
    for i, axis in enumerate(axes):
        where = f"{path}: axes[{i}]"
        require(isinstance(axis, dict) and set(axis) == {"key", "values"},
                f"{where}: axis must hold exactly key+values")
        require(isinstance(axis["key"], str) and axis["key"],
                f"{where}: key must be a nonempty string")
        require(isinstance(axis["values"], list) and axis["values"],
                f"{where}: values must be a nonempty list")

    cells = doc.get("cells")
    require(isinstance(cells, list), f"{path}: 'cells' must be a list")
    n_expected = 1
    for axis in axes:
        n_expected *= len(axis["values"])
    require(len(cells) == n_expected,
            f"{path}: {len(cells)} cells, axes cross product is "
            f"{n_expected}")

    seen_coords = set()
    for i, cell in enumerate(cells):
        where = f"{path}: cells[{i}]"
        for key in ("index", "coords", "seed", "digest", "value",
                    "events_executed", "fct"):
            require(key in cell, f"{where} missing '{key}'")
        require(cell["index"] == i,
                f"{where}: index {cell['index']} out of row-major order")
        require(re.fullmatch(r"[0-9a-f]{16}", cell["digest"]),
                f"{where}: digest must be 16 lowercase hex chars, got "
                f"{cell['digest']!r}")
        require(isinstance(cell["value"], (int, float)),
                f"{where}: value must be numeric")
        require(isinstance(cell["events_executed"], int)
                and cell["events_executed"] > 0,
                f"{where}: events_executed must be a positive int")

        coords = cell["coords"]
        require(isinstance(coords, dict) and
                list(coords) == [a["key"] for a in axes],
                f"{where}: coords keys must match the axes, in order")
        # Row-major enumeration, first axis slowest: cell i's coordinate
        # on each axis is fully determined by its index.
        stride = n_expected
        for axis in axes:
            stride //= len(axis["values"])
            expected = axis["values"][(i // stride) % len(axis["values"])]
            require(coords[axis["key"]] == expected,
                    f"{where}: coords[{axis['key']}] = "
                    f"{coords[axis['key']]!r}, row-major order expects "
                    f"{expected!r}")
        frozen = json.dumps(coords, sort_keys=True)
        require(frozen not in seen_coords, f"{where}: duplicate coords")
        seen_coords.add(frozen)

        fct = cell["fct"]
        require(isinstance(fct, dict), f"{where}: fct must be a dict")
        for key in ("finished", "started", "slowdown"):
            require(key in fct, f"{where}: fct missing '{key}'")
        require(fct["finished"] <= fct["started"],
                f"{where}: finished more flows than started")
        slow = fct["slowdown"]
        require(set(slow) == GRID_SLOWDOWN_KEYS,
                f"{where}: slowdown keys drifted, got {sorted(slow)}")
        for key in GRID_SLOWDOWN_KEYS:
            require(isinstance(slow[key], (int, float)),
                    f"{where}: slowdown.{key} must be numeric")
        if fct["finished"] > 0:
            require(slow["p50"] <= slow["p95"] <= slow["p99"]
                    <= slow["p999"],
                    f"{where}: tail quantiles are not monotone")

    aggregates = doc.get("aggregates")
    require(isinstance(aggregates, dict), f"{path}: missing 'aggregates'")
    for name, agg in aggregates.items():
        where = f"{path}: aggregates[{name}]"
        require(set(agg) == {"min", "mean", "p95", "max", "n"},
                f"{where}: aggregate keys drifted, got {sorted(agg)}")
        # An instrument aggregate covers only the cells whose scheme
        # scraped it (a scheme.name axis mixes instrument sets); the
        # reserved names below must cover every cell.
        require(isinstance(agg["n"], int)
                and 1 <= agg["n"] <= len(cells),
                f"{where}: n must be in 1..{len(cells)}")
        require(agg["min"] <= agg["mean"] <= agg["max"],
                f"{where}: min <= mean <= max violated")
        require(agg["min"] <= agg["p95"] <= agg["max"],
                f"{where}: min <= p95 <= max violated")
    if cells:
        for name, cell_value in GRID_ROW_AGGREGATES.items():
            require(name in aggregates,
                    f"{path}: aggregates missing reserved name '{name}'")
            require(aggregates[name]["n"] == len(cells),
                    f"{path}: aggregates[{name}].n must equal the cell "
                    f"count {len(cells)}")
            values = [cell_value(cell) for cell in cells]
            agg = aggregates[name]
            require(approx(agg["min"], min(values)),
                    f"{path}: aggregates[{name}].min != min over cells")
            require(approx(agg["max"], max(values)),
                    f"{path}: aggregates[{name}].max != max over cells")
            require(approx(agg["mean"], sum(values) / len(values),
                           rel=1e-6),
                    f"{path}: aggregates[{name}].mean != mean over cells")

    # The deterministic/wall split: the nondeterministic facts (requested
    # job count, pool utilization, wall seconds) live ONLY under "wall".
    # A --grid-out artifact carries it; the byte-compared deterministic
    # half (to_json(false)) omits the subtree entirely.
    known = {"schema", "scenario", "seed", "metric", "axes", "cells",
             "aggregates", "wall"}
    for key in doc:
        require(key in known, f"{path}: unknown top-level key {key!r}")
    wall = doc.get("wall")
    if wall is not None:
        require(isinstance(wall, dict), f"{path}: 'wall' must be a dict")
        for key in ("jobs", "hardware_workers"):
            require(isinstance(wall.get(key), int) and wall[key] >= 0,
                    f"{path}: wall.{key} must be a nonnegative int")
        require(isinstance(wall.get("wall_seconds"), (int, float))
                and wall["wall_seconds"] >= 0,
                f"{path}: wall.wall_seconds must be nonnegative")
        pool = wall.get("pool")
        if pool is not None:
            check_grid_pool(path, wall, pool)
    return doc


def check_obs(path):
    doc = load(path)
    for key in ("scheme", "registry", "trace", "episodes", "fct", "perf"):
        require(key in doc, f"{path}: missing top-level key '{key}'")

    counters, gauges = check_registry(doc["registry"], path)
    instruments = set(counters) | set(gauges)
    required = REQUIRED_INSTRUMENTS
    if doc["scheme"] in SKETCH_CONTROLLER_SCHEMES:
        required = required + SKETCH_CONTROLLER_INSTRUMENTS
    for pattern, what in required:
        require(any(re.match(pattern, n) for n in instruments),
                f"no {what} in the registry (pattern {pattern})")

    tr = doc["trace"]
    for key in ("total", "recorded", "dropped"):
        require(isinstance(tr.get(key), int), f"trace.{key} must be an int")
    require(tr["total"] == tr["recorded"] + tr["dropped"],
            "trace totals inconsistent: total != recorded + dropped")
    require(tr["total"] > 0, "traced run recorded zero events")

    n_trials = check_episodes(doc["episodes"], path)
    check_fct(doc["fct"], path)
    check_perf(doc["perf"], path)
    return len(counters) + len(gauges), tr["total"], n_trials


def check_trace(path, allow_empty=False):
    doc = load(path)
    require("traceEvents" in doc, f"{path}: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not allow_empty:
        require(len(events) > 0, f"{path}: trace file holds zero events")
    spans_open = {}
    for ev in events:
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            require(key in ev, f"trace event missing '{key}': {ev}")
        require(ev["cat"] in TRACE_CATEGORIES,
                f"unknown trace category {ev['cat']!r}")
        require(ev["ph"] in {"i", "X", "B", "E"},
                f"unknown phase {ev['ph']!r}")
        require(isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0,
                f"bad ts {ev['ts']!r}")
        track = (ev["pid"], ev["tid"], ev["name"])
        if ev["ph"] == "B":
            spans_open[track] = spans_open.get(track, 0) + 1
        elif ev["ph"] == "E":
            # A span may have opened before the ring's retention window,
            # so an unmatched E is legal; negative depth is not tracked.
            spans_open[track] = max(0, spans_open.get(track, 0) - 1)
    return len(events)


def check_attribution(path):
    doc = load(path)
    require(doc.get("schema") == "paraleon.attribution.v1",
            f"{path}: bad schema {doc.get('schema')!r}")
    require(isinstance(doc.get("enabled"), bool),
            f"{path}: 'enabled' must be a bool")
    engine = doc.get("engine")
    require(isinstance(engine, dict), f"{path}: missing 'engine'")
    for key in ("pause_spans", "pause_trees", "blocked_ns",
                "rate_limited_ns"):
        require(key in engine, f"{path}: engine missing '{key}'")

    spans = engine["pause_spans"]
    ids = set()
    for s in spans:
        for key in ("id", "pauser", "ingress_port", "paused", "paused_port",
                    "paused_is_switch", "start_ns", "end_ns",
                    "ingress_bytes", "threshold", "cause", "blocked_flows"):
            require(key in s, f"{path}: pause span missing '{key}'")
        require(s["end_ns"] == -1 or s["end_ns"] >= s["start_ns"],
                f"span {s['id']} ends before it starts")
        # Causality can only point backwards: span ids are issued in event
        # order, so every cause must be an earlier span.
        require(s["cause"] == -1 or (s["cause"] in ids),
                f"span {s['id']} blames a non-earlier span {s['cause']}")
        ids.add(s["id"])
    by_id = {s["id"]: s for s in spans}
    for tree in engine["pause_trees"]:
        for key in ("root", "switch", "children"):
            require(key in tree, f"{path}: pause tree missing '{key}'")
        require(by_id[tree["root"]]["cause"] == -1,
                f"tree root {tree['root']} is not a causality root")
        for child in tree["children"]:
            require(child in by_id, f"tree child {child} is not a span")

    for name in ("blocked_ns", "rate_limited_ns"):
        for flow, ns in engine[name].items():
            require(isinstance(ns, int) and ns >= 0,
                    f"{name}[{flow}] must be a nonnegative integer")

    victims = doc.get("victims")
    require(isinstance(victims, list), f"{path}: missing 'victims'")
    prev_blocked = None
    for v in victims:
        for key in ("flow", "pfc_blocked_ns", "rate_limited_ns", "fct_ns",
                    "ideal_ns", "queue_other_ns", "slowdown"):
            require(key in v, f"{path}: victim missing '{key}'")
        if v["fct_ns"] >= 0:
            require(v["ideal_ns"] > 0, "completed victim with no ideal FCT")
        if prev_blocked is not None:
            require(v["pfc_blocked_ns"] <= prev_blocked,
                    "victims are not sorted by blocked time")
        prev_blocked = v["pfc_blocked_ns"]
    return len(spans), len(victims)


def check_bundle(bundle_dir):
    require(os.path.isdir(bundle_dir), f"{bundle_dir}: not a directory")
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    manifest = load(manifest_path)
    require(manifest.get("schema") == "paraleon.flight.v1",
            f"{manifest_path}: bad schema {manifest.get('schema')!r}")
    for key in ("reason", "trigger_ns", "seed", "scheme", "events_executed",
                "queue_depth", "next_event_ns", "replay_until_ns", "files"):
        require(key in manifest, f"{manifest_path}: missing '{key}'")
    reason = manifest["reason"]
    require(reason in FLIGHT_REASONS, f"unknown bundle reason {reason!r}")
    require(manifest["replay_until_ns"] > manifest["trigger_ns"],
            "replay horizon does not extend past the trigger")
    for name in manifest["files"]:
        require(os.path.isfile(os.path.join(bundle_dir, name)),
                f"manifest lists {name} but the bundle lacks it")
    require("failure.json" in manifest["files"]
            if reason == "check_failure"
            else "failure.json" not in manifest["files"],
            "failure.json presence must match reason == check_failure")

    config = load(os.path.join(bundle_dir, "config.json"))
    for key in ("scheme", "seed", "duration_ns", "n_tor", "n_leaf",
                "hosts_per_tor", "host_link_bps", "fabric_link_bps",
                "prop_delay_ns", "buffer_bytes", "pfc_alpha",
                "pfc_pause_duration_ns"):
        require(key in config, f"config.json missing '{key}'")
    require(config["seed"] == manifest["seed"],
            "config.json and manifest.json disagree on the seed")

    check_registry(load(os.path.join(bundle_dir, "counters.json")),
                   "counters.json")
    # The original run may not have traced (that is what replay is for), so
    # an empty ring tail is legal here.
    n_trace = check_trace(os.path.join(bundle_dir, "trace.json"),
                          allow_empty=True)

    ports_path = os.path.join(bundle_dir, "ports.json")
    ports = load(ports_path)
    require(ports.get("schema") == "paraleon.ports.v1",
            f"{ports_path}: bad schema {ports.get('schema')!r}")
    require(len(ports.get("switches", [])) > 0, "ports.json lists no switch")
    for sw in ports["switches"]:
        for key in ("kind", "index", "id", "buffer_used", "ports"):
            require(key in sw, f"ports.json switch missing '{key}'")
        require(sw["kind"] in {"tor", "leaf"},
                f"unknown switch kind {sw['kind']!r}")
        for port in sw["ports"]:
            for key in ("port", "queue_bytes", "paused_ns", "data_paused",
                        "pause_latched", "ingress_bytes", "tx_data_bytes"):
                require(key in port, f"ports.json port missing '{key}'")
    for host in ports.get("hosts", []):
        require("id" in host and "uplink" in host,
                "ports.json host missing id/uplink")

    n_trials = check_episodes(load(os.path.join(bundle_dir, "episodes.json")),
                              "episodes.json")
    n_spans, n_victims = check_attribution(
        os.path.join(bundle_dir, "attribution.json"))
    check_perf(load(os.path.join(bundle_dir, "perf.json")), "perf.json")

    if reason == "check_failure":
        failure = load(os.path.join(bundle_dir, "failure.json"))
        for key in ("expression", "file", "line", "message"):
            require(key in failure, f"failure.json missing '{key}'")

    print(f"validate_obs_json: bundle OK: reason={reason} "
          f"seed={manifest['seed']} trigger_ns={manifest['trigger_ns']} "
          f"{n_trace} trace events, {n_trials} SA trials, "
          f"{n_spans} pause spans, {n_victims} victims")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    if sys.argv[1] == "--bundle":
        require(len(sys.argv) == 3, "--bundle takes exactly one directory")
        check_bundle(sys.argv[2])
        return
    if sys.argv[1] == "--trace-only":
        require(len(sys.argv) == 3, "--trace-only takes exactly one file")
        n_events = check_trace(sys.argv[2])
        print(f"validate_obs_json: trace file OK: {n_events} events")
        return
    if sys.argv[1] == "--bench":
        require(len(sys.argv) == 3, "--bench takes exactly one file")
        bench, n_metrics = check_bench(sys.argv[2])
        print(f"validate_obs_json: bench file OK: {bench}, "
              f"{n_metrics} metrics")
        return
    if sys.argv[1] == "--grid":
        require(len(sys.argv) in (3, 4),
                "--grid takes GRID_JSON [TIMELINE_JSON]")
        doc = check_grid(sys.argv[2])
        wall = " + wall" if "wall" in doc else ""
        msg = (f"grid file OK: {doc['scenario']}, {len(doc['axes'])} axes, "
               f"{len(doc['cells'])} cells{wall}")
        if len(sys.argv) == 4:
            n_events, n_spans = check_grid_timeline(sys.argv[3], doc)
            msg += f"; timeline OK: {n_events} events, {n_spans} job spans"
        print(f"validate_obs_json: {msg}")
        return
    n_instruments, n_trace, n_trials = check_obs(sys.argv[1])
    msg = (f"obs report OK: {n_instruments} instruments, "
           f"{n_trace} trace events, {n_trials} SA trials")
    if len(sys.argv) > 2:
        n_events = check_trace(sys.argv[2])
        msg += f"; trace file OK: {n_events} events"
    print(f"validate_obs_json: {msg}")


if __name__ == "__main__":
    main()
