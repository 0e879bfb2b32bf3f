"""Metric arithmetic and correctness gate of the benchmark.

Turns one perfbench.raw.v1 document (printed by the perfbench program) into
named metrics. Every metric carries a note naming its sample count or the
base of its ratio, so a printed row can be checked by hand. Kept free of
I/O so that test_metrics.py can exercise it in well under a second.
"""

import math

# Per-tag wall attribution: a tag's layer is its prefix up to the first
# '.'; callbacks scheduled without a tag are flow arrivals and probe ticks.
UNTAGGED = "(untagged)"
UNTAGGED_LAYER = "workload"
TIMED_LAYERS = ("net", "host", "switch", "core", "workload")


class GateError(Exception):
    """A run that must not be reported as correct."""


def percentile(values, q):
    """q-th percentile (q in [0, 100]), linear interpolation between order
    statistics; the same definition as stats::quantile in the simulator."""
    if not values:
        raise GateError("percentile of an empty sample")
    s = sorted(values)
    pos = q / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] * (1.0 - frac) + s[hi] * frac


def median(values):
    return percentile(values, 50)


def beyond(n, q):
    """Samples strictly above the q-th percentile of n samples."""
    return int(n * (100 - q) / 100.0)


def pct_note(values, q):
    n = len(values)
    note = f"n={n}, {beyond(n, q)} beyond" if q != 50 else f"n={n}"
    if q != 50 and beyond(n, q) < 10:
        note += " (fewer than 10 beyond)"
    return note


def ratio(num, den):
    """num / den, or 0 when the base is 0 (the note still shows 0/0)."""
    return num / den if den else 0.0


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


class Metrics:
    """Ordered name -> (value, unit, note)."""

    def __init__(self):
        self.rows = {}

    def add(self, name, value, unit, note=""):
        self.rows[name] = (value, unit, note)

    def add_ratio(self, name, num, den, unit, num_label, den_label):
        self.add(name, ratio(num, den), unit,
                 f"{fmt(num)} {num_label} / {fmt(den)} {den_label}")

    def values(self):
        return {k: v[0] for k, v in self.rows.items()}


def _reps(raw, traced):
    return [r for r in raw["reps"] if r["traced"] == traced]


def _timed(raw):
    """Untraced repetitions that count for wall time: all but the first,
    which warms the allocator and the caches, when there are several."""
    untraced = _reps(raw, False)
    return untraced[1:] if len(untraced) > 1 else untraced


def _wall_s(reps):
    return median([r["wall_ns"] / 1e9 for r in reps])


def _mi_wall_ms(reps):
    return [ns / 1e6 for r in reps for c in r["cells"]
            for ns in c["mi_wall_ns"]]


def _loop_ns(rep):
    """Event-loop wall of a repetition: the MI slices summed over cells."""
    return sum(sum(c["mi_wall_ns"]) for c in rep["cells"])


def _counter(cells, name):
    return sum(c["counters"].get(name, 0.0) for c in cells)


def end_to_end(raw):
    untraced = _timed(raw)
    cells = raw["reps"][0]["cells"]
    m = Metrics()

    setups = [sum(s[k] for k in ("parse_ns", "expand_ns", "build_ns",
                                 "install_ns")) / 1e9 for s in raw["setup"]]
    m.add("setup_s", median(setups), "s", f"median of {len(setups)} set-ups")
    # Host speed is bounded per unit of simulated work: how much work a
    # pass does depends on the seed (+-6% of hops on influx), which adds to
    # the machine's own drift in a bare pass time (wall_s, per-layer).
    hops = sum(c["hops"] for c in cells)
    m.add_ratio("hops_per_s", hops, _wall_s(untraced), "1/s", "hops",
                f"s wall (median of {len(untraced)} untraced runs)")
    m.add("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "MB",
          "ru_maxrss after set-up and the first pass")

    goodput = [v for c in cells for v in c["goodput_gbps"]]
    m.add("goodput_gbps", sum(goodput) / len(goodput), "Gbps",
          f"mean of n={len(goodput)} per-MI samples")
    rtt, slow = _rtt(cells), _slowdowns(cells)
    m.add("rtt_us.p50", percentile(rtt, 50), "us", pct_note(rtt, 50))
    m.add("fct_slowdown.p50", percentile(slow, 50), "ratio",
          pct_note(slow, 50))
    m.add("fct_slowdown.p99", percentile(slow, 99), "ratio",
          pct_note(slow, 99))
    return m


def _rtt(cells):
    # An MI without any RTT sample reads 0; it is no RTT, not a fast one.
    return [v for c in cells for v in c["rtt_us"] if v > 0]


def _slowdowns(cells):
    return [v for c in cells for v in c["slowdowns"]]


def layer_of(tag):
    return UNTAGGED_LAYER if tag == UNTAGGED else tag.split(".", 1)[0]


def per_layer(raw):
    untraced = _timed(raw)
    traced = _reps(raw, True)
    if not traced:
        raise GateError("no traced repetition in a --trace 1 run")
    cells = raw["reps"][0]["cells"]
    m = Metrics()

    for name, key in (("scenario.parse_ms", "parse_ns"),
                      ("scenario.expand_ms", "expand_ns"),
                      ("scenario.install_ms", "install_ns"),
                      ("runner.build_ms", "build_ns")):
        vals = [s[key] / 1e6 for s in raw["setup"]]
        m.add(name, median(vals), "ms", f"median of {len(vals)} set-ups")

    # Traced self time: per-tag callback wall summed per layer; the event
    # queue's share is the traced loop wall minus every callback.
    loop_traced = sum(_loop_ns(r) for r in traced) / len(traced)
    layer_ns = dict.fromkeys(TIMED_LAYERS, 0.0)
    callbacks_ns = 0.0
    for r in traced:
        for c in r["cells"]:
            if not c.get("tag_wall"):
                raise GateError("a traced cell has no per-tag wall "
                                "attribution: port the traced run to the "
                                "current profiler")
            for tag, s in c["tag_wall"].items():
                ns = s["total_ns"] / len(traced)
                callbacks_ns += ns
                layer = layer_of(tag)
                layer_ns[layer] = layer_ns.get(layer, 0.0) + ns
    queue_ns = loop_traced - callbacks_ns

    events = sum(c["events"] for c in cells)
    hops = sum(c["hops"] for c in cells)
    tags = {}
    for c in cells:
        for tag, n in c["tag_events"].items():
            tags[tag] = tags.get(tag, 0) + n
    loop_untraced = median([_loop_ns(r) for r in untraced])

    m.add("sim.events", events, "count")
    m.add_ratio("sim.events_per_hop", events, hops, "ratio", "events",
                "hops")
    m.add_ratio("sim.ns_per_event", loop_untraced, events, "ns",
                "ns untraced loop", "events")
    m.add("sim.queue.self_ms", queue_ns / 1e6, "ms",
          f"{fmt(loop_traced)} ns traced loop - {fmt(callbacks_ns)} ns "
          "callbacks")
    m.add_ratio("sim.queue.share", queue_ns, loop_traced, "ratio",
                "ns queue", "ns traced loop")
    m.add("sim.max_queue_depth", max(c["max_queue_depth"] for c in cells),
          "count")
    m.add("sim.closure_heap_allocs",
          sum(c["closure_heap_allocs"] for c in cells), "count")
    m.add("sim.ttl_expired", _counter(cells, "sim.ttl_expired"), "count")

    def layer_time(layer):
        m.add(f"{layer}.self_ms", layer_ns[layer] / 1e6, "ms",
              f"mean of {len(traced)} traced runs")
        if layer != UNTAGGED_LAYER:
            m.add_ratio(f"{layer}.share", layer_ns[layer], loop_traced,
                        "ratio", f"ns {layer}", "ns traced loop")

    m.add("net.hops", hops, "count")
    for kind in ("serialize", "propagate", "pause_kick"):
        m.add(f"net.{kind}.events", tags.get(f"net.{kind}", 0), "count")
    layer_time("net")
    m.add_ratio("net.self_ns_per_hop", layer_ns["net"], hops, "ns",
                "ns net", "hops")

    for kind in ("rp_timer", "pacing"):
        m.add(f"host.{kind}.events", tags.get(f"host.{kind}", 0), "count")
    layer_time("host")
    m.add("host.cnp_sent", _counter(cells, "host.*.cnp.sent"), "count")
    m.add("host.rp_cuts", _counter(cells, "host.*.rp.cuts"), "count")
    m.add("host.paused_ms", _counter(cells, "host.*.uplink.paused_ns") / 1e6,
          "sim_ms", "simulated time, summed over host uplinks")

    m.add("switch.pause_scan.events", tags.get("switch.pause_scan", 0),
          "count")
    layer_time("switch")
    m.add("switch.ecn_marks", _counter(cells, "switch.*.ecn.marks"), "count")
    m.add("switch.pfc_pauses", _counter(cells, "switch.*.pfc.pauses_sent"),
          "count")
    m.add("switch.paused_ms",
          _counter(cells, "switch.*.port.*.paused_ns") / 1e6, "sim_ms",
          "simulated time, summed over switch ports")
    m.add("switch.drops", _counter(cells, "switch.*.mmu.drops"), "count")

    inserts = _counter(cells, "sketch.tor.*.insertions")
    m.add("sketch.insertions", inserts, "count")
    m.add("sketch.evictions", _counter(cells, "sketch.tor.*.evictions"),
          "count")
    m.add("sketch.ostracism_votes",
          _counter(cells, "sketch.tor.*.ostracism_votes"), "count")
    m.add_ratio("sketch.insertions_per_hop", inserts, hops, "ratio",
                "insertions", "hops")

    core = {k: sum(c["core"][k] for c in cells)
            for k in ("mi_ticks", "episodes", "reverts", "sa_iterations")}
    cpu_s = median([sum(c["core"]["controller_cpu_s"] for c in r["cells"])
                    for r in untraced])
    m.add("core.mi_ticks", core["mi_ticks"], "count")
    m.add_ratio("core.us_per_mi", cpu_s * 1e6, core["mi_ticks"], "us",
                "us controller (untraced)", "MIs")
    layer_time("core")
    m.add("core.episodes", core["episodes"], "count")
    m.add("core.sa_iterations", core["sa_iterations"], "count")
    m.add("core.reverts", core["reverts"], "count")
    m.add_ratio("core.kept_ratio", core["episodes"] - core["reverts"],
                core["episodes"], "ratio", "kept episodes", "episodes")

    m.add("workload.flows_started", sum(c["flows_started"] for c in cells),
          "count")
    m.add("workload.flows_finished",
          sum(c["flows_finished"] for c in cells), "count")
    layer_time("workload")

    # exec: the cell fan-out, from the untraced runs.
    def exec_median(fn):
        return median([fn(r) for r in untraced])

    def utilization(r):
        p = r["pool"]
        if p["workers"] == 0:  # serial path: no pool, one busy thread
            return ratio(sum(c["wall_ns"] for c in r["cells"]), r["wall_ns"])
        return ratio(p["busy_ns"], p["busy_ns"] + p["idle_ns"])

    m.add("exec.cells", len(cells), "count")
    m.add("exec.workers", max(1, raw["reps"][0]["pool"]["workers"]), "count")
    m.add("exec.utilization", exec_median(utilization), "ratio",
          f"median of {len(untraced)} runs, busy / (busy + idle)")
    m.add("exec.queue_wait_ms.max",
          exec_median(lambda r: r["pool"]["queue_wait_max_ns"] / 1e6), "ms",
          f"median of {len(untraced)} runs")
    m.add("exec.critical_cell_s",
          exec_median(lambda r: max(c["wall_ns"] for c in r["cells"]) / 1e9),
          "s", f"median of {len(untraced)} runs")
    m.add("exec.speedup",
          exec_median(lambda r: ratio(sum(c["wall_ns"] for c in r["cells"]),
                                      r["wall_ns"])),
          "ratio", "median of sum(cell wall) / grid wall")
    m.add("exec.failures", sum(r["pool"]["failures"] for r in raw["reps"]),
          "count")

    t_wall = median([r["wall_ns"] for r in traced])
    u_wall = median([r["wall_ns"] for r in untraced])
    m.add_ratio("trace.overhead", t_wall, u_wall, "ratio",
                "ns traced wall", "ns untraced wall")

    # Too seed-dependent on influx to carry a bound, so reported here
    # rather than end to end. The RTT tail lands in the burst window, where
    # the tuner's trajectory swings it by 2-3x from seed to seed. Pass and
    # MI walls time the seed's own amount of work on top of the machine's
    # drift; the slowest MIs are the burst's, whose flow sizes the seed sets.
    rtt = _rtt(cells)
    m.add("rtt_us.p95", percentile(rtt, 95), "us", pct_note(rtt, 95))
    m.add("wall_s", _wall_s(untraced), "s",
          f"median of {len(untraced)} untraced runs after a warm-up")
    mi = _mi_wall_ms(untraced)
    m.add("mi_wall_ms.p50", percentile(mi, 50), "ms", pct_note(mi, 50))
    m.add("mi_wall_ms.p95", percentile(mi, 95), "ms", pct_note(mi, 95))
    return m


def gate(raw, pinned=None):
    """Correctness gate. Returns (problems, bad cell indices)."""
    problems = []
    bad = set()
    reps = raw["reps"]
    n_cells = len(reps[0]["cells"])
    if pinned is not None and len(pinned) != n_cells:
        return [f"{n_cells} cells, {len(pinned)} pinned digests"], set(
            range(n_cells))
    for i in range(n_cells):
        digests = {r["cells"][i]["digest"] for r in reps}
        if len(digests) != 1:
            problems.append(f"cell {i}: run_digest differs across the "
                            f"untraced, repeated and traced runs {digests}")
            bad.add(i)
        if pinned is not None and reps[0]["cells"][i]["digest"] != pinned[i]:
            problems.append(f"cell {i}: run_digest "
                            f"{reps[0]['cells'][i]['digest']} is not the "
                            f"pinned workload identity {pinned[i]}")
            bad.add(i)
        for r in reps:
            c = r["cells"][i]
            for name in ("switch.*.mmu.drops", "sim.ttl_expired"):
                if c["counters"].get(name, 0) != 0:
                    problems.append(f"cell {i}: {name} = "
                                    f"{c['counters'][name]}")
                    bad.add(i)
            if r["traced"]:
                tags = c.get("tag_wall", {})
                covered = sum(s["count"] for s in tags.values())
                if covered != c["events"]:
                    problems.append(f"cell {i}: traced per-tag attribution "
                                    f"covers {covered} of {c['events']} "
                                    "events")
                    bad.add(i)
        first = reps[0]["cells"][i]
        if first["flows_finished"] == 0:
            problems.append(f"cell {i}: no flow finished")
            bad.add(i)
        low = [s for s in first["slowdowns"]
               if not math.isfinite(s) or s < 1.0]
        if low:
            problems.append(f"cell {i}: {len(low)} FCT slowdowns below 1 or "
                            f"non-finite (min {min(low)})")
            bad.add(i)
    return problems, bad


def non_finite(metrics):
    return [f"metric {k} is not finite ({v})"
            for k, v in metrics.values().items()
            if not math.isfinite(v)]
