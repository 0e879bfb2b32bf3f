#!/usr/bin/env python3
"""Self-test of the benchmark's metric arithmetic and correctness gate.

    python3 perfbench/test_metrics.py

Runs on a small synthetic perfbench.raw.v1 document: no build, no
workload, well under a second.
"""

import copy
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


def cell(index, digest="00000000000000aa", mi=(1000, 3000), tag_wall=None):
    c = {
        "index": index, "digest": digest, "wall_ns": 5000,
        "mi_wall_ns": list(mi), "events": 60, "hops": 20,
        "max_queue_depth": 7, "closure_heap_allocs": 0,
        "flows_started": 10, "flows_finished": 8,
        "counters": {"switch.*.mmu.drops": 0.0, "host.*.cnp.sent": 3.0,
                     "sketch.tor.*.insertions": 5.0,
                     "switch.*.port.*.paused_ns": 2e6},
        "tag_events": {"net.serialize": 20, "net.propagate": 20,
                       "host.rp_timer": 10, "core.mi_tick": 2},
        "core": {"mi_ticks": 2, "episodes": 0, "reverts": 0,
                 "sa_iterations": 0, "controller_cpu_s": 1e-4},
        "slowdowns": [1.0, 2.0, 3.0, 4.0],
        "goodput_gbps": [10.0, 20.0],
        "rtt_us": [0.0, 50.0, 70.0],
    }
    if tag_wall is not None:
        c["tag_wall"] = tag_wall
    return c


TAGS = {  # 60 events, 2500 ns of callbacks
    "net.serialize": {"count": 20, "total_ns": 1000},
    "net.propagate": {"count": 20, "total_ns": 1000},
    "host.rp_timer": {"count": 10, "total_ns": 300},
    "core.mi_tick": {"count": 2, "total_ns": 100},
    "(untagged)": {"count": 8, "total_ns": 100},
}


def pool(workers=0):
    return {"workers": workers, "busy_ns": 9000, "idle_ns": 1000,
            "queue_wait_max_ns": 2e6, "failures": 0}


def raw_doc():
    def rep(traced, wall_ns):
        return {"traced": traced, "wall_ns": wall_ns, "pool": pool(),
                "cells": [cell(0, tag_wall=TAGS if traced else None)]}
    return {
        "setup": [{"parse_ns": 1e6, "expand_ns": 0, "build_ns": 2e6,
                   "install_ns": 1e6}] * 3,
        # The first untraced run is a warm-up and must not count.
        "reps": [rep(False, 99e9), rep(False, 2e9), rep(False, 4e9),
                 rep(True, 6e9)],
        "peak_rss_kb": 2048,
    }


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(metrics.percentile(range(1, 101), 95), 95.05)
        self.assertEqual(metrics.percentile([7], 99), 7)
        with self.assertRaises(metrics.GateError):
            metrics.percentile([], 50)

    def test_sample_counts_beyond_the_tail(self):
        self.assertEqual(metrics.beyond(400, 95), 20)
        self.assertEqual(metrics.pct_note(list(range(400)), 95),
                         "n=400, 20 beyond")
        self.assertIn("fewer than 10 beyond",
                      metrics.pct_note(list(range(100)), 95))


class EndToEnd(unittest.TestCase):
    def test_values_and_sample_counts(self):
        m = metrics.end_to_end(raw_doc())
        v = m.values()
        self.assertEqual(v["setup_s"], 0.004)
        self.assertEqual(v["hops_per_s"], 20 / 3.0)  # median of 2 s and 4 s
        self.assertEqual(m.rows["hops_per_s"][2],
                         "20 hops / 3 s wall (median of 2 untraced runs)")
        self.assertNotIn("wall_s", v)  # seed-dependent: per-layer only
        self.assertEqual(v["peak_rss_mb"], 2.0)
        self.assertEqual(v["goodput_gbps"], 15.0)
        self.assertEqual(v["rtt_us.p50"], 60.0)  # the empty MI is dropped
        self.assertEqual(m.rows["rtt_us.p50"][2], "n=2")
        self.assertEqual(v["fct_slowdown.p50"], 2.5)
        self.assertAlmostEqual(v["fct_slowdown.p99"], 3.97)
        self.assertEqual(m.rows["fct_slowdown.p99"][2],
                         "n=4, 0 beyond (fewer than 10 beyond)")


class PerLayer(unittest.TestCase):
    def test_self_time_is_loop_wall_minus_callbacks(self):
        m = metrics.per_layer(raw_doc())
        v = m.values()
        # Traced loop 4000 ns, callbacks 2500 ns.
        self.assertAlmostEqual(v["sim.queue.self_ms"], 1500 / 1e6)
        self.assertAlmostEqual(v["sim.queue.share"], 1500 / 4000)
        self.assertAlmostEqual(v["net.self_ms"], 2000 / 1e6)
        self.assertAlmostEqual(v["net.share"], 0.5)
        self.assertAlmostEqual(v["net.self_ns_per_hop"], 100.0)
        self.assertAlmostEqual(v["workload.self_ms"], 100 / 1e6)
        shares = sum(v[f"{layer}.share"] for layer in
                     ("net", "host", "switch", "core")) + v["sim.queue.share"]
        untagged = v["workload.self_ms"] * 1e6 / 4000
        self.assertAlmostEqual(shares + untagged, 1.0)

    def test_ratios_carry_their_bases(self):
        m = metrics.per_layer(raw_doc())
        v = m.values()
        self.assertEqual(v["sim.events_per_hop"], 3.0)
        self.assertEqual(m.rows["sim.events_per_hop"][2],
                         "60 events / 20 hops")
        self.assertEqual(v["sim.ns_per_event"], 4000 / 60)
        self.assertEqual(v["sketch.insertions_per_hop"], 0.25)
        self.assertEqual(v["core.us_per_mi"], 50.0)
        self.assertEqual(v["core.kept_ratio"], 0.0)  # no episode: 0/0
        self.assertEqual(m.rows["core.kept_ratio"][2],
                         "0 kept episodes / 0 episodes")
        self.assertEqual(v["switch.paused_ms"], 2.0)
        self.assertEqual(v["trace.overhead"], 6e9 / 3e9)
        self.assertEqual(v["exec.workers"], 1)  # serial path, no pool
        self.assertEqual(v["exec.speedup"], (5000 / 2e9 + 5000 / 4e9) / 2)
        self.assertEqual(v["rtt_us.p95"], 69.0)
        self.assertEqual(v["wall_s"], 3.0)  # median of 2 s and 4 s
        self.assertEqual(v["mi_wall_ms.p50"], 0.002)  # 1, 3, 1, 3 us
        self.assertAlmostEqual(v["mi_wall_ms.p95"], 0.003)

    def test_untraced_run_has_no_per_layer_rows(self):
        doc = raw_doc()
        doc["reps"] = doc["reps"][:3]
        with self.assertRaises(metrics.GateError):
            metrics.per_layer(doc)


class Gate(unittest.TestCase):
    def problems(self, doc, pinned=None):
        return metrics.gate(doc, pinned)[0]

    def test_clean_run_passes(self):
        self.assertEqual(self.problems(raw_doc(), ["00000000000000aa"]), [])

    def test_digest_drift_and_identity(self):
        doc = raw_doc()
        doc["reps"][3]["cells"][0]["digest"] = "00000000000000bb"
        self.assertIn("differs", self.problems(doc)[0])
        self.assertIn("pinned", self.problems(raw_doc(), ["ff"])[0])
        self.assertIn("pinned digests", self.problems(raw_doc(), [])[0])

    def test_drops_ttl_and_slowdowns(self):
        for key in ("switch.*.mmu.drops", "sim.ttl_expired"):
            doc = raw_doc()
            doc["reps"][2]["cells"][0]["counters"][key] = 1.0
            self.assertIn(key, self.problems(doc)[0])
        doc = raw_doc()
        doc["reps"][0]["cells"][0]["slowdowns"].append(0.99)
        self.assertIn("below 1", self.problems(doc)[0])

    def test_missing_attribution_fails_loudly(self):
        doc = raw_doc()
        del doc["reps"][3]["cells"][0]["tag_wall"]
        self.assertIn("attribution", self.problems(doc)[0])
        with self.assertRaises(metrics.GateError):
            metrics.per_layer(doc)
        doc = raw_doc()
        partial = copy.deepcopy(TAGS)
        del partial["(untagged)"]
        doc["reps"][3]["cells"][0]["tag_wall"] = partial
        self.assertIn("covers 52 of 60", self.problems(doc)[0])

    def test_bad_cells_and_non_finite_metrics(self):
        doc = raw_doc()
        doc["reps"][1]["cells"][0]["counters"]["sim.ttl_expired"] = 2.0
        self.assertEqual(metrics.gate(doc)[1], {0})
        m = metrics.Metrics()
        m.add("x", math.nan, "s")
        self.assertEqual(len(metrics.non_finite(m)), 1)


if __name__ == "__main__":
    unittest.main()
