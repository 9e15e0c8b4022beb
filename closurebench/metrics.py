"""Statistics and metric definitions of the closure-engineer benchmark.

The closurebench binary writes raw samples, counters and phase accounting
(and, in trace runs, a Chrome trace of benchmark-side spans). This module
turns them into the metrics BENCHMARK.json declares:

* end-to-end metrics (untraced runs): the same names on every workload,
  each workload mapping its own closure operation onto them;
* per-layer metrics (traced runs): every name on every workload, 0 where
  the workload does no work in that layer.

Pure functions only, so tests/test_metrics.py can check them directly.
"""

import math
import statistics

# --- statistics --------------------------------------------------------------


def percentile(values, p):
    """Linear-interpolated percentile (0 <= p <= 100) of `values`."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(values):
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it, as (p, value); None when even the median has fewer."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p, percentile(values, p)
    return None


def quartile_spread(values):
    """Inter-quartile distance as a share of the median, with quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


# --- host speed ----------------------------------------------------------------

# Time metrics are reported at a reference host speed: the one at which a
# pass of the benchmark's calibration kernel (calibrate() in src/common.cpp,
# sampled between operations throughout the run) takes CALIB_REF_MS. That
# is about its median on a quiet 4-vCPU Xeon VM, where the reported times
# are close to the wall-clock ones. On a shared host both the program and
# the kernel slow down together while neighbours load the memory system or
# take the cores' clock down, so the ratio holds across runs where the raw
# times swing.
CALIB_REF_MS = 13.0

TIME_UNITS = {"s", "ms", "us", "ns"}


def host_scale(raw):
    """Factor that brings this run's times to the reference host speed
    (1.0 when the run sampled no calibration)."""
    return _ratio(CALIB_REF_MS, median(raw["samples"].get("calib_ms", []))) \
        or 1.0


def at_reference_speed(values, units, scale):
    """`values` with every time (unit in TIME_UNITS) multiplied by `scale`
    and every rate (unit 1/s) divided by it; others unchanged."""
    out = dict(values)
    for name, unit in units.items():
        if unit in TIME_UNITS:
            out[name] = values[name] * scale
        elif unit == "1/s":
            out[name] = _ratio(values[name], scale)
    return out


# --- end-to-end metrics --------------------------------------------------------

# (name, unit, better, bound). Every workload maps its primary closure
# operation onto op_* and its secondary one onto aux_*; README.md has the
# per-workload table.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("aux_ms_p50", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# What op / aux / ops_per_s are on each workload, under the names a closure
# engineer uses: (printed name, unit, source metric, scale).
CLOSURE_NAMES = {
    "cold_ladder": [
        ("first_wns_ms", "ms", "op_ms_p50", 1.0),
        ("first_wns_ms_p90", "ms", "op_ms_p90", 1.0),
        ("first_wns_25k_ms", "ms", "aux_ms_p50", 1.0),
    ],
    "eco_stream": [
        ("eco_ms_p50", "ms", "op_ms_p50", 1.0),
        ("eco_ms_p90", "ms", "op_ms_p90", 1.0),
        ("eco_structural_ms", "ms", "aux_ms_p50", 1.0),
    ],
    "mcmm_corners": [
        ("mcmm_s", "s", "op_ms_p50", 1e-3),
        ("farm_s", "s", "aux_ms_p50", 1e-3),
    ],
    "serve_mix": [
        ("query_us_p50", "us", "op_ms_p50", 1e3),
        ("query_us_p90", "us", "op_ms_p90", 1e3),
        ("eco_commit_ms_p50", "ms", "aux_ms_p50", 1.0),
        ("serve_qps", "1/s", "ops_per_s", 1.0),
    ],
}


def end_to_end(raw, scale=1.0):
    """End-to-end metrics of an untraced run from its raw JSON, with times
    multiplied (rates divided) by `scale`."""
    return at_reference_speed(end_to_end_raw(raw),
                              {n: u for n, u, _, _ in END_TO_END}, scale)


def end_to_end_raw(raw):
    """End-to-end metrics of an untraced run as measured (wall clock)."""
    s, v = raw["samples"], raw["values"]
    op, aux = s.get("op_ms", []), s.get("aux_ms", [])
    return {
        "setup_s": median(s.get("setup_s", [])),
        "op_ms_p50": median(op),
        "op_ms_p90": percentile(op, 90),
        "aux_ms_p50": median(aux),
        # Operations per second of the time those operations took; the
        # binary leaves oracles and secondary operations out of op_time_s.
        "ops_per_s": _ratio(v.get("ops_completed", 0.0),
                            v.get("op_time_s", 0.0)),
        "peak_rss_mb": v.get("peak_rss_mb", 0.0),
    }


# --- per-layer metrics -----------------------------------------------------------

# Layers a self time is reported for: the repository's modules the
# benchmark calls into, plus "bench" for the benchmark's own root spans.
LAYERS = ["bench", "network", "liberty", "interconnect", "sta", "opt",
          "signoff", "serve"]

# Query kinds of serve_mix, with their share of the script.
SERVE_KINDS = [("slack", 0.5), ("endpoints", 0.25), ("histogram", 0.125),
               ("path", 0.125)]


class Spans:
    """Durations (ms) of the benchmark-side spans of one Chrome trace."""

    def __init__(self, events):
        self.events = [e for e in events
                       if e.get("cat") == "bench" and e.get("ph") == "X"]
        self.by_name = {}
        for e in self.events:
            self.by_name.setdefault(e["name"], []).append(e["dur"] / 1000.0)

    def durations(self, name):
        return self.by_name.get(name, [])

    def median(self, name):
        return median(self.durations(name))

    def per_setup(self, name):
        """Total duration of `name` spans per set-up repetition."""
        setups = len(self.durations("bench.setup"))
        return sum(self.durations(name)) / setups if setups else 0.0

    def self_times(self):
        """Self time (ms) per layer: each span's duration minus the part
        its directly nested spans on the same thread cover."""
        out = {layer: 0.0 for layer in LAYERS}
        by_tid = {}
        for e in self.events:
            by_tid.setdefault(e.get("tid", 0), []).append(e)
        for evs in by_tid.values():
            evs.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack = []  # [end, layer, duration, covered]

            def close(frame):
                layer = frame[1] if frame[1] in out else "bench"
                out[layer] += max(frame[2] - frame[3], 0.0) / 1000.0
                if stack:
                    stack[-1][3] += frame[2]

            for e in evs:
                while stack and stack[-1][0] <= e["ts"]:
                    close(stack.pop())
                stack.append([e["ts"] + e["dur"], e["name"].split(".")[0],
                              e["dur"], 0.0])
            while stack:
                close(stack.pop())
        return out


def per_layer(raw, events, scale=1.0):
    """Per-layer metrics of a traced run from its raw JSON and the
    Chrome trace events, with times multiplied by `scale`. Returns
    {name: value}."""
    return at_reference_speed(per_layer_raw(raw, events),
                              {n: u for n, u, _ in PER_LAYER}, scale)


def per_layer_raw(raw, events):
    """Per-layer metrics of a traced run as measured (wall clock)."""
    s, v = raw["samples"], raw["values"]
    sp = Spans(events)
    m = {}

    # cold_ladder
    m["sta.graph_ms"] = sp.median("sta.graph")
    m["interconnect.extract_ms"] = sp.median("interconnect.extract")
    m["sta.run_ms"] = sp.median("sta.run")
    m["sta.sweep_ms"] = sp.median("sta.sweep")
    m["sta.plans_checks_ms"] = max(m["sta.run_ms"] - m["sta.sweep_ms"], 0.0)
    ns25 = _ratio(sp.median("bench.first_wns_25k") * 1e6, v.get("instances_25k", 0))
    ns100 = _ratio(sp.median("bench.first_wns_100k") * 1e6, v.get("instances_100k", 0))
    m["sta.ns_per_inst_25k"] = ns25
    m["sta.ns_per_inst_100k"] = ns100
    m["sta.scaling_ratio"] = _ratio(ns100, ns25)
    m["delaycalc.rc_misses_per_run"] = v.get("rc_misses_per_run", 0.0)
    m["network.netgen_ms"] = sp.per_setup("network.netgen")
    m["liberty.load_ms"] = sp.per_setup("liberty.load")
    m["liberty.char_builds"] = v.get("char_builds", 0.0)

    # eco_stream
    upd = sp.durations("sta.incr.update")
    m["network.edit_us"] = sp.median("network.edit") * 1e3
    m["sta.incr.update_ms_p50"] = median(upd)
    m["sta.incr.update_ms_p90"] = percentile(upd, 90)
    m["sta.incr.slow_frac"] = _ratio(v.get("slow_ecos", 0.0),
                                     v.get("in_place_ecos", 0.0))
    for k in ("forward_recomputed", "required_recomputed",
              "endpoints_reevaluated", "us_per_frontier_vertex"):
        m["sta.incr." + k] = median(s.get(k, []))
    m["sta.incr.endpoint_useful_frac"] = _ratio(
        sum(s.get("endpoints_changed", [])),
        sum(s.get("endpoints_reevaluated", [])))
    m["sta.incr.full_fallbacks"] = v.get("full_fallbacks", 0.0)
    m["opt.structural_edit_ms"] = sp.median("opt.structural_edit")
    m["sta.incr.structural_update_ms"] = sp.median("sta.incr.structural_update")

    # mcmm_corners
    op, aux = s.get("op_ms", []), s.get("aux_ms", [])
    m["signoff.scenario_ms_p50"] = median(s.get("scenario_ms", []))
    m["signoff.scenario_ms_max"] = median(s.get("scenario_ms_max", []))
    m["signoff.pool_speedup"] = (_ratio(v.get("serial_ms", 0.0), median(op))
                                 if "serial_ms" in v else 0.0)
    m["signoff.rc_misses_per_pass"] = v.get("rc_misses_per_pass", 0.0)
    m["signoff.rss_mb_per_scenario"] = v.get("rss_mb_per_scenario", 0.0)
    m["signoff.snapshot_ms"] = sp.median("signoff.snapshot")
    m["farm.vs_pool"] = (_ratio(median(aux), median(op))
                         if "farm_attempts" in s else 0.0)
    for k in ("attempts", "retries", "crashes", "quarantined"):
        m["farm." + k] = median(s.get("farm_" + k, []))

    # serve_mix
    transport = 0.0
    for kind, share in SERVE_KINDS:
        rtt = sp.median("serve.rtt." + kind) * 1e3
        inproc = sp.median("serve.inproc." + kind) * 1e3
        m["serve.rtt_us." + kind] = rtt
        m["serve.inproc_us." + kind] = inproc
        transport += share * (rtt - inproc)
    m["serve.transport_us"] = transport
    m["serve.eco_inproc_ms"] = sp.median("serve.eco_inproc")
    m["serve.eco_transport_ms"] = (
        sp.median("serve.rtt.eco") - m["serve.eco_inproc_ms"]
        if sp.durations("serve.rtt.eco") else 0.0)
    m["serve.reply_lines.eco"] = v.get("reply_lines_eco", 0.0)
    m["serve.replica_reuse_frac"] = v.get("replica_reuse_frac", 0.0)
    m["serve.requests"] = v.get("requests", 0.0)
    m["serve.epochs_published"] = v.get("epochs_published", 0.0)
    m["serve.add_design_ms"] = sp.median("serve.add_design")

    # every workload
    untraced, traced = s.get("op_ms", []), s.get("op_ms_traced", [])
    m["trace_overhead_frac"] = (median(traced) / median(untraced) - 1.0
                                if traced and untraced else 0.0)
    attempted, failed = accounting(raw)
    m["failed_frac"] = _ratio(failed, attempted)
    for layer, ms in sp.self_times().items():
        m[layer + ".self_ms"] = ms
    return m


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("sta.graph_ms", "ms", "lower"),
    ("interconnect.extract_ms", "ms", "lower"),
    ("sta.run_ms", "ms", "lower"),
    ("sta.sweep_ms", "ms", "lower"),
    ("sta.plans_checks_ms", "ms", "lower"),
    ("sta.ns_per_inst_25k", "ns", "lower"),
    ("sta.ns_per_inst_100k", "ns", "lower"),
    ("sta.scaling_ratio", "ratio", "lower"),
    ("delaycalc.rc_misses_per_run", "count", "lower"),
    ("network.netgen_ms", "ms", "lower"),
    ("liberty.load_ms", "ms", "lower"),
    ("liberty.char_builds", "count", "lower"),
    ("network.edit_us", "us", "lower"),
    ("sta.incr.update_ms_p50", "ms", "lower"),
    ("sta.incr.update_ms_p90", "ms", "lower"),
    ("sta.incr.slow_frac", "frac", "lower"),
    ("sta.incr.forward_recomputed", "count", "lower"),
    ("sta.incr.required_recomputed", "count", "lower"),
    ("sta.incr.endpoints_reevaluated", "count", "lower"),
    ("sta.incr.us_per_frontier_vertex", "us", "lower"),
    ("sta.incr.endpoint_useful_frac", "frac", "higher"),
    ("opt.structural_edit_ms", "ms", "lower"),
    ("sta.incr.structural_update_ms", "ms", "lower"),
    ("sta.incr.full_fallbacks", "count", "lower"),
    ("signoff.scenario_ms_p50", "ms", "lower"),
    ("signoff.scenario_ms_max", "ms", "lower"),
    ("signoff.pool_speedup", "ratio", "higher"),
    ("signoff.rc_misses_per_pass", "count", "lower"),
    ("signoff.rss_mb_per_scenario", "MB", "lower"),
    ("signoff.snapshot_ms", "ms", "lower"),
    ("farm.vs_pool", "ratio", "lower"),
    ("farm.attempts", "count", "lower"),
    ("farm.retries", "count", "lower"),
    ("farm.crashes", "count", "lower"),
    ("farm.quarantined", "count", "lower"),
] + [("serve.rtt_us." + k, "us", "lower") for k, _ in SERVE_KINDS] + [
    ("serve.inproc_us." + k, "us", "lower") for k, _ in SERVE_KINDS] + [
    ("serve.transport_us", "us", "lower"),
    ("serve.eco_inproc_ms", "ms", "lower"),
    ("serve.eco_transport_ms", "ms", "lower"),
    ("serve.reply_lines.eco", "count", "lower"),
    ("serve.replica_reuse_frac", "frac", "higher"),
    ("serve.requests", "count", "higher"),
    ("serve.epochs_published", "count", "higher"),
    ("serve.add_design_ms", "ms", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
    ("failed_frac", "frac", "lower"),
] + [(layer + ".self_ms", "ms", "lower") for layer in LAYERS]

# Per-layer counts that depend on the seed alone (not on how much work fit
# in the run), per workload: same seed, same values.
SEED_DETERMINED = {
    "cold_ladder": ["delaycalc.rc_misses_per_run", "liberty.char_builds"],
    "eco_stream": ["sta.incr.forward_recomputed",
                   "sta.incr.required_recomputed",
                   "sta.incr.endpoints_reevaluated",
                   "sta.incr.endpoint_useful_frac",
                   "sta.incr.full_fallbacks"],
    "mcmm_corners": ["signoff.rc_misses_per_pass", "farm.quarantined"],
    "serve_mix": ["serve.reply_lines.eco", "liberty.char_builds"],
}


def accounting(raw):
    """(attempted, failed) over every phase of a run."""
    phases = raw.get("phases", {}).values()
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if raw.get("failures") and failed == 0:
        failed = len(raw["failures"])
    return attempted, failed
