"""Metric logic of the perfbench benchmark, kept free of I/O so it can be tested.

perfbench_measure (measure.cpp) prints raw measurements: per-repetition
wall clocks, per-cell or per-job times, each flow's deterministic
``flow_result_to_json`` text, ATPG/probe counters and, when traced, spans.
This module turns one such document into the benchmark's metrics,
counts failed cells/jobs, and stamps and compares host context.
"""

import hashlib
import json
import math
import re
import statistics

WORKLOADS = ("paper_sweep", "server_latency", "layout_timing")
STAGES = ("tpi_scan", "floorplan_place", "reorder_atpg", "eco", "extract", "sta")

# A metric name: starts with a letter or digit, then [A-Za-z0-9_.-], at most
# 64 characters in all.
_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Host-context keys that must agree before two runs are put side by side.
# The commit and source digest are what a comparison varies, so they are
# reported but not compared.
COMPARABLE_CONTEXT = ("cpu_count", "simd_backend", "build_type", "compiler", "workload",
                      "trace")

# Percentiles the latency report may name; the highest one with at least
# MIN_BEYOND samples beyond it is the one a run resolves.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def valid_metric_name(name):
    return isinstance(name, str) and _METRIC_NAME.fullmatch(name) is not None


def digest(flow_json):
    """Digest of one flow's deterministic result text."""
    return hashlib.sha256(flow_json.encode("utf-8")).hexdigest()[:16]


def percentile(values, p):
    """p-th percentile (0..100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, p):
    """Samples lying beyond the p-th percentile of n samples."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def highest_percentile(n):
    """Highest percentile in PERCENTILES with >= MIN_BEYOND samples beyond it
    (None when even the median has fewer)."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def host_context(program_context, workload, seed, trace, cpu_count, commit, source_digest):
    """Context stamped on every result: enough to refuse unfair comparisons."""
    return {
        "cpu_count": cpu_count,
        "simd_backend": program_context["simd_backend"],
        "build_type": program_context["build_type"],
        "compiler": program_context["compiler"],
        "commit": commit,
        "source_digest": source_digest,
        "workload": workload,
        "workload_seed": seed,
        "trace": trace,
    }


def context_mismatch(a, b):
    """Comparable context keys on which two results differ."""
    return [k for k in COMPARABLE_CONTEXT if a.get(k) != b.get(k)]


def _median(values):
    return statistics.median(values) if values else 0.0


def _flow(cell):
    return json.loads(cell["flow_json"])


def _quality(flows):
    """Test-quality and layout outputs of one grid or server cycle."""
    if not flows:
        return dict.fromkeys(("fe_pct", "saf_patterns", "tat_cycles", "chip_area_mm2",
                              "wire_length_m", "fmax_mhz"), 0.0)
    fmax = [1e6 / f["t_cp_ps"] for f in flows if f.get("sta_valid") and f["t_cp_ps"] > 0]
    # fsum: exactly rounded, so the figures do not depend on cell order.
    return {
        "fe_pct": math.fsum(f["fault_efficiency_pct"] for f in flows) / len(flows),
        "saf_patterns": math.fsum(f["saf_patterns"] for f in flows),
        "tat_cycles": math.fsum(f["tat_cycles"] for f in flows),
        "chip_area_mm2": math.fsum(f["chip_area_um2"] for f in flows) / 1e6,
        "wire_length_m": math.fsum(f["wire_length_um"] for f in flows) / 1e6,
        "fmax_mhz": math.fsum(fmax) / len(fmax) if fmax else 0.0,
    }


E2E_UNITS = {
    "setup_s": "s", "sweep_wall_s": "s", "cell_cpu_s": "s", "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio", "fe_pct": "%",
    "saf_patterns": "count", "tat_cycles": "cycles", "chip_area_mm2": "mm2",
    "wire_length_m": "m", "fmax_mhz": "MHz",
}


def _rep_items(raw):
    """(cells or jobs, wall_ms) per timed repetition: neither the warm-up
    nor the traced one."""
    key = "jobs" if raw["workload"] == "server_latency" else "cells"
    return [(rep[key], rep["wall_ms"]) for rep in raw["reps"]
            if not rep.get("warmup") and not rep.get("traced")]


def _run_ms(job):
    """Server-side time of one job: latency minus queue wait and submit."""
    return job["latency_ms"] - job["queue_wait_ms"] - job["submit_ms"]


def failures(raw):
    """(attempted, {cell or job: [reasons]}) for one raw measurement document.

    A cell or job fails when its flow digest differs between repetitions or
    between the in-process (traced) and the measured run, when replay does
    not confirm every claimed detection, when a server job ends in a state
    other than done or an RPC fails, or - on paper_sweep - when a profile's
    SAF pattern count at 1% TP is not below its count at 0% TP (section 4.2;
    charged to the profile's 1% cell of the first repetition).
    """
    failed = {}
    attempted = 0
    server = raw["workload"] == "server_latency"
    key = "jobs" if server else "cells"
    reference = {}  # label -> digest of its first measured run
    for r, rep in enumerate(raw["reps"]):
        for item in rep[key]:
            attempted += 1
            label = item["label"]
            where = f"rep {r} {label}"
            if server and item.get("state") != "done":
                failed.setdefault(where, []).append(
                    f"state {item.get('state')} {item.get('error', '')}".rstrip())
                continue
            d = digest(item["flow_json"])
            if reference.setdefault(label, d) != d:
                failed.setdefault(where, []).append(f"digest {d} != {reference[label]}")
    check = raw.get("check")
    for cell in check["cells"] if check else []:
        attempted += 1
        label = cell["label"]
        where = f"check {label}"
        if not check["companion"]:
            d = digest(cell["flow_json"])
            if reference.get(label, d) != d:
                failed.setdefault(where, []).append(
                    f"in-process digest {d} != measured {reference[label]}")
        if cell.get("replay_claimed", 0) != cell.get("replay_confirmed", 0):
            failed.setdefault(where, []).append(
                f"replay confirmed {cell['replay_confirmed']} of "
                f"{cell['replay_claimed']} claimed detections")
    if raw["workload"] == "paper_sweep":
        saf = {c["label"]: _flow(c)["saf_patterns"] for c in raw["reps"][0]["cells"]}
        for label, n0 in saf.items():
            profile = label[: -len("/tp=0")]
            n1 = saf.get(profile + "/tp=1")
            if label.endswith("/tp=0") and n1 is not None and not n1 < n0:
                failed.setdefault(f"rep 0 {profile}/tp=1", []).append(
                    f"SAF patterns at 1% TP ({n1}) not below 0% TP ({n0})")
    return attempted, failed


def end_to_end(raw, attempted, n_failed):
    """The end-to-end metrics of an untraced run, plus sample details."""
    server = raw["workload"] == "server_latency"
    reps = _rep_items(raw)
    # Failed server jobs count in ok_ratio, not in the latency samples.
    latencies = [item["latency_ms"] if server else item["ms"]
                 for items, _ in reps for item in items
                 if not server or item.get("state") == "done"]
    walls = [wall / 1000.0 for _, wall in reps]
    if server:
        work = [sum(_run_ms(j) for j in items if j.get("state") == "done") / 1000.0
                for items, _ in reps]
        quality_cells = [j for j in reps[0][0] if j.get("state") == "done"]
    else:
        work = [sum(c["ms"] for c in items) / 1000.0 for items, _ in reps]
        check = raw.get("check") or {}
        quality_cells = check["cells"] if check.get("companion") else reps[0][0]
    m = {
        "setup_s": _median(raw["setup_s"]),
        "sweep_wall_s": _median(walls),
        "cell_cpu_s": _median(work),
        "job_latency_p50_ms": percentile(latencies, 50),
        "job_latency_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_ratio": 1.0 - n_failed / attempted,
    }
    m.update(_quality([_flow(c) for c in quality_cells]))
    details = {
        "latency_samples": len(latencies),
        "latency_resolved_percentile": highest_percentile(len(latencies)),
        "repetitions": len(reps),
        "rep_wall_s": walls,
        "rep_work_s": work,
        "setup_samples": len(raw["setup_s"]),
        "setup_quartiles_s": statistics.quantiles(raw["setup_s"], n=4)
        if len(raw["setup_s"]) > 1 else raw["setup_s"],
        "quality_source": "companion" if not server and (raw.get("check") or {}).get(
            "companion") else "measured",
    }
    return m, details


PER_LAYER_UNITS = {
    **{f"flow.{s}_ms": "ms" for s in STAGES},
    "flow.cells": "count",
    "circuits.generate_ms": "ms",
    "sweep.tail_cell_ms": "ms",
    "sweep.idle_core_s": "s",
    "atpg.random_ms": "ms",
    "atpg.podem_ms": "ms",
    "atpg.compaction_ms": "ms",
    "atpg.podem.calls": "count",
    "atpg.podem.tests": "count",
    "atpg.podem.redundant": "count",
    "atpg.podem.aborted": "count",
    "atpg.podem.backtracks": "count",
    "atpg.podem.useful_ratio": "ratio",
    "atpg.compaction.keep_ratio": "ratio",
    "podem.test_ms": "ms",
    "podem.test_n": "count",
    "podem.redundant_ms": "ms",
    "podem.redundant_n": "count",
    "podem.aborted_ms": "ms",
    "podem.aborted_n": "count",
    "atpg.sim.faults_graded": "count",
    "atpg.sim.node_evals": "count",
    "atpg.sim.cone_skip_ratio": "ratio",
    "sim.grade_ns_per_fault": "ns",
    "sim.probe_faults": "count",
    "designdb.rebuilds": "count",
    "designdb.view_hits": "count",
    "server.submit_rpc_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.run_ms": "ms",
    "server.cache.hit_ratio": "ratio",
    "server.jobs": "count",
    "trace.overhead_pct": "%",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """Per-layer metrics of a traced run. Layers a workload does not
    exercise read 0 with a count base of 0."""
    cells = raw["check"]["cells"]
    server = raw["workload"] == "server_latency"
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for s in STAGES:
        m[f"flow.{s}_ms"] = sum(c["stages"].get(s, 0.0) for c in cells)
    m["flow.cells"] = len(cells)
    m["circuits.generate_ms"] = sum(c["generate_ms"] for c in cells)
    m["designdb.rebuilds"] = sum(c["designdb_rebuilds"] for c in cells)
    m["designdb.view_hits"] = sum(c["designdb_view_hits"] for c in cells)

    atpg = [c["atpg"] for c in cells if "atpg" in c]

    def total(key):
        return sum(a[key] for a in atpg)

    for key in ("random_ms", "podem_ms", "compaction_ms"):
        m[f"atpg.{key}"] = total(key)
    calls = m["atpg.podem.calls"] = total("podem_calls")
    m["atpg.podem.tests"] = total("tests")
    m["atpg.podem.redundant"] = total("redundant")
    m["atpg.podem.aborted"] = total("aborted")
    m["atpg.podem.backtracks"] = total("podem_backtracks")
    # Share of PODEM calls that returned a test: every fault left redundant
    # or aborted cost at least one call that did not.
    m["atpg.podem.useful_ratio"] = (
        1.0 - _ratio(m["atpg.podem.redundant"] + m["atpg.podem.aborted"], calls) if calls else 0.0)
    m["atpg.compaction.keep_ratio"] = _ratio(total("patterns"), total("patterns_before_compaction"))
    m["atpg.sim.faults_graded"] = total("faults_graded")
    m["atpg.sim.node_evals"] = total("node_evals")
    m["atpg.sim.cone_skip_ratio"] = _ratio(total("cone_skips"), total("faults_graded"))

    probes = [c["podem_probe"] for c in cells if "podem_probe" in c]
    for outcome in ("test", "redundant", "aborted"):
        n = sum(p[f"{outcome}_n"] for p in probes)
        m[f"podem.{outcome}_n"] = n
        m[f"podem.{outcome}_ms"] = _ratio(sum(p[f"{outcome}_ms"] for p in probes), n)
    sims = [c["sim_probe"] for c in cells if "sim_probe" in c]
    graded = sum(s["faults_graded"] for s in sims)
    m["sim.probe_faults"] = graded
    m["sim.grade_ns_per_fault"] = _ratio(sum(s["grade_ns"] for s in sims), graded)

    untraced = [rep for rep in raw["reps"] if not rep.get("warmup") and not rep.get("traced")][0]
    if server:
        traced = [rep for rep in raw["reps"] if rep.get("traced")][0]
        jobs = traced["jobs"]
        m["server.jobs"] = len(jobs)
        m["server.submit_rpc_ms"] = _median([j["submit_ms"] for j in jobs])
        m["server.queue_wait_ms"] = _median([j["queue_wait_ms"] for j in jobs])
        m["server.run_ms"] = _median([_run_ms(j) for j in jobs])
        stats = raw.get("server_stats", {})
        hits = stats.get("server.cache.hits", 0)
        m["server.cache.hit_ratio"] = _ratio(hits, hits + stats.get("server.cache.misses", 0))
        m["sweep.tail_cell_ms"] = max(j["latency_ms"] for j in jobs)
        m["sweep.idle_core_s"] = (raw["server_workers"] * traced["wall_ms"]
                                  - sum(_run_ms(j) for j in jobs)) / 1000.0
        base = sum(j["latency_ms"] for j in untraced["jobs"])
        m["trace.overhead_pct"] = 100.0 * (sum(j["latency_ms"] for j in jobs) - base) / base
    else:
        # Sweep waiting from the untraced SweepRunner repetition: the traced
        # pass interleaves probes and replay, which would distort its schedule.
        times = [c["ms"] for c in untraced["cells"]]
        m["sweep.tail_cell_ms"] = max(times)
        m["sweep.idle_core_s"] = (raw["check"]["threads"] * untraced["wall_ms"]
                                  - sum(times)) / 1000.0
        base = sum(times)
        m["trace.overhead_pct"] = 100.0 * (sum(c["ms"] for c in cells) - base) / base
    return m


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's result object, metric values rounded to nothing."""
    for name in metrics:
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name: {name!r}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
