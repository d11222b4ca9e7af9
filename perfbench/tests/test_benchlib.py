"""Tests of the benchmark's own logic (perfbench/benchlib.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import benchlib  # noqa: E402
import compare  # noqa: E402


def flow(saf=100, fe=99.0, area=1e6, wire=2e6, tcp=5000.0, extra=""):
    return json.dumps({"fault_efficiency_pct": fe, "saf_patterns": saf, "tat_cycles": saf * 10,
                       "chip_area_um2": area, "wire_length_um": wire, "sta_valid": True,
                       "t_cp_ps": tcp, "note": extra})


def grid_raw(workload="paper_sweep", reps=2, saf0=120, saf1=100):
    cells = [{"label": "p/tp=0", "ms": 10.0, "flow_json": flow(saf=saf0)},
             {"label": "p/tp=1", "ms": 30.0, "flow_json": flow(saf=saf1)}]
    check = [dict(c, replay_claimed=5, replay_confirmed=5, stages={}, generate_ms=1.0,
                  designdb_rebuilds=1, designdb_view_hits=2) for c in cells]
    return {
        "workload": workload,
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_kb": 2048.0,
        "reps": [{"wall_ms": 40.0 + r, "cells": [dict(c) for c in cells]} for r in range(reps)],
        "check": {"wall_ms": 50.0, "threads": 4, "companion": False, "cells": check},
    }


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(benchlib.percentile([5], 90), 5)
        self.assertAlmostEqual(benchlib.percentile(list(range(1, 101)), 90), 90.1)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(benchlib.highest_percentile(19))
        self.assertEqual(benchlib.highest_percentile(20), 50.0)
        self.assertEqual(benchlib.highest_percentile(99), 50.0)
        self.assertEqual(benchlib.highest_percentile(100), 90.0)
        self.assertEqual(benchlib.highest_percentile(108), 90.0)
        self.assertEqual(benchlib.highest_percentile(200), 95.0)
        self.assertEqual(benchlib.highest_percentile(1000), 99.0)
        self.assertEqual(benchlib.highest_percentile(10000), 99.9)

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(108, 90), 10)
        self.assertEqual(benchlib.samples_beyond(100, 99), 1)


class Digest(unittest.TestCase):
    def test_stable_and_sensitive(self):
        a = flow()
        self.assertEqual(benchlib.digest(a), benchlib.digest(str(a)))
        self.assertNotEqual(benchlib.digest(a), benchlib.digest(flow(saf=101)))
        self.assertEqual(len(benchlib.digest(a)), 16)

    def test_digest_change_across_repetitions_fails_the_cell(self):
        raw = grid_raw(reps=3)
        raw["reps"][2]["cells"][1]["flow_json"] = flow(saf=100, extra="drift")
        attempted, failed = benchlib.failures(raw)
        self.assertEqual(attempted, 3 * 2 + 2)
        self.assertEqual(list(failed), ["rep 2 p/tp=1"])

    def test_in_process_digest_must_match_measured_run(self):
        raw = grid_raw()
        raw["check"]["cells"][0]["flow_json"] = flow(saf=120, extra="traced")
        _, failed = benchlib.failures(raw)
        self.assertEqual(list(failed), ["check p/tp=0"])

    def test_companion_cells_are_not_compared_with_measured_runs(self):
        raw = grid_raw(workload="layout_timing")
        raw["check"]["companion"] = True
        raw["check"]["cells"][0]["flow_json"] = flow(saf=7)
        self.assertEqual(benchlib.failures(raw)[1], {})


class Failures(unittest.TestCase):
    def test_clean_run(self):
        attempted, failed = benchlib.failures(grid_raw())
        self.assertEqual((attempted, failed), (6, {}))

    def test_unconfirmed_replay_fails(self):
        raw = grid_raw()
        raw["check"]["cells"][1]["replay_confirmed"] = 4
        self.assertIn("check p/tp=1", benchlib.failures(raw)[1])

    def test_paper_shape(self):
        _, failed = benchlib.failures(grid_raw(saf0=100, saf1=100))
        self.assertEqual(list(failed), ["rep 0 p/tp=1"])
        # The shape is the paper experiment's; other grids do not check it.
        self.assertEqual(benchlib.failures(grid_raw("layout_timing", saf0=1, saf1=9))[1], {})

    def test_server_job_state_and_rpc_errors(self):
        job = {"label": "p/tp=0", "state": "done", "latency_ms": 10.0, "queue_wait_ms": 1.0,
               "submit_ms": 0.5, "flow_json": flow()}
        raw = {"workload": "server_latency", "setup_s": [1.0], "peak_rss_kb": 1024.0,
               "reps": [{"wall_ms": 20.0, "jobs": [job, dict(job, state="failed", error="x")]},
                        {"wall_ms": 20.0, "jobs": [{"label": "p/tp=0", "state": "rpc_error",
                                                    "error": "eof"}]}]}
        attempted, failed = benchlib.failures(raw)
        self.assertEqual(attempted, 3)
        self.assertEqual(sorted(failed), ["rep 0 p/tp=0", "rep 1 p/tp=0"])
        metrics, details = benchlib.end_to_end(raw, attempted, len(failed))
        self.assertAlmostEqual(metrics["ok_ratio"], 1 / 3)
        self.assertEqual(details["latency_samples"], 1)


class EndToEnd(unittest.TestCase):
    def test_metrics(self):
        raw = grid_raw()
        m, details = benchlib.end_to_end(raw, 6, 0)
        self.assertEqual(set(m), set(benchlib.E2E_UNITS))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["sweep_wall_s"], 0.0405)
        self.assertEqual(m["cell_cpu_s"], 0.04)
        self.assertEqual(m["saf_patterns"], 220)
        self.assertEqual(m["chip_area_mm2"], 2.0)
        self.assertEqual(m["fmax_mhz"], 200.0)
        self.assertEqual(m["ok_ratio"], 1.0)
        self.assertEqual(details["latency_samples"], 4)

    def test_companion_supplies_quality(self):
        raw = grid_raw("layout_timing")
        raw["check"]["companion"] = True
        for c in raw["check"]["cells"]:
            c["flow_json"] = flow(saf=3)
        m, details = benchlib.end_to_end(raw, 6, 0)
        self.assertEqual(m["saf_patterns"], 6)
        self.assertEqual(details["quality_source"], "companion")


class PerLayer(unittest.TestCase):
    def traced_grid(self):
        raw = grid_raw(reps=2)
        raw["reps"][0]["warmup"] = True
        atpg = {"random_ms": 1.0, "podem_ms": 8.0, "compaction_ms": 1.0, "podem_calls": 10,
                "podem_backtracks": 40, "tests": 90, "redundant": 2, "aborted": 3,
                "patterns": 6, "patterns_before_compaction": 12, "faults_graded": 100,
                "node_evals": 1000, "cone_skips": 5}
        for c in raw["check"]["cells"]:
            c.update(ms=12.0, stages={"tpi_scan": 2.0, "reorder_atpg": 9.0}, atpg=atpg,
                     podem_probe={"test_ms": 1.0, "test_n": 4, "redundant_ms": 2.0,
                                  "redundant_n": 1, "aborted_ms": 0.0, "aborted_n": 0},
                     sim_probe={"grade_ns": 500.0, "faults_graded": 50})
        return raw

    def test_grid(self):
        m = benchlib.per_layer(self.traced_grid())
        self.assertEqual(set(m), set(benchlib.PER_LAYER_UNITS))
        self.assertEqual(m["flow.tpi_scan_ms"], 4.0)
        self.assertEqual(m["flow.eco_ms"], 0.0)
        self.assertEqual(m["circuits.generate_ms"], 2.0)
        self.assertEqual(m["atpg.podem.calls"], 20)
        self.assertAlmostEqual(m["atpg.podem.useful_ratio"], 0.5)
        self.assertEqual(m["atpg.compaction.keep_ratio"], 0.5)
        self.assertEqual(m["atpg.sim.cone_skip_ratio"], 0.05)
        self.assertEqual((m["podem.test_ms"], m["podem.test_n"]), (0.25, 8))
        self.assertEqual((m["podem.aborted_ms"], m["podem.aborted_n"]), (0.0, 0))
        self.assertEqual(m["sim.grade_ns_per_fault"], 10.0)
        # Sweep waiting comes from the untraced, non-warm-up repetition.
        self.assertEqual(m["sweep.tail_cell_ms"], 30.0)
        self.assertAlmostEqual(m["sweep.idle_core_s"], (4 * 41.0 - 40.0) / 1000.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 100.0 * (24.0 - 40.0) / 40.0)
        self.assertEqual(m["server.jobs"], 0.0)

    def test_layers_a_workload_skips_read_zero(self):
        raw = self.traced_grid()
        for c in raw["check"]["cells"]:
            del c["atpg"], c["podem_probe"], c["sim_probe"]
        m = benchlib.per_layer(raw)
        for name in ("atpg.podem_ms", "atpg.podem.useful_ratio", "atpg.compaction.keep_ratio",
                     "podem.test_ms", "sim.grade_ns_per_fault"):
            self.assertEqual(m[name], 0.0, name)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "atpg.podem.calls", "flow.tpi_scan_ms", "a-b", "9x"):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "µs", "x" * 65, None):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_every_reported_name_is_valid(self):
        for name in list(benchlib.E2E_UNITS) + list(benchlib.PER_LAYER_UNITS):
            self.assertTrue(benchlib.valid_metric_name(name), name)

    def test_result_line_refuses_bad_names(self):
        with self.assertRaises(ValueError):
            benchlib.result_line(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})

    def test_names_match_benchmark_json(self):
        spec = json.loads((pathlib.Path(__file__).resolve().parents[2] /
                           "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, benchlib.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(benchlib.WORKLOADS))


class Context(unittest.TestCase):
    PROGRAM = {"simd_backend": "avx2", "build_type": "Release", "compiler": "g++ 12.2.0"}

    def stamp(self, **over):
        args = dict(program_context=self.PROGRAM, workload="paper_sweep", seed=7, trace=0,
                    cpu_count=4, commit="abc123", source_digest="d1")
        args.update(over)
        return benchlib.host_context(**args)

    def test_stamp_carries_every_key(self):
        ctx = self.stamp()
        self.assertEqual(ctx, {"cpu_count": 4, "simd_backend": "avx2", "build_type": "Release",
                               "compiler": "g++ 12.2.0", "commit": "abc123",
                               "source_digest": "d1", "workload": "paper_sweep",
                               "workload_seed": 7, "trace": 0})

    def test_commit_and_seed_may_differ(self):
        self.assertEqual(benchlib.context_mismatch(self.stamp(),
                                                   self.stamp(commit="def", seed=8,
                                                              source_digest="d2")), [])

    def test_host_differences_are_mismatches(self):
        other = self.stamp(program_context=dict(self.PROGRAM, simd_backend="scalar"), cpu_count=8)
        self.assertEqual(benchlib.context_mismatch(self.stamp(), other),
                         ["cpu_count", "simd_backend"])

    def test_compare_refuses_mismatched_context(self):
        def record(ctx, value):
            return {"context": ctx, "result": {"metrics": {"sweep_wall_s": {"value": value,
                                                                             "unit": "s"}}}}
        base = [record(self.stamp(seed=s), 10.0) for s in (1, 2)]
        same = [record(self.stamp(seed=s, commit="new"), 9.0) for s in (1, 2)]
        self.assertEqual(compare.refusals(base, same), [])
        odd = [record(self.stamp(seed=1, cpu_count=2), 9.0), same[1]]
        self.assertEqual(len(compare.refusals(base, odd)), 1)
        self.assertEqual(len(compare.refusals(base, same[:1])), 1)  # unpaired seeds


if __name__ == "__main__":
    unittest.main()
