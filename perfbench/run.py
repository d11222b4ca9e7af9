#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 15 --trace 0

Builds perfbench_measure and tpi_flow_server from this checkout's sources
(CMake, Release, under .bench_build/perfbench), runs it, checks the
outputs and prints one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The full record (host context, failures, sample counts
and, traced, the spans) goes to .bench_build/perfbench/results/.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import benchlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
MEASURE_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build perfbench_measure and the daemon (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no tpi-layout sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j4", "--target", "perfbench_measure",
              "tpi_flow_server"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")


def source_digest():
    """Digest of the library sources, the commit stand-in outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_measure(args, out_dir):
    """Runs perfbench_measure in its own process group; returns its document."""
    cmd = [str(BUILD / "perfbench_measure"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "server_latency":
        socket = BUILD / "run" / f"srv-{os.getpid()}.sock"
        socket.parent.mkdir(exist_ok=True)
        cmd += ["--server", str(BUILD / "tpi" / "server" / "tpi_flow_server"), "--socket",
                os.path.relpath(socket)]
    stderr_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"perfbench_measure timed out after {MEASURE_TIMEOUT_S} s (log: {stderr_path})")
    if proc.returncode != 0:
        fail(f"perfbench_measure exited with {proc.returncode} (log: {stderr_path})")
    return json.loads(stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    out_dir = BUILD / "results"
    out_dir.mkdir(exist_ok=True)
    t0 = time.monotonic()
    raw = run_measure(args, out_dir)
    elapsed = time.monotonic() - t0

    context = benchlib.host_context(raw["context"], args.workload, args.seed, args.trace,
                                    os.cpu_count(), commit(), source_digest())
    attempted, failed = benchlib.failures(raw)
    record = {"context": context, "elapsed_s": elapsed, "attempted": attempted,
              "failures": failed}
    if args.trace:
        metrics = benchlib.per_layer(raw)
        units = benchlib.PER_LAYER_UNITS
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.json"
        spans_path.write_text(json.dumps(raw.get("spans", [])))
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, record["details"] = benchlib.end_to_end(raw, attempted, len(failed))
        units = benchlib.E2E_UNITS
    result = benchlib.result_line(not failed, attempted, len(failed), metrics, units)
    record["result"] = result
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for where, reasons in failed.items():
        print(f"perfbench: FAILED {where}: {'; '.join(reasons)}", file=sys.stderr)
    print(f"perfbench: record in {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
