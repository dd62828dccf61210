"""Benchmark of superfock: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload implement --seed 1 --seconds 12 --trace 0

The inputs are generated from ``--seed`` into a temporary work directory.
Jobs then run in a closed loop with one client in fresh worker
interpreters, one after another, so that each worker's set-up (``import
superfock`` and the warm-up jobs) is measured from a cold start.  With
``--trace 0`` three workers share ``--seconds`` of job time and the
end-to-end metrics are printed; with ``--trace 1`` one worker runs each job
twice, plain and under the span recorder, and the per-layer metrics are
printed.  Times are scaled to a reference machine speed measured by a
calibration loop before every job, once the OpenBLAS threads are at rest;
the raw figures are printed in the notes line.  Every job's output is
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report and the run's configuration, machine and
library details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import footprint
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_WORKERS = 3          # fresh interpreters per untraced run; setup_s is their median
RUN_DEADLINE_S = 170.0     # a worker still running then is killed and the run fails
TAIL_BEYOND = 10           # samples the tail percentile must leave above it
# Times are reported at a reference machine speed: each is scaled by
# CALIBRATION_REF_S over the median time of the worker's calibration loop
# around it (CALIBRATION_WINDOW jobs on each side).  The loop runs after the
# BLAS threads are at rest, so it measures the machine, not the program.
# On a shared 2-CPU machine the machine's speed moved by up to a third
# between runs minutes apart: over five orbit runs the raw job_p50_ms
# ranged from 90 to 127 ms (IQR over median 32 %), the scaled one from 111
# to 120 ms (5 %).  The reference is the loop's median time over ten runs
# of each workload.
CALIBRATION_REF_S = 0.0107
CALIBRATION_WINDOW = 2
ZERO_RESIDUAL = 1e-20      # residuals of exactly 0 count as this in the margin

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "accuracy_margin_dec": "decades",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in [tracer.ROOT, *tracer.SPAN_NAMES]:
        if name != tracer.ROOT:
            units[f"{name}.calls"] = "1/job"
        units[f"{name}.self_share"] = "ratio"
    units[tracer.TABLE_ENTRIES] = "count"
    units["fock.dense_bytes"] = "B/job"
    units["supermodule.regular_terms"] = "1/job"
    units["cli.bytes_out"] = "B/job"
    units["trace_overhead_ms"] = "ms"
    return units


# -- machine -------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def machine_details() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_gib": round(footprint.machine_memory_bytes() / 2**30, 2),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


# -- statistics ----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def job_margins(records: list[dict]) -> list[float]:
    """Each job's worst check, as log10(tolerance / residual)."""
    return [
        min(math.log10(tol / max(res, ZERO_RESIDUAL)) for _, res, tol in rec["checks"])
        for rec in records
    ]


def at_reference_speed(records: list[dict]) -> list[float]:
    """Job times scaled to the reference speed by nearby calibrations."""
    cals = [rec["cal"] for rec in records]
    w = CALIBRATION_WINDOW
    return [
        rec["t"] * CALIBRATION_REF_S / statistics.median(cals[max(0, k - w): k + w + 1])
        for k, rec in enumerate(records)
    ]


def setup_at_reference_speed(result: dict) -> float:
    return result["setup_s"] * CALIBRATION_REF_S / statistics.median(
        rec["cal"] for rec in result["warmup"]
    )


def accuracy_margin(records: list[dict]) -> float:
    """5th percentile over jobs of the job's worst margin, interpolated
    between the two nearest jobs.  The minimum is set by the single
    worst-conditioned input of the seed: over ten seeds of ``implement`` it
    ranged from 2.6 to 5.0 decades (spread 28 % of its median), while this
    percentile spread by 7 %.  The minimum is printed in the notes line."""
    margins = job_margins(records)
    if len(margins) == 1:
        return margins[0]
    return statistics.quantiles(margins, n=20, method="inclusive")[0]


# -- workers -------------------------------------------------------------------


def run_worker(cfg: dict, workdir: str, index: int, deadline: float) -> dict:
    cfg_path = os.path.join(workdir, f"worker{index}.json")
    result_path = os.path.join(workdir, f"result{index}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), cfg_path, result_path],
        stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    jobs, times = [], []
    for res in results:
        jobs += res["jobs"]
        times += at_reference_speed(res["jobs"])
    ok = [(rec, t) for rec, t in zip(jobs, times) if rec["ok"]]
    latencies = [t for _, t in ok]
    tail_s, tail_pct = tail(latencies) if latencies else (math.nan, math.nan)
    metrics = {
        "setup_s": statistics.median(setup_at_reference_speed(res) for res in results),
        "jobs_per_s": len(ok) / sum(times),
        "job_p50_ms": 1e3 * statistics.median(latencies) if latencies else math.nan,
        "job_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        "success_rate": len(ok) / len(jobs),
        "accuracy_margin_dec": accuracy_margin([rec for rec, _ in ok]) if ok else math.nan,
    }
    raw = [rec["t"] for rec, _ in ok]
    notes = {
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "error_rate": 1.0 - metrics["success_rate"],
        "accuracy_margin_min_dec": min(job_margins([rec for rec, _ in ok])) if ok else math.nan,
        "machine_speed": CALIBRATION_REF_S / statistics.median(rec["cal"] for rec in jobs),
        "idle_wait_s": sum(rec["idle_wait"] for rec in jobs),
        "raw_setup_s": statistics.median(res["setup_s"] for res in results),
        "raw_jobs_per_s": len(ok) / sum(rec["t"] for rec in jobs),
        "raw_job_p50_ms": 1e3 * statistics.median(raw) if raw else math.nan,
        "raw_job_tail_ms": 1e3 * tail(raw)[0] if raw else math.nan,
        "setup_s_each": [res["setup_s"] for res in results],
        "import_s_each": [res["import_s"] for res in results],
        "jobs_by_kind": dict(Counter(rec["kind"] for rec in jobs)),
    }
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, dict]:
    trace = result["trace"]
    n = len(result["traced_jobs"])
    wall = trace["wall_s"]
    metrics = {}
    for name in [tracer.ROOT, *tracer.SPAN_NAMES]:
        if name != tracer.ROOT:
            metrics[f"{name}.calls"] = trace["calls"][name] / n
        metrics[f"{name}.self_share"] = trace["self_s"][name] / wall
    counts = trace["counts"]
    metrics[tracer.TABLE_ENTRIES] = counts[tracer.TABLE_ENTRIES]
    for name in ("fock.dense_bytes", "supermodule.regular_terms", "cli.bytes_out"):
        metrics[name] = counts[name] / n
    plain = statistics.median(at_reference_speed(result["jobs"]))
    traced = statistics.median(at_reference_speed(result["traced_jobs"]))
    metrics["trace_overhead_ms"] = 1e3 * (traced - plain)
    notes = {
        "traced_jobs": n,
        "job_p50_ms_plain": 1e3 * plain,
        "job_p50_ms_traced": 1e3 * traced,
        "self_s": trace["self_s"],
    }
    return metrics, notes


# -- main ----------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="job time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--modes", type=int, help="override the workload's d")
    p.add_argument("--generators", type=int, help="override the module workload's G")
    p.add_argument("--spans", help="with --trace 1, write the recorded spans to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "superfock" / "__init__.py").is_file():
        print(f"error: no superfock sources under {SRC}", file=sys.stderr)
        return 2
    modes, generators = workloads.DEFAULT_SIZES[args.workload]
    modes = modes if args.modes is None else args.modes
    generators = generators if args.generators is None else args.generators
    try:
        need = footprint.check(args.workload, modes, generators)
    except footprint.FootprintError as exc:
        print(f"error: refused: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as workdir:
        workload = workloads.WORKLOADS[args.workload](workdir, modes, generators)
        workload.generate(args.seed)
        base = {
            "src": str(SRC), "workdir": workdir, "workload": args.workload,
            "modes": modes, "generators": generators, "trace": bool(args.trace),
        }
        results = []
        started = time.perf_counter()
        if args.trace:
            spans = os.path.abspath(args.spans) if args.spans else None
            cfg = {**base, "start": 0, "budget_s": args.seconds / 2, "finish_cycle": True,
                   "spans": spans}
            results.append(run_worker(cfg, workdir, 0, deadline))
        else:
            for k in range(SETUP_WORKERS):
                start = sum(len(res["jobs"]) for res in results)
                cfg = {**base, "start": start, "budget_s": args.seconds / SETUP_WORKERS,
                       "finish_cycle": k == SETUP_WORKERS - 1}
                results.append(run_worker(cfg, workdir, k, deadline))
        elapsed = time.perf_counter() - started

    if args.trace:
        metrics, notes = per_layer(results[0])
        units = per_layer_units()
        jobs = results[0]["jobs"] + results[0]["traced_jobs"]
    else:
        metrics, notes = end_to_end(results)
        units = END_TO_END_UNITS
        jobs = [rec for res in results for rec in res["jobs"]]
    warmups = [rec for res in results for rec in res["warmup"]]
    failed = [rec for rec in jobs if not rec["ok"]]
    config = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "modes": modes, "generators": generators,
        "workers": len(results), "client": "closed loop, 1 client",
        "footprint_estimate_mib": round(need / 2**20, 1), "elapsed_s": round(elapsed, 2),
    }
    print(f"workload {args.workload}: d={modes} G={generators} seed={args.seed}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace:
        for name, value in notes["self_s"].items():
            print(f"  {name}.self_s = {value:.6g} s")
    else:
        print(f"  error_rate = {notes['error_rate']:.6g} ratio")
        print(f"  job_tail_ms is p{notes['tail_percentile']:.4g} of {notes['samples']} samples")
    for rec in (failed + [rec for rec in warmups if not rec["ok"]])[:5]:
        print(f"  FAILED job {rec['j']} ({rec['kind']}): {rec.get('error', '')}")
    print("config " + json.dumps(config, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    print("machine " + json.dumps(machine_details(), sort_keys=True))
    correct = bool(jobs) and not failed and all(rec["ok"] for rec in warmups)
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
