"""One benchmark worker: a fresh interpreter that sets up and runs jobs.

Usage (started by run.py):

    python3 perfbench/worker.py CONFIG.json RESULT.json

Before every job the worker waits until the process's other threads (the
OpenBLAS pool, whose idle threads spin for about 0.1 s after a
multithreaded call) have stopped using the CPU, and then times a fixed
pure-Python loop, outside the job's timing, so that run.py can correct for
the machine's speed.  After the wait the loop measures the machine alone,
whatever BLAS work the previous job or its check did, and every job starts
with the thread pool at rest.

Set-up time is ``import superfock`` plus the untimed warm-up jobs, which
are the full cycle of jobs before the worker's first timed job; reading the
generated inputs is excluded.  The timed phase runs jobs from
``config["start"]`` until ``config["budget_s"]`` seconds of job time have
passed and, with ``config["finish_cycle"]``, on to the end of the cycle.
With ``config["trace"]`` the worker runs each timed job twice, plain and
under the span recorder, and reports both.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

CALIBRATION_LOOPS = 100_000
IDLE_POLL_S = 0.02         # other threads are at rest after a poll without CPU use
IDLE_WAIT_MAX_S = 1.0


def _import_superfock(src: str) -> float:
    sys.path.insert(0, src)
    import superfock  # noqa: F401

    if not os.path.abspath(superfock.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"superfock imported from {superfock.__file__}, not from {src}")
    return time.perf_counter() - _T0


def _other_threads_ticks() -> int | None:
    """CPU ticks used so far by this process's threads other than the main
    one; None where /proc does not give them."""
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return None
    total = 0
    for tid in tids:
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue   # the thread has ended
        total += int(fields[11]) + int(fields[12])   # utime, stime
    return total


def wait_until_idle() -> float:
    """Sleep until the other threads stop using the CPU; the seconds waited."""
    start = time.perf_counter()
    before = _other_threads_ticks()
    while time.perf_counter() - start < IDLE_WAIT_MAX_S:
        time.sleep(IDLE_POLL_S)
        now = _other_threads_ticks()
        if now is None or now == before:
            break
        before = now
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(1, CALIBRATION_LOOPS):
        total += (i & -i).bit_length()
    return time.perf_counter() - start


def _run_job(workload, j: int, call=None) -> dict:
    """Wait for idle threads, calibrate, time one job, then check it outside
    the timed region."""
    job = workload.job(j)
    record = {"j": j, "kind": job.kind, "ok": False, "checks": [], "bytes_out": 0,
              "idle_wait": wait_until_idle(), "cal": calibrate()}
    start = time.perf_counter()
    try:
        output = call(j, job.run) if call else job.run()
    except Exception:  # a job's failure is a result, not a benchmark crash
        record["t"] = time.perf_counter() - start
        record["error"] = traceback.format_exc(limit=3)
        return record
    record["t"] = time.perf_counter() - start
    try:
        verdict = job.check(output)
    except Exception:
        record["error"] = traceback.format_exc(limit=3)
        return record
    record["checks"] = verdict["checks"]
    record["bytes_out"] = verdict.get("bytes_out", 0)
    bad = [c for c in verdict["checks"] if not c[1] <= c[2]]
    if bad:
        record["error"] = f"residual above tolerance: {bad}"
    else:
        record["ok"] = True
    return record


def _traced_job(workload, j: int, recorder) -> dict:
    recorder.install()
    try:
        return _run_job(workload, j, recorder.run_job)
    finally:
        recorder.uninstall()


def _phase(workload, start: int, budget: float, finish_cycle: bool, count=None, recorder=None):
    """Run jobs from ``start``: ``count`` of them, or until the budget of
    plain job time is spent (and, with ``finish_cycle``, to the end of the
    cycle).  With a recorder each job also runs under it, right before or
    after its plain run in turn, so that both runs of a job see the same
    machine and neither always comes second.  Returns (plain, traced)."""
    records, traced, spent, j = [], [], 0.0, start
    while True:
        if count is not None:
            if len(records) == count:
                break
        elif spent >= budget and (not finish_cycle or j % workload.cycle == 0):
            break
        if recorder and j % 2:
            traced.append(_traced_job(workload, j, recorder))
        rec = _run_job(workload, j)
        records.append(rec)
        if recorder and not j % 2:
            traced.append(_traced_job(workload, j, recorder))
        spent += rec["t"]
        j += 1
    return records, traced


def main(config_path: str, result_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    import_s = _import_superfock(cfg["src"])
    import workloads
    import tracer

    workload = workloads.WORKLOADS[cfg["workload"]](cfg["workdir"], cfg["modes"], cfg["generators"])
    workload.load()
    recorder = tracer.SpanRecorder() if cfg["trace"] else None
    if recorder:
        recorder.install()   # so that the warm-up's table builds are counted
    start = cfg["start"]
    warmup, _ = _phase(workload, start - workload.cycle, 0.0, False, count=workload.cycle)
    if recorder:
        recorder.uninstall()
    result = {
        "import_s": import_s,
        "setup_s": import_s + sum(r["t"] for r in warmup),
        "warmup": warmup,
    }
    timed, traced = _phase(workload, start, cfg["budget_s"], cfg["finish_cycle"], recorder=recorder)
    result["jobs"] = timed
    if recorder:
        result["traced_jobs"] = traced
        result["trace"] = recorder.summary(r["j"] for r in traced)
        result["trace"]["counts"] = dict(recorder.counts)
        result["trace"]["counts"]["cli.bytes_out"] = sum(r["bytes_out"] for r in traced)
        if cfg.get("spans"):
            recorder.dump(cfg["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
