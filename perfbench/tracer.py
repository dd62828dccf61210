"""Span recorder that wraps superfock's public functions from outside.

The package binds names with ``from .fock import create``, so a function is
reachable under several module attributes.  ``SpanRecorder.install`` replaces
every binding of each wrapped function in every loaded ``superfock`` module
and ``uninstall`` puts the originals back.  Modules are looked up through
``sys.modules`` because the package attribute ``superfock.weyl`` is the
``weyl`` function, not the module.

A span is (job, span id, parent span id, name, start, end).  Spans are kept
in memory for the timed jobs; a layer's self time is its duration minus the
durations of its direct children.  Each timed job opens a root span named ``job``, so the
self times of one job add up to the job's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Module -> wrapped attributes; "Class.method" wraps a method on the class
# and a bare class name wraps its constructor.
LAYERS = {
    "_tables": ["wedge_table", "antisymmetric_product"],
    "fock": ["create", "delta", "gamma", "wedge"],
    "gaussian": ["pfaffian_all_subsets", "exp_omega", "overlap_det", "as_skew"],
    "orthogroup": ["validate", "kernel_decomposition", "coset_coordinate", "compose"],
    "bogoliubov": [
        "implement_invertible",
        "implement_general",
        "t0_duality",
        "intertwining_residual",
        "cocycle",
        "vacuum_orbit",
        "c_norm",
        "module_lift",
    ],
    "supermodule": [
        "mproduct",
        "coherent",
        "ultracoherent",
        "lambda_inner",
        "gmul",
        "RegularOperator.compose",
        "RegularOperator.apply",
        "RegularOperator.materialize",
    ],
    "grassmann": ["gproduct", "gexp"],
    "weyl": ["WeylOperator", "weyl_on_coherent", "weyl_on_ultracoherent"],
    "cli": ["main", "load_transform", "matrix_to_json", "vector_to_json"],
}



def span_name(layer: str, attr: str) -> str:
    # metric names must start with a letter, so _tables reports as tables
    return f"{layer.lstrip('_')}.{attr}"


SPAN_NAMES = [span_name(mod, attr) for mod, attrs in LAYERS.items() for attr in attrs]
TABLE_ENTRIES = "tables.wedge_table.entries"
COUNTERS = [
    TABLE_ENTRIES,
    "fock.dense_bytes",
    "supermodule.regular_terms",
    "cli.bytes_out",
]
ROOT = "job"
OUTSIDE_JOB = -1


class SpanRecorder:
    """Records nested spans and exact work counts while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._next_id = 0
        self._job = OUTSIDE_JOB
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if self._job != OUTSIDE_JOB:
            self.spans.append((self._job, sid, parent, name, start, end))

    def run_job(self, job: int, fn):
        """Call ``fn()`` under a root span for ``job`` and return its result."""
        self._job = job
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(sid, parent, ROOT, start)
            self._job = OUTSIDE_JOB

    def add(self, counter: str, amount: int) -> None:
        """Count work done inside a job; table builds count at any time,
        because the warm-up is where the tables are built."""
        if self._job != OUTSIDE_JOB or counter == TABLE_ENTRIES:
            self.counts[counter] += int(amount)

    def _wrap(self, name: str, fn, after=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = recorder._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(sid, parent, name, start)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters ----------------------------------------------------------------

    def _after_hooks(self, cached_table) -> dict:
        built = {"misses": cached_table.cache_info().misses}

        def wedge_table(args, result):
            misses = cached_table.cache_info().misses
            if misses != built["misses"]:
                built["misses"] = misses
                self.add(TABLE_ENTRIES, len(result[0]))

        def dense(args, result):
            self.add("fock.dense_bytes", result.nbytes)

        def terms(args, result):
            self.add("supermodule.regular_terms", len(result.terms))

        return {
            "tables.wedge_table": wedge_table,
            "fock.create": dense,
            "fock.delta": dense,
            "fock.gamma": dense,
            "supermodule.RegularOperator.compose": terms,
        }

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the functions in ``LAYERS``."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "superfock" or name.startswith("superfock.")
        ]
        hooks = self._after_hooks(importlib.import_module("superfock._tables").wedge_table)
        for layer, attrs in LAYERS.items():
            module = importlib.import_module(f"superfock.{layer}")
            for attr in attrs:
                name = span_name(layer, attr)
                cls_name, _, method = attr.partition(".")
                target = getattr(module, cls_name)
                if method or isinstance(target, type):
                    owner, key = target, method or "__init__"
                    original = owner.__dict__[key]
                    self._set(owner, key, original, self._wrap(name, original, hooks.get(name)))
                    continue
                wrapped = self._wrap(name, target, hooks.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._set(mod, key, target, wrapped)

    def _set(self, owner, key: str, original, replacement) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[tuple[int, str, float]]:
        """(job, name, self seconds) per span."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child[parent] += end - start
        return [
            (job, name, (end - start) - child[sid])
            for job, sid, _, name, start, end in self.spans
        ]

    def summary(self, jobs) -> dict:
        """Calls and self seconds per span name over the given jobs, and
        the jobs' summed wall time."""
        jobs = set(jobs)
        calls = dict.fromkeys([ROOT, *SPAN_NAMES], 0)
        self_s = dict.fromkeys([ROOT, *SPAN_NAMES], 0.0)
        for job, name, own in self.self_times():
            if job in jobs:
                calls[name] += 1
                self_s[name] += own
        wall = sum(
            end - start
            for job, _, parent, _, start, end in self.spans
            if parent == -1 and job in jobs
        )
        return {"calls": calls, "self_s": self_s, "wall_s": wall}

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job\tspan\tparent\tname\tstart\tend\n")
            for job, sid, parent, name, start, end in self.spans:
                fh.write(f"{job}\t{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
