"""The three workloads: inputs, jobs and the checks on every job's output.

A workload is a cycle of job kinds.  Job ``j`` uses input ``j mod pool``;
its inputs are generated from the seed before any timing, written to the
run's work directory and read back by the worker.  A job is a ``run``
callable, the only part that is timed, and a ``check`` callable that
verifies the output and returns ``(name, residual, tolerance)`` triples.

* ``implement`` (d = 8): ``superfock implement -i R -o T.json`` and
  ``superfock compose -i R1 -i R2`` alternate; dim ker U cycles 0, 1, 2.
* ``orbit`` (d = 14): ``superfock check``, ``superfock vacuum`` and the
  library identity overlap_det(X, Y)^2 = det(I + X^dag Y) between
  consecutive coset coordinates; dim ker U cycles 0, 1, 2.
* ``module`` (G = 4, d = 4): two jobs applying W(eta) to coherent and
  ultracoherent vectors against the closed forms, then one materializing W
  matrices to check module intertwining of a lifted implementer, whose dim
  ker U cycles 0, 1, 2.  The 2:1 mix puts the median inside the apply jobs
  and the tail inside the materialize jobs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

import numpy as np

LIBRARY_TOL = 1e-9   # tolerance of the library-level checks, as in selftest
SUPERVECTOR_SCALE = 0.8


class JobFailed(Exception):
    """A job's output is wrong, or the program reported an error."""


def _mod(name: str):
    # superfock.weyl is the weyl function; the module lives in sys.modules
    return importlib.import_module(f"superfock.{name}")


def _relative(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b without BLAS, for the checks of large matrices.

    After a multithreaded BLAS call OpenBLAS's idle threads spin for about
    0.1 s and slow the Python thread on a 2-CPU machine.  A check that
    called BLAS would so slow the next timed job; einsum's own loop does not
    call BLAS and leaves the thread pool as the program left it.
    """
    return np.einsum("ij,jk->ik", a, b)


def _matrix(obj: dict) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _write_transform(path: str, r) -> None:
    cli = _mod("cli")
    obj = {"d": r.d, "U": cli.matrix_to_json(r.u), "V": cli.matrix_to_json(r.v)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _group_residual(u: np.ndarray, v: np.ndarray) -> float:
    eye = np.eye(u.shape[0])
    return max(
        float(np.max(np.abs(u @ u.conj().T + v @ v.conj().T - eye))),
        float(np.max(np.abs(u.conj().T @ u + v.T @ np.conj(v) - eye))),
        float(np.max(np.abs(u @ v.T + v @ u.T))),
        float(np.max(np.abs(u.conj().T @ v + v.T @ np.conj(u)))),
    )


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``superfock.cli.main`` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _mod("cli").main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_report(result: tuple[int, str]) -> dict:
    code, text = result
    if code != 0:
        raise JobFailed(f"exit code {code}: {text[-300:]}")
    report = json.loads(text)
    if report.get("exit_status") != 0:
        raise JobFailed(f"report exit_status {report.get('exit_status')}")
    return report


class Job:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind, self.run, self.check = kind, run, check


class Workload:
    """Base: subclasses set ``name``, ``cycle``, ``pool`` and the hooks."""

    name = ""
    cycle = 1
    pool = 1

    def __init__(self, workdir: str, modes: int, generators: int):
        self.workdir = workdir
        self.modes = modes
        self.generators = generators

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def load(self) -> None:
        """Read generated inputs into memory (worker side, untimed)."""

    def job(self, j: int) -> Job:
        raise NotImplementedError

    @staticmethod
    def kernel_dim(j: int, per: int) -> int:
        return (j // per) % 3


class Implement(Workload):
    name = "implement"
    cycle = 6
    pool = 240

    def generate(self, seed: int) -> None:
        og = _mod("orthogroup")
        rng = np.random.default_rng(seed)
        d = self.modes
        for j in range(self.pool):
            n = self.kernel_dim(j, 2)
            _write_transform(self.path(f"R{j}.json"), og.random_transform(d, rng, min(n, d)))
            if j % 2:
                m = (n + 1) % 3
                _write_transform(self.path(f"S{j}.json"), og.random_transform(d, rng, min(m, d)))

    def job(self, j: int) -> Job:
        j %= self.pool
        n = min(self.kernel_dim(j, 2), self.modes)
        first = self.path(f"R{j}.json")
        if j % 2 == 0:
            out = self.path("T.json")
            argv = ["implement", "-i", first, "-o", out]
            return Job("implement", lambda: run_cli(argv), lambda res: self._check_implement(res, n, out))
        argv = ["compose", "-i", first, "-i", self.path(f"S{j}.json")]
        return Job("compose", lambda: run_cli(argv), self._check_compose)

    def _check_implement(self, result, n: int, out: str) -> dict:
        report = _cli_report(result)
        tol = report["tol"]
        if report["kernel_dim"] != n:
            raise JobFailed(f"kernel_dim {report['kernel_dim']} != {n}")
        checks = [(f"implement.{k}", v, tol) for k, v in sorted(report["residuals"].items())]
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        t = _matrix(payload["T"])
        dim = 1 << self.modes
        if t.shape != (dim, dim):
            raise JobFailed(f"T.json holds a {t.shape} matrix, expected {dim}x{dim}")
        checks.append(("implement.readback_unitarity", float(np.max(np.abs(_product(t.conj().T, t) - np.eye(dim)))), tol))
        return {"checks": checks, "bytes_out": len(result[1].encode()) + os.path.getsize(out)}

    def _check_compose(self, result) -> dict:
        report = _cli_report(result)
        tol = report["tol"]
        chi = complex(*report["chi"])
        u, v = _matrix(report["U"]), _matrix(report["V"])
        checks = [(f"compose.{k}", v_, tol) for k, v_ in sorted(report["residuals"].items())]
        checks.append(("compose.abs_chi", abs(abs(chi) - 1.0), tol))
        checks.append(("compose.group_identities", _group_residual(u, v), tol))
        return {"checks": checks, "bytes_out": len(result[1].encode())}


class Orbit(Workload):
    name = "orbit"
    cycle = 9
    pool = 144

    def generate(self, seed: int) -> None:
        og = _mod("orthogroup")
        rng = np.random.default_rng(seed)
        d = self.modes
        xs = []
        for t in range(self.pool // 3):
            r = og.random_transform(d, rng, min(t % 3, d))
            _write_transform(self.path(f"R{t}.json"), r)
            xs.append(og.coset_coordinate(r).x)
        np.save(self.path("coset.npy"), np.array(xs))

    def load(self) -> None:
        self.xs = np.load(self.path("coset.npy"))

    def job(self, j: int) -> Job:
        j %= self.pool
        t = j // 3
        n = min(t % 3, self.modes)
        path = self.path(f"R{t}.json")
        kind = ("check", "vacuum", "overlap")[j % 3]
        if kind == "check":
            argv = ["check", "-i", path]
            return Job(kind, lambda: run_cli(argv), lambda res: self._check_check(res, n))
        if kind == "vacuum":
            argv = ["vacuum", "-i", path]
            return Job(kind, lambda: run_cli(argv), lambda res: self._check_vacuum(res, n, t))
        x, y = self.xs[t - 1], self.xs[t]   # t - 1 wraps to the last triple
        overlap_det = _mod("gaussian").overlap_det
        return Job(kind, lambda: overlap_det(x, y), lambda res: self._check_overlap(res, x, y))

    def _check_check(self, result, n: int) -> dict:
        report = _cli_report(result)
        tol = report["tol"]
        if not report["valid"] or report["kernel_dim"] != n:
            raise JobFailed(f"check reported valid={report['valid']} kernel_dim={report['kernel_dim']}")
        expected = "identity-component" if n % 2 == 0 else "other-component"
        if report["component"] != expected:
            raise JobFailed(f"component {report['component']} != {expected}")
        checks = [(f"check.{k}", v, tol) for k, v in sorted(report["residuals"].items())]
        return {"checks": checks, "bytes_out": len(result[1].encode())}

    def _check_vacuum(self, result, n: int, t: int) -> dict:
        report = _cli_report(result)
        tol = report["tol"]
        if report["kernel_dim"] != n:
            raise JobFailed(f"kernel_dim {report['kernel_dim']} != {n}")
        amp = np.asarray(report["amplitudes"], dtype=float)
        if amp.shape != (1 << self.modes, 2):
            raise JobFailed(f"{amp.shape[0]} amplitudes, expected {1 << self.modes}")
        if n > 0 and report["overlap"] != 0.0:
            raise JobFailed("vacuum overlap must vanish when ker U is nontrivial")
        checks = [
            ("vacuum.norm", abs(report["norm"] - 1.0), tol),
            ("vacuum.amplitude_norm", abs(float(np.sqrt(np.sum(amp**2))) - 1.0), tol),
            ("vacuum.coset_x", _relative(_matrix(report["coset_X"]), self.xs[t]), tol),
        ]
        return {"checks": checks, "bytes_out": len(result[1].encode())}

    @staticmethod
    def _check_overlap(ov, x, y) -> dict:
        det = complex(np.linalg.det(np.eye(x.shape[0]) + x.conj().T @ y))
        return {"checks": [("overlap.det_identity", abs(ov**2 - det) / max(1.0, abs(det)), LIBRARY_TOL)]}


class Module(Workload):
    name = "module"
    cycle = 9
    pool = 192

    def generate(self, seed: int) -> None:
        og = _mod("orthogroup")
        rng = np.random.default_rng(seed)
        g, d, p = self.generators, self.modes, self.pool

        def supervectors():
            shape = (p, g, d)
            return SUPERVECTOR_SCALE * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        etas, xis = supervectors(), supervectors()
        xs = np.array([og.random_skew(d, rng) for _ in range(p)])
        rs = [og.random_transform(d, rng, min(self.kernel_dim(j, 3), d)) for j in range(p)]
        np.savez(
            self.path("module.npz"),
            eta=etas, xi=xis, x=xs,
            u=np.array([r.u for r in rs]), v=np.array([r.v for r in rs]),
        )

    def load(self) -> None:
        with np.load(self.path("module.npz")) as data:
            self.data = {k: data[k] for k in data.files}

    def job(self, j: int) -> Job:
        j %= self.pool
        sm, wl, og, bg = (_mod(m) for m in ("supermodule", "weyl", "orthogroup", "bogoliubov"))
        eta, xi = sm.SuperVector(self.data["eta"][j]), sm.SuperVector(self.data["xi"][j])
        if j % 3 != 2:
            x = self.data["x"][j]

            def apply():
                w = wl.WeylOperator(eta)
                coh = sm.coherent(xi)
                ult = sm.ultracoherent(x, xi)
                w_coh, w_ult = w.apply(coh), w.apply(ult)
                return (
                    (w_coh, wl.weyl_on_coherent(eta, xi)),
                    (w_ult, wl.weyl_on_ultracoherent(eta, x, xi)),
                    (sm.lambda_inner(w_coh, w_ult), sm.lambda_inner(coh, ult)),
                )

            return Job("apply", apply, self._check_apply)
        u, v, g = self.data["u"][j], self.data["v"][j], self.generators

        def materialize():
            r = og.OrthogonalTransform(u, v)
            t_hat = bg.module_lift(bg.implement_general(r).matrix, g).materialize()
            w = wl.WeylOperator(xi).materialize()
            w_rot = wl.WeylOperator(xi.rotate(r.u, r.v)).materialize()
            return t_hat, w, w_rot

        return Job("materialize", materialize, self._check_materialize)

    @staticmethod
    def _check_apply(out) -> dict:
        names = ("apply.coherent", "apply.ultracoherent", "apply.lambda_isometry")
        return {
            "checks": [
                (name, _relative(got.amp, want.amp), LIBRARY_TOL)
                for name, (got, want) in zip(names, out)
            ]
        }

    @staticmethod
    def _check_materialize(out) -> dict:
        t_hat, w, w_rot = out
        return {
            "checks": [
                ("materialize.intertwining", _relative(_product(t_hat, w), _product(w_rot, t_hat)), LIBRARY_TOL),
            ]
        }


WORKLOADS = {cls.name: cls for cls in (Implement, Orbit, Module)}
DEFAULT_SIZES = {"implement": (8, 0), "orbit": (14, 0), "module": (4, 4)}
