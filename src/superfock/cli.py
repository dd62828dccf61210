"""Batch command-line interface.

Transforms enter as JSON files {"d": d, "U": M, "V": M} where a matrix M is
{"rows": r, "cols": c, "data": [[re, im], ...]} in row-major order; complex
scalars are two-element [re, im] arrays.  Every command prints a JSON report
to stdout (deterministic for fixed input and seed) and human-readable
warnings to stderr.

Exit codes: 0 ok, 1 mathematical validation failure, 2 usage (``--tol`` must
be finite and > 0), I/O or parse error, or dense operators above
``errors._DENSE_BYTES_LIMIT``, 3 numerical ambiguity (rank-decision band).
``main`` builds the base report and prints it exactly once: a command fills
it in and returns an exit code or raises ``_Failure(code, error)``, and a
``RankAmbiguityError`` from any command becomes exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bogoliubov as bg
from . import orthogroup as og
from .errors import (
    _DENSE_BYTES_LIMIT,
    _RAY_TOL,
    _RESIDUAL_TOL,
    RankAmbiguityError,
    SkewnessError,
    operator_bytes,
)
from .selftest import dense_bytes, run_selftest

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_AMBIGUOUS = 3
# dense 2^d x 2^d operators alive at once, measured at d = 8, 9
IMPLEMENT_OPERATORS = 7
COMPOSE_OPERATORS = 9


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        flat = np.array([complex(re, im) for re, im in obj["data"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if flat.size != rows * cols:
        raise ValueError(f"matrix data length {flat.size} != rows*cols {rows * cols}")
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex)
    return np.stack([v.real, v.imag], -1).reshape(-1, 2).tolist()


def load_transform(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        d = int(obj["d"])
        u = matrix_from_json(obj["U"])
        v = matrix_from_json(obj["V"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed transform object: {exc!r}") from exc
    if d < 1:
        raise ValueError(f"d must be a positive mode count, got {d}")
    if u.shape != (d, d) or v.shape != (d, d):
        raise ValueError(f"U, V must be {d}x{d}; got {u.shape}, {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("U, V entries must be finite (no NaN or Infinity)")
    return d, u, v


STRICT_NOTATION_NOTE = (
    "duality block: complement signs are taken as (-1)^tau(K, M) with M the "
    "full kernel index set {1..n}"
)


class _Failure(Exception):
    """Early end of a command: ``_Failure(exit code, report error)``."""


def _load(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    try:
        return load_transform(path)
    except (OSError, ValueError) as exc:
        raise _Failure(EXIT_IO, str(exc)) from exc


def _within_limit(nbytes: float, what: str) -> None:
    if nbytes > _DENSE_BYTES_LIMIT:
        raise _Failure(
            EXIT_IO,
            f"{what} needs about {nbytes / 2**30:.3g} GiB of dense operators, "
            f"above the {_DENSE_BYTES_LIMIT / 2**30:.3g} GiB limit",
        )


def _valid_transform(u, v, tol: float, which: str = "") -> og.OrthogonalTransform:
    res = og.validate(u, v, tol)
    if not res["ok"]:
        raise _Failure(EXIT_INVALID, f"{which}transform invalid (max residual {res['max']:.3e})")
    return og.OrthogonalTransform(u, v, check=False)


def _emit(report: dict, code: int) -> int:
    report["exit_status"] = code
    for w in report.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


def cmd_check(args: argparse.Namespace, report: dict) -> int:
    report["input"] = args.input[0]
    _, u, v = _load(args.input[0])
    residuals = og.validate(u, v, args.tol)
    report["residuals"] = {k: residuals[k] for k in sorted(residuals) if k != "ok"}
    report["valid"] = residuals["ok"]
    if not residuals["ok"]:
        return EXIT_INVALID
    r = og.OrthogonalTransform(u, v, check=False)
    report["kernel_dim"] = r.kernel.n
    report["component"] = og.component(r)
    return EXIT_OK


def cmd_implement(args: argparse.Namespace, report: dict) -> int:
    report.update(input=args.input[0], out=args.out)
    d, u, v = _load(args.input[0])
    _within_limit(operator_bytes(IMPLEMENT_OPERATORS, d), f"implement at d = {d}")
    residuals = og.validate(u, v, args.tol)
    report["residuals"] = {"validation_max": residuals["max"]}
    if not residuals["ok"]:
        report["valid"] = False
        return EXIT_INVALID
    if d >= 7:
        report["warnings"].append(
            f"d = {d}: implementer construction has exponential cost (2^{d} amplitudes)"
        )
    r = og.OrthogonalTransform(u, v, check=False)
    impl = bg.implement_general(r)
    unit = impl.unitarity_residual()
    intertwine = bg.intertwining_residual(r, impl.matrix)
    report["residuals"].update(unitarity=unit, intertwining=intertwine)
    report["kernel_dim"] = impl.kernel_dim
    if args.out:
        payload = {"d": d, "dim": 1 << d, "T": matrix_to_json(impl.matrix)}
        try:
            # json.dumps takes the C encoder; json.dump streams through Python
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True))
        except OSError as exc:
            raise _Failure(EXIT_IO, str(exc)) from exc
    # intertwining amplifies validation rounding; accept within a 2^(d/2) factor
    scale = 2.0 ** (d / 2.0)
    ok = unit <= args.tol * scale and intertwine <= args.tol * scale
    return EXIT_OK if ok else EXIT_INVALID


def cmd_compose(args: argparse.Namespace, report: dict) -> int:
    report["input"] = list(args.input)
    if len(args.input) != 2:
        raise _Failure(EXIT_IO, "compose needs exactly two -i/--input files")
    (d1, u1, v1), (d2, u2, v2) = (_load(path) for path in args.input)
    if d1 != d2:
        raise _Failure(EXIT_IO, f"dimension mismatch: {d1} != {d2}")
    _within_limit(operator_bytes(COMPOSE_OPERATORS, d1), f"compose at d = {d1}")
    ra = _valid_transform(u1, v1, args.tol, "first ")
    rb = _valid_transform(u2, v2, args.tol, "second ")
    rc = og.compose(ra, rb)
    report["U"] = matrix_to_json(rc.u)
    report["V"] = matrix_to_json(rc.v)
    ta, tb, tc = (bg.implement_general(r).matrix for r in (ra, rb, rc))
    chi, ray_residual, ok = bg.ray_phase(ta @ tb, tc, max(args.tol, _RAY_TOL))
    report["chi"] = [float(chi.real), float(chi.imag)]
    report["residuals"] = {
        "abs_chi_minus_one": abs(abs(chi) - 1.0),
        "ray_residual": ray_residual,
    }
    if not ok:
        raise _Failure(EXIT_INVALID, "product is not a scalar multiple of the composed implementer")
    return EXIT_OK


def cmd_vacuum(args: argparse.Namespace, report: dict) -> int:
    report["input"] = args.input[0]
    _, u, v = _load(args.input[0])
    r = _valid_transform(u, v, args.tol)
    try:
        vo = bg.vacuum_orbit(r)
    except SkewnessError as exc:
        raise _Failure(EXIT_INVALID, f"coset coordinate: {exc}") from exc
    report["amplitudes"] = vector_to_json(vo.vector.amp)
    report["overlap"] = vo.overlap
    report["norm"] = vo.norm()
    report["kernel_dim"] = vo.kernel_dim
    report["coset_X"] = matrix_to_json(vo.x)
    report["H0_basis"] = matrix_to_json(vo.h0_basis)
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace, report: dict) -> int:
    if args.modes < 1 or args.generators < 0:
        raise _Failure(
            EXIT_IO,
            f"need --modes >= 1 and --generators >= 0, got {args.modes} and {args.generators}",
        )
    _within_limit(
        dense_bytes(args.modes, args.generators),
        f"selftest at --modes {args.modes} --generators {args.generators}",
    )
    result = run_selftest(
        modes=args.modes, generators=args.generators, seed=args.seed, tol=args.tol
    )
    report["warnings"].extend(result.pop("warnings"))
    report.update(result)
    return EXIT_OK if report["all_passed"] else EXIT_INVALID


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors end in main's exit-2 report
        raise _Failure(EXIT_IO, f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superfock",
        description="Batch interface for orthogonal transforms and their Fock-space implementers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("-i", "--input", action="append", required=True,
                           help="transform JSON file (repeat for compose)")
        p.add_argument("--tol", type=float, default=_RESIDUAL_TOL,
                       help="residual tolerance, finite and > 0")
        p.add_argument("--strict-notation", action="store_true",
                       help="record index-set conventions of the duality block in the report")

    p = sub.add_parser("check", help="validate a transform, report kernel and component")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("implement", help="build the unitary implementer matrix")
    common(p)
    p.add_argument("-o", "--out", help="write the 2^d x 2^d matrix to this JSON file")
    p.set_defaults(func=cmd_implement)

    p = sub.add_parser("compose", help="compose two transforms and extract the ray phase")
    common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("vacuum", help="vacuum orbit vector, overlap and coset coordinate")
    common(p)
    p.set_defaults(func=cmd_vacuum)

    p = sub.add_parser("selftest", help="run the seeded invariant battery")
    common(p, needs_input=False)
    p.add_argument("--modes", type=int, default=4)
    p.add_argument("--generators", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    report = {"command": None, "warnings": []}
    try:
        args = build_parser().parse_args(argv)
        report["command"] = args.command
        if not 0.0 < args.tol < float("inf"):  # also NaN, which JSON cannot carry
            raise _Failure(EXIT_IO, f"--tol must be finite and > 0, got {args.tol}")
        report["tol"] = args.tol
        if args.strict_notation:
            report["warnings"].append(STRICT_NOTATION_NOTE)
        code = args.func(args, report)
    except _Failure as exc:
        code, report["error"] = exc.args
    except RankAmbiguityError as exc:
        code, report["error"] = EXIT_AMBIGUOUS, str(exc)
    return _emit(report, code)


if __name__ == "__main__":
    sys.exit(main())
