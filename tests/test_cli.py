"""Batch CLI: file formats, exit codes, determinism, round-trips."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import superfock.orthogroup as og
from superfock import bogoliubov as bg
from superfock import cli
from superfock.cli import load_transform, main, matrix_from_json, matrix_to_json
from superfock.errors import _DENSE_BYTES_LIMIT, operator_bytes
from superfock.selftest import BATTERY, dense_bytes

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def write_transform(path, u, v):
    d = u.shape[0]
    payload = {"d": d, "U": matrix_to_json(u), "V": matrix_to_json(v)}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def bcs_file(tmp_path):
    theta = np.pi / 4
    return write_transform(
        tmp_path / "bcs.json", np.cos(theta) * np.eye(2), np.sin(theta) * J2
    )


@pytest.fixture
def identity_file(tmp_path):
    return write_transform(tmp_path / "id.json", np.eye(2), np.zeros((2, 2)))


@pytest.fixture
def swap_file(tmp_path):
    return write_transform(tmp_path / "swap.json", np.zeros((1, 1)), np.eye(1))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_matrix_codec_roundtrip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


def test_check_identity(capsys, identity_file):
    code, rep = run(capsys, "check", "-i", identity_file)
    assert code == 0
    assert rep["valid"] and rep["kernel_dim"] == 0
    assert rep["component"] == "identity-component"
    assert all(v == 0.0 for k, v in rep["residuals"].items())


def test_check_bcs(capsys, bcs_file):
    code, rep = run(capsys, "check", "-i", bcs_file)
    assert code == 0 and rep["valid"]


def test_check_invalid_pair(capsys, tmp_path):
    path = write_transform(tmp_path / "bad.json", np.eye(2), np.eye(2))
    code, rep = run(capsys, "check", "-i", path)
    assert code == 1
    assert not rep["valid"]
    assert rep["residuals"]["unitarity_left"] == 1.0


def test_check_missing_file(capsys, tmp_path):
    code, rep = run(capsys, "check", "-i", str(tmp_path / "nope.json"))
    assert code == 2


MALFORMED = {
    "not_json": "{not json",
    "top_level_list": "[1, 2]",
    "string_entries": json.dumps({
        "d": 1,
        "U": {"rows": 1, "cols": 1, "data": [["1", "0"]]},
        "V": {"rows": 1, "cols": 1, "data": [[0, 0]]},
    }),
    "nan_entry": json.dumps({
        "d": 1,
        "U": {"rows": 1, "cols": 1, "data": [[float("nan"), 0]]},
        "V": {"rows": 1, "cols": 1, "data": [[0, 0]]},
    }),
    "inf_entry": json.dumps({
        "d": 1,
        "U": {"rows": 1, "cols": 1, "data": [[1, 0]]},
        "V": {"rows": 1, "cols": 1, "data": [[0, float("-inf")]]},
    }),
    "zero_modes": json.dumps({
        "d": 0,
        "U": {"rows": 0, "cols": 0, "data": []},
        "V": {"rows": 0, "cols": 0, "data": []},
    }),
}


@pytest.mark.parametrize("payload", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["check", "implement", "vacuum", "compose"])
def test_check_malformed_json(capsys, tmp_path, command, payload):
    path = tmp_path / "garbage.json"
    path.write_text(MALFORMED[payload])
    inputs = ("-i", str(path)) * (2 if command == "compose" else 1)
    code, rep = run(capsys, command, *inputs)
    assert code == 2
    assert rep["exit_status"] == 2 and rep["error"]


def test_check_rank_ambiguity(capsys, tmp_path):
    eps = 3e-9
    u = np.zeros((4, 4))
    v = np.zeros((4, 4))
    u[:2, :2] = eps * np.eye(2)
    v[:2, :2] = np.sqrt(1 - eps**2) * J2
    u[2:, 2:] = np.eye(2)
    path = write_transform(tmp_path / "band.json", u, v)
    code, rep = run(capsys, "check", "-i", path)
    assert code == 3
    assert "band" in rep["error"]


def test_implement_identity(capsys, identity_file, tmp_path):
    out = tmp_path / "T.json"
    code, rep = run(capsys, "implement", "-i", identity_file, "-o", str(out))
    assert code == 0
    assert rep["residuals"]["unitarity"] == 0.0
    payload = json.loads(out.read_text())
    t = matrix_from_json(payload["T"])
    assert np.array_equal(t, np.eye(4))


def test_implement_swap_and_roundtrip(capsys, swap_file, tmp_path):
    out = tmp_path / "T.json"
    code, rep = run(capsys, "implement", "-i", swap_file, "-o", str(out))
    assert code == 0 and rep["kernel_dim"] == 1
    t = matrix_from_json(json.loads(out.read_text())["T"])
    assert np.max(np.abs(t - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-14
    # reloaded matrix passes the same residual checks
    r = og.OrthogonalTransform(np.zeros((1, 1)), np.eye(1))
    assert np.max(np.abs(t.conj().T @ t - np.eye(2))) < 1e-12
    assert bg.intertwining_residual(r, t) < 1e-12


def test_implement_reports_exponential_cost(capsys, tmp_path):
    d = 7
    path = write_transform(tmp_path / "big.json", np.eye(d), np.zeros((d, d)))
    code, rep = run(capsys, "implement", "-i", path)
    assert code == 0
    assert any("exponential cost" in w for w in rep["warnings"])


def test_implement_ill_conditioned_generic_block(capsys, tmp_path):
    # cond(U) = 1e3 at d = 8, rotated off the axes: a valid input that the
    # default residual gate accepts
    d, c = 8, 1e-3
    rng = np.random.default_rng(0)
    u, v = np.eye(d), np.zeros((d, d))
    u[:2, :2] = c * np.eye(2)
    v[:2, :2] = np.sqrt(1 - c**2) * J2
    w, s = og.haar_unitary(d, rng), og.haar_unitary(d, rng)
    path = write_transform(tmp_path / "cond.json", w @ u @ s, w @ v @ np.conj(s))
    code, rep = run(capsys, "implement", "-i", path)
    assert code == 0
    assert rep["residuals"]["unitarity"] < rep["tol"]
    assert rep["residuals"]["intertwining"] < rep["tol"]


def test_compose_inverse_pair(capsys, tmp_path, rng):
    r = og.random_transform(2, rng)
    ri = og.inverse(r)
    f1 = write_transform(tmp_path / "a.json", r.u, r.v)
    f2 = write_transform(tmp_path / "b.json", ri.u, ri.v)
    code, rep = run(capsys, "compose", "-i", f1, "-i", f2)
    assert code == 0
    u = matrix_from_json(rep["U"])
    assert np.max(np.abs(u - np.eye(2))) < 1e-10
    chi = complex(*rep["chi"])
    assert abs(chi - 1.0) < 1e-8
    assert rep["residuals"]["ray_residual"] < 1e-9


def test_compose_bcs_family(capsys, tmp_path):
    t1, t2 = np.pi / 6, np.pi / 4
    f1 = write_transform(tmp_path / "a.json", np.cos(t1) * np.eye(2), np.sin(t1) * J2)
    f2 = write_transform(tmp_path / "b.json", np.cos(t2) * np.eye(2), np.sin(t2) * J2)
    code, rep = run(capsys, "compose", "-i", f2, "-i", f1)
    assert code == 0
    chi = complex(*rep["chi"])
    assert abs(chi - 1.0) < 1e-10
    u = matrix_from_json(rep["U"])
    assert np.max(np.abs(u - np.cos(t1 + t2) * np.eye(2))) < 1e-14


def test_compose_dimension_mismatch(capsys, tmp_path, identity_file, swap_file):
    code, rep = run(capsys, "compose", "-i", identity_file, "-i", swap_file)
    assert code == 2
    assert "mismatch" in rep["error"]
    code, rep = run(capsys, "compose", "-i", identity_file)
    assert code == 2
    assert "exactly two" in rep["error"]


def test_compose_reports_non_scalar_product(capsys, tmp_path, monkeypatch):
    # a composed implementer with one column negated is no multiple of T(A) T(B)
    rng = np.random.default_rng(0)
    ra, rb = og.random_transform(4, rng), og.random_transform(4, rng)
    composed = og.compose(ra, rb)
    build = bg.implement_general

    def corrupted(r):
        impl = build(r)
        if np.allclose(r.u, composed.u) and np.allclose(r.v, composed.v):
            matrix = impl.matrix.copy()
            matrix[:, 1] *= -1.0
            impl = dataclasses.replace(impl, matrix=matrix)
        return impl

    monkeypatch.setattr(bg, "implement_general", corrupted)
    f1 = write_transform(tmp_path / "a.json", ra.u, ra.v)
    f2 = write_transform(tmp_path / "b.json", rb.u, rb.v)
    code, rep = run(capsys, "compose", "-i", f1, "-i", f2)
    assert code == 1
    assert "not a scalar multiple" in rep["error"]
    assert rep["residuals"]["ray_residual"] > 1e-8


def test_vacuum_identity_and_bcs(capsys, identity_file, bcs_file):
    code, rep = run(capsys, "vacuum", "-i", identity_file)
    assert code == 0
    assert rep["overlap"] == 1.0
    amps = np.array([complex(re, im) for re, im in rep["amplitudes"]])
    assert np.array_equal(amps, np.array([1, 0, 0, 0], dtype=complex))
    code, rep = run(capsys, "vacuum", "-i", bcs_file)
    assert code == 0
    assert abs(rep["overlap"] - np.cos(np.pi / 4)) < 1e-12
    x = matrix_from_json(rep["coset_X"])
    assert np.max(np.abs(x - np.tan(np.pi / 4) * J2)) < 1e-12


def test_vacuum_reports_lost_skewness(capsys, tmp_path):
    # Haar-rotated d = 6, n = 1 pairing block at cond(U) = 1e6: X = V conj(U)^+
    # is formed in the original frame and fails the skewness check
    d, n, c = 6, 1, 1e-6
    rng = np.random.default_rng(0)
    u, v = np.zeros((d, d)), np.zeros((d, d))
    u[:2, :2] = c * np.eye(2)
    v[:2, :2] = np.sqrt(1 - c**2) * J2
    u[2 : d - n, 2 : d - n] = np.eye(d - n - 2)
    v[d - n :, d - n :] = np.eye(n)
    w, s = og.haar_unitary(d, rng), og.haar_unitary(d, rng)
    path = write_transform(tmp_path / "cond.json", w @ u @ s, w @ v @ np.conj(s))
    code, rep = run(capsys, "vacuum", "-i", path)
    assert code == 1 and rep["exit_status"] == 1
    assert "skew" in rep["error"]


def _old_matrix_to_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _old_vector_to_json(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def test_json_output_bytes_match_per_entry_encoder(capsys, tmp_path, monkeypatch):
    # the vectorized encoders and the C encoder write the bytes the per-entry
    # lists and the streaming json.dump wrote, -0.0 included
    r = og.random_transform(3, np.random.default_rng(0), kernel_dim=1)
    path = write_transform(tmp_path / "r.json", r.u, r.v)
    out = tmp_path / "T.json"
    assert main(["implement", "-i", path, "-o", str(out)]) == 0
    capsys.readouterr()
    d, u, v = load_transform(path)
    t = bg.implement_general(og.OrthogonalTransform(u, v)).matrix
    ref = tmp_path / "ref.json"
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump({"d": d, "dim": 1 << d, "T": _old_matrix_to_json(t)}, fh, sort_keys=True)
    assert "-0.0" in out.read_text()
    assert out.read_bytes() == ref.read_bytes()
    for argv in (["vacuum", "-i", path], ["compose", "-i", path, "-i", path]):
        assert main(argv) == 0
        report = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(cli, "matrix_to_json", _old_matrix_to_json)
            patch.setattr(cli, "vector_to_json", _old_vector_to_json)
            assert main(argv) == 0
        assert "-0.0" in report
        assert report == capsys.readouterr().out


def test_vacuum_swap(capsys, swap_file):
    code, rep = run(capsys, "vacuum", "-i", swap_file)
    assert code == 0
    assert rep["overlap"] == 0.0 and rep["kernel_dim"] == 1
    amps = np.array([complex(re, im) for re, im in rep["amplitudes"]])
    assert np.max(np.abs(amps - np.array([0.0, 1.0]))) < 1e-14


def test_selftest_passes_and_is_deterministic(capsys):
    code1, rep1 = run(capsys, "selftest", "--modes", "3", "--seed", "11")
    assert code1 == 0 and rep1["all_passed"]
    code2, rep2 = run(capsys, "selftest", "--modes", "3", "--seed", "11")
    assert rep1 == rep2  # identical report for the same seed


def test_selftest_skips_module_checks_without_generators(capsys):
    code, rep = run(capsys, "selftest", "--modes", "3", "--generators", "0")
    assert code == 0
    names = {c["name"] for c in rep["checks"]}
    assert "weyl_group_law" not in names
    assert any("skipped" in w for w in rep["warnings"])


@pytest.mark.parametrize(
    "argv", [["--modes", "-1"], ["--modes", "0"], ["--generators", "-2"]]
)
def test_selftest_rejects_bad_counts(capsys, argv):
    code, rep = run(capsys, "selftest", *argv)
    assert code == 2 and rep["exit_status"] == 2
    assert "--modes >= 1" in rep["error"]
    assert "checks" not in rep


def test_selftest_skips_checks_that_need_two_modes(capsys):
    code, rep = run(capsys, "selftest", "--modes", "1")
    assert code == 0
    skipped = {"weyl_subspace_restriction", "weyl_product_factorization"}
    assert skipped.isdisjoint(c["name"] for c in rep["checks"])
    assert any(all(n in w for n in skipped) and "skipped" in w for w in rep["warnings"])


def test_selftest_warning_names_every_capped_check(capsys):
    code, rep = run(capsys, "selftest", "--modes", "7", "--generators", "1")
    assert code == 0
    (warning,) = rep["warnings"]
    named = {inv.__name__ for inv, *_ in BATTERY if inv.__name__ in warning}
    assert named == {c["name"] for c in rep["checks"]} - {"car_anticommutators"}


@pytest.mark.parametrize(
    "argv", [["implement", "-i", "{f}"], ["compose", "-i", "{f}", "-i", "{f}"], ["selftest"]]
)
def test_dense_size_guard_exits_2(capsys, monkeypatch, identity_file, argv):
    monkeypatch.setattr(cli, "_DENSE_BYTES_LIMIT", 1024)
    code, rep = run(capsys, *(a.format(f=identity_file) for a in argv))
    assert code == 2 and rep["exit_status"] == 2
    assert "GiB limit" in rep["error"]
    assert "residuals" not in rep and "checks" not in rep


def test_dense_size_limit_admits_desk_sizes():
    assert operator_bytes(max(cli.IMPLEMENT_OPERATORS, cli.COMPOSE_OPERATORS), 11) <= _DENSE_BYTES_LIMIT
    assert dense_bytes(8, 3) <= _DENSE_BYTES_LIMIT


def test_commands_run_without_scipy(tmp_path):
    # the runtime is numpy-only: every command succeeds with scipy blocked
    rng = np.random.default_rng(3)
    files = []
    for name, n in (("a", 0), ("b", 2)):
        r = og.random_transform(4, rng, kernel_dim=n)
        files.append(write_transform(tmp_path / f"{name}.json", r.u, r.v))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        from superfock.cli import main
        a, b = {files!r}
        for argv in (["check", "-i", b], ["vacuum", "-i", b], ["implement", "-i", a],
                     ["compose", "-i", a, "-i", b], ["selftest", "--modes", "2"]):
            assert main(argv) == 0, argv
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_strict_notation_flag(capsys, identity_file):
    code, rep = run(capsys, "check", "-i", identity_file, "--strict-notation")
    assert code == 0
    assert any("tau(K, M)" in w for w in rep["warnings"])


def strict_report(text: str) -> dict:
    # json.loads would accept NaN and Infinity, which are not JSON
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [["check"], ["selftest", "--modes", "abc"], [], ["nope"], ["vacuum", "-i", "x.json", "--bogus"]],
)
def test_usage_errors_are_json_reports(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    rep = strict_report(captured.out)
    assert code == 2 and rep["exit_status"] == 2 and rep["error"]
    assert captured.err == ""


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
@pytest.mark.parametrize("command", ["check", "implement", "selftest"])
def test_tolerance_must_be_finite_and_positive(capsys, identity_file, command, tol):
    inputs = [] if command == "selftest" else ["-i", identity_file]
    code = main([command, *inputs, "--tol", tol])
    rep = strict_report(capsys.readouterr().out)
    assert code == 2 and rep["exit_status"] == 2
    assert "--tol" in rep["error"] and "valid" not in rep
    assert rep["command"] == command or tol == "abc"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: superfock check")
