import argparse
import hashlib
import textwrap

import numpy as np
import pytest
from test_golden import RANGE, _matrix

from numrange import cli, fov, verify
from numrange.cli import _write_curve, build_parser, main
from numrange.errors import FunctionExprError, MatrixFileError
from numrange.formats import (
    format_complex,
    parse_complex,
    parse_function,
    parse_matrix,
    serialize_matrix,
)
from numrange.regions import teardrop_boundary

SHIFT2 = np.array([[0, 2], [0, 0]], dtype=complex)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.fixture
def shift_file(tmp_path):
    path = tmp_path / "shift.mat"
    path.write_text(serialize_matrix(SHIFT2))
    return str(path)


class TestRadius:
    def test_shift(self, shift_file, capsys):
        assert main(["radius", shift_file]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000000000"

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_matrix(np.eye(2))))
        assert main(["radius", "-"]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000000000"

    def test_missing_file(self, capsys):
        assert main(["radius", "/nonexistent/file.mat"]) == 2

    def test_bad_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 2\n1+0i oops\n0+0i 0+0i\n")
        assert main(["radius", str(bad)]) == 2

    def test_entries_near_overflow(self, tmp_path, capsys):
        # forming (T + T*)/2 overflowed, and this printed nan with exit 0
        path = tmp_path / "big.mat"
        path.write_text("dim 2\n1e308+0i 1e308+0i\n0+0i 1e308+0i\n")
        assert main(["radius", str(path)]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.5e308, rel=1e-15)

    def test_radius_beyond_float_range_is_numeric_error(self, tmp_path, capsys):
        path = tmp_path / "huge.mat"
        path.write_text("dim 2\n1.7e308+0i 1.7e308+0i\n0+0i 1.7e308+0i\n")
        assert main(["radius", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric error" in captured.err

    def test_lapack_failure_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError, and was reported as a usage error
        # (exit 2); 3x3 so that the kernel calls eigvalsh, not a closed form
        path = tmp_path / "three.mat"
        path.write_text(serialize_matrix(np.eye(3, k=1)))
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
        assert main(["radius", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric error: Eigenvalues did not converge\n"


def _edge_matrices():
    yield pytest.param(np.zeros((3, 3)), 0.0, 0.0, id="zero")
    # W([t]) = {t}; e^{i theta}(h + i h') is formed at the prescaled size,
    # so even a subnormal t comes back exactly
    yield pytest.param(np.array([[1e-320]]), 1e-320, 0.0, id="1x1-subnormal")
    for n in range(2, 17):
        for label, c in (("1", 1.0), ("2^600", 2.0 ** 600), ("2^-600", 2.0 ** -600)):
            # W(c J_n) is the disk of radius |c| cos(pi/(n+1))
            w = c * np.cos(np.pi / (n + 1))
            yield pytest.param(c * np.eye(n, k=1), w, 1e-14 * w, id=f"jordan{n}-{label}")


@pytest.mark.parametrize("T, w, tol", _edge_matrices())
def test_radius_and_range_of_edge_matrices(T, w, tol, tmp_path, capsys):
    # W(T) is the disk |z| <= w, so every point has modulus w and every
    # support value is w; for a 1x1 [t], W(T) = {t}
    path = tmp_path / "edge.mat"
    path.write_text(serialize_matrix(T))
    assert main(["radius", str(path)]) == 0
    # radius prints 15 decimals, which round by up to 5e-16: below that it reads 0
    assert abs(float(capsys.readouterr().out) - w) <= tol + 5e-16
    assert main(["range", str(path)]) == 0
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in capsys.readouterr().out.splitlines()[1:]])
    assert len(rows) == 360
    points = rows[:, 2] + 1j * rows[:, 3]
    if T.shape[0] == 1:
        assert np.all(np.abs(points - T[0, 0]) <= tol)
    else:
        assert np.all(np.abs(np.abs(points) - w) <= tol)
        assert np.all(np.abs(rows[:, 1] - w) <= tol)


@pytest.mark.parametrize("T, radius", [(np.zeros((n, n)), "0.000000000000000") for n in (1, 2, 3)]
                         + [(np.diag([1.0, 0.0, 0.0]), "1.000000000000000")],
                         ids=["zero1", "zero2", "zero3", "diag100"])
def test_zero_radius_and_supports_print_unsigned(T, radius, tmp_path, capsys):
    # h at theta + pi is -lambda_min(H(theta)), which is -0.0 where
    # lambda_min = 0: radius printed -0.000000000000000 for the 3x3 zero
    # matrix, and range printed -0 in 91 of the 360 support cells of
    # diag(1, 0, 0)
    path = tmp_path / "zero.mat"
    path.write_text(serialize_matrix(T))
    assert main(["radius", str(path)]) == 0
    assert capsys.readouterr().out == radius + "\n"
    assert main(["range", str(path)]) == 0
    supports = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert "-0" not in supports
    assert supports.count("0") == (360 if radius.startswith("0") else 180)


def test_range_points_print_unsigned_zeros(tmp_path, capsys):
    # e^{i theta}(h + i h') with h = h' = 0 is -0.0 in the real part where
    # cos theta < 0 and in the imaginary part where sin theta < 0: 180 of
    # diag(1, 0, 0)'s 360 rows printed a -0 point coordinate
    path = tmp_path / "diag100.mat"
    path.write_text(serialize_matrix(np.diag([1.0, 0.0, 0.0])))
    assert main(["range", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[92:94] == ["1.5882496193148399,0,0,0", "1.605702911834783,0,0,0"]
    assert lines[182:184] == ["3.1590459461097362,0,0,0", "3.1764992386296798,0,0,0"]
    assert not [line for line in lines if "-0" in line.split(",")]


class TestRange:
    def test_csv_circle(self, shift_file, capsys):
        assert main(["range", shift_file, "--angles", "90"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "theta,support,re,im"
        assert len(out) == 91
        for line in out[1:]:
            _, sup, re, im = map(float, line.split(","))
            assert sup == pytest.approx(1.0, abs=1e-8)
            assert abs(complex(re, im)) == pytest.approx(1.0, abs=1e-8)

    def test_svg_output_file(self, shift_file, tmp_path):
        out = tmp_path / "range.svg"
        assert main(["range", shift_file, "--out", "svg",
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "polygon" in text

    def test_too_few_angles(self, shift_file, capsys):
        assert main(["range", shift_file, "--angles", "4"]) == 2

    def test_entries_near_overflow(self, tmp_path, capsys):
        # H(theta) was formed from the raw T and overflowed: this printed
        # supports of 7.07e307 and nan points with exit 0
        path = tmp_path / "big.mat"
        path.write_text("dim 2\n1e308+0i 1e308+0i\n0+0i 1e308+0i\n")
        assert main(["range", str(path), "--angles", "8"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert rows[0][:2] == [0.0, pytest.approx(1.5e308, rel=1e-15)]

    def test_svg_of_entries_near_overflow(self, tmp_path, capsys):
        # the pixel coordinates overflow: this wrote inf coordinates with
        # exit 0; numpy must not warn about it either
        path = tmp_path / "big.mat"
        path.write_text("dim 2\n1e308+0i 1e308+0i\n0+0i 1e308+0i\n")
        assert main(["range", str(path), "--angles", "8", "--out", "svg"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric error: SVG x coordinate of point 0 is inf, not a finite number\n"

    def test_support_beyond_float_range_is_numeric_error(self, tmp_path, capsys):
        # h(0) = 2e308 overflows; numpy's eigensolver failed on the inf
        # entries of H(0), and this was reported as a usage error (exit 2)
        path = tmp_path / "huge.mat"
        path.write_text("dim 3\n1e308+0i 1e308+0i 1e308+0i\n"
                        "0+0i 1e308+0i 1e308+0i\n0+0i 0+0i 1e308+0i\n")
        assert main(["range", str(path), "--angles", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error:")

    def test_lapack_failure_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # a LAPACK routine that reports failure (info > 0) is a numeric error;
        # n = 3, since the 2x2 closed form calls no LAPACK routine
        path = tmp_path / "shift3.mat"
        path.write_text(serialize_matrix(np.eye(3, k=1)))
        dstein = fov._lapack().dstein

        def failing(*args, **kwargs):
            z, _ = dstein(*args, **kwargs)
            return z, 1

        monkeypatch.setattr(fov._lapack(), "dstein", failing)
        assert main(["range", str(path), "--angles", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric error: boundary eigenpairs: dstein returned info 1\n"


class TestClark:
    def test_z_squared(self, capsys):
        rc = main(["clark", "blaschke 1 0 0", "--gamma", "1+0i"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        atoms = [ln.split() for ln in lines[:2]]
        got = sorted(float(a[1]) for a in atoms)
        assert got == pytest.approx([0.5, 0.5])
        assert lines[2].startswith("sum_weights: 1")
        residual = float(lines[3].split()[1])
        assert residual < 1e-9

    def test_zero_near_circle(self, capsys):
        # zero (1 - 1e-6) e^{0.4i}, gamma = e^{1.1i}
        expr = "blaschke 1+0i 0+0i 0.92106007294189114+0.38941795289030822i 0+0.3i"
        gamma = "0.45359612142557731+0.89120736006143542i"
        rc = main(["clark", expr, "--gamma", gamma])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert float(lines[3].split()[1]) == pytest.approx(1.0, abs=1e-10)
        assert float(lines[4].split()[1]) < 1e-9

    def test_not_blaschke_is_precondition_error(self, capsys):
        assert main(["clark", "poly 0 1", "--gamma", "1+0i"]) == 4

    def test_no_zero_at_origin(self, capsys):
        assert main(["clark", "blaschke 1 0.5", "--gamma", "1+0i"]) == 4

    def test_bad_gamma(self, capsys):
        assert main(["clark", "blaschke 1 0", "--gamma", "0.5+0i"]) == 4

    def test_gamma_with_trailing_newline_is_usage_error(self, capsys):
        assert main(["clark", "blaschke 1 0 0", "--gamma", "1+0i\n"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_check_points_below_one_is_usage_error(self, capsys, points):
        # the atoms and sum_weights were printed before the residual's max
        # over no points failed with exit 2
        with pytest.raises(SystemExit) as e:
            main(["clark", "blaschke 1 0 0", "--gamma", "1+0i", "--check-points", points])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --check-points: must be >= 1, got {points}" in captured.err

    def test_check_points_are_kept_per_count_read_only(self, capsys):
        # the count comes from the user, so only the last few are kept
        points = cli._clark_check_points
        assert points.cache_info().maxsize == 8
        points.cache_clear()
        for count in (7, 100, 7):
            assert main(["clark", "blaschke 1 0 0", "--gamma", "1+0i",
                         f"--check-points={count}"]) == 0
        assert (points.cache_info().hits, points.cache_info().misses) == (1, 2)
        assert not points(7).flags.writeable
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12 and lines[:4] == lines[8:]


class TestTeardrop:
    def test_alpha_zero_is_unit_circle(self, capsys):
        assert main(["teardrop", "--alpha", "0+0i"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "phi,re,im"
        pts = np.array([[float(v) for v in ln.split(",")] for ln in out[1:]])
        assert np.max(np.abs(np.hypot(pts[:, 1], pts[:, 2]) - 1.0)) < 1e-12

    def test_alpha_half_reaches_five_quarters(self, capsys):
        assert main(["teardrop", "--alpha", "0.5+0i"]) == 0
        out = capsys.readouterr().out.splitlines()[1:]
        xs = np.array([float(ln.split(",")[1]) for ln in out])
        assert xs.max() == pytest.approx(1.25, abs=1e-9)

    def test_bad_alpha(self, capsys):
        assert main(["teardrop", "--alpha", "2+0i"]) == 2
        assert main(["teardrop", "--alpha", "junk"]) == 2

    @pytest.mark.parametrize("alpha, message", [
        ("junk", "not a complex literal: 'junk'"),
        ("1.1", "|alpha| must be <= 1, got 1.1"),
    ])
    def test_bad_alpha_message(self, capsys, alpha, message):
        assert main(["teardrop", f"--alpha={alpha}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_svg(self, tmp_path):
        out = tmp_path / "td.svg"
        assert main(["teardrop", "--alpha", "0.5+0i", "--out", "svg",
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("<svg")


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "power", "--trials", "10",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "suite: power" in out
        assert "failures: 0" in out

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["verify", "--suite", "local-ineq", "--trials", "10",
                         "--seed", "9", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suite, worst", [
        ("operator-ineq", "-0.0030636572680443064"),
        ("region-s", "-3.6183655789167194e-06"),
    ], ids=["operator-ineq", "region-s"])
    def test_q_form_suite_reports_are_pinned(self, capsys, suite, worst):
        # these bits must survive any batching or reordering of the solves
        assert main(["verify", "--suite", suite, "--trials", "50", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            f"suite: {suite}\ntrials: 50\nfailures: 0\nretries: 0\n"
            f"tolerance: 1e-08\nworst_residual: {worst}\nwarning: false\nseed: 3\n")

    def test_json_output(self, capsys):
        import json
        assert main(["verify", "--suite", "props52", "--trials", "5",
                     "--seed", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["suite"] == "props52"
        assert data[0]["failures"] == 0

    def test_json_without_residuals_is_valid_json(self, capsys):
        # a report with no trials has worst_residual -inf, which was written
        # as -Infinity, a token JSON does not have
        import json

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        assert main(["verify", "--suite", "power", "--trials", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert data[0]["worst_residual"] is None
        assert main(["verify", "--suite", "power", "--trials", "0"]) == 0
        assert "worst_residual: -inf\n" in capsys.readouterr().out

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMRANGE_SEED", "123")
        assert main(["verify", "--suite", "props52", "--trials", "1"]) == 0
        assert "seed: 123\n" in capsys.readouterr().out

    def test_malformed_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMRANGE_SEED", "7x")
        for argv in (["verify", "--suite", "props52", "--trials", "1"],
                     ["search", "blaschke 1 0", "--iters", "1"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2
            assert "argument --seed: invalid int value: '7x'" in capsys.readouterr().err

    def test_explicit_seed_overrides_malformed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMRANGE_SEED", "7x")
        assert main(["verify", "--suite", "props52", "--trials", "1", "--seed", "5"]) == 0
        assert "seed: 5\n" in capsys.readouterr().out

    def test_env_seed_is_read_on_every_call(self, capsys, monkeypatch):
        # the parser is built once per process; its --seed default is not
        argv = ["verify", "--suite", "props52", "--trials", "1"]
        outs = {}
        for seed in ("123", "7", None):
            if seed is None:
                monkeypatch.delenv("NUMRANGE_SEED", raising=False)
            else:
                monkeypatch.setenv("NUMRANGE_SEED", seed)
            assert main(argv) == 0
            outs[seed] = capsys.readouterr().out
            assert f"seed: {seed or 42}\n" in outs[seed]
        monkeypatch.setenv("NUMRANGE_SEED", "7x")
        for bad in (argv, ["radius"]):
            with pytest.raises(SystemExit) as e:
                main(bad)
            assert e.value.code == 2
        monkeypatch.delenv("NUMRANGE_SEED")
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == outs[None]

    @pytest.mark.parametrize("extra", [["--trial", "-1"], ["--trial", "2", "--trials", "5"],
                                       ["--trials", "-3"]])
    def test_bad_trial_is_usage_error(self, capsys, extra):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--suite", "props52"] + extra)
        assert e.value.code == 2

    def test_worst_residual_prints_as_a_float(self, capsys):
        # drury's radius residual was a numpy scalar, and the report read
        # "worst_residual: np.float64(-0.0385670075054485)"
        assert main(["verify", "--suite", "drury", "--seed", "1844281053", "--trial", "17"]) == 0
        assert "worst_residual: -0.0385670075054485\n" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--suite", "nope"])
        assert e.value.code == 2

    @pytest.mark.parametrize("suite", ["berger-stampfli", "power", "drury"])
    def test_nan_residual_is_numeric_error(self, capsys, monkeypatch, suite):
        # every radius answer gives NaN: a NaN residual compared false with
        # tol and was dropped from the worst, so berger-stampfli's report
        # read "failures: 0" and "worst_residual: -inf", and passed
        def nan_radii(items):
            return [float("nan")] * len(items)

        monkeypatch.setattr(verify, "_checked_radii", nan_radii)
        assert main(["verify", "--suite", suite, "--trials", "5", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "residual nan is not a finite number" in captured.err


class TestSearch:
    def test_sharp_example(self, capsys):
        rc = main(["search", "mobius 1 -2 2 -1", "--dim", "2",
                   "--iters", "30", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith("best_w:")
        assert float(first.split()[1]) >= 1.25 - 1e-6
        witness = parse_matrix("\n".join(out.splitlines()[1:]) + "\n")
        assert witness.shape == (2, 2)

    def test_witness_file_matches_stdout(self, capsys, tmp_path):
        argv = ["search", "poly 0 0 1", "--iters", "5", "--seed", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        path = tmp_path / "witness.mat"
        assert main(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out + path.read_text() == out

    def test_bad_expression(self, capsys):
        assert main(["search", "frobnicate 1"]) == 2

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_is_usage_error(self, capsys, dim):
        # --dim 0 looped for ever: every objective of an empty matrix failed
        assert main(["search", "poly 0 1", "--dim", dim]) == 2
        assert capsys.readouterr().err.startswith(f"error: dim and iterations must be >= 1, got {dim}")

    def test_no_finite_start_is_numeric_error(self, run_fresh):
        # T / 1e-320 overflows at every draw, so no random start has a
        # finite w(f(T)); the search looped for ever. A fresh process under
        # a timeout turns such a loop into a failure
        out = run_fresh("-W", "error", "-c", textwrap.dedent("""
            import contextlib, io
            from numrange.cli import main

            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["search", "mobius 0 1 1e-320 0", "--iters", "2"])
            print(code, err.getvalue(), end="")
        """))
        assert out == "3 numeric error: w(f(T)) is not finite at 1000 random starts in a row\n"


@pytest.mark.parametrize("argv, error, message", [
    (["search", "poly 1 x"], FunctionExprError,
     "polynomial coefficient: not a complex literal: 'x'"),
    (["search", "mobius 1 1 0 0"], FunctionExprError, "Mobius denominator is identically zero"),
    (["search", "scale 2 ( poly 0 1 )"], FunctionExprError, "rho must be in (0, 1], got 2.0"),
    (["radius", "big.mat"], MatrixFileError, "matrix has non-finite entries"),
    # 1e999 reads as inf: poly looped for ever, and mobius printed best_w 0
    (["search", "poly 0 1e999", "--iters", "2"], FunctionExprError,
     "polynomial coefficient c1 must be finite, got (inf+0j)"),
    (["search", "mobius 1 1 1e999 0", "--iters", "2"], FunctionExprError,
     "Mobius coefficient c must be finite, got (inf+0j)"),
], ids=["poly-token", "mobius-zero-denominator", "scale-rho", "matrix-overflow",
        "poly-inf", "mobius-inf"])
def test_parse_errors_exit_2(capsys, tmp_path, monkeypatch, argv, error, message):
    # each is the parse layer's own error type, which main maps to exit 2
    # with its message and no output
    (tmp_path / "big.mat").write_text("dim 1\n1e999+0i\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as info:
        if argv[0] == "radius":
            parse_matrix((tmp_path / argv[1]).read_text())
        else:
            parse_function(argv[1])
    assert str(info.value) == message
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, option", [
    (["verify", "--suite", "drury", "--trials", "x"], "--trials"),
    (["verify", "--suite", "drury", "--trial", "1.5"], "--trial"),
    (["clark", "blaschke 1 0 0", "--gamma", "1+0i", "--check-points", "y"], "--check-points"),
])
def test_non_integer_count_is_usage_error(capsys, argv, option):
    # argparse named the private type function: "invalid _nonnegative value"
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid int value: {argv[-1]!r}" in captured.err


def test_parser_is_built_once_per_process(shift_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    build_parser.cache_clear()
    calls = [["radius", shift_file], ["range", shift_file, "--angles", "8"],
             ["range", shift_file, "--angles", "8", "--out", "svg"],
             ["clark", "blaschke 1 0 0", "--gamma", "1+0i"],
             ["teardrop", "--alpha", "0.5+0i"], ["teardrop", "--alpha", "0+0i", "--out", "svg"],
             ["verify", "--suite", "props52", "--trials", "1"],
             ["search", "poly 0 1", "--iters", "1"]]
    calls = (calls * 3)[:20]
    assert main(calls[0]) == 0
    first = len(built)
    for argv in calls[1:]:
        assert main(argv) == 0, argv
    assert first == 7  # numrange and its six subcommands
    assert len(built) == first
    assert build_parser.cache_info().misses == 1


def _old_csv(header, rows):
    return header + "\n" + "".join(",".join("{:.17g}".format(v) for v in row) + "\n"
                                   for row in rows)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1e-300, 0.1, 1 / 3, 2.0]


@pytest.mark.parametrize("header", ["phi,re,im", "theta,support,re,im"])
@pytest.mark.parametrize("m", [1, len(EDGE_FLOATS)])
def test_curve_csv_matches_per_value_format(capsys, header, m):
    # each column is a rotation of EDGE_FLOATS, so every value meets every slot
    k = len(header.split(","))
    table = np.array([np.roll(EDGE_FLOATS, j)[:m] for j in range(k)]).T
    points = np.empty(m, dtype=complex)
    points.real, points.imag = table[:, -2], table[:, -1]
    _write_curve(argparse.Namespace(out="csv", output="-"), header,
                 tuple(table[:, :-2].T), points, "#000000")
    assert capsys.readouterr().out == _old_csv(header, table.tolist())


def _teardrop_alphas() -> list[str]:
    """About 300 seeded alpha literals: the benchmark's |alpha| <= 0.95,
    moduli up to 1 - 1e-13 (past it td(alpha) is the unit disk), both axes
    with either sign of zero, and four fixed cases."""
    rng = np.random.default_rng(27)
    unit = np.exp(2j * np.pi * rng.uniform(size=240))
    moduli = np.concatenate((0.95 * np.sqrt(rng.uniform(size=200)),
                             1.0 - np.geomspace(1e-2, 1e-13, 40)))
    axis = rng.uniform(-1.0, 1.0, 14)
    alphas = [complex(m * u) for m, u in zip(moduli, unit)]
    alphas += [complex(sign, x) for x in axis for sign in (0.0, -0.0)]
    alphas += [complex(x, sign) for x in axis for sign in (0.0, -0.0)]
    alphas += [complex(0.5, 0.0), complex(0.0, -1.0), complex(1.0, 0.0)]
    return ["0", "-0-0i", "1e-13", "-1"] + [format_complex(a) for a in alphas]


def test_teardrop_csv_matches_per_value_format(capsys):
    # the unit-circle rows come from a table; each row must still be the
    # bytes of formatting its own values
    for alpha in _teardrop_alphas():
        assert main(["teardrop", f"--alpha={alpha}", "--out", "csv"]) == 0
        phis, points = teardrop_boundary(parse_complex(alpha))
        rows = np.column_stack((phis, points.real, points.imag)).tolist()
        assert capsys.readouterr().out == _old_csv("phi,re,im", rows), alpha


def test_teardrop_csv_takes_unit_circle_rows_from_the_table(capsys, monkeypatch):
    seen = []
    csv_rows = cli._csv_rows

    def spy(table, known=None):
        seen.append((table.shape, known))
        return csv_rows(table, known)

    monkeypatch.setattr(cli, "_csv_rows", spy)
    assert main(["teardrop", "--alpha=0.5", "--out", "csv"]) == 0
    # 479 of the 762 rows come from the table whole; the 241 on the small
    # circle take their grid angle's text and format only re and im, in one
    # pass; the 42 on the tangent segments are formatted whole, in another
    (rows, (texts, widths)), (whole, none), (tails, none_too) = seen
    assert (rows, whole, tails) == ((762, 3), (42, 3), (241, 2))
    assert none is none_too is None
    assert np.bincount(widths).tolist() == [42, 241, 0, 479]
    assert np.not_equal(texts, None).sum() == 479 + 241
    assert all(text.endswith(",") for text in texts[widths == 1])


def test_scipy_is_imported_only_where_it_is_used(tmp_path, run_fresh):
    # every other test process has scipy already, from the tests' own imports
    for name, T in (("one", [[0.5]]), ("two", SHIFT2), ("three", np.eye(3, k=1))):
        (tmp_path / f"{name}.mat").write_text(serialize_matrix(np.array(T, dtype=complex)))
    for argvs in ([["radius", "three.mat"], ["range", "two.mat"], ["range", "one.mat"],
                   ["clark", "blaschke 1 0 0.5", "--gamma", "1+0i"],
                   ["teardrop", "--alpha", "0.3+0.2i"], ["teardrop", "--alpha=-0.5-0.1i"]],
                  [["verify", "--suite", "all", "--trials", "2"]],
                  [["search", "blaschke 1 0.5", "--iters", "5", "--seed", "3"]]):
        # the teardrop table is built by the first teardrop CSV, not at
        # import, and the second one reuses it
        tables = (1, 1) if any(argv[0] == "teardrop" for argv in argvs) else (0, 0)
        run_fresh("-c", textwrap.dedent(f"""
            import sys
            import numrange
            import numrange.cli
            assert numrange.cli.build_parser.cache_info().currsize == 0
            assert numrange.cli._unit_circle_rows.cache_info().currsize == 0
            for argv in {argvs!r}:
                assert numrange.cli.main(argv) == 0, argv
            loaded = [m for m in ("scipy", "scipy.linalg") if m in sys.modules]
            assert not loaded, loaded
            built = numrange.cli._unit_circle_rows.cache_info()
            assert (built.misses, built.hits) == {tables!r}, built
        """))
    # range at n >= 3 loads LAPACK's extension module alone, on first use,
    # and prints the golden bytes, which the golden tests check only with
    # scipy.linalg already loaded
    (tmp_path / "seeded5.mat").write_text(serialize_matrix(_matrix("seeded5")))
    out = run_fresh("-c", textwrap.dedent("""
        import sys
        from numrange.cli import main
        assert main(["range", "seeded5.mat", "--angles", "360"]) == 0
        loaded = [m for m in ("scipy.linalg", "scipy.linalg._flapack") if m in sys.modules]
        assert not loaded, loaded
    """))
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == RANGE["seeded5"][0]


def test_range_without_the_extension_file_prints_the_same_bytes(tmp_path, run_fresh):
    # where no extension file lies beside scipy.linalg, as in an editable
    # install, fov imports scipy.linalg.lapack instead
    (tmp_path / "seeded5.mat").write_text(serialize_matrix(_matrix("seeded5")))
    out = run_fresh("-c", textwrap.dedent("""
        import sys
        from numrange import fov
        from numrange.cli import main

        class NoFile:
            @staticmethod
            def find_spec(name, path=None, target=None):
                return None

        fov.PathFinder = NoFile
        assert main(["range", "seeded5.mat", "--angles", "360"]) == 0
        assert "scipy.linalg" in sys.modules
    """))
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == RANGE["seeded5"][0]


def test_scipy_linalg_imports_after_the_extension_is_loaded(run_fresh):
    # the extension registers itself in sys.modules as it loads; left there,
    # it kept a later import scipy.linalg from setting its _flapack attribute
    run_fresh("-c", textwrap.dedent("""
        import sys
        import numpy as np
        from numrange import fov
        lapack = fov._lapack()
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg
        assert scipy.linalg._flapack.zhetrd is lapack.zhetrd
        assert scipy.linalg.lapack.dstein is lapack.dstein
        assert scipy.linalg.eigvalsh(np.diag([2.0, 1.0])).tolist() == [1.0, 2.0]
        # once scipy.linalg is loaded, fov takes its module
        fov._lapack.cache_clear()
        assert fov._lapack() is scipy.linalg._flapack
    """))


def test_python_m_numrange(tmp_path, run_fresh):
    (tmp_path / "one.mat").write_text(serialize_matrix(np.array([[0.5]], dtype=complex)))
    assert run_fresh("-m", "numrange", "radius", "one.mat") == "0.500000000000000\n"
