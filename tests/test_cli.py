import numpy as np
import pytest
import scipy.linalg.lapack

from numrange.cli import main
from numrange.formats import parse_matrix, serialize_matrix

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
    # W([t]) = {t}; the points' tolerance is one subnormal spacing, since
    # e^{i theta}(h + i h') is formed at the scale of t
    yield pytest.param(np.array([[1e-320]]), 1e-320, 5e-324, id="1x1-subnormal")
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
        dstein = scipy.linalg.lapack.dstein

        def failing(*args, **kwargs):
            z, _ = dstein(*args, **kwargs)
            return z, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dstein", failing)
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
        ("region-s", "-3.6183655786381405e-06"),
    ])
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
