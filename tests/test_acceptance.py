"""End-to-end acceptance checks.

Each test enforces one headline guarantee of the toolkit at its stated
tolerance and budget, and prints a single PASS/FAIL line so the run can be
audited from the captured output alone.
"""

import sys
import textwrap
import time

import numpy as np
import pytest

from numrange.blaschke import clark_decomposition, evaluate
from numrange.cli import main
from numrange.diskfun import Mobius, eval_matrix
from numrange.formats import serialize_matrix
from numrange.fov import boundary, numerical_radius
from numrange.linalg import min_eigenvalue, operator_norm
from numrange.regions import (
    drury_params_inner,
    drury_params_outer,
    q_form,
    teardrop_support,
)
from numrange.verify import (
    check_berger_stampfli,
    check_local_inequality,
    check_power_inequality,
    normalize_radius,
    random_blaschke,
    random_matrix,
)

SHIFT2 = np.array([[0, 2], [0, 0]], dtype=complex)
SHARP = Mobius(1, -2, 2, -1)  # z -> (1 - 2z)/(2 - z)


def report(name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget


def test_shift_matrix_range_is_unit_disk():
    t0 = time.perf_counter()
    norm_ok = abs(operator_norm(SHIFT2) - 2.0) < 1e-9
    radius_ok = abs(numerical_radius(SHIFT2) - 1.0) < 1e-9
    pts = boundary(SHIFT2, 360).points
    boundary_ok = np.max(np.abs(np.abs(pts) - 1.0)) < 1e-8
    report("shift matrix: norm 2, radius 1, unit-circle boundary",
           norm_ok and radius_ok and boundary_ok, time.perf_counter() - t0, 1.0)


def test_sharp_mobius_example():
    t0 = time.perf_counter()
    FT = eval_matrix(SHARP, SHIFT2)
    entries_ok = np.max(np.abs(FT - np.array([[0.5, -1.5], [0.0, 0.5]]))) < 1e-12
    radius_ok = abs(numerical_radius(FT) - 1.25) < 1e-9
    pts = boundary(FT, 360).points
    phis = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    sup = np.asarray(teardrop_support(0.5, phis))
    excess = np.real(np.outer(pts, np.exp(-1j * phis))) - sup[None, :]
    td_ok = excess.max() < 1e-6
    report("sharp example: f(T) entries, radius 5/4, range inside teardrop",
           entries_ok and radius_ok and td_ok, time.perf_counter() - t0, 1.0)


def test_clark_decompositions_random_products():
    t0 = time.perf_counter()
    ok = True
    for i in range(100):
        rng = np.random.default_rng([1000, i])
        B = random_blaschke(rng, max_degree=6)
        gamma = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        d = clark_decomposition(B, gamma)
        ok &= bool(np.all(d.weights > 0))
        ok &= abs(float(d.weights.sum()) - 1.0) < 1e-10
        zs = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, 100))
        lhs = 1.0 / (1.0 - np.conj(gamma) * evaluate(B, zs))
        ok &= float(np.abs(lhs - d.resolvent_sum(zs)).max()) < 1e-9
        if not ok:
            break
    report("Clark decomposition: 100 random products, weights and identity",
           ok, time.perf_counter() - t0, 5.0)


def test_local_inequality_bulk_and_equality_case():
    t0 = time.perf_counter()
    rep = check_local_inequality(10000, seed=42)
    bulk_ok = rep.failures == 0
    # equality: the shifted basis vector saturates the bound on the shift matrix
    x = np.array([0.0, 1.0], dtype=complex)
    Tx = SHIFT2 @ x
    p = complex(np.vdot(x, Tx))
    lhs = float(np.linalg.norm(Tx)) ** 2
    rhs = 2.0 + 2.0 * np.sqrt(1.0 - abs(p) ** 2)
    equality_ok = abs(lhs - 4.0) < 1e-12 and abs(rhs - 4.0) < 1e-12
    report("local inequality: 10^4 random pairs, equality witness exact",
           bulk_ok and equality_ok, time.perf_counter() - t0, 30.0)


def test_operator_inequality_grid_and_sharpness():
    t0 = time.perf_counter()
    t_grid = np.linspace(0.0, 0.5, 21)
    ok = True
    for i in range(100):
        rng = np.random.default_rng([2000, i])
        T = normalize_radius(random_matrix(rng))
        for t in t_grid:
            ok &= min_eigenvalue(q_form(T, t, t * t - 0.25)) >= -1e-8
    # strictness just below each boundary branch (offset 0.01)
    for t in np.linspace(0.05, 0.45, 9):
        ok &= min_eigenvalue(q_form(SHIFT2, t, t * t - 0.25 - 0.01)) < 0
    for t in np.linspace(0.55, 1.0, 9):
        ok &= min_eigenvalue(q_form(-np.eye(2), t, 2 * t - 1 - 0.01)) < 0
    for t in np.linspace(1.1, 2.0, 9):
        s = t * t - 0.01
        ok &= min_eigenvalue(q_form(-(t / s) * np.eye(2), t, s)) < 0
    Q = q_form(SHIFT2, 0.3, 0.3 ** 2 - 0.25 - 0.01)
    ok &= abs(np.linalg.det(Q).real - (-0.04)) < 1e-12
    report("operator inequality: PSD on the boundary grid, strict failure below",
           ok, time.perf_counter() - t0, 20.0)


def test_half_plane_parametrizations_cover_both_branches():
    t0 = time.perf_counter()
    ok = True
    alphas = np.linspace(0.0, 0.98, 50)
    for alpha in alphas:
        for c in np.linspace(-1.0, alpha, 50):
            omega, t, s = drury_params_outer(alpha, np.arccos(c))
            ok &= 0.5 - 1e-12 <= t <= 1.0 + 1e-12
            ok &= abs(s - (2.0 * t - 1.0)) < 1e-12
            ok &= abs(abs(omega) - 1.0) < 1e-12
        for c in np.linspace(alpha, 1.0, 50):
            omega, t, s = drury_params_inner(alpha, np.arccos(c))
            ok &= -1e-12 <= t <= 0.5 + 1e-12
            ok &= abs(s - (t * t - 0.25)) < 1e-12
            ok &= abs(abs(omega) - 1.0) < 1e-12
        # both parametrizations meet at cos(theta) = alpha with t = 1/2, s = 0
        _, t_out, s_out = drury_params_outer(alpha, np.arccos(alpha))
        _, t_in, s_in = drury_params_inner(alpha, np.arccos(alpha))
        ok &= abs(t_out - 0.5) < 1e-12 and abs(t_in - 0.5) < 1e-12
        ok &= abs(s_out) < 1e-12 and abs(s_in) < 1e-12
    report("half-plane parametrizations: 50x50 grid, ranges, seam, |omega|=1",
           ok, time.perf_counter() - t0, 1.0)


def test_mapping_and_power_suites_thousand_trials():
    t0 = time.perf_counter()
    bs = check_berger_stampfli(1000, seed=42)
    pw = check_power_inequality(1000, seed=42)
    report("randomized suites: berger-stampfli and power, 1000 trials each",
           bs.failures == 0 and pw.failures == 0, time.perf_counter() - t0, 60.0)


def test_full_verification_run_deterministic(tmp_path, capsys):
    t0 = time.perf_counter()
    outs = []
    rcs = []
    for name in ("first", "second"):
        path = tmp_path / f"{name}.txt"
        rcs.append(main(["verify", "--suite", "all", "--trials", "500",
                         "--seed", "42", "--output", str(path)]))
        outs.append(path.read_bytes())
    ok = rcs == [0, 0] and outs[0] == outs[1]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report("full verification: all suites, 500 trials, byte-identical rerun",
               ok, elapsed, 120.0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_range_peak_memory(tmp_path, run_fresh):
    # range at n >= 3 loads LAPACK's extension alone: about 5 MB, where the
    # whole scipy.linalg package took about 28 MB. The peak is VmHWM, not
    # ru_maxrss, which Linux carries over exec from the process that
    # started this one: here, the test runner's own peak
    (tmp_path / "three.mat").write_text(serialize_matrix(np.eye(3, k=1)))
    t0 = time.perf_counter()
    grown = float(run_fresh("-c", textwrap.dedent("""
        from numrange.cli import main

        def peak_kb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        before = peak_kb()
        assert main(["range", "three.mat", "--output", "three.csv"]) == 0
        print((peak_kb() - before) / 1024.0)
    """)))
    report(f"range at n = 3 in a fresh process: peak RSS grows {grown:.1f} MB < 10 MB",
           grown < 10.0, time.perf_counter() - t0, 30.0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_region_s_peak_memory(run_fresh):
    # region-s at 2000 trials grew the peak by 92.4 MB when every grid
    # point had its own eigensolve, and by 66.8 MB with certified points;
    # a _psds that kept every size's Q-form stack alive through both of its
    # phases grew it by 105.5 MB
    t0 = time.perf_counter()
    grown = float(run_fresh("-c", textwrap.dedent("""
        import contextlib, io
        from numrange.cli import main

        def peak_kb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        before = peak_kb()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", "region-s", "--trials", "2000"]) == 0
        print((peak_kb() - before) / 1024.0)
    """)))
    report(f"region-s at 2000 trials in a fresh process: peak RSS grows {grown:.1f} MB < 100 MB",
           grown < 100.0, time.perf_counter() - t0, 30.0)
