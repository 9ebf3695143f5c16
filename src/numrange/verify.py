"""Seeded randomized suites exercising the mapping theorems at desk scale.

Each suite draws random matrices normalized to numerical radius 1,
checks a theorem's inequality with a small one-sided slack, and returns a
VerifyReport. Reports are deterministic functions of (suite, trials, seed):
the per-trial RNG is derived from (seed, suite id, trial index), so results
do not depend on evaluation order.

One driver, _run, holds every suite's trials. It first draws the raw
matrix random_matrix(rng) of every trial i, each from its own
rng = _trial_rng(seed, suite, i), and normalizes them all as one stack
(normalize_radii, one numerical_radii call). Then it calls the suite's
body trial(rng, T, rec) for each trial, with a _Recorder of that trial.
The body draws the rest of its data from rng, evaluates f(T) through
rec.eval_matrix, which counts scale retries, and passes each residual to
rec.record(residual, tol, witness_fn), which keeps the trial's first
witness with residual > tol, tagged with "trial": i.

A body that needs numerical radii is a generator: values = yield [F, ...]
receives w(F), ... . The bodies advance in lockstep, and each wave of
requests from all live trials is resolved by one numerical_radii call, so
the radius kernel runs on stacks instead of one matrix at a time. Each
trial draws from its own rng and records into its own recorder, so the
order in which trials advance changes nothing: the report sums failures and
retries, takes the worst residual, and keeps the witness of the lowest
failing trial.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import regions
from .blaschke import BlaschkeProduct
from .diskfun import (
    Blaschke,
    Compose,
    DiskFunction,
    Scale,
    eval_matrix,
    mobius_automorphism,
)
from .errors import NumericError, PolesNearSpectrumError
from .formats import format_complex, serialize_matrix
from .fov import arc_midpoints, numerical_radii, numerical_radius, support_values
from .linalg import min_eigenvalue

# grid points per t range of region S's boundary in the Q-form suites
BRANCH_POINTS = 21

_SUITE_IDS = {
    "berger-stampfli": 1,
    "power": 2,
    "local-ineq": 3,
    "operator-ineq": 4,
    "region-s": 5,
    "drury": 6,
    "props52": 7,
    "search": 8,
}


@dataclass
class VerifyReport:
    suite: str
    trials: int
    failures: int
    worst_residual: float
    tolerance: float
    seed: int
    retries: int = 0
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    @property
    def warning(self) -> bool:
        """Early-drift flag: passing, but worst residual above half the tolerance."""
        return self.passed and self.worst_residual > 0.5 * self.tolerance

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"trials: {self.trials}",
            f"failures: {self.failures}",
            f"retries: {self.retries}",
            f"tolerance: {self.tolerance!r}",
            f"worst_residual: {self.worst_residual!r}",
            f"warning: {'true' if self.warning else 'false'}",
            f"seed: {self.seed}",
        ]
        if self.witness is not None:
            lines.append(f"witness: {json.dumps(self.witness, sort_keys=True)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """asdict plus warning; a worst_residual of -inf (no residual was
        recorded) becomes None, as JSON has no infinities."""
        worst = self.worst_residual if math.isfinite(self.worst_residual) else None
        return {**asdict(self), "worst_residual": worst, "warning": self.warning}


class _Recorder:
    """Accumulates one trial's residuals, scale retries and first failing
    witness; trial is None for the checks that belong to no trial."""

    def __init__(self, trial: int | None = None):
        self.failures = 0
        self.worst = -math.inf
        self.witness = None
        self.retries = 0
        self.trial = trial

    def record(self, residual: float, tol: float, witness_fn):
        self.worst = max(self.worst, float(residual))  # not np.float64(...) in reports
        if residual > tol:
            self.failures += 1
            if self.witness is None:
                self.witness = witness_fn()
                if self.trial is not None:
                    self.witness["trial"] = self.trial

    def eval_matrix(self, f: DiskFunction, T: np.ndarray) -> np.ndarray:
        """eval_matrix, falling back to f(0.999 z) when a resolvent is singular."""
        try:
            return eval_matrix(f, T)
        except PolesNearSpectrumError:
            self.retries += 1
            return eval_matrix(Scale(0.999, f), T)


def _trial_rng(seed: int, suite: str, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _SUITE_IDS[suite], int(index)])


def _run(suite: str, trials: int | range, seed: int, tol: float, trial,
         after=None) -> VerifyReport:
    """Run trials 0..trials-1 of a suite, or the trial indices of a range
    (see the module docstring); after(rec), if given, then records the
    checks that belong to no trial."""
    indices = trials if isinstance(trials, range) else range(trials)
    rngs = [_trial_rng(seed, suite, i) for i in indices]
    recs = [_Recorder(i) for i in indices]
    Ts = normalize_radii([random_matrix(rng) for rng in rngs])
    _lockstep([trial(rng, T, rec) for rng, T, rec in zip(rngs, Ts, recs)])
    if after is not None:
        recs.append(_Recorder())
        after(recs[-1])
    return VerifyReport(suite, len(indices), sum(r.failures for r in recs),
                        max((r.worst for r in recs), default=-math.inf), tol, seed,
                        sum(r.retries for r in recs),
                        next((r.witness for r in recs if r.witness is not None), None))


def _lockstep(bodies) -> None:
    """Advance the generator bodies (plain bodies return None and are
    skipped) side by side: each wave of matrices they yield gets its radii
    from one numerical_radii call, and each body is sent its own."""
    live = [b for b in bodies if b is not None]
    sent = [None] * len(live)
    while live:
        asks, waiting = [], []
        for body, values in zip(live, sent):
            try:
                asks.append(body.send(values))
            except StopIteration:
                continue
            waiting.append(body)
        radii = iter(numerical_radii([M for ask in asks for M in ask]).tolist())
        sent = [[next(radii) for _ in ask] for ask in asks]
        live = waiting


def random_matrix(rng: np.random.Generator, dim: int | None = None) -> np.ndarray:
    """Uniform complex entries in [-1,1] x [-1,1]i; dim drawn from 2..8."""
    if dim is None:
        dim = int(rng.integers(2, 9))
    return rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))


def normalize_radius(T: np.ndarray) -> np.ndarray:
    """T / w(T); ValueError when w(T) is (numerically) zero."""
    return _normalized(T, numerical_radius(T))


def normalize_radii(mats) -> list[np.ndarray]:
    """T / w(T) for each T of mats, from one numerical_radii call."""
    return [_normalized(T, w) for T, w in zip(mats, numerical_radii(mats).tolist())]


def _normalized(T: np.ndarray, w: float) -> np.ndarray:
    if w < 1e-12:
        raise ValueError("matrix has (numerically) zero numerical radius")
    return T / w


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return x / np.linalg.norm(x)


def random_blaschke(rng: np.random.Generator, max_degree: int) -> BlaschkeProduct:
    """B(0) = 0, degree drawn from 1..max_degree, the other zeros uniform in
    the disk |z| < 0.9, and a random unimodular constant."""
    degree = int(rng.integers(1, max_degree + 1))
    zeros = [0j]
    while len(zeros) < degree:
        r = 0.9 * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * np.pi)
        zeros.append(r * np.exp(1j * phi))
    constant = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return BlaschkeProduct(constant, tuple(zeros))


def _matrix_witness(T: np.ndarray, **extra) -> dict:
    return {"matrix": serialize_matrix(T), **extra}


def check_berger_stampfli(trials: int | range, seed: int = 42) -> VerifyReport:
    """w(B(T)) <= 1 for random Blaschke B with B(0) = 0 and w(T) = 1."""
    tol = 1e-7
    def trial(rng, T, rec):
        B = random_blaschke(rng, max_degree=5)
        [value] = yield [rec.eval_matrix(Blaschke(B), T)]
        rec.record(value - 1.0, tol, lambda: _matrix_witness(
            T, constant=format_complex(B.constant),
            zeros=[format_complex(a) for a in B.zeros], value=value))
    return _run("berger-stampfli", trials, seed, tol, trial)


def check_power_inequality(trials: int | range, seed: int = 42) -> VerifyReport:
    """w(T^n) <= w(T)^n = 1 for n = 2..6."""
    tol = 1e-7
    def trial(rng, T, rec):
        powers = [T]
        for _ in range(2, 7):
            powers.append(powers[-1] @ T)
        values = yield powers[1:]
        for n, value in zip(range(2, 7), values):
            rec.record(value - 1.0, tol,
                       lambda: _matrix_witness(T, power=n, value=value))
    return _run("power", trials, seed, tol, trial)


def _vector_draw(rng: np.random.Generator, T: np.ndarray):
    """A random unit x for T: (Tx, <Tx,x>, a witness naming T and x)."""
    x = random_unit_vector(rng, T.shape[0])
    Tx = T @ x
    return Tx, complex(np.vdot(x, Tx)), lambda: _matrix_witness(
        T, vector=[format_complex(v) for v in x])


def check_local_inequality(trials: int | range, seed: int = 42) -> VerifyReport:
    """||Tx||^2 <= 2 + 2 sqrt(1 - |<Tx,x>|^2) for w(T) = 1 and unit x."""
    tol = 1e-9
    def trial(rng, T, rec):
        Tx, p, witness = _vector_draw(rng, T)
        bound = 2.0 + 2.0 * math.sqrt(max(0.0, 1.0 - abs(p) ** 2))
        rec.record(float(np.linalg.norm(Tx)) ** 2 - bound, tol, witness)
    return _run("local-ineq", trials, seed, tol, trial)


def check_props52(trials: int | range, seed: int = 42) -> VerifyReport:
    """The two reformulations of the local inequality: the hermitian-angle
    form ||Tx|| <= max(2|sin(angle)|, sqrt(2)) and the 2x2-corner bound
    |c| <= 1 + sqrt(1 - |a|^2)."""
    tol = 1e-9
    def trial(rng, T, rec):
        Tx, p, witness = _vector_draw(rng, T)
        norm_tx = float(np.linalg.norm(Tx))
        if norm_tx > 1e-12:
            cos_a = min(1.0, abs(p) / norm_tx)
            bound = max(2.0 * math.sqrt(1.0 - cos_a ** 2), math.sqrt(2.0))
            rec.record(norm_tx - bound, tol, witness)
        M = random_matrix(rng, dim=2)
        [w] = yield [M]
        M = _normalized(M, w)
        a, c = complex(M[0, 0]), complex(M[1, 0])
        rec.record(abs(c) - (1.0 + math.sqrt(max(0.0, 1.0 - abs(a) ** 2))), tol,
                   lambda: _matrix_witness(M))
    return _run("props52", trials, seed, tol, trial)


def _psd_grid(ts: np.ndarray, ss: np.ndarray, tol: float):
    """Trial body: Q(T, ts[j], ss[j]) >= 0 at every grid point, from one
    stacked eigensolve per trial, recorded in grid order."""
    points = list(zip(ts.tolist(), ss.tolist()))
    def trial(rng, T, rec):
        lams = min_eigenvalue(regions.q_form(T, ts, ss)).tolist()
        for (t, s), lam in zip(points, lams):
            rec.record(-lam, tol, lambda: _matrix_witness(T, t=t, s=s, lam_min=lam))
    return trial


def _boundary_points(*ranges) -> tuple[np.ndarray, np.ndarray]:
    """(ts, region_S_boundary(ts)) for ts = linspace(lo, hi, BRANCH_POINTS)
    over each range (lo, hi) in turn."""
    ts = np.concatenate([np.linspace(lo, hi, BRANCH_POINTS) for lo, hi in ranges])
    return ts, regions.region_S_boundary(ts)


def check_operator_inequality(trials: int | range, seed: int = 42) -> VerifyReport:
    """Q(T, t, t^2 - 1/4) >= 0 for t in [0, 1/2] and w(T) = 1."""
    tol = 1e-8
    return _run("operator-ineq", trials, seed, tol,
                _psd_grid(*_boundary_points((0.0, 0.5)), tol))


def _teardrop_excess(F: np.ndarray, alpha: complex, tol: float) -> tuple[float, float]:
    """(theta, excess) at the largest sampled excess of h_F over td(alpha)'s
    support, excess(theta) = h_F(theta) - teardrop_support(alpha, theta).

    That excess passes tol exactly where h_F > 1 + tol and
    h_{F - alpha I} > 1 - |alpha|^2 + tol, so it passes tol somewhere iff it
    does at an arc midpoint of both level cuts. The samples are those
    midpoints and the two tangent directions arg alpha -+ arccos|alpha|.
    """
    arcs = arc_midpoints([(F, 1.0 + tol),
                          (F - alpha * np.eye(len(F)), 1.0 - abs(alpha) ** 2 + tol)])
    psi, delta = np.angle(alpha), math.acos(abs(alpha))
    thetas = np.append(arcs, [psi - delta, psi + delta])
    excess = support_values(F, thetas) - regions.teardrop_support(alpha, thetas)
    k = int(np.argmax(excess))
    return float(thetas[k]), float(excess[k])


def check_drury(trials: int | range, seed: int = 42) -> VerifyReport:
    """W(f(T)) inside td(f(0)) and w(f(T)) <= 1 + |f(0)| - |f(0)|^2.

    The containment residual is _teardrop_excess, which certifies the whole
    circle of directions; a failing witness names its theta and excess.
    """
    tol = 1e-6
    def trial(rng, T, rec):
        r = 0.95 * math.sqrt(rng.uniform())
        alpha = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        B = random_blaschke(rng, max_degree=4)
        FT = rec.eval_matrix(Compose(mobius_automorphism(alpha), Blaschke(B)), T)
        theta, excess = _teardrop_excess(FT, alpha, tol)
        rec.record(excess, tol, lambda: _matrix_witness(
            T, alpha=format_complex(alpha), constant=format_complex(B.constant),
            zeros=[format_complex(a) for a in B.zeros], theta=theta, excess=excess))
        [value] = yield [FT]
        bound = 1.0 + abs(alpha) - abs(alpha) ** 2
        rec.record(value - bound, tol, lambda: _matrix_witness(
            T, alpha=format_complex(alpha), value=value))
    return _run("drury", trials, seed, tol, trial)


def check_region_S(trials: int | range, seed: int = 42) -> VerifyReport:
    """Boundary membership and below-boundary sharpness of the region S.

    Membership: Q(T, t, s) is PSD on the three boundary branches for random
    normalized T. Sharpness: at offset 0.01 below each branch, the proof's
    counterexample matrix produces a negative minimum eigenvalue.
    """
    tol = 1e-8
    membership = _psd_grid(*_boundary_points((0.0, 0.5), (0.5, 1.0), (1.0, 2.0)), tol)

    def sharp(rec):
        k = BRANCH_POINTS
        ts, ss = _boundary_points((0.025, 0.475), (0.51, 1.0), (1.1, 2.0))
        ss = ss - 0.01
        # the proof's counterexample below each branch: 2 x shift, -I, -(t/s) I
        shift = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        Ms = [shift] * k + [-eye] * k + [-(t / s) * eye for t, s in zip(ts[2 * k:], ss[2 * k:])]
        lams = min_eigenvalue(np.concatenate(
            [regions.q_form(shift, ts[:k], ss[:k]), regions.q_form(-eye, ts[k:2 * k], ss[k:2 * k])]
            + [regions.q_form(M, t, s)[None]
               for M, t, s in zip(Ms[2 * k:], ts[2 * k:], ss[2 * k:])]))
        for M, t, s, lam in zip(Ms, ts.tolist(), ss.tolist(), lams.tolist()):
            rec.record(lam, 0.0, lambda: _matrix_witness(M, t=t, s=s, lam_min=lam))
    return _run("region-s", trials, seed, tol, membership, sharp)


def extremal_search(f: DiskFunction, dim: int, iterations: int, seed: int = 42,
                    initial_candidates: tuple = ()) -> tuple[float, np.ndarray]:
    """Hill-climbing search for matrices maximizing w(f(T)) subject to w(T) = 1.

    Random restarts plus coordinate-wise perturbation: step 0.3 per real
    parameter, halved after 20 consecutive non-improvements, restart when
    the step drops below 1e-4. Deterministic for a fixed seed.
    """
    if dim < 1 or iterations < 1:
        raise ValueError(f"dim and iterations must be >= 1, got {dim} and {iterations}")
    rng = np.random.default_rng([int(seed), _SUITE_IDS["search"]])
    size = dim * dim

    def objective(v: np.ndarray):
        """(w(f(T)), T) for the T = normalize_radius(v as a matrix), or None."""
        try:
            Tn = normalize_radius((v[:size] + 1j * v[size:]).reshape(dim, dim))
            return numerical_radius(eval_matrix(f, Tn)), Tn
        except (NumericError, ValueError):
            return None

    def random_start():
        while True:
            v = rng.uniform(-1.0, 1.0, 2 * size)
            res = objective(v)
            if res is not None:
                return v, res

    current, best = None, (-math.inf, None)
    for cand in initial_candidates:
        cand = np.asarray(cand, dtype=complex).ravel()
        v = np.concatenate([cand.real, cand.imag])
        res = objective(v)
        if res is not None and res[0] > best[0]:
            current, best = v, res
    if current is None:
        current, best = random_start()
    value, step, stall = best[0], 0.3, 0
    for it in range(iterations):
        k = it % (2 * size)
        stall += 1
        for sign in (1.0, -1.0):
            cand = current.copy()
            cand[k] += sign * step
            res = objective(cand)
            if res is not None and res[0] > value + 1e-12:
                current, value, stall = cand, res[0], 0
                # max keeps the first of equal values, as a strict > would
                best = max(best, res, key=lambda r: r[0])
                break
        if stall >= 20:
            step, stall = step / 2.0, 0
        if step < 1e-4:
            current, res = random_start()
            value, step = res[0], 0.3
            best = max(best, res, key=lambda r: r[0])
    return best


SUITES = {
    "berger-stampfli": check_berger_stampfli,
    "power": check_power_inequality,
    "local-ineq": check_local_inequality,
    "operator-ineq": check_operator_inequality,
    "region-s": check_region_S,
    "drury": check_drury,
    "props52": check_props52,
}


def run_suites(names, trials: int | range, seed: int) -> list[VerifyReport]:
    """One report per suite name; trials is a count, or a range of trial
    indices such as range(i, i + 1) to replay trial i alone."""
    return [SUITES[name](trials, seed) for name in names]
