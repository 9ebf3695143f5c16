"""Seeded randomized suites exercising the mapping theorems at desk scale.

Each suite draws random matrices normalized to numerical radius 1,
checks a theorem's inequality with a small one-sided slack, and returns a
VerifyReport. Reports are deterministic functions of (suite, trials, seed):
the per-trial RNG is derived from (seed, suite id, trial index), so results
do not depend on evaluation order.

One driver, _run, holds every suite's trials. It runs their indices in
consecutive blocks of TRIAL_BLOCK, so that its peak memory is set by the
block, not by the trial count. For each block it draws the raw matrix
random_matrix(rng) of every trial i, each from its own
rng = _trial_rng(seed, suite, i), and normalizes them all as one stack
(normalize_radii, one numerical_radii call). Then it calls the suite's
body trial(rng, T, rec) for each trial, with a _Recorder of that trial.
The body draws the rest of its data from rng, steps through f(T) with
yield from rec.eval_matrix, which counts scale retries, and passes each
residual to rec.record(residual, tol, witness_fn), which keeps the trial's
first witness with residual > tol, tagged with "trial": i; a grid's
residuals go as one array to rec.record_all, which records them in turn.

A body that needs a kernel is a generator, and each value it yields is a
request (answer, items) with a list of items; lockstep.run joins the
items of all trials of a wave that name that answer, calls answer once on
them, and sends each trial the answers to its own items:
(numerical_radii, [M]) receives [w(M)]; (_checked_radii,
[(F, bound, tol), ...]), the request of the radius checks
w(F) - bound <= tol of berger-stampfli, power and drury, receives one
value per F, which is w(F) wherever w(F) - bound may exceed tol or be the
largest of the call, and elsewhere a value at most w(F) whose excess over
bound also passes tol and stays below that largest one (numerical_radii
with checks); (level_cuts, [(F, c), ...]) the level cuts of those pairs,
whose arc midpoints the body takes itself (cut_midpoints);
(support_samples, [(F, thetas)]) [h_F at thetas]; (answer, [T]), the
request of the Q-form suites' checks lambda_min(Q(T, ts[j], ss[j])) >=
-tol, whose answer _psd_grid builds once per suite call to call
_psds(mats, ts, ss, tol) on the distinct points of its grid, receives for
each j that smallest eigenvalue, or a level c below it where
linalg.certify_above proves that the point passes tol and stays below the
largest residual the call solves exactly; and f's own
requests (diskfun._solve_systems, systems), one per level of its
expression tree, the solutions of those resolvent systems, or a
PolesNearSpectrumError raised at the yield. The bodies of a block advance
in lockstep (one lockstep.run per block), so each wave of requests from
all its live trials costs one numerical_radii call, one level_cuts call (one
stacked eigenvalue call per size), one support_samples sweep, one stacked
solve per size for the resolvents, and for the Q-form grids one stacked
eigensolve per size at every SUBGRID-th point and one stacked Cholesky
certificate per size at the others: the kernels run on stacks instead of
one matrix at a time. Each trial draws from its own rng and records into
its own recorder, so the order in which trials advance changes nothing:
the report sums failures and retries, takes the worst residual, and keeps
the witness of the lowest failing trial, and each block folds its
recorders into these totals in trial order before the next block starts.
A trial whose radius check stops early passes either way, and its
residual stays below one that another trial of the same call records, so
the report is the one exact radii give.

The same holds for a certified grid point. Let W0 be the largest residual
-lambda_min that _psds solves exactly at the subgrid, and m a margin of
1e-12 ||Q||_2 or more, many times eigvalsh's rounding (about n eps
||Q||_2). A point certified at c = min(W0, tol) - m has lambda_min > c, so
its residual from exact eigenvalues would be below min(W0, tol), and the
residual recorded for it, -c, is below it too: either passes tol, and
neither is the call's worst, which is at least W0. So failures,
worst_residual, the witness and every report byte are those of exact
eigenvalues at every point. A residual that is not a finite number raises
NumericError (exit 3), as no comparison with tol could count it.

Nor does the block size change a report byte. Every kernel gives a member
of a stack the same bits whatever else shares the call, so a trial's
residuals that are not stopped or certified are the same in any block. A
matrix that the checks stop in a block, or a grid point certified below
that block's W0, passes tol and lies below the block's worst residual: it
is neither a failure nor the block's worst, so nor the run's, and each
total is the one exact values give, whatever the blocks.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import lockstep, regions
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
from .fov import (
    cut_midpoints,
    level_cuts,
    numerical_radii,
    numerical_radius,
    support_samples,
)
from .linalg import certify_above, min_eigenvalue

# grid points per t range of region S's boundary in the Q-form suites
BRANCH_POINTS = 21

# _psds solves lambda_min exactly at every SUBGRID-th point of the grid it
# is called with (indices 0, 10, 20, ... of the distinct points that
# _psd_grid passes: each branch's two ends and its midpoint), one mask per
# call, and certifies the other points below the largest residual found
# there by a margin of Q_MARGIN times a bound on ||Q||_2: many times
# eigvalsh's rounding, about n eps ||Q||_2
SUBGRID = BRANCH_POINTS // 2
Q_MARGIN = 1e-12

# _run draws, normalizes and runs the trials of a suite call in consecutive
# blocks of this many indices, so that its peak memory does not grow with
# the trial count; no report depends on it (see the module docstring)
TRIAL_BLOCK = 256

# extremal_search's random restarts give up after this many consecutive
# draws whose w(f(T)) is not a finite number
START_DRAWS = 1000

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


def _not_finite(residual):
    raise NumericError(f"residual {float(residual)} is not a finite number")


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
        """Count residual as a failure above tol and keep the largest;
        NumericError if it is not a finite number, which no comparison
        would count."""
        if not math.isfinite(residual):
            _not_finite(residual)
        self.worst = max(self.worst, float(residual))  # not np.float64(...) in reports
        if residual > tol:
            self._fail(1, witness_fn)

    def record_all(self, residuals: np.ndarray, tol: float, witness_fn):
        """record(residuals[j], tol, lambda: witness_fn(j)) for each j in
        turn, in one call: the largest residual is the first one that the
        max fold keeps, and the witness that of the first failing j."""
        finite = np.isfinite(residuals)
        if not finite.all():
            _not_finite(residuals[finite.argmin()])
        if residuals.size:
            self.worst = max(self.worst, float(residuals[residuals.argmax()]))
            failing = np.flatnonzero(residuals > tol)
            if failing.size:
                self._fail(failing.size, lambda: witness_fn(int(failing[0])))

    def _fail(self, count: int, witness_fn):
        """Count failures, and keep the first one's witness, tagged with
        the trial."""
        self.failures += count
        if self.witness is None:
            self.witness = witness_fn()
            if self.trial is not None:
                self.witness["trial"] = self.trial

    def absorb(self, other: _Recorder):
        """Fold in a later recorder's counts, worst residual (the first of
        equal ones stays, as in record) and witness, if none is kept yet."""
        self.failures += other.failures
        self.retries += other.retries
        self.worst = max(self.worst, other.worst)
        if self.witness is None:
            self.witness = other.witness

    def eval_matrix(self, f: DiskFunction, T: np.ndarray):
        """A body's steps (yield from) for f(T): those of f.steps(T), and
        those of f(0.999 z) when a resolvent of f(T) is singular."""
        try:
            return (yield from f.steps(T))
        except PolesNearSpectrumError:
            self.retries += 1
            return (yield from Scale(0.999, f).steps(T))


def _trial_rng(seed: int, suite: str, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _SUITE_IDS[suite], int(index)])


def _run(suite: str, trials: int | range, seed: int, tol: float, trial,
         after=None) -> VerifyReport:
    """Run trials 0..trials-1 of a suite, or the trial indices of a range,
    in consecutive blocks of TRIAL_BLOCK indices (see the module
    docstring): each block draws, normalizes (one normalize_radii call) and
    runs its trials (one lockstep.run), and folds their recorders into the
    run's totals in trial order, so that no trial's objects outlive its
    block. after(rec), if given, then records the checks that belong to no
    trial."""
    indices = trials if isinstance(trials, range) else range(trials)
    total = _Recorder()
    for start in range(0, len(indices), TRIAL_BLOCK):
        block = indices[start:start + TRIAL_BLOCK]
        rngs = [_trial_rng(seed, suite, i) for i in block]
        recs = [_Recorder(i) for i in block]
        Ts = normalize_radii([random_matrix(rng) for rng in rngs])
        lockstep.run([trial(rng, T, rec) for rng, T, rec in zip(rngs, Ts, recs)])
        for rec in recs:
            total.absorb(rec)
    if after is not None:
        rec = _Recorder()
        after(rec)
        total.absorb(rec)
    return VerifyReport(suite, len(indices), total.failures, total.worst, tol, seed,
                        total.retries, total.witness)


def _checked_radii(items):
    """A value for each (F, bound, tol) of items, from one numerical_radii
    call with those checks: w(F) where w(F) - bound may exceed tol or be
    the call's largest, else a value at most w(F) whose excess over bound
    is below that largest one."""
    return numerical_radii([F for F, _, _ in items],
                           [(bound, tol) for _, bound, tol in items]).tolist()


def _psds(mats, ts, ss, tol):
    """For each T of mats, a value for each grid point j: the smallest
    eigenvalue of Q(T, ts[j], ss[j]), or a level c below it where that
    point provably passes tol and cannot set the call's worst residual.

    Phase 1 solves lambda_min exactly at every SUBGRID-th point, one
    q_form stack and one min_eigenvalue call per size of T; W0 is the
    largest residual -lambda_min found there. Phase 2 then builds the
    other points' Q-forms, size by size, and answers
    c = min(W0, tol) - m for T, m = Q_MARGIN (1 + 2 max |t| ||T||_F +
    max |s| ||T||_F^2) >= Q_MARGIN ||Q||_2, where certify_above proves
    lambda_min > c, and the exact lambda_min elsewhere.
    """
    sizes = {}
    for i, T in enumerate(mats):
        sizes.setdefault(T.shape, []).append(i)
    sub = np.zeros(len(ts), dtype=bool)
    sub[::SUBGRID] = True
    rest = ~sub
    stacks = []
    for run in sizes.values():
        Ts = np.stack([mats[i] for i in run])
        values = np.empty((len(run), len(ts)))
        values[:, sub] = min_eigenvalue(_q_stack(Ts, ts[sub], ss[sub])).reshape(len(run), -1)
        stacks.append((run, Ts, values))
    w0 = max(-values[:, sub].min() for *_, values in stacks)
    lams = [None] * len(mats)
    for run, Ts, values in stacks:
        fro = np.linalg.norm(Ts, axis=(-2, -1))
        margin = Q_MARGIN * (1.0 + 2.0 * np.abs(ts).max() * fro + np.abs(ss).max() * fro ** 2)
        Q = _q_stack(Ts, ts[rest], ss[rest])
        answer = np.repeat(margin - min(w0, tol), rest.sum())
        exact = ~certify_above(Q, answer)
        if exact.any():
            answer[exact] = min_eigenvalue(Q[exact])
        values[:, rest] = answer.reshape(len(run), -1)
        for i, row in zip(run, values):
            lams[i] = row
    return lams


def _q_stack(Ts: np.ndarray, ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Q(Ts[i], ts[j], ss[j]) for each i and j, in that order, as one
    (m k, n, n) stack."""
    Q = regions.q_form(Ts, ts, ss)
    return Q.reshape(-1, *Q.shape[-2:])


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
        FT = yield from rec.eval_matrix(Blaschke(B), T)
        [value] = yield _checked_radii, [(FT, 1.0, tol)]
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
        values = yield _checked_radii, [(F, 1.0, tol) for F in powers[1:]]
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
        [w] = yield numerical_radii, [M]
        M = _normalized(M, w)
        a, c = complex(M[0, 0]), complex(M[1, 0])
        rec.record(abs(c) - (1.0 + math.sqrt(max(0.0, 1.0 - abs(a) ** 2))), tol,
                   lambda: _matrix_witness(M))
    return _run("props52", trials, seed, tol, trial)


def _psd_grid(ts: np.ndarray, ss: np.ndarray, tol: float):
    """Trial body: Q(T, ts[j], ss[j]) >= 0 at every grid point, from one
    _psds call that stacked eigensolves and Cholesky certificates answer
    for every trial of a wave, recorded in grid order.

    The grid owns its request: the answer, built once per suite call, asks
    _psds about each distinct point once. A grid that repeats a point, as
    region-s's does where two branches of S meet (t = 0.5 and t = 1), is
    asked without the repeats, which then take their first copy's value,
    as their Q-forms are bitwise equal."""
    # ts rises and ss = S(ts) is a function of t, so equal t means an equal
    # point, and np.unique's sorted order keeps first copies in grid order
    _, keep, back = np.unique(ts, return_index=True, return_inverse=True)
    points = list(zip(ts.tolist(), ss.tolist()))
    grid = ts[keep], ss[keep]
    answer = lambda mats: _psds(mats, *grid, tol)
    def trial(rng, T, rec):
        [lams] = yield answer, [T]
        rec.record_all(-lams[back], tol, lambda j: _matrix_witness(
            T, t=points[j][0], s=points[j][1], lam_min=float(lams[back[j]])))
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


def _excess_body(F: np.ndarray, alpha: complex, tol: float):
    """A lockstep body that returns (theta, excess) at the largest sampled
    excess of h_F over td(alpha)'s support, excess(theta) = h_F(theta) -
    teardrop_support(alpha, theta): it yields the two level pairs, then the
    support samples.

    That excess passes tol exactly where h_F > 1 + tol and
    h_{F - alpha I} > 1 - |alpha|^2 + tol, so it passes tol somewhere iff it
    does at an arc midpoint of both level cuts. The samples are those
    midpoints and the two tangent directions arg alpha -+ arccos|alpha|.
    """
    cuts = yield level_cuts, [(F, 1.0 + tol),
                              (F - alpha * np.eye(len(F)), 1.0 - abs(alpha) ** 2 + tol)]
    psi, delta = np.angle(alpha), math.acos(abs(alpha))
    thetas = np.append(cut_midpoints(cuts), [psi - delta, psi + delta])
    [h] = yield support_samples, [(F, thetas)]
    excess = h - regions.teardrop_support(alpha, thetas)
    k = int(np.argmax(excess))
    return float(thetas[k]), float(excess[k])


def check_drury(trials: int | range, seed: int = 42) -> VerifyReport:
    """W(f(T)) inside td(f(0)) and w(f(T)) <= 1 + |f(0)| - |f(0)|^2.

    The containment residual is _excess_body's, which certifies the whole
    circle of directions; a failing witness names its theta and excess.
    Each trial's waves ask for the resolvent solves of B(T), then of
    phi_alpha(B(T)), its level cuts, its support samples and w(f(T)) in
    turn.
    """
    tol = 1e-6
    def trial(rng, T, rec):
        r = 0.95 * math.sqrt(rng.uniform())
        alpha = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        B = random_blaschke(rng, max_degree=4)
        FT = yield from rec.eval_matrix(Compose(mobius_automorphism(alpha), Blaschke(B)), T)
        theta, excess = yield from _excess_body(FT, alpha, tol)
        rec.record(excess, tol, lambda: _matrix_witness(
            T, alpha=format_complex(alpha), constant=format_complex(B.constant),
            zeros=[format_complex(a) for a in B.zeros], theta=theta, excess=excess))
        bound = 1.0 + abs(alpha) - abs(alpha) ** 2
        [value] = yield _checked_radii, [(FT, bound, tol)]
        rec.record(value - bound, tol, lambda: _matrix_witness(
            T, alpha=format_complex(alpha), value=value))
    return _run("drury", trials, seed, tol, trial)


@functools.cache
def _sharpness_table() -> tuple[tuple, tuple, tuple, np.ndarray]:
    """(Ms, ts, ss, lams) of region-s's sharpness check: at offset 0.01
    below each branch, the proof's counterexample M (2 x shift, -I,
    -(t/s) I) and lambda_min of Q(M, t, s). It depends on no seed or trial
    count, so it is built once per process, on the first region-s call."""
    k = BRANCH_POINTS
    ts, ss = _boundary_points((0.025, 0.475), (0.51, 1.0), (1.1, 2.0))
    ss = ss - 0.01
    shift = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    Ms = [shift] * k + [-eye] * k + [-(t / s) * eye for t, s in zip(ts[2 * k:], ss[2 * k:])]
    lams = min_eigenvalue(np.stack([regions.q_form(M, t, s) for M, t, s in zip(Ms, ts, ss)]))
    lams.flags.writeable = False
    return tuple(Ms), tuple(ts.tolist()), tuple(ss.tolist()), lams


def check_region_S(trials: int | range, seed: int = 42) -> VerifyReport:
    """Boundary membership and below-boundary sharpness of the region S.

    Membership: Q(T, t, s) is PSD on the three boundary branches for random
    normalized T. Sharpness: at offset 0.01 below each branch, the proof's
    counterexample matrix produces a negative minimum eigenvalue.
    """
    tol = 1e-8
    membership = _psd_grid(*_boundary_points((0.0, 0.5), (0.5, 1.0), (1.0, 2.0)), tol)

    def sharp(rec):
        Ms, ts, ss, lams = _sharpness_table()
        rec.record_all(lams, 0.0, lambda j: _matrix_witness(
            Ms[j], t=ts[j], s=ss[j], lam_min=float(lams[j])))
    return _run("region-s", trials, seed, tol, membership, sharp)


def extremal_search(f: DiskFunction, dim: int, iterations: int, seed: int = 42,
                    initial_candidates: tuple = ()) -> tuple[float, np.ndarray]:
    """Hill-climbing search for matrices maximizing w(f(T)) subject to w(T) = 1.

    Random restarts plus coordinate-wise perturbation: step 0.3 per real
    parameter, halved after 20 consecutive non-improvements, restart when
    the step drops below 1e-4. Deterministic for a fixed seed.
    NumericError when START_DRAWS random starts in a row give no finite
    w(f(T)).
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
        for _ in range(START_DRAWS):
            v = rng.uniform(-1.0, 1.0, 2 * size)
            res = objective(v)
            if res is not None:
                return v, res
        raise NumericError(f"w(f(T)) is not finite at {START_DRAWS} random starts in a row")

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
