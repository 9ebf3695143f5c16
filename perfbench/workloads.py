"""Seeded workloads: the requests each one sends and the oracle for each.

A workload is an endless stream of rounds. A round is a short list of
requests whose mix is the same in every round (same suites, same size
strata, same degree set), so a run that stops at a round boundary measures
the same mix whatever the seed. The seed only chooses values: matrices,
zeros, angles, suite seeds and the order inside a round.

Every request is one `numrange.cli.main(argv)` call. Its oracle looks at
the exit code and the captured stdout and returns a Verdict:
  * error: the call raised, or exited with a code other than expected;
  * wrong: the output misses its oracle at the oracle's stated tolerance;
  * gross: the output is malformed or misses by more than GROSS_RTOL, far
    beyond any numerical tolerance the program documents.
The oracles parse outputs and evaluate Blaschke products with their own
code, not numrange's, so a defect there cannot vouch for itself.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Misses finer than this are counted in wrong_frac; misses coarser than this
# make the run incorrect. The radius kernel's coarse 256-angle grid can lose
# up to 1 - cos(pi/256) = 7.5e-5 of w on near-tied peaks (a known defect
# that wrong_frac reports), so the gross threshold sits above that.
GROSS_RTOL = 1e-3

MATRIX_TOL = 1e-9       # radius and support values, relative to max(1, ||T||)
CLARK_SUM_TOL = 1e-10   # |sum of weights - 1|
CLARK_LEVEL_TOL = 1e-9  # |B(zeta_k) - gamma|
CLARK_RESIDUAL_TOL = 1e-9
TEARDROP_TOL = 1e-9     # distance of every boundary point to the boundary

_WORKLOAD_IDS = {"verify-suites": 1, "cli-matrix": 2, "cli-blaschke": 3}


@dataclass
class Verdict:
    error: bool = False
    wrong: bool = False
    gross: bool = False
    note: str = ""


@dataclass
class Request:
    kind: str            # command name, or "verify:<suite>"
    argv: list
    check: Callable[[int, str], Verdict]
    trials: int = 1      # units of checked work in this request
    roots: int = 0       # Clark roots the request must find


def fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^([+-]?{_NUM})([+-]{_NUM})i$")


def parse_complex(token: str) -> complex:
    m = _COMPLEX.match(token)
    if not m:
        raise ValueError(f"not a complex literal: {token!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def _miss(excess: float, scale: float, tol: float) -> Verdict:
    """Verdict for a one-sided excess over an oracle bound."""
    if not math.isfinite(excess) or excess > GROSS_RTOL * scale:
        return Verdict(wrong=True, gross=True, note=f"excess {excess!r}")
    if excess > tol:
        return Verdict(wrong=True, note=f"excess {excess!r}")
    return Verdict()


def _worst(*verdicts: Verdict) -> Verdict:
    for key in ("error", "gross", "wrong"):
        for v in verdicts:
            if getattr(v, key):
                return v
    return Verdict()


def _expect_exit(rc: int, expected: int = 0) -> Verdict | None:
    if rc != expected:
        return Verdict(error=True, note=f"exit code {rc}, expected {expected}")
    return None


# --------------------------------------------------------------------------
# verify-suites

VERIFY_TRIALS = 20


def verify_rounds(seed: int, suites: list, salt: int = 0):
    """One `verify --suite S --trials N --seed s` call per suite per round.

    The suites draw their own n = 2..8 matrices from s; s is drawn from the
    benchmark seed, a new one each round.
    """
    rng = np.random.default_rng([seed, _WORKLOAD_IDS["verify-suites"], salt])
    while True:
        suite_seed = int(rng.integers(0, 2**31 - 1))
        yield [Request(f"verify:{s}",
                       ["verify", "--suite", s, "--trials", str(VERIFY_TRIALS),
                        "--seed", str(suite_seed)],
                       _verify_oracle(s, VERIFY_TRIALS, suite_seed),
                       trials=VERIFY_TRIALS)
               for s in suites]


def _verify_oracle(suite: str, trials: int, seed: int):
    def check(rc: int, out: str) -> Verdict:
        fields = dict(line.split(": ", 1) for line in out.splitlines()
                      if ": " in line)
        try:
            failures = int(fields["failures"])
            worst = float(fields["worst_residual"])
            ok = (fields["suite"] == suite and int(fields["trials"]) == trials
                  and int(fields["seed"]) == seed)
        except (KeyError, ValueError):
            return Verdict(error=rc not in (0, 1), wrong=True, gross=True,
                           note="malformed report")
        bad = _expect_exit(rc, 0 if failures == 0 else 1)
        if bad:
            return bad
        if not ok:
            return Verdict(wrong=True, gross=True, note="report header mismatch")
        if failures:
            return Verdict(wrong=True, gross=worst > GROSS_RTOL,
                           note=f"{failures} failures, worst {worst!r}")
        return Verdict()
    return check


# --------------------------------------------------------------------------
# cli-matrix

MATRIX_ANGLES = 360
SIZE_MIN, SIZE_MAX = 2, 64
MATRIX_CLASSES = ("general", "jordan", "near-tie")
# Why each class is in the mix:
#   general  - dense random complex T; W(T) has no special shape, the
#              generic cost of the support-function sweep.
#   jordan   - U (c J_n) U*, W(T) is the disk of radius |c| cos(pi/(n+1)),
#              so radius and every support value have exact answers.
#   near-tie - normal U diag(lambda) U* with 2-3 eigenvalues whose moduli
#              tie within 1e-5: w = max|lambda_k| exactly, and the coarse
#              radius grid can refine the wrong peak (ROADMAP defect (a)).


def _haar_unitary(rng, n):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _serialize(T) -> str:
    lines = [f"dim {T.shape[0]}"]
    lines += [" ".join(fmt_complex(z) for z in row) for row in T]
    return "\n".join(lines) + "\n"


def make_matrix(rng, n: int, cls: str):
    """(T, facts) where facts hold what the oracle knows about T."""
    if cls == "general":
        T = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0 * n)
        return T, {"eigs": np.linalg.eigvals(T), "norm": float(np.linalg.norm(T, 2))}
    U = _haar_unitary(rng, n)
    if cls == "jordan":
        c = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        T = U @ (c * np.eye(n, k=1)) @ U.conj().T
        w = abs(c) * math.cos(math.pi / (n + 1))
        return T, {"w": w, "norm": abs(c) if n > 1 else 0.0}
    radius = rng.uniform(0.5, 2.0)
    ties = min(n, int(rng.integers(2, 4)))
    moduli = np.concatenate([
        radius * (1.0 - np.concatenate([[0.0], rng.uniform(0.0, 1e-5, ties - 1)])),
        0.9 * radius * rng.uniform(size=n - ties)])
    lam = moduli * np.exp(2j * np.pi * rng.uniform(size=n))
    T = (U * lam) @ U.conj().T
    return T, {"lam": lam, "w": radius, "norm": radius}


def _spectral_support(eigs, thetas):
    """max_k Re(e^{-i theta} lambda_k): the support function of the convex
    hull of the spectrum, which is W(T) for normal T and inside it always."""
    return np.max(np.real(np.exp(-1j * thetas)[:, None] * eigs[None, :]), axis=1)


def _range_oracle(facts, shared):
    def check(rc: int, out: str) -> Verdict:
        bad = _expect_exit(rc)
        if bad:
            return bad
        lines = out.splitlines()
        if not lines or lines[0] != "theta,support,re,im" or len(lines) != MATRIX_ANGLES + 1:
            return Verdict(wrong=True, gross=True, note="malformed csv")
        try:
            rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        except ValueError:
            return Verdict(wrong=True, gross=True, note="malformed csv")
        thetas, sup = rows[:, 0], rows[:, 1]
        pts = rows[:, 2] + 1j * rows[:, 3]
        scale = max(1.0, facts["norm"])
        tol = MATRIX_TOL * scale
        grid = 2.0 * np.pi * np.arange(MATRIX_ANGLES) / MATRIX_ANGLES
        checks = [_miss(float(np.abs(thetas - grid).max()), scale, 1e-12)]
        if "eigs" in facts:     # general: between the spectrum and ||T||
            lower = _spectral_support(facts["eigs"], grid)
            checks.append(_miss(float((lower - sup).max()), scale, tol))
            checks.append(_miss(float((sup - facts["norm"]).max()), scale, tol))
        else:
            exact = (_spectral_support(facts["lam"], grid) if "lam" in facts
                     else np.full(grid.shape, facts["w"]))
            checks.append(_miss(float(np.abs(sup - exact).max()), scale, tol))
        # each point lies on its supporting line and inside every half-plane
        proj = np.real(np.exp(-1j * grid)[:, None] * pts[None, :])
        checks.append(_miss(float(np.abs(np.diagonal(proj) - sup).max()), scale, tol))
        checks.append(_miss(float((proj - sup[:, None]).max()), scale, tol))
        verdict = _worst(*checks)
        if not verdict.gross:
            shared["max_support"] = float(sup.max())
        return verdict
    return check


def _radius_oracle(facts, shared):
    def check(rc: int, out: str) -> Verdict:
        bad = _expect_exit(rc)
        if bad:
            return bad
        try:
            w = float(out.strip())
        except ValueError:
            return Verdict(wrong=True, gross=True, note="malformed radius")
        scale = max(1.0, facts["norm"])
        tol = MATRIX_TOL * scale
        if "w" in facts:
            checks = [_miss(abs(w - facts["w"]), scale, tol)]
        else:
            norm = facts["norm"]
            rho = float(np.abs(facts["eigs"]).max())
            checks = [_miss(rho - w, scale, tol), _miss(w - norm, scale, tol),
                      _miss(norm / 2.0 - w, scale, tol)]
        if "max_support" in shared:
            checks.append(_miss(shared["max_support"] - w, scale, tol))
        return _worst(*checks)
    return check


def matrix_rounds(seed: int, workdir: str, salt: int = 0):
    """Each round uses every size n = 2..64 once, in seeded order, a third
    of them in each class; each matrix is sent as `range --angles 360` and
    then `radius`. So every round has the same mix of sizes, which set the
    cost, and the seed changes only values, classes and order."""
    rng = np.random.default_rng([seed, _WORKLOAD_IDS["cli-matrix"], salt])
    sizes = np.arange(SIZE_MIN, SIZE_MAX + 1)
    count = 0
    while True:
        classes = np.resize(np.arange(len(MATRIX_CLASSES)), sizes.size)
        requests = []
        for n, c in zip(rng.permutation(sizes), rng.permutation(classes)):
            cls = MATRIX_CLASSES[c]
            T, facts = make_matrix(rng, int(n), cls)
            path = os.path.join(workdir, f"m{count:05d}-{cls}-{n}.mat")
            count += 1
            with open(path, "w", encoding="ascii") as fh:
                fh.write(_serialize(T))
            shared = {}
            requests.append(Request(f"range/{cls}", ["range", path, "--angles", str(MATRIX_ANGLES)],
                                    _range_oracle(facts, shared)))
            requests.append(Request(f"radius/{cls}", ["radius", path],
                                    _radius_oracle(facts, shared)))
        yield requests


# --------------------------------------------------------------------------
# cli-blaschke

DEGREES = range(2, 11)
TEARDROPS_PER_ROUND = 6
NEAR_CIRCLE = (0.99, 0.999)
# Why each input is in the mix:
#   interior zeros    - |a_k| <= 0.9, the typical Clark decomposition.
#   near-circle zeros - one zero with 0.99 <= |a| <= 0.999, where the
#                       boundary argument is steep and the level-set roots
#                       crowd together (ROADMAP's hard Blaschke inputs).
#   teardrop          - td(alpha) boundary for |alpha| <= 0.95, the CSV the
#                       regions/cli layers produce without any eigensolve.


def blaschke_eval(constant, zeros, z):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, complex(constant))
    for a in zeros:
        out = out * (a - z) / (1.0 - np.conj(a) * z)
    return out


def _clark_oracle(constant, zeros, gamma):
    degree = len(zeros)

    def check(rc: int, out: str) -> Verdict:
        bad = _expect_exit(rc)
        if bad:
            return bad
        lines = out.splitlines()
        try:
            atoms = [ln.split() for ln in lines[:-2]]
            zetas = np.array([parse_complex(a[0]) for a in atoms])
            weights = np.array([float(a[1]) for a in atoms])
            total = float(lines[-2].split("sum_weights: ")[1])
            residual = float(lines[-1].split("max_identity_residual: ")[1])
        except (IndexError, ValueError):
            return Verdict(wrong=True, gross=True, note="malformed clark output")
        if len(zetas) != degree or not np.all(weights > 0):
            return Verdict(wrong=True, gross=True, note="wrong atoms")
        level = np.abs(blaschke_eval(constant, zeros, zetas) - gamma).max()
        return _worst(
            _miss(abs(weights.sum() - 1.0), 1.0, CLARK_SUM_TOL),
            _miss(abs(total - 1.0), 1.0, CLARK_SUM_TOL),
            _miss(float(np.abs(np.abs(zetas) - 1.0).max()), 1.0, 1e-12),
            _miss(float(level), 1.0, CLARK_LEVEL_TOL),
            _miss(residual, 1.0, CLARK_RESIDUAL_TOL))
    return check


def teardrop_distance(alpha: complex, z):
    """Signed distance from z to the boundary of
    td(alpha) = conv(D(0, 1) u D(alpha, 1 - |alpha|^2)), in closed form:
    the two-circle capsule with its axis rotated onto alpha."""
    z = np.asarray(z, dtype=complex)
    a = abs(alpha)
    if a < 1e-12 or a > 1.0 - 1e-12:
        return np.abs(z) - 1.0
    r2 = 1.0 - a * a
    zr = z * np.exp(-1j * np.angle(alpha))
    x, y = np.abs(zr.imag), zr.real           # y runs along the axis
    b = (1.0 - r2) / a                         # = a
    c = math.sqrt(1.0 - b * b)
    k = -b * x + c * y
    return np.where(k < 0.0, np.hypot(x, y) - 1.0,
                    np.where(k > c * a, np.hypot(x, y - a) - r2,
                             c * x + b * y - 1.0))


def _teardrop_oracle(alpha):
    def check(rc: int, out: str) -> Verdict:
        bad = _expect_exit(rc)
        if bad:
            return bad
        lines = out.splitlines()
        if not lines or lines[0] != "phi,re,im" or len(lines) < 9:
            return Verdict(wrong=True, gross=True, note="malformed csv")
        try:
            rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        except ValueError:
            return Verdict(wrong=True, gross=True, note="malformed csv")
        phis = rows[:, 0]
        dist = teardrop_distance(alpha, rows[:, 1] + 1j * rows[:, 2])
        return _worst(
            _miss(float(np.abs(dist).max()), 1.0, TEARDROP_TOL),
            _miss(float(-np.diff(phis).min(initial=0.0)), 1.0, 0.0),
            _miss(float(max(-phis.min(), phis.max() - 2.0 * math.pi)), 1.0, 0.0))
    return check


def _unit(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def blaschke_rounds(seed: int, workdir: str, salt: int = 0):
    """Each round: two `clark` requests per degree 2..10 (a zero at the
    origin plus degree-1 zeros), one with interior zeros and one with a
    near-circle zero, and six `teardrop --out csv` requests, in seeded
    order."""
    rng = np.random.default_rng([seed, _WORKLOAD_IDS["cli-blaschke"], salt])
    while True:
        requests = []
        for degree, near in ((d, near) for d in DEGREES for near in (False, True)):
            zeros = [0j]
            for k in range(degree - 1):
                if near and k == 0:
                    mod = rng.uniform(*NEAR_CIRCLE)
                else:
                    mod = 0.9 * math.sqrt(rng.uniform())
                zeros.append(mod * _unit(rng))
            constant, gamma = _unit(rng), _unit(rng)
            expr = "blaschke " + " ".join(fmt_complex(z) for z in [constant] + zeros)
            # --opt=value: a literal such as -0.5+0.1i would otherwise parse as an option
            requests.append(Request("clark", ["clark", expr, f"--gamma={fmt_complex(gamma)}"],
                                    _clark_oracle(constant, zeros, gamma),
                                    roots=degree))
        for _ in range(TEARDROPS_PER_ROUND):
            alpha = 0.95 * math.sqrt(rng.uniform()) * _unit(rng)
            requests.append(Request("teardrop", ["teardrop", f"--alpha={fmt_complex(alpha)}",
                                                 "--out", "csv"],
                                    _teardrop_oracle(alpha)))
        yield [requests[i] for i in rng.permutation(len(requests))]
