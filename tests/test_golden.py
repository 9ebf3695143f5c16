"""Golden outputs: SHA-256 digests of CLI stdout, recorded at commit 86a3de3,
and of the fov kernel's float64 results, recorded at commit ae4ce58.

The two `verify --suite all` digests were recorded again when drury's
containment residual became the largest support excess at the arc
midpoints of its level cuts; the other six suite sections are unchanged.

The range CSV digests and the two boundary kernel digests were recorded
again when boundary started to read h(theta + pi) from the bottom
eigenpair of H(theta) for an even angle count, instead of solving
H(theta + pi). The first half of each curve kept its bits; the second
half moved in the last digits (by at most 2.6e-15 max(1, ||T||) in
support and 1.6e-14 max(1, ||T||) in point on 378 cli-matrix matrices),
which the CSV prints in full. The SVG digests, printed at %.3f, are
unchanged.

The same four were recorded again when boundary stopped computing every
eigenpair of H(theta) and took only the two extreme ones from one
tridiagonal reduction (bisection and inverse iteration). Support values
and points moved in the last digits, by at most 2.1e-15 max(1, ||T||) in
support and 1.4e-14 max(1, ||T||) in point on 378 cli-matrix matrices.
Bisection stops within a few units in the last place, so the shift's
support of 1 now prints as 1 or up to two units off it
(0.99999999999999989 to 1.0000000000000004). The SVG digests are again
unchanged.

The same four were recorded again when boundary moved onto the support
kernel: each point is e^{i theta}(h + i h') from the kernel's h and
h' = Im(e^{-i theta}<Sx, x>) of the prescaled S, not <Tx, x> of the raw T,
and a 2x2 T takes the closed form instead of LAPACK. On 378 cli-matrix
matrices supports moved by at most 6.1e-16 max(1, ||T||) and points by
6.4e-15 max(1, ||T||); at n >= 3 the supports kept their bits. The
shift's support column now prints exactly 1 in 351 of its 360 rows,
against 17 before. The SVG digests are again unchanged.

The three `verify --suite all` digests (all-text, all-json and
all-text-200-42) and the numerical_radii kernel digest were recorded
again when the radius search took its 16 coarse samples from eigensolves
at 8 angles (h(theta + pi) = -lambda_min(H(theta))) and formed H'x with
one batched product per Newton step. Radii at n = 2 kept their bits; 197
of the 2065 kernel radii moved, by at most 1.2e-15 relative. In the
reports only two worst_residual values moved: berger-stampfli at
(200, 42) by 2.2e-16 and region-s at (50, 3) by 2.8e-16 (the value
test_cli's q-form report pin prints); every failure count, retry count
and witness is unchanged.

The numerical_radii kernel digest was recorded again when one eigensolve
after the coarse stage began to answer both cells of an antipodal pair
that is live in the same slot: the follower's h (and, in the first Newton
sweep, its h' and h'') comes from the bottom eigenpair of H at its
leader's angle, not from a solve of its own. Only matrices with such a
pair can move: 7 of the 2065 kernel radii did, by at most 3.6e-16
relative. Six are Jordan blocks (J_7, J_8, J_10, J_11, J_14, J_16; W is
a disk about 0, so every cell and its antipode stay live) and one is a
3x3 draw with a live pair. The verify, range and teardrop digests are
unchanged.

The eight teardrop digests of the four alphas off the unit disk were
recorded again when teardrop_boundary stopped walking the tangent
segment at psi + delta backwards. That segment now runs from the small
circle to the unit circle, so the curve no longer retraces it (20
backward steps per alpha; the CSV's perimeter at alpha = 0.5 fell from
7.49 to 6.62). The rows are the same set as before and the phi column is
unchanged; only the order of the 21 points of that segment is reversed.

The all-text-500-7 digest (`verify --suite all --trials 500 --seed 7`)
was recorded at commit ab7adce, the parent of the change that moved f(T)'s
resolvent solves into the verify trials' own lockstep; that change keeps
every report's bytes.

The three 20-trial single-suite digests (berger-stampfli, power and
drury at seed 1, the shape of the benchmark's verify requests) were
recorded at commit fac8426, the parent of the change that lets those
suites' radius checks stop the trials that provably pass and cannot set
the worst residual; which trials stop depends on which trials share a
call, and that change keeps every report's bytes.

The four clark digests were recorded at commit 5130eb7, the parent of
the change that formats the teardrop CSV's unit-circle rows once per
process; that change leaves clark alone. The Clark weights' last bits
follow numpy's scalar abs, so a change to how they are computed can move
these digests and must explain it.

The normalization-stacks kernel digest was recorded at commit 308f36c,
the parent of the change that cut the radius search's fixed cost per size
and per sweep. It covers the small mixed-size stacks (20 draws, n = 2..8)
that each verify call normalizes, where that cost weighs most, and which
the one 2,065-matrix numerical_radii call does not exercise; that change
keeps every bit.

The three search digests were recorded at commit 2829371, the parent of
the change that made search stop after 1,000 random starts in a row
without a finite w(f(T)); that change keeps their bytes.

Reports for a fixed seed and trial count, the clark decompositions, and
the range and teardrop curves, are part of the CLI contract and must stay byte-identical under
refactors. A digest that changes means an output changed; record a new one
only with a change that means to alter that output, and say so. The verify
cases carry fixed ids, so recording a digest again keeps the test's name.
The kernel digests pin numerical_radii, support_values and boundary bit for
bit on inputs whose prescale exponent is and is not zero.
"""

import hashlib

import numpy as np
import pytest

from numrange.cli import main
from numrange.formats import serialize_matrix
from numrange.fov import boundary, numerical_radii, support_values
from numrange.verify import _trial_rng, random_matrix

VERIFY = [
    (["--suite", "all", "--trials", "50", "--seed", "3"],
     "d34ac159985a8de416204c6f7129c0642a637c1ad7054d50dee99129bd0e516a"),
    (["--suite", "all", "--trials", "50", "--seed", "3", "--json"],
     "a9f69cbf2eedf5880195f8aa0763ea323e2a898226af03814c4859c1d9a291e5"),
    # a second seed, recorded before the radius kernel was stacked
    (["--suite", "all", "--trials", "200", "--seed", "42"],
     "0010fba6847db997cda37d4e4b8ca437156e7d25093bb9fe87a6f2dbbb445384"),
    # region-s's sharpness table alone
    (["--suite", "region-s", "--trials", "0", "--seed", "1"],
     "dab2d324e15a93f0fc98e097f81b785f50b37912d814462f02b3c3d8f8548ba2"),
    # a third seed, recorded at commit ab7adce
    (["--suite", "all", "--trials", "500", "--seed", "7"],
     "c3f6a61a5cc03c556197d242bf3ab84a624ba242955589a74a84e4f0b62d3443"),
    # the benchmark's request shape, 20-trial single-suite calls, for the
    # suites whose radius checks stop trials; recorded at commit fac8426
    (["--suite", "berger-stampfli", "--trials", "20", "--seed", "1"],
     "ee15a34183e88959e6c6abe5f0b7080e1db9ba30d541b4d8ebd269166c385229"),
    (["--suite", "power", "--trials", "20", "--seed", "1"],
     "8b770c3b5fc54c098c201e073fdadabb7441d3abfabbb35d36e873c7884a310c"),
    (["--suite", "drury", "--trials", "20", "--seed", "1"],
     "fcb368c82b3588b254cf874dc2423fe4d0b2e1c639e6bc01ee9eff547acebceb"),
]

# alpha -> (csv digest, svg digest); 0 and 1e-13 are the unit disk, -1 is on
# the circle, 0.6+0.0073i and 0.999 e^{i} are off the real axis
TEARDROP = {
    "0": ("93f2d982fde81f76b425e2133a19ba6642f1f0a20a6deefee20c23c40bdaa0b2",
          "8c424eab5ea31a75f6f6567caf470eab34d9425a8be7b7ed294048edbad03aa1"),
    "1e-13": ("93f2d982fde81f76b425e2133a19ba6642f1f0a20a6deefee20c23c40bdaa0b2",
              "8c424eab5ea31a75f6f6567caf470eab34d9425a8be7b7ed294048edbad03aa1"),
    "0.5": ("43a9bdb1caf3e81eb147666193a41197778dc651a178cd32c2eaa28797b629d6",
            "8c36eba45beafe161bc0270c581bb3918e69694bbd89e959a0d1db90e97822b6"),
    "-1": ("93f2d982fde81f76b425e2133a19ba6642f1f0a20a6deefee20c23c40bdaa0b2",
           "8c424eab5ea31a75f6f6567caf470eab34d9425a8be7b7ed294048edbad03aa1"),
    "0.6+0.0073i": ("cc964f804a00949b15232c688506d5e3c8c15ee5d2954334f79e798ef0c620de",
                    "2a923ae9dac763173639160e121667a43f91f7422538136ab0721b738c374439"),
    "0.53976200356227166+0.84062951382308859i": (
        "dc32892e22f09f7631496acaa93273216ea71536b8091d5fb32ec98cafb00462",
        "c682ff7b71d8b3a2919e775ef436bff36fa614db71f288df9bc5ddefa4af432a"),
    "0.3+0.4i": ("e9ef5e3361d668414044f5ecbe0ff1998414aa11a3014d014aa24c4e05d3f569",
                 "6005786a22a3aa27ee09fdc8c6f7f438fed8da8cca70edccbae157bf78b3b2d7"),
}

# case -> (clark argv, stdout digest): degree 2; degree 5 with interior
# zeros; degree 10 with one zero of modulus 0.999 (0.999 e^{2i}); gamma = -1;
# a repeated zero at the origin (its w = -0 entries pass through the
# Clark unitary's cumulative products); degree 1 (a 2x2 array); and the
# degree-5 case at 7 check points. The last three were recorded at bc93925,
# before the Clark unitary and B(z) took their array forms
CLARK = {
    "degree-2": (["blaschke 1 0 0.5", "--gamma=1+0i"],
                 "17516148f756df0b1287d9760d3fe1ad457c7cfd36cea468209b758b0fbb4f36"),
    "degree-5": (["blaschke 0.6+0.8i 0 0.3+0.2i -0.5 0.1-0.7i 0+0.6i",
                  "--gamma=0.7648421872844885+0.64421768723769102i"],
                 "d1f9f8a42633c921b115fa5bd0c4f9cbaff275d1c71634980c0d93b0dae7579d"),
    "degree-10-near-circle": (
        ["blaschke -1 0 -0.41573068971059529+0.90838812939885605i 0.5 -0.2+0.3i 0+0.4i "
         "-0.6-0.1i 0.1+0.1i 0.7-0.2i -0.3-0.6i 0.25",
         "--gamma=0.54030230586813977+0.8414709848078965i"],
        "d9efc21b473b852dadd21936fbbda1387594ffc3540c992d2edc7ac0a51ebc06"),
    "gamma-minus-one": (["blaschke 1 0 0+0.5i -0.4 0.2+0.6i", "--gamma=-1+0i"],
                        "edb985be3ec92e0c4c91b669af25ef53104e83318f10ce95a74a91667984f270"),
    "repeated-origin": (["blaschke 1 0 0", "--gamma=1+0i"],
                        "3d38aa1416ab19cf8ca724cdbd0f91003e2fa14770d7439b6d594b7f1f1c20c2"),
    "degree-1": (["blaschke 1 0", "--gamma=1+0i"],
                 "6b8b5fc2bc6c9b81253a7bc0577195a0a0ed49f387cb0359512c5581dc8c38b7"),
    "degree-5-check-points-7": (
        ["blaschke 0.6+0.8i 0 0.3+0.2i -0.5 0.1-0.7i 0+0.6i",
         "--gamma=0.7648421872844885+0.64421768723769102i", "--check-points", "7"],
        "4caa397b9c99f7a5347efbe19c89d299841be0db9f18c64880f4c23b4127f2d4"),
}

# case -> (search argv, stdout digest): the sharp Mobius example, whose
# witness is the 2x2 shift candidate; z^2 at n = 3; a degree-2 Blaschke
SEARCH = {
    "mobius-sharp": (["mobius 1 -2 2 -1", "--dim", "2", "--seed", "3", "--iters", "30"],
                     "af3aeda8f61d6a1d956727f68fdb23f8277712e0df255a48207c4f6eace19b78"),
    "poly-dim-3": (["poly 0 0 1", "--dim", "3", "--seed", "5", "--iters", "40"],
                   "0000795ebc3e437fff85e763f4a3803c0242655d10354b1d55f23377ad8c2b13"),
    "blaschke": (["blaschke 1 0 0.5", "--dim", "2", "--seed", "7", "--iters", "20"],
                 "422ff1171559661accb14eab84b0cd9104fecd558914913b118d884953a101ea"),
}

# matrix -> (csv digest, svg digest) of `range --angles 360`
RANGE = {
    "shift2": ("16111e77920de904b9a309827c74a270b17cc91dc5add9a12de5ce40b7887c21",
               "b406b3156bbafd07ecf8e44c711ff9aefdad56b0780058511472b7beb62d0efa"),
    "seeded5": ("481137156b6c1d39b73013cbe8aa82bdff59e2d1e1a451730e2e1a3fde301003",
                "1293ecf84c77ed5a7054a0fa9c4138f025d345868fbecb71fbe88e05a94e25ec"),
}


def _matrix(name: str) -> np.ndarray:
    if name == "shift2":
        return np.array([[0, 2], [0, 0]], dtype=complex)
    rng = np.random.default_rng(5)
    return rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))


def _digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()


@pytest.mark.parametrize("args, expected", VERIFY,
                         ids=["all-text", "all-json", "all-text-200-42", "region-s-sharpness",
                              "all-text-500-7", "berger-stampfli-20-1", "power-20-1",
                              "drury-20-1"])
def test_verify_report(capsys, args, expected):
    assert _digest(capsys, ["verify"] + args) == expected


@pytest.mark.parametrize("alpha", TEARDROP)
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_teardrop_curve(capsys, alpha, fmt):
    expected = TEARDROP[alpha][fmt == "svg"]
    assert _digest(capsys, ["teardrop", f"--alpha={alpha}", "--out", fmt]) == expected


@pytest.mark.parametrize("case", CLARK)
def test_clark_decomposition(capsys, case):
    argv, expected = CLARK[case]
    assert _digest(capsys, ["clark"] + argv) == expected


@pytest.mark.parametrize("case", SEARCH)
def test_search_witness(capsys, case):
    argv, expected = SEARCH[case]
    assert _digest(capsys, ["search"] + argv) == expected


@pytest.mark.parametrize("name", RANGE)
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_range_curve(capsys, tmp_path, name, fmt):
    path = tmp_path / f"{name}.mat"
    path.write_text(serialize_matrix(_matrix(name)))
    expected = RANGE[name][fmt == "svg"]
    assert _digest(capsys, ["range", str(path), "--angles", "360", "--out", fmt]) == expected


KERNEL = {
    "numerical_radii": "d91d7af2894c60dac982dc64694523c42b4c1494f2fd26eb4e83ac2b74208007",
    # recorded at commit 308f36c
    "normalization-stacks": "6c91051371f1a07cb19303bde040dbf3e6c49d63f7ec3ee1059dcc436a56c2d9",
    "support_values": "c918e21d1cf40c6a5c99703ce12e43887f2074a5ff4ea20e4b6240a983d9ec8f",
    "boundary-16": "cff7c49d21f2eb5e2c62dabc21b9beb7c7041bd3561b26a8eecddcd475565145",
    "boundary-64": "8579baec0c87e23daec19b4a636e8e32d712546c2a9cba4db6955395eb79c5e7",
}


def _kernel_matrices() -> list[np.ndarray]:
    """2000 seeded random_matrix draws, a quarter of them cubed (so that
    their prescale exponent is not zero), Jordan blocks at n = 2..16 and
    the near-tie family diag(e^{i phi}, (1 - 1e-6) e^{i (phi + g)}, 0.3)."""
    rng = np.random.default_rng(2027)
    mats = [random_matrix(rng) for _ in range(2000)]
    mats[::4] = [np.linalg.matrix_power(T, 3) for T in mats[::4]]
    mats += [np.eye(n, k=1, dtype=complex) for n in range(2, 17)]
    mats += [np.diag([np.exp(1j * phi), (1 - 1e-6) * np.exp(1j * (phi + g)), 0.3])
             for phi in np.linspace(0.0, 6.0, 5) for g in np.geomspace(1e-3, 0.3, 10)]
    return mats


SUITES = ["berger-stampfli", "power", "local-ineq", "operator-ineq", "region-s", "drury",
          "props52"]


def _normalization_radii() -> list[np.ndarray]:
    """The radii of each suite's 20-trial normalization stack at seeds
    0..49, one numerical_radii call per stack, exact and with the check
    (1.0, 1e-7) on every matrix."""
    out = []
    for seed in range(50):
        for suite in SUITES:
            mats = [random_matrix(_trial_rng(seed, suite, i)) for i in range(20)]
            out += [numerical_radii(mats), numerical_radii(mats, [(1.0, 1e-7)] * 20)]
    return out


def _kernel_output(name: str) -> list[np.ndarray]:
    if name == "numerical_radii":
        return [numerical_radii(_kernel_matrices())]
    if name == "normalization-stacks":
        return _normalization_radii()
    if name == "support_values":
        thetas = np.linspace(0.0, 2.0 * np.pi, 37)
        return [support_values(T, thetas) for T in _kernel_matrices()[::5]]
    rng = np.random.default_rng(64)
    if name == "boundary-16":
        T = np.linalg.matrix_power(random_matrix(rng, 16), 3)
    else:
        T = random_matrix(rng, 64)
    curve = boundary(T, 360)
    return [curve.supports, curve.points]


@pytest.mark.parametrize("name", KERNEL)
def test_kernel_digest(name):
    data = b"".join(np.asarray(a).tobytes() for a in _kernel_output(name))
    assert hashlib.sha256(data).hexdigest() == KERNEL[name]
