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

Reports for a fixed seed and trial count, and the range and teardrop
curves, are part of the CLI contract and must stay byte-identical under
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
from numrange.verify import random_matrix

VERIFY = [
    (["--suite", "all", "--trials", "50", "--seed", "3"],
     "38ff4b09d408a088c4ed6b978de2c6d1996384f5b094443f91c428d4388123a4"),
    (["--suite", "all", "--trials", "50", "--seed", "3", "--json"],
     "44ab9583f6d94d655c006afe9f8f70075b395b6f2ce7f8b1770f42ad593e18b0"),
    # a second seed, recorded before the radius kernel was stacked
    (["--suite", "all", "--trials", "200", "--seed", "42"],
     "89162a7034e107b7cfae2eed92bc8f2de740bda099321c074c9f6bac0a0eba7c"),
    # region-s's sharpness table alone
    (["--suite", "region-s", "--trials", "0", "--seed", "1"],
     "dab2d324e15a93f0fc98e097f81b785f50b37912d814462f02b3c3d8f8548ba2"),
]

# alpha -> (csv digest, svg digest); 0 and 1e-13 are the unit disk, -1 is on
# the circle, 0.6+0.0073i and 0.999 e^{i} are off the real axis
TEARDROP = {
    "0": ("93f2d982fde81f76b425e2133a19ba6642f1f0a20a6deefee20c23c40bdaa0b2",
          "8c424eab5ea31a75f6f6567caf470eab34d9425a8be7b7ed294048edbad03aa1"),
    "1e-13": ("93f2d982fde81f76b425e2133a19ba6642f1f0a20a6deefee20c23c40bdaa0b2",
              "8c424eab5ea31a75f6f6567caf470eab34d9425a8be7b7ed294048edbad03aa1"),
    "0.5": ("7c24c2d5cb90c5918058ff62fed4ac9eb2039c6483f9f1b48068782ea03998dd",
            "707ccf8bdbe9c92ae99420654f508ecf28e618fd2c392c6c3645dea7a283fb15"),
    "-1": ("93f2d982fde81f76b425e2133a19ba6642f1f0a20a6deefee20c23c40bdaa0b2",
           "8c424eab5ea31a75f6f6567caf470eab34d9425a8be7b7ed294048edbad03aa1"),
    "0.6+0.0073i": ("62e7c898af720ca3d5fe00806c83f3d211adcad8c33d8aa4cc0286de6117cff5",
                    "b0361b169b5f4b81ea8341923ecb2ccf485b5b326bdfa9a3cd4c917b6437a511"),
    "0.53976200356227166+0.84062951382308859i": (
        "20eb91d03327c519fe0b89ae7176749107fafa53a8ff1f55b5ce133a0e03e0db",
        "3113b91134da04dd8fa2485298318bb7a91d1dc9350623cb7e17925a0421accf"),
    "0.3+0.4i": ("b3352acd11e44972bb211c9f69e59ddc26cd07537c64c7c063e61244c48e34fc",
                 "41294df47a1866f67fc5e0c096c0e621ded6f1c6dd0185e33ba809ad4f21c1e0"),
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
                         ids=["all-text", "all-json", "all-text-200-42", "region-s-sharpness"])
def test_verify_report(capsys, args, expected):
    assert _digest(capsys, ["verify"] + args) == expected


@pytest.mark.parametrize("alpha", TEARDROP)
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_teardrop_curve(capsys, alpha, fmt):
    expected = TEARDROP[alpha][fmt == "svg"]
    assert _digest(capsys, ["teardrop", f"--alpha={alpha}", "--out", fmt]) == expected


@pytest.mark.parametrize("name", RANGE)
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_range_curve(capsys, tmp_path, name, fmt):
    path = tmp_path / f"{name}.mat"
    path.write_text(serialize_matrix(_matrix(name)))
    expected = RANGE[name][fmt == "svg"]
    assert _digest(capsys, ["range", str(path), "--angles", "360", "--out", fmt]) == expected


KERNEL = {
    "numerical_radii": "03807c6e1be170abd38cfb16dda29158cd57765635baa7348b82c69d3ca0f39d",
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


def _kernel_output(name: str) -> list[np.ndarray]:
    if name == "numerical_radii":
        return [numerical_radii(_kernel_matrices())]
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
