"""Command-line front end.

Subcommands: range, radius, clark, teardrop, verify, search.
Exit codes are a stable contract:
    0 success, 1 verification failure, 2 usage/parse error,
    3 numeric failure, 4 precondition violation.
The environment variable NUMRANGE_SEED sets the default --seed of verify
and search; when --seed is omitted, a value that is not an integer is a
usage error (exit 2), as a bad --seed would be. verify --trial i runs only
trial i of the --trials run with the same seed, so a witness's "trial"
replays with one command.

main(argv) may be called many times in one process. It keeps this state,
each part built on first use, not at import:
  * the argument parser, built on the first call;
  * the text of the unit-circle rows that every teardrop CSV shares, and
    of each grid angle, built on the first teardrop --out csv;
  * clark's check points, for the last eight --check-points counts;
  * scipy's LAPACK extension module, loaded alone on the first range at
    n >= 3.
NUMRANGE_SEED is read on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import blaschke as bl
from . import formats, fov, regions, verify
from .diskfun import Blaschke
from .errors import (
    NumericError,
    ParseError,
    PreconditionError,
    RequiresVanishingAtZeroError,
)

ALL_SUITES = list(verify.SUITES)


def _read_matrix(path: str) -> np.ndarray:
    if path == "-":
        return formats.parse_matrix(sys.stdin.read())
    with open(path, "r", encoding="ascii") as fh:
        return formats.parse_matrix(fh.read())


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _px(points: np.ndarray) -> np.ndarray:
    """The x, y pixel coordinates of each point, one point per row;
    NumericError names the first that is not finite (a point beyond about
    9e305 maps to inf)."""
    with np.errstate(over="ignore"):
        xy = np.column_stack(((points.real + 2.0) / 4.0 * 800.0,
                              (2.0 - points.imag) / 4.0 * 800.0))
    bad = np.flatnonzero(~np.isfinite(xy))
    if bad.size:
        k, axis = divmod(int(bad[0]), 2)
        raise NumericError(f"SVG {'xy'[axis]} coordinate of point {k} is "
                           f"{xy.flat[bad[0]]}, not a finite number")
    return xy


def _csv_rows(table: np.ndarray, known: tuple | None = None) -> str:
    """The rows of table as CSV text, every value %.17g. known, if given,
    is a pair (texts, widths) of arrays with one entry per row: the text of
    the row's first widths[i] values with the comma after them, taken as
    it is (the whole row's text, newline included, where widths[i] is the
    table's width), or None where widths[i] is 0. The rest of the rows is
    formatted in one % pass per width (%-formatting a float gives
    str.format's bytes)."""
    if known is None:
        row_format = ",".join(["%.17g"] * table.shape[1]) + "\n"
        return (row_format * len(table)) % tuple(table.ravel().tolist())
    texts, widths = known
    rows = texts.copy()
    for width in range(table.shape[1]):
        todo = widths == width
        if todo.any():
            rest = np.array(_csv_rows(table[todo, width:]).splitlines(keepends=True),
                            dtype=object)
            rows[todo] = rest if width == 0 else texts[todo] + rest
    return "".join(rows.tolist())


def _write_curve(args, header: str, columns, points: np.ndarray, color: str,
                 known: tuple | None = None):
    """Write a closed curve as CSV rows (the columns, then the real and
    imaginary parts of points, every value %.17g) or as an 800x800 SVG
    polygon over the square [-2,2]^2 with the unit circle. The text that
    known holds for the start of a CSV row is taken from it (see
    _csv_rows): teardrop passes the rows and grid angles of the unit
    circle, formatted once per process and reused only where the bits
    match."""
    if args.out == "csv":
        table = np.column_stack((*columns, points.real, points.imag))
        text = header + "\n" + _csv_rows(table, known)
    else:
        xy = _px(points).ravel().tolist()
        coords = " ".join(["%.3f,%.3f"] * len(points)) % tuple(xy)
        text = ('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
                'viewBox="0 0 800 800">\n'
                '<rect width="800" height="800" fill="white"/>\n'
                '<circle cx="400" cy="400" r="200" fill="none" '
                'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 4"/>\n'
                f'<polygon points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>\n'
                "</svg>\n")
    _write_output(args.output, text)


def cmd_range(args) -> int:
    T = _read_matrix(args.matrix)
    curve = fov.boundary(T, args.angles)
    _write_curve(args, "theta,support,re,im", (curve.thetas, curve.supports),
                 curve.points, "#c02020")
    return 0


def cmd_radius(args) -> int:
    T = _read_matrix(args.matrix)
    w = fov.numerical_radius(T)
    print(f"{w:.15f}")
    return 0


@functools.lru_cache(maxsize=8)
def _clark_check_points(n: int) -> np.ndarray:
    """Deterministic low-discrepancy points filling |z| <= 0.9, read-only.
    Kept per count for the last eight counts asked for: the count comes
    from the user, so the cache is bounded."""
    j = np.arange(n)
    radii = 0.9 * np.sqrt((j + 0.5) / n)
    angles = 2.0 * np.pi * ((j * 0.61803398874989479) % 1.0)
    points = radii * np.exp(1j * angles)
    points.flags.writeable = False
    return points


def cmd_clark(args) -> int:
    f = formats.parse_function(args.function)
    if not isinstance(f, Blaschke):
        raise RequiresVanishingAtZeroError(
            "clark needs a Blaschke product expression with a zero at the origin"
        )
    B = f.product
    gamma = formats.parse_complex(args.gamma)
    decomp = bl.clark_decomposition(B, gamma)
    zs = _clark_check_points(args.check_points)
    lhs = 1.0 / (1.0 - np.conj(decomp.gamma) * bl.evaluate(B, zs))
    residual = float(np.abs(lhs - decomp.resolvent_sum(zs)).max())
    lines = [f"{formats.format_complex(zeta)} {c:.17g}\n"
             for zeta, c in zip(decomp.zetas, decomp.weights)]
    lines.append(f"sum_weights: {float(decomp.weights.sum()):.17g}\n"
                 f"max_identity_residual: {residual:.17g}\n")
    sys.stdout.write("".join(lines))
    return 0


@functools.cache
def _unit_circle_rows() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(phis, bits, texts, phi_texts) of teardrop_boundary(0): the grid
    angles, the int64 views of the phi, re and im columns (one row each),
    each CSV row's text, and each grid angle's text with the comma after
    it. Built once per process, on the first teardrop --out csv, not at
    import."""
    phis, points = regions.teardrop_boundary(0.0)
    columns = np.stack((phis, points.real, points.imag))
    texts = np.array(_csv_rows(columns.T).splitlines(keepends=True), dtype=object)
    phi_texts = np.array([text[:text.index(",") + 1] for text in texts], dtype=object)
    return phis, columns.view(np.int64), texts, phi_texts


def _unit_circle_known(phis: np.ndarray, points: np.ndarray) -> tuple:
    """The known pair (texts, widths) of _csv_rows for the rows of a
    teardrop CSV. Each row is compared with the teardrop_boundary(0) row at
    the same grid index, bitwise (so -0.0 and 0.0 differ): where phi, re and
    im all match, the row takes that row's text (width 3); where only phi
    matches, it takes the grid angle's text (width 1), and re and im are
    formatted; elsewhere (the tangent segments) nothing (width 0)."""
    grid, bits, texts, phi_texts = _unit_circle_rows()
    k = np.minimum(np.searchsorted(grid, phis), len(grid) - 1)
    same = np.stack((phis, points.real, points.imag)).view(np.int64) == bits[:, k]
    angle = same[0]
    whole = angle & same[1] & same[2]
    known = np.where(angle, phi_texts[k], None)
    known[whole] = texts[k[whole]]
    return known, angle + 2 * whole


def cmd_teardrop(args) -> int:
    """Print the td(alpha) boundary. Most CSV rows lie at the fixed grid
    angles whatever alpha is, and on the unit circle; they take their text,
    or only their angle's, from a table formatted once per process, and
    only where their bits match it, so the output is the bytes of
    formatting every row."""
    phis, points = regions.teardrop_boundary(formats.parse_complex(args.alpha))
    known = _unit_circle_known(phis, points) if args.out == "csv" else None
    _write_curve(args, "phi,re,im", (phis,), points, "#2040c0", known)
    return 0


def cmd_verify(args) -> int:
    names = ALL_SUITES if args.suite == "all" else [args.suite]
    trials = args.trials if args.trial is None else range(args.trial, args.trial + 1)
    reports = verify.run_suites(names, trials, args.seed)
    if args.json:
        text = json.dumps([r.to_json_dict() for r in reports], sort_keys=True,
                          indent=2) + "\n"
    else:
        text = "\n".join(r.to_text() for r in reports)
    _write_output(args.output, text)
    return 0 if all(r.passed for r in reports) else 1


def cmd_search(args) -> int:
    f = formats.parse_function(args.function)
    candidates = []
    if args.dim == 2:
        candidates.append(np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex))
    best_w, best_T = verify.extremal_search(
        f, args.dim, args.iters, args.seed, tuple(candidates))
    print(f"best_w: {best_w:.15f}")
    _write_output(args.output, formats.serialize_matrix(best_T))
    return 0


def _nonnegative(text: str, least: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _positive(text: str) -> int:
    return _nonnegative(text, least=1)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, tuple[argparse.ArgumentParser, ...]]:
    """(parser, seeded): the numrange parser, built once per process, and
    its subparsers whose --seed default main sets from NUMRANGE_SEED."""
    parser = argparse.ArgumentParser(
        prog="numrange",
        description="Numerical ranges, radii, Blaschke/Clark decompositions "
                    "and teardrop mapping bounds for complex matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("range", help="boundary of the numerical range W(T)")
    p.add_argument("matrix", help="matrix file (or - for stdin)")
    p.add_argument("--angles", type=int, default=360)
    p.add_argument("--out", choices=["csv", "svg"], default="csv")
    p.add_argument("--output", default="-", help="output file (default stdout)")
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("radius", help="numerical radius w(T)")
    p.add_argument("matrix", help="matrix file (or - for stdin)")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("clark", help="Clark decomposition of a Blaschke product")
    p.add_argument("function", help="blaschke expression with a zero at the origin")
    p.add_argument("--gamma", required=True, help="unimodular target, re+imi")
    p.add_argument("--check-points", type=_positive, default=100, dest="check_points")
    p.set_defaults(func=cmd_clark)

    p = sub.add_parser("teardrop", help="boundary of the teardrop region td(alpha)")
    p.add_argument("--alpha", required=True, help="complex literal, |alpha| <= 1")
    p.add_argument("--out", choices=["csv", "svg"], default="csv")
    p.add_argument("--output", default="-", help="output file (default stdout)")
    p.set_defaults(func=cmd_teardrop)

    p = sub.add_parser("verify", help="run the theorem verification suites")
    p.add_argument("--suite", choices=ALL_SUITES + ["all"], required=True)
    count = p.add_mutually_exclusive_group()
    count.add_argument("--trials", type=_nonnegative, default=200)
    count.add_argument("--trial", type=_nonnegative, default=None,
                       help="run only this trial index (replays a witness)")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default="-", help="report file (default stdout)")
    p.set_defaults(func=cmd_verify)
    seeded = [p]

    p = sub.add_parser("search", help="hill-climb for matrices maximizing w(f(T))")
    p.add_argument("function", help="disk-function expression")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", default="-", help="witness matrix file")
    p.set_defaults(func=cmd_search)
    seeded.append(p)

    return parser, tuple(seeded)


def main(argv=None) -> int:
    parser, seeded = build_parser()
    for p in seeded:
        # a string default goes through type=int, so a bad value is a usage error
        p.set_defaults(seed=os.environ.get("NUMRANGE_SEED", "42"))
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, np.linalg.LinAlgError) as exc:
        # a LAPACK failure is numeric; it comes first, as LinAlgError is a ValueError
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
