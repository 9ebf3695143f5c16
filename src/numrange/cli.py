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
"""

from __future__ import annotations

import argparse
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


def _px(z: complex) -> tuple[float, float]:
    return (z.real + 2.0) / 4.0 * 800.0, (2.0 - z.imag) / 4.0 * 800.0


def _write_curve(args, header: str, rows, points, color: str):
    """Write a closed curve as CSV rows (every value %.17g) or as an
    800x800 SVG polygon over the square [-2,2]^2 with the unit circle."""
    if args.out == "csv":
        row_format = ",".join(["{:.17g}"] * len(header.split(",")))
        lines = [header] + [row_format.format(*row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in (_px(z) for z in points))
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
    rows = zip(curve.thetas.tolist(), curve.supports.tolist(),
               curve.points.real.tolist(), curve.points.imag.tolist())
    _write_curve(args, "theta,support,re,im", rows, curve.points.tolist(), "#c02020")
    return 0


def cmd_radius(args) -> int:
    T = _read_matrix(args.matrix)
    w = fov.numerical_radius(T)
    print(f"{w:.15f}")
    return 0


def _clark_check_points(n: int) -> np.ndarray:
    """Deterministic low-discrepancy points filling |z| <= 0.9."""
    j = np.arange(n)
    radii = 0.9 * np.sqrt((j + 0.5) / n)
    angles = 2.0 * np.pi * ((j * 0.61803398874989479) % 1.0)
    return radii * np.exp(1j * angles)


def cmd_clark(args) -> int:
    f = formats.parse_function(args.function)
    if not isinstance(f, Blaschke):
        raise RequiresVanishingAtZeroError(
            "clark needs a Blaschke product expression with a zero at the origin"
        )
    B = f.product
    gamma = formats.parse_complex(args.gamma)
    decomp = bl.clark_decomposition(B, gamma)
    for zeta, c in zip(decomp.zetas, decomp.weights):
        print(f"{formats.format_complex(zeta)} {c:.17g}")
    print(f"sum_weights: {float(decomp.weights.sum()):.17g}")
    zs = _clark_check_points(args.check_points)
    lhs = 1.0 / (1.0 - np.conj(decomp.gamma) * bl.evaluate(B, zs))
    residual = float(np.abs(lhs - decomp.resolvent_sum(zs)).max())
    print(f"max_identity_residual: {residual:.17g}")
    return 0


def cmd_teardrop(args) -> int:
    phis, points = regions.teardrop_boundary(formats.parse_complex(args.alpha))
    rows = zip(phis.tolist(), points.real.tolist(), points.imag.tolist())
    _write_curve(args, "phi,re,im", rows, points.tolist(), "#2040c0")
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
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _positive(text: str) -> int:
    return _nonnegative(text, least=1)


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--seed", type=int, default=os.environ.get("NUMRANGE_SEED", "42"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default="-", help="report file (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="hill-climb for matrices maximizing w(f(T))")
    p.add_argument("function", help="disk-function expression")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=os.environ.get("NUMRANGE_SEED", "42"))
    p.add_argument("--output", default="-", help="witness matrix file")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
