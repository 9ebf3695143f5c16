"""Plain-text interchange formats used by the CLI.

Matrix files:
    dim n
    <n rows of n whitespace-separated complex literals>

Complex literals are written `re+imi` (both parts always present, 17
significant digits on output), e.g. `0+0i`, `1.5-0.25i`, `1e-05+2e-07i`.

Function expressions are prefix notation over whitespace-separated tokens
(parentheses are standalone tokens):
    poly c0 c1 ...
    mobius a b c d              # z -> (a + b z)/(c + d z)
    blaschke c a1 a2 ...        # constant c, zeros a1..
    compose ( outer ) ( inner )
    scale rho ( inner )
"""

from __future__ import annotations

import re

import numpy as np

from .blaschke import BlaschkeProduct
from .diskfun import Blaschke, Compose, DiskFunction, Mobius, Polynomial, Scale
from .errors import FunctionExprError, MatrixFileError, NotUnimodularError

# the grammar is ASCII: \d, like int(), would also take other scripts' digits
_NUM = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_DIM_RE = re.compile(r"[0-9]+")
# one complex literal, `re` or `re+imi`, which complex() reads once its `i`
# is a `j`; a matrix row is whitespace-separated literals
_TOKEN = rf"[+-]?{_NUM}(?:[+-]{_NUM}i)?"
_TOKEN_RE = re.compile(_TOKEN)
# the grammar treats every digit alike, so a literal is valid exactly when
# its shape, with the digits 1-9 read as 0, is
_SHAPE = str.maketrans("123456789", "000000000")


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(token: str) -> complex:
    if not _TOKEN_RE.fullmatch(token):
        raise ValueError(f"not a complex literal: {token!r}")
    return complex(token.replace("i", "j"))


def serialize_matrix(T) -> str:
    T = np.asarray(T, dtype=complex)
    lines = [f"dim {T.shape[0]}"]
    for row in T:
        lines.append(" ".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the MatrixFile format; errors carry line/column positions.

    The literal grammar of parse_complex checks each distinct shape of
    literal once (_SHAPE: a 64x64 file holds about a hundred), and one
    pass of complex() converts every entry, as parse_complex converts one
    literal. A file that fails either check is read again row by row, for
    the line and column of its first error."""
    lines = text.splitlines()
    if not lines:
        raise MatrixFileError("line 1: empty input, expected 'dim n'")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "dim":
        raise MatrixFileError(f"line 1: expected 'dim n', got {lines[0]!r}")
    if not _DIM_RE.fullmatch(header[1]):
        raise MatrixFileError(f"line 1: bad dimension {header[1]!r}")
    n = int(header[1])
    if n < 1:
        raise MatrixFileError(f"line 1: dimension must be positive, got {n}")
    rows = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(rows) != n:
        raise MatrixFileError(f"expected {n} matrix rows, found {len(rows)}")
    body = "\n".join(line for _, line in rows)
    if (any(len(line.split()) != n for _, line in rows)
            or not all(map(_TOKEN_RE.fullmatch, set(body.translate(_SHAPE).split())))):
        _raise_first_error(rows, n)
    T = np.array(list(map(complex, body.replace("i", "j").split()))).reshape(n, n)
    if not np.all(np.isfinite(T)):
        raise MatrixFileError("matrix has non-finite entries")
    return T


def _raise_first_error(rows, n: int):
    """MatrixFileError for the first row, in file order, that does not hold
    n entries or holds a token that is not a complex literal, at the line
    and column of that token."""
    for number, line in rows:
        count = len(line.split())
        if count != n:
            raise MatrixFileError(f"line {number}: expected {n} entries, found {count}")
        for token in re.finditer(r"\S+", line):
            try:
                parse_complex(token.group())
            except ValueError as exc:
                raise MatrixFileError(f"line {number}, column {token.start() + 1}: {exc}") from None


def _parse_real(token: str, what: str) -> float:
    z = _parse_scalar(token, what)
    if z.imag != 0.0:
        raise FunctionExprError(f"{what} must be real, got {token!r}")
    return z.real


def _parse_scalar(token: str, what: str) -> complex:
    try:
        return parse_complex(token)
    except ValueError as exc:
        raise FunctionExprError(f"{what}: {exc}") from None


class _Tokens:
    def __init__(self, text: str):
        self.items = text.replace("(", " ( ").replace(")", " ) ").split()
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise FunctionExprError(f"unexpected end of expression, expected {what}")
        self.pos += 1
        return tok

    def expect(self, literal: str):
        tok = self.next(repr(literal))
        if tok != literal:
            raise FunctionExprError(f"expected {literal!r}, got {tok!r}")

    def scalars_until_end(self, what: str) -> list[complex]:
        out = []
        while self.peek() is not None and self.peek() != ")":
            out.append(_parse_scalar(self.next(what), what))
        return out


def parse_function(text: str) -> DiskFunction:
    tokens = _Tokens(text)
    f = _parse_expr(tokens)
    if tokens.peek() is not None:
        raise FunctionExprError(f"trailing tokens starting at {tokens.peek()!r}")
    return f


def _parse_group(tokens: _Tokens) -> DiskFunction:
    tokens.expect("(")
    f = _parse_expr(tokens)
    tokens.expect(")")
    return f


def _parse_expr(tokens: _Tokens) -> DiskFunction:
    head = tokens.next("a function head (poly/mobius/blaschke/compose/scale)")
    try:
        return _parse_head(head, tokens)
    except FunctionExprError:
        raise
    except (ValueError, NotUnimodularError) as exc:
        raise FunctionExprError(str(exc)) from None


def _parse_head(head: str, tokens: _Tokens) -> DiskFunction:
    if head == "poly":
        coeffs = tokens.scalars_until_end("polynomial coefficient")
        if not coeffs:
            raise FunctionExprError("poly needs at least one coefficient")
        return Polynomial(tuple(coeffs))
    if head == "mobius":
        vals = [_parse_scalar(tokens.next("mobius coefficient"),
                              "mobius coefficient") for _ in range(4)]
        return Mobius(*vals)
    if head == "blaschke":
        constant = _parse_scalar(tokens.next("blaschke constant"),
                                 "blaschke constant")
        zeros = tokens.scalars_until_end("blaschke zero")
        if not zeros:
            raise FunctionExprError("blaschke needs at least one zero")
        return Blaschke(BlaschkeProduct(constant, tuple(zeros)))
    if head == "compose":
        outer = _parse_group(tokens)
        inner = _parse_group(tokens)
        return Compose(outer, inner)
    if head == "scale":
        rho = _parse_real(tokens.next("scale factor"), "scale factor")
        return Scale(rho, _parse_group(tokens))
    raise FunctionExprError(f"unknown function head {head!r}")
