import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from numrange.diskfun import Blaschke, Compose, Mobius, Polynomial, Scale
from numrange.errors import FunctionExprError, MatrixFileError
from numrange.formats import (
    format_complex,
    parse_complex,
    parse_function,
    parse_matrix,
    serialize_matrix,
)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


class TestComplexLiterals:
    def test_format_examples(self):
        assert format_complex(0) == "0+0i"
        assert format_complex(1.5 - 0.25j) == "1.5-0.25i"
        # 2^-15 and 2^-20 are exactly representable, so 17g prints them short
        assert format_complex(2 ** -15 + 2 ** -20 * 1j) == "3.0517578125e-05+9.5367431640625e-07i"

    def test_parse_examples(self):
        assert parse_complex("0+0i") == 0
        assert parse_complex("1.5-0.25i") == 1.5 - 0.25j
        assert parse_complex("-2e3+0.5i") == -2000 + 0.5j
        assert parse_complex("3.25") == 3.25  # bare real accepted on input

    def test_parse_rejects_junk(self):
        for bad in ("", "i", "1+i", "1 + 2i", "1+2j", "one+twoi", "1+2i i"):
            with pytest.raises(ValueError):
                parse_complex(bad)

    @pytest.mark.parametrize("bad", ["1+2i\n", "3.25\n", "1+2i ", " 1+2i", "\n1+2i"])
    def test_parse_rejects_surrounding_whitespace(self, bad):
        # `$` also matches before a final newline, so "1+2i\n" parsed while
        # "1+2i " was rejected
        with pytest.raises(ValueError, match="not a complex literal"):
            parse_complex(bad)

    @given(finite, finite)
    def test_round_trip_exact(self, re, im):
        z = complex(re, im)
        assert parse_complex(format_complex(z)) == z


class TestMatrixFiles:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(parse_matrix(serialize_matrix(T)), T)

    def test_serialized_shape(self):
        text = serialize_matrix(np.eye(2))
        lines = text.splitlines()
        assert lines[0] == "dim 2"
        assert lines[1].split() == ["1+0i", "0+0i"]

    def test_header_errors(self):
        with pytest.raises(MatrixFileError, match="line 1"):
            parse_matrix("")
        with pytest.raises(MatrixFileError, match="line 1"):
            parse_matrix("size 2\n1 0\n0 1\n")
        with pytest.raises(MatrixFileError, match="dimension"):
            parse_matrix("dim zero\n")
        with pytest.raises(MatrixFileError, match="positive"):
            parse_matrix("dim 0\n")

    def test_row_count_error(self):
        with pytest.raises(MatrixFileError, match="2 matrix rows"):
            parse_matrix("dim 2\n1+0i 0+0i\n")

    def test_entry_error_has_position(self):
        with pytest.raises(MatrixFileError, match="line 3, column 6"):
            parse_matrix("dim 2\n1+0i 0+0i\n0+0i oops\n")

    def test_error_line_counts_blank_lines(self):
        # blank lines were skipped before rows were numbered
        with pytest.raises(MatrixFileError, match="line 4, column 6"):
            parse_matrix("dim 2\n\n1+0i 0+0i\n0+0i x\n")
        with pytest.raises(MatrixFileError, match="line 3: expected 2 entries"):
            parse_matrix("dim 2\n\n1+0i\n0+0i 1+0i\n")

    def test_error_column_counts_every_space(self):
        # columns assumed a single space between tokens
        with pytest.raises(MatrixFileError, match="line 3, column 10"):
            parse_matrix("dim 2\n1+0i   0+0i\n0+0i     x\n")
        with pytest.raises(MatrixFileError, match="line 2, column 3: .*'1\\+i'"):
            parse_matrix("dim 1\n\t 1+i\n")

    def test_bits_match_token_parser(self):
        # parse_matrix and parse_complex convert with complex(); every entry
        # must keep the bits, signed zeros included, of float() on each part
        tokens = ["0+0i", "-0-0i", "0-0i", "-0", "5e-324-5e-324i", "2.2250738585072e-309+1e-310i",
                  ".5", "1.", "-.5+1.i", "+1.-.5i", "3", "-2e3", "1E5+2E-05i",
                  "1.7976931348623157e308-1.7976931348623157e308i", "0.1+0.2i", "7"]
        rng = np.random.default_rng(16)
        values = rng.normal(size=48) * 10.0 ** rng.integers(-300, 300, size=48)
        tokens += [format_complex(complex(a, b)) for a, b in values.reshape(24, 2)]
        tokens += [f"{v:.17g}" for v in rng.normal(size=24)]
        text = "dim 8\n" + "\n".join(" ".join(tokens[i:i + 8]) for i in range(0, 64, 8)) + "\n"
        number = r"[+-]?[\d.]+(?:[eE][+-]?\d+)?"
        parts = [re.fullmatch(rf"({number})(?:({number})i)?", tok).groups() for tok in tokens]
        expected = np.array([complex(float(a), float(b or "0")) for a, b in parts]).reshape(8, 8)
        assert parse_matrix(text).tobytes() == expected.tobytes()
        assert np.array([parse_complex(tok) for tok in tokens]).tobytes() == expected.ravel().tobytes()

    def test_entry_count_error(self):
        with pytest.raises(MatrixFileError, match="line 2"):
            parse_matrix("dim 2\n1+0i\n0+0i 1+0i\n")

    def test_first_error_in_file_order(self):
        # the whole file is checked at once, by literal shape and by row
        # length; the error reported is still that of the first bad row
        rows = ["1+0i 0+0i 0+0i 0+0i 0+0i"] * 5
        rows[2] = "0+0i 1.5-2i  3+4j 0 0"
        rows[4] = "1+0i 2+0i"
        text = "dim 5\n" + "\n".join(rows) + "\n"
        with pytest.raises(MatrixFileError) as err:
            parse_matrix(text)
        assert str(err.value) == "line 4, column 14: not a complex literal: '3+4j'"
        rows[2] = "0+0i 1.5-2i  3+4i 0 0"
        with pytest.raises(MatrixFileError, match="^line 6: expected 5 entries, found 2$"):
            parse_matrix("dim 5\n" + "\n".join(rows) + "\n")

    def test_every_digit_checked_alike(self):
        # literals of one shape (digits 1-9 read as 0) are all valid or all
        # not, and each keeps its own value
        T = parse_matrix("dim 2\n1.5e-3+2i 9.25e+7-1i\n-4 .5\n")
        assert T.tolist() == [[1.5e-3 + 2j, 9.25e7 - 1j], [-4, 0.5]]


class TestFunctionExpressions:
    def test_poly(self):
        f = parse_function("poly 1+0i 0+0i -2+0i")
        assert isinstance(f, Polynomial)
        assert f.at(3.0) == pytest.approx(-17.0)

    def test_mobius(self):
        f = parse_function("mobius 1 -2 2 -1")
        assert isinstance(f, Mobius)
        assert f.at(0.0) == pytest.approx(0.5)

    def test_blaschke(self):
        f = parse_function("blaschke -1+0i 0+0i")
        assert isinstance(f, Blaschke)
        assert f.at(0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)

    def test_compose_and_scale(self):
        f = parse_function("compose ( mobius 0.5 1 1 0.5 ) "
                           "( scale 0.9 ( poly 0 1 ) )")
        assert isinstance(f, Compose)
        assert isinstance(f.inner, Scale)
        assert f.at(0.0) == pytest.approx(0.5)

    def test_nested_compose(self):
        f = parse_function(
            "compose ( compose ( poly 0 1 ) ( poly 0 1 ) ) ( blaschke 1 0 0 )")
        assert f.at(0.5) == pytest.approx(0.25)

    def test_errors(self):
        for bad in (
            "",                            # no head
            "poly",                        # missing coefficients
            "mobius 1 2 3",                # too few coefficients
            "blaschke 1",                  # no zeros
            "blaschke 0.5 0",              # non-unimodular constant
            "compose ( poly 0 1 )",        # missing inner group
            "compose poly 0 1 ( poly 0 1 )",  # missing parens
            "scale 0.5+1i ( poly 0 1 )",   # scale factor must be real
            "frobnicate 1 2",              # unknown head
            "poly 0 1 ) junk",             # trailing tokens
        ):
            with pytest.raises(FunctionExprError):
                parse_function(bad)

    def test_whitespace_insensitive_parens(self):
        a = parse_function("compose ( poly 0 1 ) ( poly 0 1 )")
        b = parse_function("compose (poly 0 1)(poly 0 1)")
        assert a.at(0.3) == b.at(0.3)
