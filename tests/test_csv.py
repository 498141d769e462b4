"""The CSV writer: its text is the join of format(v, ".17g") over the rows,
byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbwave.cli import _E_MAX, _E_MIN, _csv, _fmt, main


def reference_csv(header, *columns):
    """The per-value writer: _fmt of each value, joined."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join([header, *(",".join(map(_fmt, r)) for r in rows)]) + "\n"


def assert_matches(values, cols):
    values = np.asarray(values, dtype=float)
    table = values[: len(values) // cols * cols].reshape(-1, cols)
    assert _csv("h", *table.T) == reference_csv("h", *table.T)


def from_bits(bits):
    return float(np.array([bits], np.uint64).view(np.float64)[0])


values = st.one_of(
    st.integers(0, 2**64 - 1).map(from_bits),  # every exponent and payload
    st.floats(),  # subnormals, +-0, +-inf and nan among them
    st.floats(1e-7, 2e17) | st.floats(-2e17, -1e-7),  # the whole-array range
    st.integers(-(2**62), 2**62).map(float),
)


@given(st.integers(1, 4), st.lists(values, max_size=64))
@settings(max_examples=400, deadline=None)
def test_matches_reference(cols, vals):
    assert_matches(vals, cols)


def test_decade_edges():
    vals = []
    for j in range(-30, 31):
        t = float(f"1e{j}")
        vals += [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
    assert_matches(vals + [-v for v in vals], 3)


def _ties():
    """Doubles v with v * 10**k exactly halfway between two integers of 17
    digits: v = o / 2**(k + 1) with o odd gives v * 10**k = 5**k * o / 2.
    Consecutive odd o round to even and to odd neighbours in turn."""
    out = []
    for k in range(23):
        lo = -(-(2 * 10**16 + 1) // 5**k)
        for o in range(lo | 1, lo + 8, 2):
            if o < 2**53:
                out.append(math.ldexp(o, -(k + 1)))
    return out


def test_ties_round_to_even():
    ties = _ties()
    for v in ties:
        E = math.floor(math.log10(v))
        assert (Fraction(v) * Fraction(10) ** (16 - E)).denominator == 2
    assert len(ties) > 60
    assert_matches(ties + [-v for v in ties], 2)


def test_no_double_in_range_rounds_up_to_a_power_of_ten():
    """The writer never carries D to 1e17: below each power of ten it covers,
    the largest double keeps 17 nines or fewer."""
    for j in range(_E_MIN + 1, _E_MAX + 2):
        v = float(Fraction(10) ** j)
        if Fraction(v) >= Fraction(10) ** j:
            v = math.nextafter(v, 0)
        assert Fraction(v) * Fraction(10) ** (17 - j) < 10**17 - Fraction(1, 2)


def test_carry_to_a_power_of_ten():
    """1e-14 is just below 10**-14 and rounds up to it at 17 digits."""
    assert Fraction(1e-14) < Fraction(1, 10**14)
    assert _fmt(1e-14) == "1e-14"
    assert_matches([1e-14, -1e-14, math.nextafter(1e-14, 0)], 1)


@pytest.mark.parametrize("rows, cols", [(0, 4), (1, 1), (5000, 3), (2048, 2)])
def test_block_boundaries(rows, cols):
    rng = np.random.default_rng(rows + cols)
    vals = rng.standard_normal(rows * cols) * 10.0 ** rng.integers(-8, 18, rows * cols)
    assert_matches(vals, cols)


def _parsed(path):
    header, *lines = path.read_text().split("\n")[:-1]
    return header, np.array([[float(t) for t in line.split(",")] for line in lines]).T


def test_real_outputs(tmp_path):
    """Every CSV the verbs write at README size is the reference join of the
    values it holds (.17g round-trips, so parsing recovers them)."""
    assert main(["figures", "--n", "2001", "--out", str(tmp_path / "figures")]) == 0
    assert main(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9",
                 "--length", "12", "--out", str(tmp_path / "orbit.csv")]) == 0
    assert main(["evolve", "--preset", "fig-case1a", "--T", "0.05",
                 "--out", str(tmp_path / "evolve.csv")]) == 0
    paths = sorted(tmp_path.rglob("*.csv"))
    assert len(paths) == 8 + 1 + 2
    for path in paths:
        header, columns = _parsed(path)
        assert path.read_text() == reference_csv(header, *columns), path.name
