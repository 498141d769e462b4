"""CSV text of float columns, each value byte for byte ``format(v, ".17g")``.

``table`` converts whole arrays at once.  The command line writes every CSV
through it, and the package loads this module on the first CSV write, so a
verb that writes none builds none of its tables.

A finite v with 1e-6 <= |v| < 1e17 has a decimal exponent E in [-6, 16],
and its 17 significant digits are the integer D = round-half-even(|v| *
10**k) with k = 16 - E in [0, 22].  Dekker's product splits |v| * 5**k
exactly into p + err (5**k is an exact double for k <= 22), and scaling both
by 2**k is exact.  P = p * 2**k lies in [1e16, 1e17], so it is an even
integer (1e16 > 2**53), and D = P + rint(err * 2**k), the ties-to-even of
rint being those of D.  No double in the range rounds up to a power of ten,
so D < 1e17 keeps E.  Every other value (zero, inf, nan, |v| out of the
range) goes through ``format`` itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = ["table"]

_E_MIN, _E_MAX = -6, 16
_POW5 = 5.0 ** np.arange(_E_MAX - _E_MIN + 1)
_POW2 = 2.0 ** np.arange(_E_MAX - _E_MIN + 1)


def _ceil_pow10(e: int) -> float:
    """The smallest double >= 10**e."""
    t = 10.0 ** e
    return t if Fraction(t) >= Fraction(10) ** e else math.nextafter(t, math.inf)


def _veltkamp(v):
    """Split doubles exactly into high and low halves of 26 bits each."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


_TEN = np.array([_ceil_pow10(e) for e in range(_E_MIN, _E_MAX + 2)])
_POW5_HI, _POW5_LO = _veltkamp(_POW5)


def _word(text: str, at: int = 0) -> int:
    """The little-endian 64-bit word holding ``text`` from byte ``at``."""
    return int.from_bytes(bytes(at) + text.encode(), "little")


# Each value is laid out in a cell of six little-endian words; zero bytes are
# holes, dropped from the text at the end:
#   word 0: the sign, then "0." and up to three zeros (fixed form below 1),
#           then the leading digit at byte 6 and a hole for the point;
#   words 1-4: the other 16 digits, four a word, each followed by a hole
#           for the point;
#   word 5: the exponent ("e-05") of the scientific form, then the separator.
# _DIGITS[v * 10000 + q] is the word of the four digits of q, less the
# trailing zeros past the first v; _DIGITS[_LEAD + d] is word 0's digit d.
_CELL = 48


def _digit_words():
    """_DIGITS.  The tables it is built from are freed once it is, so the
    module keeps only the tables ``_rows`` reads."""
    q = np.arange(10000)
    sig = 4 - sum((q % 10 ** t == 0).astype(int) for t in range(1, 5))  # to the last nonzero
    word = sum((ord("0") + q // 10 ** (3 - t) % 10).astype(np.uint64) << np.uint64(16 * t)
               for t in range(4))
    first = np.array([(1 << 16 * m) - 1 for m in range(5)], np.uint64)  # the first m digits
    return np.concatenate([word & first[np.maximum(v, sig)] for v in range(5)]
                          + [(ord("0") + np.arange(10, dtype=np.uint64)) << np.uint64(48)])


_DIGITS = _digit_words()
_LEAD = 50000
# Per E, as E - _E_MIN: .17g writes -4 <= E < 17 in fixed form, with at
# least the E + 1 digits before the point, and E = -6, -5 as d.ddde-0d.
_ES = range(_E_MIN, _E_MAX + 1)
_KEEP = np.array([e + 1 if e >= 0 else 1 for e in _ES])
# the digits of words 1-4 kept even when zero, times 10000
_KEEP_Q = np.clip(_KEEP - np.arange(1, 17, 4)[:, None], 0, 4) * 10000
_HEAD = np.array([_word("0." + "0" * (-e - 1), 1) if -4 <= e < 0 else 0 for e in _ES],
                 np.uint64)
_TAIL = np.array([_word(f"e{e:+03d}") if e < -4 else 0 for e in _ES], np.uint64)
# the byte of the point, which it fills when a digit follows it; fixed forms
# below 1 have theirs in the head, and byte 46 is never filled
_POINT = np.array([7 + 2 * e if e >= 0 else 46 if e >= -4 else 7 for e in _ES])
_BLOCK = 4096  # values per block: the block's arrays stay in cache


def _rows(block) -> str:
    """CSV lines of a 2-D float64 block, each value as ``format(v, ".17g")``
    writes it."""
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    a = np.abs(x)
    exact = (a >= _TEN[0]) & (a < _TEN[-1])
    np.copyto(a, 1.0, where=~exact)  # keeps inf and nan out of the arithmetic
    # floor(b log10 2), for the binary exponent b, is E or E - 1
    e = (((a.view(np.int64) >> 52) - 1023) * 78913 >> 18) - _E_MIN
    e += a >= _TEN.take(e + 1)  # now E - _E_MIN
    k = _E_MAX - _E_MIN - e
    p = a * _POW5.take(k)
    a_hi, a_lo = _veltkamp(a)
    y_hi, y_lo = _POW5_HI.take(k), _POW5_LO.take(k)
    err = ((a_hi * y_hi - p) + a_hi * y_lo + a_lo * y_hi) + a_lo * y_lo
    scale = _POW2.take(k)
    D = (p * scale).astype(np.int64) + np.rint(err * scale).astype(np.int64)
    # D = q0 q1 q2 q3 q4: the leading digit, then four 4-digit words
    q = np.empty((5, n), np.int64)
    hi = D // 100000000
    lo = D - hi * 100000000
    head = hi // 10000
    q[0] = head // 10000
    q[1] = head - q[0] * 10000
    q[2] = hi - head * 10000
    q[3] = lo // 10000
    q[4] = lo - q[3] * 10000
    cells = np.empty((n, 6), np.dtype("<u8"))
    later = np.zeros(n, bool)  # a nonzero digit follows the word
    for j in (4, 3, 2, 1):
        # all four digits when one follows, else the zeros E keeps
        variant = np.where(later, 4 * 10000, _KEEP_Q[j - 1].take(e))
        cells[:, j] = _DIGITS.take(variant + q[j])
        later |= q[j] != 0
    cells[:, 0] = _DIGITS.take(q[0] + _LEAD) | _HEAD.take(e) | (x < 0) * np.uint64(ord("-"))
    sep = np.full(cols, _word(",", 4), np.uint64)
    sep[-1] = _word("\n", 4)
    cells[:, 5] = (_TAIL.take(e).reshape(rows, cols) | sep).ravel()
    b = cells.view(np.uint8).ravel()
    point = np.arange(0, _CELL * n, _CELL) + _POINT.take(e)
    b[point] = (b[point + 1] != 0) * ord(".")
    other = np.flatnonzero(~exact)
    if other.size:
        # at most 24 characters, written over bytes 6-39
        text = b"".join(format(v, ".17g").encode().ljust(34, b"\0")
                        for v in x[other].tolist())
        b = b.reshape(n, _CELL)
        b[other, :44] = 0
        b[other, 6:40] = np.frombuffer(text, np.uint8).reshape(-1, 34)
    return b.tobytes().translate(None, b"\0").decode("ascii")


def table(header: str, *columns) -> str:
    """CSV text of float columns under ``header``, each value exactly as
    ``format(v, ".17g")`` writes it."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    step = max(1, _BLOCK // data.shape[1])
    return "".join([header, "\n", *(_rows(data[r:r + step])
                                    for r in range(0, len(data), step))])
