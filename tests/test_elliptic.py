"""Elliptic substrate tests: AGM integral, Jacobi functions, identities."""

import math
import zlib

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from kbwave import elliptic
from kbwave.errors import InfinitePeriod

# frozen from the adaptive-quadrature oracle below (and reproduced live)
K_HALF = 1.6857503548125960


def _kp(k: float) -> float:
    """The complementary modulus of a k away from 1, where this form is exact
    to rounding; the library takes k' as its caller computed it."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def _jacobi(u, k):
    return elliptic.jacobi(u, k, _kp(k))


def quadrature_K(k: float) -> float:
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    return val


class TestCompleteK:
    def test_k0_is_pi_over_2(self):
        assert elliptic.complete_K(1.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_diverges_toward_one(self):
        assert elliptic.complete_K(_kp(0.999999)) > 7.0

    def test_monotone_increasing(self):
        ks = np.linspace(0.0, 0.999, 40)
        vals = [elliptic.complete_K(_kp(k)) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_half_matches_quadrature(self):
        live = quadrature_K(0.5)
        assert abs(elliptic.complete_K(_kp(0.5)) - live) < 1e-12
        assert abs(live - K_HALF) < 1e-12

    def test_random_moduli_match_quadrature(self):
        rng = np.random.default_rng(7)
        for k in rng.uniform(0.01, 0.99, size=8):
            assert abs(elliptic.complete_K(_kp(k)) - quadrature_K(k)) < 1e-12

    def test_modulus_one_signals_infinite_period(self):
        with pytest.raises(InfinitePeriod):
            elliptic.complete_K(0.0)


class TestModulus:
    def test_tiny_complementary_modulus(self):
        """K at k' = 1e-14, where k rounds to 1, is the mpmath value of that
        k', and a modulus within 1e-13 of 0 or 1 is kept as it is."""
        with mpmath.workdps(50):
            want = mpmath.ellipk(1 - mpmath.mpf(1e-14) ** 2)
        assert abs(elliptic.complete_K(1e-14) - want) <= 2e-16 * want
        for k in (1e-13, 1.0 - 1e-13):
            assert elliptic.normalize_modulus(k) == k

    def test_reject_outside(self):
        for k in (-1e-13, 1.0 + 2.3e-16):
            with pytest.raises(ValueError):
                elliptic.normalize_modulus(k)
        with pytest.raises(ValueError):
            elliptic.normalize_modulus(-1e-9)
        with pytest.raises(ValueError):
            elliptic.normalize_modulus(1.0 + 1e-9)
        with pytest.raises(ValueError):
            elliptic.normalize_modulus(float("nan"))


class TestJacobiLimits:
    def test_trigonometric_limit(self):
        for u in (-3.2, -0.5, 0.0, 0.7, 2.9):
            s, c, d = _jacobi(u, 0.0)
            assert abs(s - math.sin(u)) < 1e-12
            assert abs(c - math.cos(u)) < 1e-12
            assert abs(d - 1.0) < 1e-12

    def test_hyperbolic_limit(self):
        for u in (-4.0, -1.0, 0.0, 0.3, 5.5):
            s, c, d = _jacobi(u, 1.0)
            sech = 1.0 / math.cosh(u)
            assert abs(s - math.tanh(u)) < 1e-12
            assert abs(c - sech) < 1e-12
            assert abs(d - sech) < 1e-12

    def test_origin(self):
        for k in (0.0, 0.2, 0.7, 0.95, 1.0):
            s, c, d = _jacobi(0.0, k)
            assert (s, c, d) == (0.0, 1.0, 1.0)


class TestIdentities:
    def test_pythagorean_identities_random(self):
        rng = np.random.default_rng(42)
        u = rng.uniform(-20.0, 20.0, size=10_000)
        k = rng.uniform(0.0, 1.0, size=10_000)
        for ui, ki in zip(u, k):
            s, c, d = _jacobi(ui, ki)
            assert abs(s * s + c * c - 1.0) <= 1e-12
            assert abs(d * d + ki * ki * s * s - 1.0) <= 1e-12
            kp = math.sqrt((1 - ki) * (1 + ki))
            assert abs(s) <= 1.0 + 1e-12 and abs(c) <= 1.0 + 1e-12
            assert kp - 1e-12 <= d <= 1.0 + 1e-12

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = rng.uniform(0.05, 0.95)
            u = rng.uniform(-5.0, 5.0)
            K = elliptic.complete_K(_kp(k))
            s1, _, _ = _jacobi(u, k)
            s2, _, _ = _jacobi(u + 4.0 * K, k)
            assert abs(s1 - s2) < 1e-10

    def test_half_quarter_period_value(self):
        # sn(K/2) = 1/sqrt(1 + k'), the standard half-argument value
        for k in (0.1, 0.5, 0.6, 0.9, 0.99):
            K = elliptic.complete_K(_kp(k))
            kp = math.sqrt((1 - k) * (1 + k))
            s, _, _ = _jacobi(K / 2.0, k)
            expected = 1.0 / math.sqrt(1.0 + kp)
            assert abs(s - expected) < 1e-10

    def test_half_quarter_period_by_quadrature_inversion(self):
        # int_0^{sn(K/2)} ds / sqrt((1-s^2)(1-k^2 s^2)) = K/2
        k = 0.6
        K = elliptic.complete_K(_kp(k))
        s_half, _, _ = _jacobi(K / 2.0, k)
        val, _ = quad(
            lambda s: 1.0 / math.sqrt((1 - s * s) * (1 - (k * s) ** 2)),
            0.0, s_half, epsabs=1e-14,
        )
        assert abs(val - K / 2.0) < 1e-10


def _ode_rhs(kind, y, k):
    k2 = k * k
    if kind == "sn":
        return (1 - y * y) * (1 - k2 * y * y)
    if kind == "cn":
        return (1 - y * y) * (1 - k2 + k2 * y * y)
    if kind == "dn":
        return (1 - y * y) * (y * y - 1 + k2)
    if kind == "tn":
        return (1 + y * y) * (1 + (1 - k2) * y * y)
    if kind == "inv_sn":
        return (y * y - 1) * (y * y - k2)
    if kind == "inv_cn":
        return (y * y - 1) * ((1 - k2) * y * y + k2)
    if kind == "dn_tn":
        return (1 + y * y) ** 2 - 4 * k2 * y * y
    raise ValueError(kind)


def _value(kind, u, k):
    """sn, cn, dn, or a quotient of them: tn = sn/cn, 1/sn, 1/cn, dn tn."""
    s, c, d = _jacobi(u, k)
    num, den = {"sn": (s, 1), "cn": (c, 1), "dn": (d, 1), "tn": (s, c),
                "inv_sn": (1, s), "inv_cn": (1, c), "dn_tn": (d * s, c)}[kind]
    return num / den


@pytest.mark.parametrize("kind", ["sn", "cn", "dn", "tn", "inv_sn", "inv_cn", "dn_tn"])
def test_first_order_ode_residual(kind):
    """Central difference over h=1e-5 matches +-sqrt(RHS) to 1e-6 off poles."""
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    h = 1e-5
    checked = 0
    while checked < 200:
        k = rng.uniform(0.05, 0.95)
        u = rng.uniform(-4.0, 4.0)
        s, c, _ = _jacobi(u, k)
        den = s if kind == "inv_sn" else c
        if kind != "sn" and kind != "cn" and kind != "dn" and abs(den) < 0.3:
            continue  # away from poles only
        y = _value(kind, u, k)
        yp = (_value(kind, u + h, k) - _value(kind, u - h, k)) / (2 * h)
        rhs = _ode_rhs(kind, y, k)
        assert abs(abs(yp) - math.sqrt(max(rhs, 0.0))) < 1e-6
        checked += 1


def test_vectorized_argument():
    u = np.linspace(-3, 3, 17)
    s, c, d = _jacobi(u, 0.7)
    assert s.shape == u.shape
    assert np.max(np.abs(s * s + c * c - 1)) < 1e-12
