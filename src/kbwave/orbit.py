"""The orbit of f'^2 = F(f) in one band, by quadrature in the band's angle.

A wave lives in a band [e, o] of F > 0 between adjacent real zeros, where
F = -(f - e)(f - o) Q(f), Q the monic quadratic cofactor.  The substitution
f = e + (o - e) sin^2(theta) (Byrd & Friedman) removes both turning-point
singularities:

    d xi / d theta = 2 / sqrt(Q(f)),

with theta = 0 at e.  Q's zeros are a real pair, a complex pair (F with two
simple real zeros only), or lie at o: once where o is a double zero of F (a
pulse, whose xi grows like -ln(phi), phi = pi/2 - theta), or twice where it
is a triple zero, where xi = 2 t / |o - e| in t = tan(theta), that is
f - o = (e - o) / (1 + t^2).  Q is small only where its zeros come near a
band edge; Chebyshev-Lobatto panels, halved toward each such edge down to
the width of that feature, integrate d xi to near machine precision
(Trefethen, Approximation Theory and Approximation Practice, 2013).  Past
pi/4 the panels run in phi, which keeps its precision near o, and toward a
multiple zero in -ln(phi) or t, in which xi tends to a straight line.  A
pulse's panels stop where phi = _PULSE_CUTOFF, |f - o| about 1e-14 |o - e|;
past them the orbit follows that line.  A sample is read off the inverse
series of its panel, the panel variable's Chebyshev interpolant in xi on 24
nodes, or up to 192 where 24 leave more than rounding; sampling raises where
even 192 do.

Along an orbit theta runs one way: xi(theta) is odd, and in a band with two
simple edges xi(theta + pi) = xi(theta) + T, T the period, so the orbit
turns at e where theta = j pi and at o where theta = pi/2 + j pi, and
f' = (o - e) sin(theta) cos(theta) sqrt(Q(f)).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval, chebvander

from .errors import KBWaveError
from .quartic import band_edges, cofactor_discriminant

__all__ = ["Orbit", "band"]

_PANEL = 24
_LOBATTO = -np.cos(np.pi * np.arange(_PANEL) / (_PANEL - 1))  # ascending on [-1, 1]
_TO_COEFFS = np.linalg.inv(chebvander(_LOBATTO, _PANEL - 1))
# a panel's Chebyshev coefficients -> those of its integral from -1
_INTEGRAL = chebint(np.eye(_PANEL), lbnd=-1.0)
# values at the nodes -> integral from -1 to each node
_CUMULATIVE = chebvander(_LOBATTO, _PANEL) @ _INTEGRAL @ _TO_COEFFS
_PULSE_CUTOFF = 1e-7  # phi = pi/2 - theta where a pulse's panels stop
_QUADRANT = 0.25 * math.pi
# Newton steps from a linear guess between a panel's nodes: its error of
# about 1e-3 falls to 1e-7, 1e-14 and then rounding
_NEWTON = 3
# how far, over the zeros' scale, an inverse series' two highest terms may
# move f: half an ulp there
_INVERSE_RTOL = 2.0 ** -53
_CHUNK = 1 << 16  # grid points sampled at once


def _halvings(depth):
    """Panel breaks pi/4 * 2**-j, ascending, the smallest no wider than depth."""
    m = max(0, math.ceil(math.log2(_QUADRANT / depth)))
    return [_QUADRANT * 0.5 ** j for j in range(m, 0, -1)]


def band(p, roots, f0, slack):
    """The band of F > 0 nearest f0, as (e, o, cofactor): its edges, e a
    simple zero, and the two zeros of Q (a complex pair where F has two real
    zeros); None when no band lies within slack of f0."""
    values = roots.values()
    spans = [(values[i], values[j]) for i, j in band_edges(roots.multiplicities())]
    dist = [max(lo - f0, f0 - hi, 0.0) for lo, hi in spans]
    if not dist or not min(dist) < slack:
        return None
    lo, hi = spans[dist.index(min(dist))]
    rest = list(roots.expand())
    rest.remove(lo)
    rest.remove(hi)
    if not rest:  # the complex pair: its sum from the speed, its gap from F's integers
        pair = complex(-2.0 * float(p.c) - 0.5 * (lo + hi),
                       0.5 * math.sqrt(max(-cofactor_discriminant(p, roots), 0.0)))
        rest = [pair, pair.conjugate()]
    # a multiple zero cannot bound the band on both sides (F <= 0 there), so
    # at least one edge is simple; anchor there, where the orbit turns
    if min(abs(r - lo) for r in rest) >= min(abs(r - hi) for r in rest):
        return lo, hi, rest
    return hi, lo, rest


class Orbit:
    """The orbit in the band [e, o] from its turn at e, tabulated on panels
    of a variable x: theta up to pi/4, and past it phi = pi/2 - theta toward
    a simple o, -ln(phi) toward a double and t = 1/tan(phi) toward a
    triple.  ``xi`` at the panels' nodes,
    ``f`` there, and ``bound``, how far the quadrature's error moves f.  The
    start's angle theta0 in [0, pi/2] is fixed from f0 in the middle of the
    band and from |f'| = |fp0| near its edges, where f0 alone fixes it only
    to the square root of its error (fp0 None takes f0 alone); ``xi0`` is
    its xi.  ``period`` is T, or None for a pulse."""

    def __init__(self, e, o, cofactor, f0, fp0=None):
        self.e, self.o, self.w, self.cofactor = e, o, o - e, cofactor
        w = self.w
        self.mult = mult = 1 + sum(r == o for r in cofactor if not isinstance(r, complex))
        depth = {z: math.sqrt(min(abs(r - z) for r in cofactor) / abs(w)) for z in (e, o)}

        s2, c2 = (min(max(v / w, 0.0), 1.0) for v in (f0 - e, o - f0))  # sin^2, cos^2
        if fp0 is None:
            sc = math.sqrt(s2 * c2)
        else:
            q0 = abs(self.q(s2, c2))
            sc = abs(fp0) / (abs(w) * math.sqrt(q0)) if q0 > 0.0 else 0.0  # sin * cos
        # theta0, and phi0 = pi/2 - theta0, each from the nearer edge
        theta0 = math.atan2(sc, c2) if s2 <= c2 else 0.5 * math.pi - math.atan2(sc, s2)
        phi0 = 0.5 * math.pi - theta0 if s2 <= c2 else math.atan2(sc, s2)

        # breaks ascending in theta, then descending in phi; a pulse's stop
        # short of the multiple zero
        by_theta = [0.0, *_halvings(depth[e]), _QUADRANT]
        by_phi = [_QUADRANT, *reversed(_halvings(depth[o] if mult == 1 else _PULSE_CUTOFF))]
        by_phi += [0.0] if mult == 1 else []
        at0 = None  # past a pulse's last panel
        if theta0 <= _QUADRANT:
            by_theta = sorted({*by_theta, theta0})
            at0 = by_theta.index(theta0)
        elif phi0 >= by_phi[-1]:
            by_phi = sorted({*by_phi, phi0}, reverse=True)
            at0 = len(by_theta) - 1 + by_phi.index(phi0)
        self.near_e = len(by_theta) - 1  # panels in theta
        far = [self._far(b) for b in by_phi]
        lo, hi = np.array(by_theta[:-1] + far[:-1]), np.array(by_theta[1:] + far[1:])
        # x = lo + step (u + 1) on u in [-1, 1], exact at both ends of the band
        self.lo, self.step = lo, 0.5 * (hi - lo)
        half = np.abs(self.step)
        x = lo[:, None] + self.step[:, None] * (_LOBATTO + 1.0)
        sin2, cos2 = (np.concatenate(v) for v in zip(
            self._squares(x[:self.near_e], False), self._squares(x[self.near_e:], True)))
        q = self.q(sin2, cos2)
        dxi = 2.0 / np.sqrt(q)  # d xi / d theta, then d xi / dx: d theta / dx is
        if mult > 1:            # phi past pi/4 toward a double zero, cos^2 toward a triple
            dxi[self.near_e:] *= np.exp(-x[self.near_e:]) if mult == 2 else cos2[self.near_e:]
        within = half[:, None] * (dxi @ _CUMULATIVE.T)
        before = np.concatenate(([0.0], np.cumsum(within[:, -1])))
        self.half, self.before, self.dxi, self.within = half, before, dxi, within
        self.xi, self.sin2 = before[:-1, None] + within, sin2

        slope = abs(w) * np.sqrt(sin2 * cos2 * np.abs(q))  # |f'| at the nodes
        # the two highest Chebyshev coefficients per panel bound the error in xi
        tail = np.abs(dxi @ _TO_COEFFS[-2:].T).sum(axis=1)
        self.bound = float(np.max(slope)) * float(np.sum(half * tail))
        # how far an error in u moves f, |f'| d xi/du at each panel's largest node
        self._df_du = half * np.max(slope * dxi, axis=1)
        self._scale = max(1.0, *(abs(r) for r in (e, o, *cofactor) if not isinstance(r, complex)))
        self._series = {}  # panel -> its inverse series, made on first use

        self.period = 2.0 * before[-1] if mult == 1 else None
        self.end = far[-1]
        if at0 is not None:
            self.xi0 = float(before[at0])
        else:  # on the line xi(x) tends to
            self.xi0 = float(before[-1] + dxi[-1, -1] * (self._far(phi0) - self.end))

    def _far(self, phi):
        """The panel variable at phi = pi/2 - theta past pi/4."""
        return phi if self.mult == 1 else -math.log(phi) if self.mult == 2 else 1.0 / math.tan(phi)

    @property
    def f(self):
        """f at the nodes."""
        return self.e + self.w * self.sin2

    def q(self, sin2, cos2):
        """Q(f) at f = e + (o - e) sin2, each factor f - z taken from the
        nearer edge, without cancellation there."""
        e, o, w = self.e, self.o, self.w

        def minus(z):  # f - z
            return (e - z) + w * sin2 if abs(e - z) <= abs(o - z) else (o - z) - w * cos2

        r3, r4 = self.cofactor
        if isinstance(r3, complex):
            d = minus(r3.real)
            return d * d + r3.imag * r3.imag
        return minus(r3) * minus(r4)

    def _squares(self, x, far):
        """(sin^2, cos^2) of theta at the panel variable x: theta, or past
        pi/4 (far) phi, -ln(phi) or 1/tan(phi)."""
        if not far:
            return np.sin(x) ** 2, np.cos(x) ** 2
        if self.mult == 3:
            cos2 = 1.0 / (1.0 + x * x)
            return x * x * cos2, cos2
        phi = np.exp(-x) if self.mult == 2 else x
        return np.cos(phi) ** 2, np.sin(phi) ** 2

    def sample(self, xi, direction):
        """(f, f', events) of the orbit at xi >= 0 from its start, theta0 on
        the side ``direction`` (+1 or -1) of its turn at e: theta then runs
        up from direction * theta0.  ``events`` are the xi of its turns at
        simple edges.  Each panel the samples touch gets one inverse series
        (``_inverse``), evaluated once per sample; sampled in chunks, so
        that no temporary grows with the grid."""
        start = math.copysign(self.xi0, direction)
        if self.period is not None:
            turns = 0.5 * self.period
            first, last = math.ceil(start / turns), math.floor((start + xi[-1]) / turns)
            events = [j * turns - start for j in range(first, last + 1)]
        else:
            events = [0.0 - start] if 0.0 <= -start <= xi[-1] else []
        f, fp = np.empty(len(xi)), np.empty(len(xi))
        for lo in range(0, len(xi), _CHUNK):
            tau = xi[lo:lo + _CHUNK] + start
            if self.period is not None:
                tau -= self.period * np.round(tau / self.period)
            sin2, cos2 = self._squares_at(np.abs(tau))
            f[lo:lo + _CHUNK] = self.e + self.w * sin2
            speed = np.sqrt(sin2 * cos2 * np.abs(self.q(sin2, cos2)))
            fp[lo:lo + _CHUNK] = self.w * np.copysign(speed, tau) + 0.0  # no -0 at rest
        return f, fp, events

    def _squares_at(self, a):
        """(sin^2, cos^2) of theta in [0, pi/2] where xi(theta) = a >= 0: on
        its panel from the panel's inverse series, past a pulse's last panel
        by the edge's asymptote."""
        count = len(self.half)
        panel = np.searchsorted(self.before, a, side="right") - 1
        if self.period is not None:  # a <= T/2 = before[-1]
            np.minimum(panel, count - 1, out=panel)
        sin2, cos2 = np.empty_like(a), np.empty_like(a)
        for j in np.flatnonzero(np.bincount(panel, minlength=count + 1)):
            idx = np.flatnonzero(panel == j)
            if j == count:  # past a pulse's last panel, on the line xi(x) tends to
                x = self.end + (a[idx] - self.before[-1]) / self.dxi[-1, -1]
                sin2[idx], cos2[idx] = self._squares(x, True)
                continue
            s = np.clip((a[idx] - self.before[j]) * (2.0 / self.within[j, -1]) - 1.0, -1.0, 1.0)
            x = self.lo[j] + self.step[j] * ((s + chebval(s, self._inverse(j))) + 1.0)
            sin2[idx], cos2[idx] = self._squares(x, j >= self.near_e)
        return sin2, cos2

    def _inverse(self, j):
        """The Chebyshev series of u(s) - s on panel j, s in [-1, 1] across
        its span of xi, made on first use: u at n Lobatto nodes of s by
        Newton on the panel's series (xi - before[j]) / half[j] = I(u),
        I' = g, n = 24, 48, 96 or 192, the first whose two highest terms
        move f by at most _INVERSE_RTOL * scale; KBWaveError if none does.
        Taken less s, the series' terms and their rounding are small."""
        if j not in self._series:
            g = _TO_COEFFS @ self.dxi[j]
            integral = _INTEGRAL @ g
            for n in (_PANEL, 2 * _PANEL, 4 * _PANEL, 8 * _PANEL):
                nodes = -np.cos(np.pi * np.arange(n) / (n - 1))
                target = (0.5 * self.within[j, -1] / self.half[j]) * (nodes + 1.0)
                u = np.interp(target, self.within[j] / self.half[j], _LOBATTO)
                for _ in range(_NEWTON):
                    at = chebvander(u, _PANEL)
                    u -= (at @ integral - target) / (at[:, :-1] @ g)
                    np.clip(u, -1.0, 1.0, out=u)
                to_coeffs = _TO_COEFFS if n == _PANEL else np.linalg.inv(chebvander(nodes, n - 1))
                series = to_coeffs @ (u - nodes)
                moved = self._df_du[j] * np.sum(np.abs(series[-2:]))
                if moved <= _INVERSE_RTOL * self._scale:
                    break
            else:
                raise KBWaveError(f"the orbit's inverse series did not converge: with {n} terms "
                                  f"its tail moves f by up to {moved:.3e}, against the bound "
                                  f"{_INVERSE_RTOL * self._scale:.3e}")
            self._series[j] = series
        return self._series[j]
