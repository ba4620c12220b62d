"""Initial data, characteristics solution and gradient catastrophe.

The dispersionless solution u(x,t) = u0(xi) is defined implicitly by the
characteristic relation x = 6 t u0(xi) + xi.  Everything downstream (edge
systems, critical expansions) is driven by the decreasing-branch inverse
f_L of the initial profile and the kernel

    theta(lam; u) = (1/(2 sqrt 2)) int_{-1}^{1}
                    f_L'((1+m) lam / 2 + (1-m) u / 2) / sqrt(1-m) dm,

evaluated with Gauss-Jacobi quadrature that absorbs the 1/sqrt(1-m)
endpoint factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import doubling_quadrature
from .errors import AmbiguityError, ConvergenceError, DomainError, GenericityError

__all__ = [
    "InitialData",
    "CatastrophePoint",
    "make_sech2_data",
    "make_tabulated_data",
    "load_initial_data_csv",
    "hopf_solve",
    "breaking_point",
    "theta_of",
    "theta_v",
    "theta_vv",
]


@dataclass(frozen=True)
class InitialData:
    """Negative, single-minimum initial profile with its branch inverse.

    ``f_L`` inverts the decreasing branch of ``u0`` and maps (-1, 0) back
    to x values left of the minimum ``x_M``.  Derivative callables of
    ``f_L`` up to third order are required by the edge systems and the
    catastrophe constants.  Instances are immutable.
    """

    u0: Callable
    u0_prime: Callable
    f_L: Callable
    f_L_prime: Callable
    f_L_second: Callable
    f_L_third: Callable
    x_M: float
    domain_halfwidth: float

    def self_check(self) -> None:
        """Verify the structural invariants on a sample grid."""
        if abs(float(self.u0(self.x_M)) + 1.0) > 1e-10:
            raise DomainError("u0 must attain the value -1 at its minimum x_M")
        h = self.domain_halfwidth
        xs = np.linspace(-h, self.x_M, 400)
        us = np.asarray(self.u0(xs), dtype=float)
        if np.any(us >= 0.0):
            raise DomainError("u0 must be negative on the sampled grid")
        if np.any(np.diff(us) >= 0.0):
            raise DomainError("u0 must be strictly decreasing left of x_M")
        interior = xs[(xs < self.x_M - 1e-6) & (us > -1.0 + 1e-6) & (us < -1e-6)]
        for x in interior[:: max(1, interior.size // 25)]:
            if abs(float(self.f_L(float(self.u0(x)))) - x) > 1e-8:
                raise DomainError("f_L does not invert the decreasing branch of u0")
        if abs(float(self.u0(h))) > 1e-8 or abs(float(self.u0(-h))) > 1e-8:
            raise DomainError("u0 does not decay at +-domain_halfwidth")


@dataclass(frozen=True)
class CatastrophePoint:
    """Location of the first gradient catastrophe of the Hopf solution."""

    x_c: float
    t_c: float
    u_c: float
    xi_c: float
    k: float  # -f_L'''(u_c), positive for generic data


def make_sech2_data() -> InitialData:
    """The profile u0(x) = -sech(x)^2 on [-15, 15] with closed-form branch inverse.

    f_L(u) = -log((1 + sqrt(1+u)) / sqrt(-u)) on (-1, 0), and all three
    derivatives are analytic: f_L'(u) = 1 / (2 u sqrt(1+u)).
    """

    def u0(x):
        return -1.0 / np.cosh(x) ** 2

    def u0_prime(x):
        return 2.0 * np.tanh(x) / np.cosh(x) ** 2

    def f_l(u):
        u = np.asarray(u, dtype=float)
        return -np.log((1.0 + np.sqrt(1.0 + u)) / np.sqrt(-u))

    def f_l_prime(u):
        u = np.asarray(u, dtype=float)
        return 1.0 / (2.0 * u * np.sqrt(1.0 + u))

    def f_l_second(u):
        u = np.asarray(u, dtype=float)
        r = np.sqrt(1.0 + u)
        return -1.0 / (2.0 * u**2 * r) - 1.0 / (4.0 * u * r**3)

    def f_l_third(u):
        u = np.asarray(u, dtype=float)
        r = np.sqrt(1.0 + u)
        return 1.0 / (u**3 * r) + 1.0 / (2.0 * u**2 * r**3) + 3.0 / (8.0 * u * r**5)

    data = InitialData(
        u0=u0,
        u0_prime=u0_prime,
        f_L=f_l,
        f_L_prime=f_l_prime,
        f_L_second=f_l_second,
        f_L_third=f_l_third,
        x_M=0.0,
        domain_halfwidth=15.0,
    )
    return data


def make_tabulated_data(x: np.ndarray, u: np.ndarray) -> InitialData:
    """Initial data from (x, u0) samples.

    The branch inverse is built by monotone cubic interpolation of the
    inverted decreasing branch; its derivatives are the piecewise
    derivatives of that interpolant, which is the honest accuracy level
    for sampled data.
    """
    from scipy.interpolate import PchipInterpolator

    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim != 1 or x.shape != u.shape or x.size < 8:
        raise DomainError("need matching 1-d sample arrays with at least 8 points")
    if np.any(np.diff(x) <= 0.0):
        raise DomainError("x samples must be strictly increasing")
    i_min = int(np.argmin(u))
    if abs(u[i_min] + 1.0) > 1e-10:
        raise DomainError("tabulated profile must be normalized to min u0 = -1")
    u0_interp = PchipInterpolator(x, u)
    u0_prime_interp = u0_interp.derivative()

    # decreasing branch: x <= x_M, u runs from ~0 down to -1
    xb = x[: i_min + 1]
    ub = u[: i_min + 1]
    if np.any(np.diff(ub) >= 0.0):
        raise DomainError("profile is not strictly decreasing left of its minimum")
    f_l_interp = PchipInterpolator(ub[::-1], xb[::-1])
    f_l_p = f_l_interp.derivative()
    f_l_pp = f_l_p.derivative()
    f_l_ppp = f_l_pp.derivative()

    data = InitialData(
        u0=u0_interp,
        u0_prime=u0_prime_interp,
        f_L=f_l_interp,
        f_L_prime=f_l_p,
        f_L_second=f_l_pp,
        f_L_third=f_l_ppp,
        x_M=float(x[i_min]),
        domain_halfwidth=float(min(-x[0], x[-1])),
    )
    return data


def load_initial_data_csv(path) -> InitialData:
    """Read a two-column CSV of (x, u0) samples."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    if arr.shape[1] < 2:
        raise DomainError("CSV must have two columns: x, u0")
    return make_tabulated_data(arr[:, 0], arr[:, 1])


def _bisect(f, a: float, b: float) -> float:
    """Sign change of ``f`` in [a, b], halved until the midpoint is an end."""
    fa, fb = f(a), f(b)
    while a < (m := 0.5 * (a + b)) < b:
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def hopf_solve(x: float, t: float, data: InitialData) -> float:
    """Solve x = 6 t u0(xi) + xi for the characteristic foot point.

    Since -1 <= u0 < 0, the foot point lies in [x, x + 6t], which gives a
    guaranteed bracket.  A 4096-point sign-change scan, each change then
    bisected to float resolution, detects loss of uniqueness past the
    catastrophe time; multiple branches raise AmbiguityError with all of them.
    """
    x = float(x)
    t = float(t)
    if t < 0.0:
        raise DomainError("hopf_solve requires t >= 0")
    if t == 0.0:
        return float(data.u0(x))

    def g(xi):
        return x - 6.0 * t * float(data.u0(xi)) - xi

    grid = np.linspace(x - 1e-12, x + 6.0 * t + 1e-12, 4096)
    vals = x - 6.0 * t * np.asarray(data.u0(grid), dtype=float) - grid
    sign = np.sign(vals)
    crossings = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    roots = [float(grid[i]) for i in np.nonzero(vals == 0.0)[0]]
    roots += [_bisect(g, float(grid[i]), float(grid[i + 1])) for i in crossings]
    # dedupe on 1e-12 keys, but keep the unrounded root: it needs no polish
    roots = sorted({round(r, 12): r for r in roots}.values())
    if len(roots) == 0:
        raise ConvergenceError("no characteristic root found in the bracket")
    if len(roots) > 1:
        raise AmbiguityError(
            f"{len(roots)} characteristic branches at (x={x}, t={t}); "
            "point lies in the multivalued region",
            branches=[float(data.u0(r)) for r in roots],
        )
    xi = roots[0]
    if abs(g(xi)) > 1e-10:
        raise ConvergenceError(f"characteristic residual {g(xi):.2e} above tolerance")
    return float(data.u0(xi))


def breaking_point(data: InitialData) -> CatastrophePoint:
    """First gradient catastrophe: t_c = 1 / max_xi(-6 u0'(xi)).

    A grid scan brackets the maximizer.  On the decreasing branch
    d(-6 u0')/dxi = 6 f_L''(u0(xi)) / f_L'^3, so the maximizer is the sign
    change of f_L''(u0(xi)) in that bracket, bisected to float resolution.
    The catastrophe is declared non-generic if f_L'' keeps its sign there,
    or if the second derivative of -6 u0' at the maximizer is below 1e-6
    in absolute value (flat maximum).
    """
    h = data.domain_halfwidth

    def slope(xi):
        return -6.0 * np.asarray(data.u0_prime(xi), dtype=float)

    def f_l_second(xi):
        return float(data.f_L_second(float(data.u0(xi))))

    grid = np.linspace(-h, h, 8193)
    vals = slope(grid)
    i_star = int(np.argmax(vals))
    if i_star == 0 or i_star == grid.size - 1:
        raise GenericityError("maximum of -6 u0' sits at the domain boundary")
    lo, hi = float(grid[i_star - 1]), float(grid[i_star + 1])
    if not f_l_second(lo) * f_l_second(hi) < 0.0:
        raise GenericityError("f_L'' keeps its sign across the maximum of -6 u0'; data non-generic")
    xi_c = _bisect(f_l_second, lo, hi)
    m_max = float(slope(xi_c))
    if m_max <= 0.0:
        raise GenericityError("u0' has no negative minimum; no catastrophe")
    step = 1e-4 * max(1.0, abs(xi_c))
    curv = (float(slope(xi_c + step)) - 2.0 * m_max + float(slope(xi_c - step))) / step**2
    if abs(curv) < 1e-6:
        raise GenericityError("degenerate (flat) maximum of -6 u0'; data non-generic")
    t_c = 1.0 / m_max
    u_c = float(data.u0(xi_c))
    x_c = 6.0 * t_c * u_c + xi_c
    k = -float(data.f_L_third(u_c))
    return CatastrophePoint(x_c=x_c, t_c=t_c, u_c=u_c, xi_c=xi_c, k=k)


_INV_2SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))


# The memo: a retried continuation step re-asks for quadratures it already
# has; 32 entries save 99 % of what an unbounded memo would (CHANGES.md).
# Keyed by the exact inputs; errors are never stored.
@lru_cache(maxsize=32)
def _theta_quadrature(lam: float, u: float, deriv_fn, power: int) -> float:
    """(1/(2 sqrt 2)) int ((1+m)/2)^power deriv_fn(z) / sqrt(1-m) dm.

    ``core.doubling_quadrature`` climbs the (-1/2, 0) ladder.  Each rule
    contracts the integrand with the weights (((1+m)/2)^power folded in) by
    ``einsum``, off BLAS, whose threads cost CPU time here and save no wall
    time.
    """
    if not (-1.0 < u < 0.0 and -1.0 < lam < 0.0):
        raise DomainError(f"theta arguments must lie in (-1, 0); got lam = {lam}, u = {u}")

    def integrate(rule):
        b, a = 0.5 * (1.0 + rule.nodes), 0.5 * (1.0 - rule.nodes) * u
        w = rule.weights * b**power if power else rule.weights
        f = np.asarray(deriv_fn(lam * b + a), dtype=float)
        return _INV_2SQRT2 * np.einsum("j,j->", f, w)

    return float(doubling_quadrature(-0.5, 0.0, integrate, "theta quadrature"))


def theta_of(lam: float, u: float, data: InitialData) -> float:
    """The kernel theta(lam; u); constant f_L' makes it that constant."""
    return _theta_quadrature(float(lam), float(u), data.f_L_prime, 0)


def theta_v(lam: float, u: float, data: InitialData) -> float:
    """First derivative of theta in its first argument.

    Differentiated under the integral using the closed-form f_L'' carried
    by the initial data (better conditioned than finite differences of
    theta itself, which are kept as a cross-check in the tests).
    """
    return _theta_quadrature(float(lam), float(u), data.f_L_second, 1)


def theta_vv(lam: float, u: float, data: InitialData) -> float:
    """Second derivative of theta in its first argument (uses f_L''')."""
    return _theta_quadrature(float(lam), float(u), data.f_L_third, 2)
