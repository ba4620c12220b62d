"""Equilibrium measures for the two-parameter quartic field family.

The external field is

    V_{x,t}(s) = e^x [ (1-t) s^2/2 + t (s^4/20 - 4 s^3/15 + s^2/5 + 8 s/5) ],

its equilibrium measure minimizes the logarithmic energy among unit
probability measures.  This module carries the three explicit one-cut
families (Gaussian line t=0, the x=0 segment 0 < t <= 1, and the
symmetric line t=9), a generic one-cut endpoint solver, variational
condition verification with the exact Chebyshev log potential,
singularity classification, and the (x,t) phase-diagram sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
import numpy as np

from .core import gauss_jacobi_rule, newton_solve
from .errors import ConvergenceError, DomainError, NotOneCutError

__all__ = [
    "X_STAR",
    "QuarticField",
    "EquilibriumMeasure",
    "SingularityReport",
    "field_eval",
    "field_coeffs",
    "measure_gaussian",
    "measure_line_t",
    "measure_t9",
    "t9_halfwidth",
    "t9_offset",
    "log_potential",
    "variational_residual",
    "solve_onecut_endpoints",
    "make_onecut_measure",
    "classify",
    "rmt_phase_diagram",
]

# boundary of the one-cut regime on the symmetric line t = 9
X_STAR = -math.log(245.0 / 9.0)


@dataclass(frozen=True)
class QuarticField:
    """Parameters (x, t) of the quartic field family."""

    x: float
    t: float


def field_coeffs(f: QuarticField) -> np.ndarray:
    """Ascending polynomial coefficients of V_{x,t}."""
    ex = math.exp(f.x)
    t = f.t
    return np.array(
        [0.0, 8.0 * t / 5.0, (1.0 - t) / 2.0 + t / 5.0, -4.0 * t / 15.0, t / 20.0]
    ) * ex


def field_eval(f: QuarticField, s) -> tuple:
    """(V, V', V'') of the quartic field at s, by exact polynomial arithmetic."""
    c = field_coeffs(f)
    c1 = np.polynomial.polynomial.polyder(c)
    c2 = np.polynomial.polynomial.polyder(c, 2)
    pv = np.polynomial.polynomial.polyval
    return pv(s, c), pv(s, c1), pv(s, c2)


@dataclass(frozen=True)
class EquilibriumMeasure:
    """One-cut equilibrium measure.

    density(s) = (1/2 pi) sqrt((s-a)(b-s)) * h(s) on the support (a, b),
    with h stored as ascending polynomial coefficients; ``ell`` is the
    Lagrange constant of the variational equality.
    """

    support: tuple
    h_coeffs: np.ndarray
    ell: float

    def h(self, s):
        return np.polynomial.polynomial.polyval(s, self.h_coeffs)

    def density(self, s):
        a, b = self.support
        s = np.asarray(s, dtype=float)
        inside = (s >= a) & (s <= b)
        rad = np.where(inside, (s - a) * (b - s), 0.0)
        out = np.where(inside, np.sqrt(rad) * self.h(s) / (2.0 * math.pi), 0.0)
        return out if out.ndim else float(out)

    def mass(self) -> float:
        a, b = self.support
        w = 0.5 * (b - a)
        rule = gauss_jacobi_rule(24, 0.5, 0.5)
        s = 0.5 * (a + b) + w * rule.nodes
        return w * w * float(np.dot(rule.weights, self.h(s))) / (2.0 * math.pi)


@dataclass(frozen=True)
class SingularityReport:
    """Outcome of the singularity classification at one (x, t)."""

    kind: str  # none | exterior_I | interior_II | edge_III
    location: float
    margin: float
    ambiguous: bool = False
    margins: dict = dc_field(default_factory=dict)


def _measure(f: QuarticField, support: tuple, h_coeffs) -> EquilibriumMeasure:
    """The measure of ``support`` and ``h_coeffs``, its ell read off at the midpoint."""
    mid = 0.5 * (support[0] + support[1])
    mu = EquilibriumMeasure(support=support, h_coeffs=h_coeffs, ell=0.0)
    ell = 2.0 * log_potential(mu, mid) - float(field_eval(f, mid)[0])
    return EquilibriumMeasure(support=support, h_coeffs=h_coeffs, ell=ell)


def measure_gaussian(x: float) -> EquilibriumMeasure:
    """Semicircle for the rescaled Gaussian line t = 0.

    Support [-2 e^{-x/2}, 2 e^{-x/2}], density (e^x / 2 pi) sqrt(4 e^{-x} - s^2).
    """
    half = 2.0 * math.exp(-x / 2.0)
    return _measure(QuarticField(x=x, t=0.0), (-half, half), np.array([math.exp(x)]))


def measure_line_t(t: float) -> EquilibriumMeasure:
    """Explicit measure on the segment x = 0, 0 < t <= 1.

    density = sqrt(4 - s^2) ((s-2)^2 + g^2) / (2 pi (5 + g^2)) on [-2, 2]
    with g = sqrt(5/t - 5).  The radicand is taken as 4 - s^2, the sign
    that is real and positive on the stated support and gives unit mass
    exactly; at t = 1 the factor ((s-2)^2) makes the density vanish to
    order 5/2 at s = 2.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError("measure_line_t needs 0 < t <= 1")
    g2 = 5.0 / t - 5.0
    denom = 5.0 + g2
    h_coeffs = np.array([(4.0 + g2) / denom, -4.0 / denom, 1.0 / denom])
    return _measure(QuarticField(x=0.0, t=t), (-2.0, 2.0), h_coeffs)


def t9_halfwidth(x: float) -> float:
    """Half-width b of the support on the symmetric line t = 9."""
    inner = 27.0 * math.exp(x) + 245.0 * math.exp(2.0 * x)
    return math.sqrt(
        140.0 / 27.0 + (4.0 / 27.0) * math.sqrt(5.0) * math.exp(-x) * math.sqrt(inner)
    )


def t9_offset(x: float) -> float:
    """The constant C in the t = 9 density factor ((s - 4/3)^2 + C)."""
    b = t9_halfwidth(x)
    return math.exp(-x) / (36.0 * b * b) * (80.0 - 9.0 * b**4 * math.exp(x))


def measure_t9(x: float) -> EquilibriumMeasure:
    """Explicit one-cut measure on the symmetric line t = 9 for x <= x*.

    Support [4/3 - b, 4/3 + b]; density
    8 / (pi b^2 (b^2 + 4C)) sqrt(...) ((s - 4/3)^2 + C).  For x > x* the
    field is no longer one-cut and this formula is invalid.
    """
    if x > X_STAR + 1e-12:
        raise DomainError(
            f"measure_t9 is valid only for x <= x* = {X_STAR:.6f} (one-cut regime)"
        )
    b = t9_halfwidth(x)
    c_off = t9_offset(x)
    s_star = 4.0 / 3.0
    pref = 16.0 / (b * b * (b * b + 4.0 * c_off))
    # h(s) = pref ((s - s*)^2 + C) in ascending coefficients
    h_coeffs = pref * np.array([s_star**2 + c_off, -2.0 * s_star, 1.0])
    return _measure(QuarticField(x=x, t=9.0), (s_star - b, s_star + b), h_coeffs)


def log_potential(mu: EquilibriumMeasure, s):
    """int log|s - y| dmu(y), exactly, by the Chebyshev log-kernel identity.

    ``s`` is a point (float result) or an array of points.

    With y = c + w u on the support, dmu = (w^2 / 2 pi) Q(u) du / sqrt(1-u^2)
    where Q(u) = (1 - u^2) h(c + w u) = sum_k q_k T_k(u), and
    int log|sigma - u| T_k(u) du / sqrt(1-u^2) = -pi Re(z^-k) / k (k >= 1),
    pi log(|z| / 2) (k = 0), with sigma = (z + 1/z) / 2 and |z| >= 1
    (Mason & Handscomb, Chebyshev Polynomials, 2003).  On the support
    Re(z^-k) = T_k(sigma); outside it z is the real Joukowski root.
    """
    a, b = mu.support
    c, w = 0.5 * (a + b), 0.5 * (b - a)
    poly = np.polynomial.Polynomial
    q = np.polynomial.chebyshev.poly2cheb(
        (poly(mu.h_coeffs)(poly([c, w])) * poly([1.0, 0.0, -1.0])).coef
    )
    coef = np.concatenate([[0.0], q[1:] / np.arange(1, q.size)])
    sigma = (np.asarray(s, dtype=float) - c) / w
    inside = np.abs(sigma) <= 1.0
    # outside: the real Joukowski root; inside it is replaced by 2 (unused)
    z = np.where(inside, 2.0, sigma + np.copysign(np.sqrt(np.abs(sigma * sigma - 1.0)), sigma))
    log_abs_z = np.where(inside, 0.0, np.log(np.abs(z)))
    tail = np.where(
        inside,
        np.polynomial.chebyshev.chebval(sigma, coef),
        np.polynomial.polynomial.polyval(1.0 / z, coef),
    )
    out = 0.5 * w * w * (q[0] * (math.log(0.5 * w) + log_abs_z) - tail)
    return float(out) if out.ndim == 0 else out


def _default_probes(mu: EquilibriumMeasure, f: QuarticField):
    a, b = mu.support
    w = b - a
    pad = 0.04 * w
    interior = 0.5 * (a + b) + 0.5 * (w - 2 * pad) * np.cos(
        np.pi * (2 * np.arange(1, 22) - 1) / 42.0
    )
    # the inequality can only saturate near wells of the field, so the
    # exterior scan must reach past every real critical point of V (a
    # single-well candidate measure looks locally valid otherwise)
    lo, hi = a - 2.0 * w, b + 2.0 * w
    vp = np.polynomial.polynomial.polyder(field_coeffs(f))
    roots = np.roots(vp[::-1]) if len(vp) > 1 else np.array([])
    real = roots[np.abs(roots.imag) < 1e-9].real
    if real.size:
        lo = min(lo, float(np.min(real)) - 0.5 * w)
        hi = max(hi, float(np.max(real)) + 0.5 * w)
    grid = np.linspace(lo, hi, 33)
    exterior = grid[(grid < a - 0.05 * w) | (grid > b + 0.05 * w)]
    return interior, exterior


def variational_residual(
    mu: EquilibriumMeasure, f: QuarticField, probe_grid=None
) -> tuple[float, float]:
    """Check the equality/inequality pair defining the minimizer.

    Returns (eq_residual, ineq_margin): the max deviation of
    2 int log|s-y| dmu - V(s) from a constant on support probes, and the
    minimum of (ell - lhs) over exterior probes (negative = violation).
    """
    eq_residual, ineq_margin, _ = _variational_check(mu, f, probe_grid)
    return eq_residual, ineq_margin


def _variational_check(mu: EquilibriumMeasure, f: QuarticField, probe_grid=None):
    """``variational_residual`` plus the exterior probe of smallest margin."""
    if probe_grid is None:
        interior, exterior = _default_probes(mu, f)
    else:
        probe_grid = np.asarray(probe_grid, dtype=float)
        a, b = mu.support
        interior = probe_grid[(probe_grid > a) & (probe_grid < b)]
        exterior = probe_grid[(probe_grid <= a) | (probe_grid >= b)]

    def lhs(points):
        return 2.0 * log_potential(mu, points) - field_eval(f, points)[0]

    lhs_int = lhs(interior)
    ell_hat = float(np.mean(lhs_int))
    eq_residual = float(np.max(np.abs(lhs_int - ell_hat))) if lhs_int.size else math.nan
    if not exterior.size:
        return eq_residual, math.inf, math.nan
    margins = ell_hat - lhs(exterior)
    i_min = int(np.argmin(margins))
    return eq_residual, float(margins[i_min]), float(exterior[i_min])


_CHEB_N = 16


def _cheb_nodes():
    i = np.arange(1, _CHEB_N + 1)
    return np.cos((2.0 * i - 1.0) * math.pi / (2.0 * _CHEB_N))


def _endpoint_conditions(f: QuarticField, c, w) -> np.ndarray:
    """Moment conditions pinning a one-cut support [c-w, c+w].

    mean over the arcsine measure of V' must vanish, and of s V' must
    equal 2; both means are exact Chebyshev-Gauss sums for polynomial V.
    ``c`` and ``w`` may be arrays of one shape; the two conditions stack
    on a new leading axis.
    """
    nodes = np.asarray(c)[..., None] + np.asarray(w)[..., None] * _cheb_nodes()
    _, vp, _ = field_eval(f, nodes)
    return np.array([np.mean(vp, axis=-1), np.mean(nodes * vp, axis=-1) - 2.0])


def _scan_starts(f: QuarticField) -> list:
    """The 8 best (center, log half-width) Newton starts of a 65 x 65 grid.

    The conditions can have several basins (notably for near-symmetric
    two-well fields), so the grid is ranked by |r_0| + |r_1| and the best
    few are tried; the stable sort keeps grid order among equal scores.
    """
    c, lw = np.meshgrid(
        np.linspace(-4.0, 4.0, 65), np.linspace(math.log(0.05), math.log(8.0), 65), indexing="ij"
    )
    r = _endpoint_conditions(f, c, np.exp(lw))
    best = np.argsort((np.abs(r[0]) + np.abs(r[1])).ravel(), kind="stable")[:8]
    return list(zip(c.ravel()[best].tolist(), lw.ravel()[best].tolist()))


def _build_h(f: QuarticField, a: float, b: float) -> np.ndarray:
    """h(s) = (1/pi) int (V'(s)-V'(y))/((s-y) sqrt((y-a)(b-y))) dy, exactly.

    For polynomial V' the difference quotient expands in powers of s with
    moment coefficients; arcsine moments come from exact Chebyshev sums.
    """
    c = 0.5 * (a + b)
    w = 0.5 * (b - a)
    nodes = c + w * _cheb_nodes()
    vp_coeffs = np.polynomial.polynomial.polyder(field_coeffs(f))
    deg = len(vp_coeffs) - 1
    moments = [float(np.mean(nodes**p)) for p in range(deg + 1)]
    h = np.zeros(deg)
    for d in range(1, deg + 1):
        for i in range(d):
            h[i] += vp_coeffs[d] * moments[d - 1 - i]
    return h


def make_onecut_measure(f: QuarticField, seed: tuple | None = None) -> EquilibriumMeasure:
    """The one-cut equilibrium measure of the field ``f``.

    Newton on (center, log half-width) from ``seed`` (support endpoints)
    if given, then from the best starts of a coarse grid scan; each
    converged start's measure is built once and checked for unit mass
    and nonnegativity.  The first measure that also meets the exterior
    variational inequality wins (a two-well field has a valid-looking
    one-cut candidate in each well); when none does, the first one that
    passes the density checks is returned.

    Raises
    ------
    NotOneCutError
        If no one-cut solution exists (negative density or mass failure).
    """
    def fun(p):
        return _endpoint_conditions(f, p[0], math.exp(p[1]))

    def validate(c, w):
        a, b = c - w, c + w
        mu = _measure(f, (a, b), _build_h(f, a, b))
        mass = mu.mass()
        if abs(mass - 1.0) > 1e-8:
            raise NotOneCutError(f"rebuilt density has mass {mass:.6f}, not 1")
        h_vals = mu.h(c + w * np.cos(np.linspace(0.0, math.pi, 801)))
        if np.min(h_vals) < -1e-10 * max(1.0, float(np.max(np.abs(h_vals)))):
            raise NotOneCutError("rebuilt density is negative inside the support")
        return mu

    def starts():
        if seed is not None:
            a0, b0 = seed
            yield 0.5 * (a0 + b0), math.log(0.5 * (b0 - a0))
        yield from _scan_starts(f)

    box = (np.array([-50.0, math.log(1e-3)]), np.array([50.0, math.log(50.0)]))
    last_error: Exception | None = None
    first_valid = None
    for c0, lw0 in starts():
        try:
            res = newton_solve(fun, np.array([c0, lw0]), max_iter=80, bracket=box)
            mu = validate(float(res.x[0]), math.exp(float(res.x[1])))
        except (ConvergenceError, NotOneCutError) as exc:
            last_error = exc
            continue
        if _variational_check(mu, f)[1] >= 0.0:
            return mu
        first_valid = first_valid or mu
    if first_valid is not None:
        return first_valid
    raise NotOneCutError(
        "no valid one-cut endpoint solution found"
    ) from last_error


def solve_onecut_endpoints(f: QuarticField) -> tuple[float, float]:
    """Support endpoints (a, b) of the one-cut equilibrium measure."""
    return make_onecut_measure(f).support


def classify(mu: EquilibriumMeasure, f: QuarticField, check_exterior: bool = True) -> SingularityReport:
    """Singularity type of the measure/field pair.

    exterior_I: the variational inequality saturates at an exterior point;
    interior_II: h vanishes strictly inside the support;
    edge_III: h vanishes at an endpoint.  Margins are normalized by the
    peak of |h| on the support, and a margin under 1e-6 triggers its
    type; ties report the smaller margin and set the ambiguity flag.
    """
    a, b = mu.support
    dense = np.linspace(a, b, 2001)
    h_vals = np.asarray(mu.h(dense), dtype=float)
    h_scale = float(np.max(np.abs(h_vals)))
    h_norm = h_vals / h_scale
    edge_margin = float(min(h_norm[0], h_norm[-1]))
    edge_loc = a if h_norm[0] <= h_norm[-1] else b
    inner = slice(20, -20)
    i_min = int(np.argmin(h_norm[inner])) + 20
    interior_margin = float(h_norm[i_min])
    interior_loc = float(dense[i_min])

    margins = {
        "interior_II": interior_margin,
        "edge_III": edge_margin,
    }
    locations = {"interior_II": interior_loc, "edge_III": edge_loc}
    if check_exterior:
        _, margins["exterior_I"], locations["exterior_I"] = _variational_check(mu, f)

    triggered = {k: m for k, m in margins.items() if m < 1e-6}
    if not triggered:
        worst = min(margins, key=margins.get)
        return SingularityReport(
            kind="none", location=locations[worst], margin=margins[worst], margins=margins
        )
    kind = min(triggered, key=triggered.get)
    return SingularityReport(
        kind=kind,
        location=locations[kind],
        margin=margins[kind],
        ambiguous=len(triggered) > 1,
        margins=margins,
    )


def rmt_phase_diagram(x_grid, t_grid) -> list[dict]:
    """One-cut classification sweep over an (x, t) grid.

    Solver failures are recorded per cell (class ``failed``) and never
    abort the sweep; the margin column carries the normalized interior
    minimum of h, whose sign change locates the breaking curve.
    """
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        seed = None
        for x in np.asarray(x_grid, dtype=float):
            f = QuarticField(x=float(x), t=float(t))
            row = {"x": float(x), "t": float(t), "class": "failed", "margin": math.nan, "error": ""}
            try:
                mu = make_onecut_measure(f, seed=seed)
                seed = mu.support
                rep = classify(mu, f)
                row["class"] = rep.kind
                row["margin"] = min(rep.margins.values())
            except (NotOneCutError, ConvergenceError, DomainError) as exc:
                row["error"] = str(exc)
                seed = None
            rows.append(row)
    return rows
