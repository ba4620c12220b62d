"""Closed-form asymptotic approximations of the dispersive solution.

Edge systems (both edges of the oscillatory region), the genus-1 elliptic
ansatz, and the three critical expansions: the fourth-order profile at the
gradient catastrophe, the Airy-envelope modulation at the leading edge,
and the soliton train at the trailing edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import painleve
from .core import (
    _fd_jacobian,
    complete_elliptic,
    doubling_quadrature,
    newton_solve,
    sech2_train,
    theta3,
)
from .errors import AccuracyError, ConvergenceError, DomainError, GenericityError
from .hopf import (
    CatastrophePoint,
    InitialData,
    breaking_point,
    theta_of,
    theta_v,
    theta_vv,
)

__all__ = [
    "EdgeSolution",
    "EllipticAnsatz",
    "solve_leading_edge",
    "solve_trailing_edge",
    "elliptic_approx",
    "catastrophe_approx",
    "leading_edge_phase",
    "leading_edge_approx",
    "trailing_edge_approx",
    "trailing_edge_x",
    "trailing_train_sum",
    "trailing_offset",
    "trailing_integral",
    "kdv_phase_diagram",
]


@dataclass(frozen=True)
class EdgeSolution:
    """A solved boundary point of the oscillatory region at time t.

    ``kind`` is ``"leading"`` (u > v) or ``"trailing"`` (u < v); ``x_edge``
    is the edge abscissa and (u, v) the degenerate branch parameters.
    """

    kind: str
    t: float
    x_edge: float
    u: float
    v: float


@dataclass(frozen=True)
class EllipticAnsatz:
    """Branch points beta1 > beta2 > beta3 (all negative) plus the phase.

    Derived quantities follow the parameter block of the genus-1 formula:
    s^2 = (b2-b3)/(b1-b3), alpha = -b1 + (b1-b3) E(s)/K(s),
    tau = i K'(s)/K(s).
    """

    beta1: float
    beta2: float
    beta3: float

    def __post_init__(self):
        if not self.beta1 > self.beta2 > self.beta3:
            raise DomainError("need beta1 > beta2 > beta3")

    @property
    def s(self) -> float:
        return math.sqrt((self.beta2 - self.beta3) / (self.beta1 - self.beta3))

    @cached_property
    def modulus_data(self):
        s = self.s
        if s * s > 1.0 - 1e-12:
            raise DomainError("s -> 1: soliton degeneration (beta2 -> beta1)")
        k_val, e_val = complete_elliptic(s)
        kp_val, _ = complete_elliptic(math.sqrt((1.0 - s) * (1.0 + s)))
        return s, k_val, e_val, kp_val

    @property
    def alpha(self) -> float:
        _, k_val, e_val, _ = self.modulus_data
        return -self.beta1 + (self.beta1 - self.beta3) * e_val / k_val

    @property
    def tau(self) -> complex:
        _, k_val, _, kp_val = self.modulus_data
        return 1j * kp_val / k_val


# ----------------------------------------------------------------------
# edge systems
# ----------------------------------------------------------------------

def _sqrt_weighted_integral(g, lo: float, hi: float, what: str) -> float:
    """int_lo^hi g(lam) sqrt(lam - lo) dlam by Gauss-Jacobi.

    The sqrt(lam - lo) endpoint factor is absorbed into the (0, 1/2) rules
    of ``core.doubling_quadrature``, mapped onto [lo, hi]; its
    AccuracyError names ``what`` and the interval.
    """
    scale = ((hi - lo) * 0.5) ** 1.5

    def integrate(rule):
        return scale * float(np.dot(rule.weights, g(lo + (hi - lo) * 0.5 * (1.0 + rule.nodes))))

    return doubling_quadrature(0.0, 0.5, integrate, f"{what} on [{lo:.6g}, {hi:.6g}]")


def _leading_system(t: float, data: InitialData):
    # unknowns (u, log gap), v = u - e^g: keeps u > v strictly and Newton
    # away from the degenerate diagonal v = u
    def fun(w):
        u, g = w
        v = u - math.exp(g)
        return np.array([6.0 * t + theta_of(v, u, data), theta_v(v, u, data)])

    return fun, None


def trailing_integral(u: float, v: float, t: float, data: InitialData) -> float:
    """int_u^v (6t + theta(lam; u)) sqrt(lam - u) dlam by Gauss-Jacobi.

    Swapping the order of the lam and z integrals gives the same value as
    one integral with a closed-form integrand,

        I(u, v) = int_u^v (6t + f_L'(z)) sqrt(v - z) dz,

    which ``_sqrt_weighted_integral`` takes as a function of lam = u + v - z;
    ``core.doubling_quadrature`` guards its node count.  Its partials are
    exact and cost no quadrature beyond theta(v; u):

        dI/dv = sqrt(v - u) (6t + theta(v; u)),
        dI/du = -sqrt(v - u) (6t + f_L'(u)).

    The trailing Newton takes its Jacobian from these.
    """
    if v <= u:
        raise DomainError("trailing integral needs v > u")
    return _sqrt_weighted_integral(
        lambda lam: 6.0 * t + np.asarray(data.f_L_prime(u + v - lam), dtype=float),
        u,
        v,
        "trailing integral",
    )


def _trailing_system(t: float, data: InitialData):
    # same log-gap chart with v = u + e^g; the weighted integral is
    # normalized by s = ((v-u)/2)^{3/2}, which removes its trivial zero on
    # the diagonal and keeps the equation O(1)-scaled.  The Jacobian
    # differences only the first row (four scalar theta values; theta_v
    # hits its node cap before theta does near u = -1) and takes the
    # second from the exact partials of trailing_integral, reusing the
    # residual of the same iterate
    def first(w):
        return 6.0 * t + theta_of(w[0] + math.exp(w[1]), w[0], data)

    def fun(w):
        u, g = w
        v = u + math.exp(g)
        scale = (0.5 * (v - u)) ** 1.5
        return np.array([first(w), trailing_integral(u, v, t, data) / scale])

    def jac(w, fx):
        f1, f2 = fx
        u, g = w
        gap = math.exp(g)
        root = math.sqrt(gap)
        scale = (0.5 * gap) ** 1.5
        i_v = root * f1
        i_u = -root * (6.0 * t + float(data.f_L_prime(u)))
        row1 = _fd_jacobian(first, w, np.array([f1]))[0]
        return np.array([row1, [(i_u + i_v) / scale, gap * i_v / scale - 1.5 * f2]])

    return fun, jac


def _edge_seed(kind: str, t: float, cp: CatastrophePoint):
    """Local expansion of the edge system around the catastrophe point.

    Expanding theta to second order around (u_c, u_c) gives
    u - u_c = +sqrt(12 D / k) (leading) or -sqrt(20 D / 3k) (trailing)
    with D = 6 (t - t_c), and v - u_c = -(u - u_c)/4 resp. -3(u - u_c)/4.
    Returned in the (u, log gap) chart used by the Newton systems.
    """
    delta = 6.0 * (t - cp.t_c)
    if kind == "leading":
        du = math.sqrt(12.0 * delta / cp.k)
        return np.array([cp.u_c + du, math.log(1.25 * du)])
    du = -math.sqrt(20.0 * delta / (3.0 * cp.k))
    return np.array([cp.u_c + du, math.log(-1.75 * du)])


# a path point only seeds the next step: ~20x below 6 min_step, its shortest step's residual jump
_PATH_TOL = 1e-6


def _solve_edge(
    kind: str, t: float, data: InitialData, cp: CatastrophePoint, warm: tuple | None = None
) -> EdgeSolution:
    """The edge at t by predictor-corrector continuation in t.

    The path starts just past the catastrophe point, where the asymptotic
    seed is exact to O(t - t_c), or at a warm start further along.  Its
    points are corrected to ``_PATH_TOL``, only the edge at t to 1e-11.
    """
    if t <= cp.t_c:
        raise DomainError(f"edge systems exist only for t > t_c = {cp.t_c:.10f}")
    system = _leading_system if kind == "leading" else _trailing_system
    t_start = min(t, cp.t_c + 1e-4)
    seeded = warm is None or not t_start < warm[0] < t
    if seeded:
        w = _edge_seed(kind, t_start, cp)
    else:
        t_start, w = warm[0], np.asarray(warm[1], dtype=float)
    n_steps = max(1, int(math.ceil((t - t_start) / 0.01)))
    t_path = list(np.linspace(t_start, t, n_steps + 1))
    # a step halved twelve times ends the window, also when each halving
    # succeeds once and the next full step fails again (the path would
    # otherwise creep towards the fold without end)
    min_step = 1.5 * (t_path[1] - t_path[0]) / 2**12
    i = 0
    while i < len(t_path):
        t_i = t_path[i]
        try:
            fun, jac = system(t_i, data)
            guess = w
            if seeded and i == 1:  # the seed's increment follows the sqrt(t - t_c) opening
                guess = w + _edge_seed(kind, t_i, cp) - _edge_seed(kind, t_path[0], cp)
            res = newton_solve(fun, guess, tol=_PATH_TOL if t_i < t else 1e-11, jac=jac)
            # the edges open from v = u as t grows: a halved gap slid onto v = u
            if res.x[1] < w[1] - math.log(2.0):
                raise ConvergenceError(f"{kind}-edge gap collapsed onto v = u at t = {t_i:.6f}")
            w = np.asarray(res.x)
            i += 1
        except (ConvergenceError, DomainError, AccuracyError) as exc:
            if i == 0:  # the start point itself fails: nothing to bisect
                raise
            if t_i - t_path[i - 1] < min_step:
                raise ConvergenceError(
                    f"{kind}-edge continuation failed near t = {t_i:.6f} "
                    f"(end of the validity window: {exc})",
                    last_iterate=w,
                ) from exc
            t_path.insert(i, 0.5 * (t_path[i - 1] + t_i))
    u = float(w[0])
    gap = math.exp(float(w[1]))
    v = u - gap if kind == "leading" else u + gap
    x_edge = 6.0 * t * u + float(data.f_L(u))
    return EdgeSolution(kind=kind, t=t, x_edge=x_edge, u=u, v=v)


def _warm_from(edge: EdgeSolution) -> tuple:
    return edge.t, np.array([edge.u, math.log(abs(edge.v - edge.u))])


def solve_leading_edge(t: float, data: InitialData) -> EdgeSolution:
    """Left boundary of the oscillatory region for t past the catastrophe.

    Solves 6t + theta(v;u) = 0, d/dv theta(v;u) = 0 with u > v by Newton
    continuation seeded at the catastrophe point, then places the edge at
    x = 6 t u + f_L(u).
    """
    return _solve_edge("leading", t, data, breaking_point(data))


def solve_trailing_edge(t: float, data: InitialData) -> EdgeSolution:
    """Right boundary: same first equation, weighted-integral second one."""
    return _solve_edge("trailing", t, data, breaking_point(data))


def kdv_phase_diagram(data: InitialData, t_grid) -> list[dict]:
    """Edge curves x^-(t), x^+(t) along a time grid past the catastrophe.

    Continuation is chained along the grid: each row's edges, solved to
    1e-11 (the path points between rows to 1e-6), warm-start the next row
    once they lie past the seed point t_c + 1e-4.  Returns one row per
    grid time with keys t, x_minus, x_plus and error; a failure marks the
    row (leaving that edge as nan) instead of aborting the sweep.
    """
    cp = breaking_point(data)
    rows = []
    warm = {"leading": None, "trailing": None}
    for t in np.asarray(t_grid, dtype=float):
        row = {"t": float(t), "x_minus": math.nan, "x_plus": math.nan, "error": ""}
        for kind, column in (("leading", "x_minus"), ("trailing", "x_plus")):
            try:
                edge = _solve_edge(kind, float(t), data, cp, warm=warm[kind])
                warm[kind] = _warm_from(edge)
                row[column] = edge.x_edge
            except (ConvergenceError, DomainError, AccuracyError) as exc:
                row["error"] += f"{kind}: {exc}; "
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# elliptic (genus-1) approximation
# ----------------------------------------------------------------------

def elliptic_approx(x: float, t: float, eps: float, ansatz: EllipticAnsatz) -> float:
    """Genus-1 theta-function approximation of the oscillations.

    Evaluates b1+b2+b3+2alpha plus the second logarithmic derivative of
    theta3, the latter taken analytically term-by-term through the series
    (not by finite differences); the 2 eps^2 prefactor cancels against
    the squared phase gradient.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    b1, b2, b3 = ansatz.beta1, ansatz.beta2, ansatz.beta3
    k_val = ansatz.modulus_data[1]
    alpha, tau = ansatz.alpha, ansatz.tau
    root = math.sqrt(b1 - b3)
    z = (root / (2.0 * eps * k_val)) * (x - 2.0 * t * (b1 + b2 + b3))
    th0 = theta3(z, tau)
    th1 = theta3(z, tau, dz=1)
    th2 = theta3(z, tau, dz=2)
    log_d2 = (th2 * th0 - th1 * th1) / (th0 * th0)
    weak_limit = b1 + b2 + b3 + 2.0 * alpha
    return weak_limit + 2.0 * (root / (2.0 * k_val)) ** 2 * log_d2


# ----------------------------------------------------------------------
# critical expansions
# ----------------------------------------------------------------------

def catastrophe_approx(x: float, t: float, eps: float, cp: CatastrophePoint) -> float:
    """Double-scaling expansion at the gradient catastrophe point.

    u ~ u_c + (2 eps^2 / k^2)^{1/7} U(X, T) with the rescaled coordinates
    X = (x - x_c - 6 u_c (t - t_c)) / (8 k eps^6)^{1/7} and
    T = 6 (t - t_c) / (4 k^3 eps^4)^{1/7}; U is solved on [-50, 50].
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    k = cp.k
    big_x = (x - cp.x_c - 6.0 * cp.u_c * (t - cp.t_c)) / (8.0 * k * eps**6) ** (1.0 / 7.0)
    big_t = 6.0 * (t - cp.t_c) / (4.0 * k**3 * eps**4) ** (1.0 / 7.0)
    sol = painleve.pi2_solution_cached(big_t)
    u_val = painleve.eval_pi2(sol, big_x)
    return cp.u_c + (2.0 * eps**2 / k**2) ** (1.0 / 7.0) * float(u_val)


def leading_edge_phase(x: float, t: float, edge: EdgeSolution, data: InitialData) -> float:
    """Phase Theta(x,t) = 2 sqrt(u-v)(x - x^-) + 2 int_v^u (f_L'+6t) sqrt(xi-v) dxi."""
    if edge.kind != "leading":
        raise DomainError("needs a leading-edge solution")
    u, v = edge.u, edge.v
    integral = _sqrt_weighted_integral(
        lambda xi: np.asarray(data.f_L_prime(xi), dtype=float) + 6.0 * t,
        v,
        u,
        "leading-edge phase integral",
    )
    return 2.0 * math.sqrt(u - v) * (x - edge.x_edge) + 2.0 * integral


def leading_edge_approx(
    x: float,
    t: float,
    eps: float,
    edge: EdgeSolution,
    data: InitialData,
) -> float:
    """Airy-envelope modulation at the left edge of the oscillations.

    u - (4 eps^{1/3} / c^{1/3}) q(s) cos(Theta/eps), with the envelope
    read off the Hastings-McLeod solution at
    s = -(x - x^-) / (c^{1/3} sqrt(u-v) eps^{2/3}) and
    c = -sqrt(u-v) d^2/dv^2 theta(v;u) > 0.
    """
    if edge.kind != "leading":
        raise DomainError("needs a leading-edge solution")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    u, v = edge.u, edge.v
    c = -math.sqrt(u - v) * theta_vv(v, u, data)
    if c <= 0.0:
        raise GenericityError("leading-edge constant c is not positive")
    s_val = -(x - edge.x_edge) / (c ** (1.0 / 3.0) * math.sqrt(u - v) * eps ** (2.0 / 3.0))
    q_val = float(painleve.eval_hm(painleve.default_hm_grid(), s_val))
    phase = leading_edge_phase(x, t, edge, data)
    return u - (4.0 * eps ** (1.0 / 3.0) / c ** (1.0 / 3.0)) * q_val * math.cos(phase / eps)


def trailing_offset(k: int, y: float, eps: float, log_gamma: float) -> float:
    """Center X_k of the k-th soliton in the trailing train.

    X_k = (1/2)(1/2 - y + k) ln eps - ln(sqrt(2 pi) h_k) - (k + 1/2) ln gamma
    with h_k = 2^{k/2} / (pi^{1/4} sqrt(k!)).
    """
    log_hk = 0.5 * k * math.log(2.0) - 0.25 * math.log(math.pi) - 0.5 * math.lgamma(k + 1.0)
    return (
        0.5 * (0.5 - y + k) * math.log(eps)
        - (0.5 * math.log(2.0 * math.pi) + log_hk)
        - (k + 0.5) * log_gamma
    )


def trailing_train_sum(y: float, eps: float, log_gamma: float) -> float:
    """sum_k sech^2(X_k) through the shared train kernel."""
    return sech2_train(lambda k: trailing_offset(k, y, eps, log_gamma))


def trailing_edge_approx(
    y: float, t: float, eps: float, edge: EdgeSolution, data: InitialData
) -> float:
    """Soliton train at the right edge, sampled at the rescaled offset y.

    Evaluates u + 2 (v-u) sum_k sech^2(X_k) at the physical point
    x = x^+ + y eps ln(eps) / (2 sqrt(v-u)); requires 0 < eps < 1 so the
    logarithmic spacing is negative.
    """
    if edge.kind != "trailing":
        raise DomainError("needs a trailing-edge solution")
    if not 0.0 < eps < 1.0:
        raise DomainError("needs 0 < eps < 1 (ln eps < 0)")
    u, v = edge.u, edge.v
    slope = -theta_v(v, u, data)
    if slope <= 0.0:
        raise GenericityError("-d/dv theta(v;u) must be positive at the trailing edge")
    gamma = 4.0 * (v - u) ** 1.25 * math.sqrt(slope)
    total = trailing_train_sum(y, eps, math.log(gamma))
    return u + 2.0 * (v - u) * total


def trailing_edge_x(y: float, eps: float, edge: EdgeSolution) -> float:
    """Physical abscissa of the rescaled trailing coordinate y."""
    u, v = edge.u, edge.v
    return edge.x_edge + y * eps * math.log(eps) / (2.0 * math.sqrt(v - u))
