"""Recurrence coefficients and partition functions for e^{-N V} weights.

``compute_recurrence`` covers the weight by a composite Gauss-Legendre
rule and builds the Jacobi matrix of that discrete measure by float64
Lanczos with full reorthogonalization, which stays orthogonal to
machine precision where the discretized Stieltjes recurrence does not
(Gragg & Harrod, Numer. Math. 44, 1984).  The measured orthogonality
loss is checked on every table.

The asymptotic side evaluates the regular one-cut limits, the interior
(Hastings-McLeod) and edge (fourth-order profile) critical formulas, and
the conjectured exterior-point train, and ``compare_asymptotics`` builds
the numeric-vs-formula error tables.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import painleve, rmt_eq
from .core import gauss_jacobi_rule, sech2_train
from .errors import DomainError, KdvrmtError, PrecisionError
from .rmt_eq import QuarticField, X_STAR, field_coeffs

__all__ = [
    "RecurrenceTable",
    "InteriorCriticalData",
    "compute_recurrence",
    "partition_log",
    "asym_onecut",
    "asym_interior",
    "asym_edge",
    "conjectured_exterior",
    "ConjecturedExteriorResult",
    "ExteriorParams",
    "interior_critical_data_t9",
    "compare_asymptotics",
    "EDGE_C",
    "EDGE_C1",
    "EDGE_C2",
]

# constants of the edge double-scaling formulas
EDGE_C = 6.0 ** (2.0 / 7.0)
EDGE_C1 = 6.0 ** (-1.0 / 7.0)
EDGE_C2 = 2.0 * 6.0 ** (-3.0 / 7.0)

# outermost truncation radius of the weight
_R_MAX = 64.0


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence data gamma_1..gamma_n, beta_0..beta_n, kappa_0..kappa_n.

    ``n_nodes`` is the size of the rule that resolved the weight.
    ``log_kappa`` carries the leading coefficients in log form so the
    partition function stays accurate when the kappas span many decades.
    """

    gamma: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    log_kappa: np.ndarray
    n_nodes: int

    @property
    def n_max(self) -> int:
        return self.gamma.size


def _as_poly(v) -> np.ndarray:
    if isinstance(v, QuarticField):
        return field_coeffs(v)
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise DomainError("V must be a QuarticField or ascending coefficients")
    if arr.size % 2 == 0 or arr[-1] <= 0.0:
        raise DomainError("V must have even degree and positive leading coefficient")
    return arr


def _truncation_radius(coeffs: np.ndarray, n_weight: int) -> tuple[float, float]:
    """Radius R with N (V(+-R) - V_min) >= 230 nats (tail mass << 1e-30)."""
    pv = np.polynomial.polynomial.polyval
    grid = np.linspace(-30.0, 30.0, 4001)
    vmin = float(np.min(pv(grid, coeffs)))
    r = 2.0
    while r < _R_MAX:
        if (
            n_weight * (float(pv(r, coeffs)) - vmin) >= 230.0
            and n_weight * (float(pv(-r, coeffs)) - vmin) >= 230.0
        ):
            return r, vmin
        r *= 1.25
    raise DomainError("weight tail does not decay within the desk-scale window")


def _lanczos(xs: np.ndarray, sqrt_w: np.ndarray, n_max: int):
    """Jacobi matrix of the discrete measure sum w_i delta(x_i).

    Lanczos on diag(xs) from the start vector sqrt(w), with full
    reorthogonalization (one classical Gram-Schmidt pass against every
    earlier vector per step).  Row k of the returned Q holds
    p_k(x_i) sqrt(w_i); a measured loss max|Q Q^T - I| above 1e-10
    raises PrecisionError.
    """
    q = np.empty((n_max + 1, xs.size))
    q[0] = sqrt_w / np.linalg.norm(sqrt_w)
    gamma = np.empty(n_max)
    beta = np.empty(n_max + 1)
    for k in range(n_max + 1):
        xq = xs * q[k]
        beta[k] = float(np.dot(q[k], xq))
        if k == n_max:
            break
        r = xq - beta[k] * q[k]
        if k:
            r -= gamma[k - 1] * q[k - 1]
        r -= q[: k + 1].T @ (q[: k + 1] @ r)
        gamma[k] = float(np.linalg.norm(r))
        if not gamma[k] > 0.0:
            raise PrecisionError(
                f"Lanczos breakdown at n = {k + 1}: the discrete measure is exhausted",
                failing_index=k + 1,
            )
        q[k + 1] = r / gamma[k]
    loss = float(np.max(np.abs(q @ q.T - np.eye(n_max + 1))))
    if loss > 1e-10:
        raise PrecisionError(f"Lanczos orthogonality loss {loss:.1e} > 1e-10", failing_index=n_max)
    return gamma, beta, q


def compute_recurrence(
    v,
    n_weight: int,
    n_max: int,
    nodes_per_panel: int = 48,
) -> RecurrenceTable:
    """Recurrence coefficients of the weight exp(-N V) on the line.

    The weight is covered by a composite Gauss-Legendre rule on [-R, R]
    with at least n_max / 2 panels, and the Jacobi matrix of that
    discrete measure is built by float64 Lanczos with full
    reorthogonalization.  Square-root weights exp(-N (V - V_min) / 2)
    keep every node on the support representable.  R starts where the
    weight tail is below 1e-30 and grows by 1.25x until p_{n_max}^2 w
    holds less than 1e-30 of its mass in the outer ring |x| >= R / 1.25.
    PrecisionError is raised if the recurrence replayed on a rule with
    one more panel leaves p_{n_max} off orthonormal by more than 1e-10.
    """
    coeffs = _as_poly(v)
    n_weight = int(n_weight)
    n_max = int(n_max)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    radius, vmin = _truncation_radius(coeffs, n_weight)
    base = gauss_jacobi_rule(nodes_per_panel, 0.0, 0.0)

    def measure(panels):
        half = radius / panels
        mids = -radius + half * (2 * np.arange(panels) + 1)
        xs = (mids[:, None] + half * base.nodes).ravel()
        v_shift = np.polynomial.polynomial.polyval(xs, coeffs) - vmin
        return xs, np.sqrt(half * np.tile(base.weights, panels)) * np.exp(-0.5 * n_weight * v_shift)

    while True:
        panels = max(10, math.ceil(2.0 * radius), math.ceil(n_max / 2))
        xs, sqrt_w = measure(panels)
        gamma, beta, q = _lanczos(xs, sqrt_w, n_max)
        if float(np.sum(q[n_max, np.abs(xs) >= radius / 1.25] ** 2)) < 1e-30:
            break
        radius *= 1.25
        if radius > _R_MAX:
            raise DomainError(f"p_{n_max}^2 w does not decay within |x| < {_R_MAX}")
    # the rule must resolve the weight, not only keep Q orthogonal: replay
    # the recurrence on one more panel and check that p_{n_max} stays
    # orthonormal there
    x2, q_cur = measure(panels + 1)
    q_cur = q_cur / np.linalg.norm(q_cur)
    q_prev = np.zeros_like(x2)
    for k in range(n_max):
        q_next = ((x2 - beta[k]) * q_cur - (gamma[k - 1] * q_prev if k else 0.0)) / gamma[k]
        q_prev, q_cur = q_cur, q_next
    drift = max(abs(float(q_cur @ q_cur) - 1.0), abs(float(q_cur @ q_prev)))
    if not drift <= 1e-10:
        raise PrecisionError(
            f"the rule does not resolve the weight: p_{n_max} is off by {drift:.1e} on a shifted rule",
            failing_index=n_max,
        )
    # the weight was rescaled by e^{-N vmin}; the leading coefficients of
    # the unshifted weight gain e^{+N vmin / 2}
    log_kappa0 = -0.5 * math.log(float(np.dot(sqrt_w, sqrt_w))) + 0.5 * n_weight * vmin
    log_kappa = log_kappa0 - np.concatenate([[0.0], np.cumsum(np.log(gamma))])
    return RecurrenceTable(
        gamma=gamma,
        beta=beta,
        kappa=np.exp(log_kappa),
        log_kappa=log_kappa,
        n_nodes=xs.size,
    )


def partition_log(table: RecurrenceTable, n: int) -> float:
    """log Z_n = log n! - 2 sum_{j<n} log kappa_j (log-Vandermonde identity)."""
    if not 1 <= n <= table.n_max + 1:
        raise DomainError("n outside the computed table")
    return math.lgamma(n + 1) - 2.0 * float(np.sum(table.log_kappa[:n]))


def asym_onecut(a: float, b: float) -> tuple[float, float]:
    """Regular one-cut limits ((b-a)/4, (b+a)/2) of (gamma_n, beta_n)."""
    return (b - a) / 4.0, (b + a) / 2.0


@dataclass(frozen=True)
class InteriorCriticalData:
    """Data of an interior (type ii) singular point needed by the formulas.

    ``big_c`` is the density coefficient in
    psi(s) = C sqrt((s-a)(b-s)) (s - s*)^2, ``omega`` the leading-order
    phase integral int_0^b psi(s) ds.
    """

    a: float
    b: float
    s_star: float
    big_c: float
    x_star: float
    omega: float


def interior_critical_data_t9() -> InteriorCriticalData:
    """Critical data of the symmetric-line interior singular point."""
    mu = rmt_eq.measure_t9(X_STAR)
    a, b = mu.support
    big_c = float(mu.h_coeffs[2]) / (2.0 * math.pi)
    # s = c + r sin(phi) turns omega = int_0^b psi(s) ds into the integral of
    # the trigonometric polynomial r^2 cos(phi)^2 h(s) / (2 pi) over
    # [asin(-c/r), pi/2]; 16 Gauss-Legendre nodes reach float resolution
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    lo = math.asin(-c / r)
    rule = gauss_jacobi_rule(16, 0.0, 0.0)
    phi = lo + (0.5 * math.pi - lo) * 0.5 * (1.0 + rule.nodes)
    psi = r * r * np.cos(phi) ** 2 * mu.h(c + r * np.sin(phi)) / (2.0 * math.pi)
    omega = 0.5 * (0.5 * math.pi - lo) * float(np.dot(rule.weights, psi))
    return InteriorCriticalData(
        a=a, b=b, s_star=4.0 / 3.0, big_c=big_c, x_star=X_STAR, omega=omega
    )


def asym_interior(x: float, n: int, crit: InteriorCriticalData) -> tuple[float, float]:
    """Interior-critical expansion of (gamma_n, beta_n) at parameter x.

    The envelope is the Hastings-McLeod solution evaluated at
    s_{x,n} = n^{2/3} (e^{x*-x} - 1) / (c sqrt((s*-a)(b-s*))); the modulation
    phase uses the leading-order omega, so the formula is meaningful for
    x - x* = O(n^{-2/3}) and a warning flags arguments far outside it.
    """
    a, b, s_star = crit.a, crit.b, crit.s_star
    cross = math.sqrt((s_star - a) * (b - s_star))
    ratio = (b + a) / (b - a)
    if abs(ratio) > 1.0:
        raise DomainError("endpoint ratio outside [-1, 1]; invalid critical data")
    theta_rm = math.asin(ratio)
    c = (math.pi * crit.big_c * cross / 4.0) ** (1.0 / 3.0)
    s_xn = n ** (2.0 / 3.0) * (math.exp(crit.x_star - x) - 1.0) / (c * cross)
    if abs(s_xn) > n ** (1.0 / 6.0):
        warnings.warn(
            f"s_xn = {s_xn:.3g} exceeds n^(1/6); outside the double-scaling window",
            stacklevel=2,
        )
    q_val = float(painleve.eval_hm(painleve.default_hm_grid(), s_xn))
    phase = 2.0 * math.pi * n * crit.omega
    gamma_n = (b - a) / 4.0 - (0.5 / c) * q_val * math.cos(phase) * n ** (-1.0 / 3.0)
    beta_n = (b + a) / 2.0 + (1.0 / c) * q_val * math.sin(phase + theta_rm) * n ** (-1.0 / 3.0)
    return gamma_n, beta_n


def asym_edge(
    x: float, t: float, n: int, big_l: float = 50.0, n_points: int | None = None
) -> tuple[float, float]:
    """Edge-critical expansion near (x, t) = (0, 1).

    gamma_n = 1 + U(c1 n^{6/7}(e^x - 1), c2 n^{4/7} e^x (t-1)) n^{-2/7} / (2c),
    beta_n the same with 1/c and no constant term; c = 6^{2/7}.  U is
    solved on [-L, L] by ``painleve.solve_pi2`` on its defect-sized mesh,
    or on ``n_points`` graded nodes when given.
    """
    x_arg = EDGE_C1 * n ** (6.0 / 7.0) * (math.exp(x) - 1.0)
    t_arg = EDGE_C2 * n ** (4.0 / 7.0) * math.exp(x) * (t - 1.0)
    if abs(x_arg) > big_l:
        raise DomainError(
            f"scaling argument X = {x_arg:.3g} outside the solved domain [-{big_l}, {big_l}]; "
            "increase big_l"
        )
    if abs(t_arg) > 20.0:
        raise DomainError(f"scaling argument T = {t_arg:.3g} too large for the desk-scale solver")
    sol = painleve.pi2_solution_cached(t_arg, big_l, n_points)
    u_val = float(painleve.eval_pi2(sol, x_arg))
    corr = u_val * n ** (-2.0 / 7.0)
    return 1.0 + corr / (2.0 * EDGE_C), corr / EDGE_C


@dataclass(frozen=True)
class ConjecturedExteriorResult:
    gamma_n: float
    beta_n: float
    conjectural: bool = True


@dataclass(frozen=True)
class ExteriorParams:
    """Caller-supplied data of the exterior-point train ansatz.

    The coefficients c2(y, k) and c3(k) are left symbolic by the theory,
    so they must be provided as callables.  ``c1`` scales the train
    amplitude.
    """

    a: float
    b: float
    c1: float
    c2: Callable
    c3: Callable


def conjectured_exterior(y: float, n: int, params: ExteriorParams) -> ConjecturedExteriorResult:
    """Exterior-point recurrence ansatz; output carries a conjecture flag.

    gamma_n = (b-a)/4 + c1 sum_k sech^2(X_k), beta_n = (b+a)/2 + the same
    sum, with X_k = -c2(y,k) ln n + c3(k) through the shared train kernel.
    """
    log_n = math.log(n)
    total = sech2_train(lambda k: -params.c2(y, k) * log_n + params.c3(k))
    gamma_n = (params.b - params.a) / 4.0 + params.c1 * total
    beta_n = (params.b + params.a) / 2.0 + params.c1 * total
    return ConjecturedExteriorResult(gamma_n=gamma_n, beta_n=beta_n)


def compare_asymptotics(f: QuarticField, n_range: Sequence[int], which: str) -> tuple[list[dict], float]:
    """Numeric (diagonal N = n) vs asymptotic coefficients, with decay fit.

    Returns the rows and the least-squares slope of log|gamma error|
    against log n (the fitted error-decay exponent).  A row whose
    recurrence or formula raises keeps NaN in the values it did not
    reach and the message in ``error``; the other rows are unaffected.
    ``interior`` needs f.t = 9, the line its critical data come from, and
    marks a row outside the double-scaling window with the formula's warning.
    """
    if which not in ("regular", "interior", "edge"):
        raise DomainError("which must be regular | interior | edge")
    if which == "interior" and f.t != 9.0:
        raise DomainError(f"which = interior is the t = 9 expansion; t must be 9, got {f.t}")
    if any(n < 1 for n in n_range):
        raise DomainError(f"n_range entries must be >= 1, got {min(n_range)}")
    rows = []
    if which == "regular":
        # without a one-cut solution every row keeps its numeric values
        # and names the endpoint error
        try:
            limits = asym_onecut(*rmt_eq.solve_onecut_endpoints(f))
        except KdvrmtError as exc:
            limits = exc
    if which == "interior":
        crit = interior_critical_data_t9()
    for n in n_range:
        row = dict.fromkeys(
            ("gamma_num", "beta_num", "gamma_asym", "beta_asym", "err_gamma", "err_beta"), math.nan
        )
        row.update(n=int(n), error="")
        try:
            table = compute_recurrence(f, n, n)
            g_num = row["gamma_num"] = float(table.gamma[n - 1])
            b_num = row["beta_num"] = float(table.beta[n - 1])
            if which == "regular":
                if isinstance(limits, KdvrmtError):
                    raise limits
                g_asym, b_asym = limits
            elif which == "interior":
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)
                    g_asym, b_asym = asym_interior(f.x, n, crit)
            else:
                g_asym, b_asym = asym_edge(f.x, f.t, n)
            row.update(
                gamma_asym=g_asym,
                beta_asym=b_asym,
                err_gamma=abs(g_num - g_asym),
                err_beta=abs(b_num - b_asym),
            )
        except (KdvrmtError, UserWarning) as exc:
            row["error"] = str(exc)
        rows.append(row)
    logs = [(math.log(r["n"]), math.log(r["err_gamma"])) for r in rows if r["err_gamma"] > 0.0]
    if len(logs) >= 2:
        xs = np.array([p[0] for p in logs])
        ys = np.array([p[1] for p in logs])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = math.nan
    return rows, slope
