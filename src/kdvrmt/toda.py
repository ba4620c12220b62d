"""Lattice hierarchy flows on recurrence coefficients and their continuum limit.

State is the pair of sequences (gamma_n, beta_n) with lattice parameter
eps = 1/N, truncated with Dirichlet ends (gamma vanishing outside).  The
truncated hierarchy is the finite Toda lattice of the symmetric
tridiagonal matrix Q, so a flow is computed as a spectral map: the
spectrum stays, the spectral weights are deformed by e^{-t lambda^k / eps},
and Lanczos rebuilds Q.  The first flow is the lattice itself in
Flaschka-type variables u_n = log gamma_n^2, v_n = -beta_n.

The hodograph side carries the diagonal-form solution
x = lambda_{+-} t + f_{+-}(r_+, r_-) of the dispersionless system, with f
built from the residue of V0'(xi) sqrt((xi - r_+)(xi - r_-)) at infinity,
expanded symbolically for polynomial V0.  The overall sign of the residue
is pinned by the Gaussian consistency (gamma^2 = x, beta = 0 at t = 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import newton_solve
from .errors import CatastropheError, ConvergenceError, DomainError, GenericityError
from .orthopoly import _lanczos

__all__ = [
    "TodaState",
    "HodographPoint",
    "Poly2",
    "gaussian_state",
    "jacobi_matrix",
    "flow_t1",
    "flow_hierarchy",
    "string_residual",
    "hodograph_potential",
    "hodograph_solve",
    "state_from_hodograph",
    "continuum_residual",
    "catastrophe_constants",
    "CatastropheData",
]


@dataclass(frozen=True)
class TodaState:
    """Truncated lattice state: gamma_1..gamma_M (> 0), beta_0..beta_M."""

    eps: float
    gamma: np.ndarray
    beta: np.ndarray
    times: dict

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.beta.size != self.gamma.size + 1:
            raise DomainError("need len(beta) = len(gamma) + 1")
        if not np.all(self.gamma > 0.0):
            raise DomainError("gamma must be positive")

    @property
    def n_max(self) -> int:
        return self.gamma.size


def gaussian_state(n_weight: int, n_max: int) -> TodaState:
    """String-equation data of the Gaussian weight: gamma_n^2 = n eps, beta = 0."""
    for key, value in (("N", n_weight), ("n_max", n_max)):
        if value < 1:
            raise DomainError(f"{key} must be >= 1, got {value}")
    eps = 1.0 / n_weight
    n = np.arange(1, n_max + 1)
    return TodaState(
        eps=eps, gamma=np.sqrt(n * eps), beta=np.zeros(n_max + 1), times={}
    )


def jacobi_matrix(state: TodaState) -> np.ndarray:
    """Dense symmetric tridiagonal Q of size (n_max+1)."""
    return np.diag(state.beta) + np.diag(state.gamma, 1) + np.diag(state.gamma, -1)


def flow_hierarchy(state: TodaState, k: int, dt: float, steps: int) -> TodaState:
    """The k-th hierarchy flow to time T = dt * steps, as a spectral map.

    The truncated hierarchy is the finite Toda lattice: its k-th flow keeps
    the spectrum lambda_j of Q and multiplies the spectral weights by
    e^{-T lambda_j^k / eps} (Moser 1975; Deift, Nanda & Tomei 1983).  The
    weights are the Christoffel numbers 1 / sum_n p_n(lambda_j)^2, with p_n
    from the recurrence; Lanczos on the deformed measure gives the new Q,
    and its orthogonality check raises PrecisionError once the deformed
    weights span beyond the float64 range.
    """
    if k < 1:
        raise DomainError("hierarchy flows need k >= 1")
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if steps == 0:
        return state
    big_t = dt * steps
    lam = np.linalg.eigvalsh(jacobi_matrix(state))
    gamma, beta = state.gamma, state.beta
    p_prev, p, norm2 = 0.0, np.ones_like(lam), 1.0
    for n in range(state.n_max):
        p_prev, p = p, ((lam - beta[n]) * p - (gamma[n - 1] * p_prev if n else 0.0)) / gamma[n]
        norm2 += p * p
    log_w = -np.log(norm2) - big_t * lam**k / state.eps
    sqrt_w = np.exp(0.5 * (log_w - np.max(log_w)))
    gamma, beta, _ = _lanczos(lam, sqrt_w, state.n_max)
    times = dict(state.times)
    times[k] = times.get(k, 0.0) + big_t
    return TodaState(eps=state.eps, gamma=gamma, beta=beta, times=times)


def flow_t1(state: TodaState, dt: float, steps: int) -> TodaState:
    """First hierarchy flow: eps dgamma/dt = gamma (beta_{n-1} - beta_n)/2,
    eps dbeta/dt = gamma_n^2 - gamma_{n+1}^2, with truncation ends."""
    return flow_hierarchy(state, 1, dt, steps)


def string_residual(state: TodaState, v_coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the discrete string constraint for the field V.

    res1_n = gamma_n [V'(Q)]_{n,n-1} - n eps (n = 1..M),
    res2_n = [V'(Q)]_{n,n} (n = 0..M); rows within deg V' of the
    truncation boundary are excluded.  Returns (res1, res2, interior_idx).
    """
    v_coeffs = np.asarray(v_coeffs, dtype=float)
    vp = np.polynomial.polynomial.polyder(v_coeffs)
    q = jacobi_matrix(state)
    m = q.shape[0]
    vpq = np.eye(m) * vp[-1]
    for c in vp[-2::-1]:
        vpq = vpq @ q + np.eye(m) * c
    sub = np.diag(vpq, -1)
    n_idx = np.arange(1, m)
    res1 = state.gamma * sub - n_idx * state.eps
    res2 = np.diag(vpq).copy()
    bandwidth = len(vp)  # deg V' + 1 safety margin
    interior = np.arange(bandwidth, m - bandwidth)
    return res1, res2, interior


# ----------------------------------------------------------------------
# hodograph machinery
# ----------------------------------------------------------------------

class Poly2:
    """Bivariate polynomial in (r_plus, r_minus) that broadcasts its arguments."""

    def __init__(self, coeffs):
        self.c = np.atleast_2d(np.asarray(coeffs, dtype=float))

    def __call__(self, rp, rm):
        return np.polynomial.polynomial.polyval2d(*np.broadcast_arrays(rp, rm), self.c)

    def diff(self, axis: int) -> "Poly2":
        return Poly2(np.polynomial.polynomial.polyder(self.c, axis=axis))


def _sqrt_series_coeff(n: int) -> float:
    """Coefficient B_n of sqrt(1 - z) = sum B_n z^n."""
    b = 1.0
    for i in range(n):
        b *= (0.5 - i) / (i + 1)
    return b * (-1.0) ** n


def hodograph_potential(v0_coeffs) -> Poly2:
    """The generating function f(r_+, r_-) built from the residue at infinity.

    For V0'(xi) = sum_e w_e xi^e, the 1/xi coefficient of
    V0'(xi) sqrt((xi-r_+)(xi-r_-)) is sum_e w_e c_{e+2}(r_+, r_-) with
    c_j the convolution of two binomial sqrt series; f = -(that
    coefficient), the sign fixed so that the Gaussian case at t = 0
    reproduces r_{+-} = +-2 sqrt(x).
    """
    v0 = np.asarray(v0_coeffs, dtype=float)
    if v0.size < 2:
        raise DomainError("V0 must be non-constant")
    w = np.polynomial.polynomial.polyder(v0)
    deg = w.size - 1
    size = deg + 3
    coeffs = np.zeros((size, size))
    for e, we in enumerate(w):
        if we == 0.0:
            continue
        j = e + 2
        for i in range(j + 1):
            coeffs[i, j - i] -= we * _sqrt_series_coeff(i) * _sqrt_series_coeff(j - i)
    return Poly2(coeffs)


@dataclass(frozen=True)
class HodographPoint:
    """Solved diagonal-form point: invariants r_+- and speeds lambda_+-."""

    x: float
    t: float
    r_plus: float
    r_minus: float
    lambda_plus: float
    lambda_minus: float


def _lambdas(rp: float, rm: float) -> tuple[float, float]:
    d4 = (rp - rm) / 4.0
    return -d4, d4


def hodograph_solve(x: float, t: float, v0_coeffs, seed=None) -> HodographPoint:
    """Solve x = lambda_{+-} t + f_{+-}(r_+, r_-) for the invariants.

    Newton with the analytic polynomial Jacobian and a grid-scan seed;
    a singular Jacobian signals the gradient catastrophe.
    """
    f = hodograph_potential(v0_coeffs)
    f_p = f.diff(0)
    f_m = f.diff(1)
    f_pp = f_p.diff(0)
    f_pm = f_p.diff(1)
    f_mm = f_m.diff(1)

    def gfun(r):
        rp, rm = r
        lp, lm = _lambdas(rp, rm)
        return np.array(
            [lp * t + float(f_p(rp, rm)) - x, lm * t + float(f_m(rp, rm)) - x]
        )

    def gjac(r, _):
        rp, rm = r
        return np.array(
            [
                [-t / 4.0 + float(f_pp(rp, rm)), t / 4.0 + float(f_pm(rp, rm))],
                [t / 4.0 + float(f_pm(rp, rm)), -t / 4.0 + float(f_mm(rp, rm))],
            ]
        )

    if seed is None:
        # 40 x 40 scan of r_- < r_+ < 2 scale, scored by |g_0| + |g_1|
        scale = 2.0 * math.sqrt(abs(x)) + 1.0
        rp = np.linspace(0.01 * scale, 2.0 * scale, 40)
        rm = np.linspace(-2.0 * scale, rp - 0.01 * scale, 40, axis=-1)
        rp = rp[:, None]
        lp, lm = _lambdas(rp, rm)
        score = np.abs(lp * t + f_p(rp, rm) - x) + np.abs(lm * t + f_m(rp, rm) - x)
        score = np.where(np.isfinite(score), score, np.inf)
        i, j = np.unravel_index(np.argmin(score), score.shape)
        seed = np.array([rp[i, 0], rm[i, j]])
    try:
        res = newton_solve(gfun, np.asarray(seed, dtype=float), max_iter=80, jac=gjac)
    except ConvergenceError as exc:
        raise CatastropheError(
            "hodograph Newton failed (at or past the gradient catastrophe)"
        ) from exc
    rp, rm = float(res.x[0]), float(res.x[1])
    if not rp > rm:
        raise CatastropheError("hodograph solution violates r_+ > r_-")
    lp, lm = _lambdas(rp, rm)
    return HodographPoint(x=x, t=t, r_plus=rp, r_minus=rm, lambda_plus=lp, lambda_minus=lm)


def state_from_hodograph(v0_coeffs, t: float, eps: float, n_max: int) -> TodaState:
    """Sample the hodograph solution on the lattice x = eps n.

    gamma(x) = (r_+ - r_-)/4 and beta(x) = -(r_+ + r_-)/2 (the Riemann
    invariants are r_{+-} = v +- 2 e^{w/2} with v = -beta at leading order).
    """
    gamma = np.empty(n_max)
    beta = np.empty(n_max + 1)
    prev = None
    for n in range(1, n_max + 1):
        pt = hodograph_solve(eps * n, t, v0_coeffs, seed=prev)
        prev = (pt.r_plus, pt.r_minus)
        gamma[n - 1] = (pt.r_plus - pt.r_minus) / 4.0
        beta[n] = -(pt.r_plus + pt.r_minus) / 2.0
    beta[0] = beta[1]
    return TodaState(eps=eps, gamma=gamma, beta=beta, times={1: t})


def continuum_residual(state: TodaState) -> float:
    """Defect of the first-order continuum truncation on smooth interpolants.

    The lattice right-hand sides (v_n - v_{n-1})/eps and
    (e^{u_{n+1}} - e^{u_n})/eps are compared against v_x - (eps/2) v_xx
    and e^u u_x + (eps/2)(e^u)_xx evaluated by differentiating cubic
    splines through the lattice data; for smooth profiles the defect is
    O(eps^2).  Nodes within 12% of the lattice of either truncation end
    are excluded.
    """
    from scipy.interpolate import CubicSpline

    eps = state.eps
    m = state.n_max
    x_u = eps * np.arange(1, m + 1)  # u_n lives at n = 1..m
    u = np.log(state.gamma**2)
    x_v = eps * np.arange(0, m + 1)  # v_n lives at n = 0..m
    v = -state.beta
    spl_v = CubicSpline(x_v, v)
    spl_u = CubicSpline(x_u, u)
    spl_eu = CubicSpline(x_u, np.exp(u))

    lo = max(2, int(0.12 * m))
    hi = m - max(2, int(0.12 * m))
    worst = 0.0
    for n in range(lo, hi):  # n <= m-1, so u[n] = u_{n+1} is in range
        x = eps * n
        lattice_u = (v[n] - v[n - 1]) / eps
        pde_u = float(spl_v(x, 1)) - 0.5 * eps * float(spl_v(x, 2))
        lattice_v = (math.exp(u[n]) - math.exp(u[n - 1])) / eps
        pde_v = math.exp(u[n - 1]) * float(spl_u(x, 1)) + 0.5 * eps * float(spl_eu(x, 2))
        worst = max(worst, abs(lattice_u - pde_u), abs(lattice_v - pde_v))
    return worst


@dataclass(frozen=True)
class CatastropheData:
    """Located hodograph catastrophe with its scaling constants."""

    r_plus: float
    r_minus: float
    t_c: float
    x_c: float
    c1: float
    c2: float
    c3: float
    c4: float


def catastrophe_constants(v0_coeffs, family: str = "plus") -> CatastropheData:
    """Locate the hodograph gradient catastrophe and its cubic-normal-form constants.

    ``family`` selects which Riemann invariant suffers the first breaking
    ("plus" or "minus"); which one it is depends on the sign structure of
    the potential, the two cases being mirror images of each other.  The
    defining pair for the breaking invariant r is (with the speeds linear
    in r so their higher partials vanish) d2f/dr^2 = t/4 and
    d3f/dr^3 = 0, closed by the consistency of the two hodograph branches.
    The system always has a degenerate family on the diagonal r_+ = r_-
    (interval collapse), so the Newton runs in a (r, log gap) chart
    seeded by a grid scan over gaps of at least 0.2; landing back under
    half that gap is reported as non-generic.  c4 reduces to 1/96 identically because
    (r_+ - r_-)/(lambda_- - lambda_+) = 2.
    """
    if family not in ("plus", "minus"):
        raise DomainError("family must be 'plus' or 'minus'")
    f = hodograph_potential(v0_coeffs)
    f_p = f.diff(0)
    f_m = f.diff(1)
    f_pp = f_p.diff(0)
    f_mm = f_m.diff(1)
    if family == "plus":
        f_brk2 = f_pp
        f_brk3 = f_pp.diff(0)
        f_brk4 = f_pp.diff(0).diff(0)
        f_oth2 = f_mm
    else:
        f_brk2 = f_mm
        f_brk3 = f_mm.diff(1)
        f_brk4 = f_mm.diff(1).diff(1)
        f_oth2 = f_pp

    def t_of(rp, rm):
        return 4.0 * float(f_brk2(rp, rm))

    f_brk3_p = f_brk3.diff(0)
    f_brk3_m = f_brk3.diff(1)
    f_brk2_p = f_brk2.diff(0)
    f_brk2_m = f_brk2.diff(1)
    f_pm = f_p.diff(1)

    def gfun(w):
        # the branch-consistency condition carries a structural gap^2
        # factor (it vanishes identically on the diagonal); dividing it
        # out removes the spurious diagonal valley from the root search
        rp = w[0]
        gap = math.exp(w[1])
        rm = rp - gap
        g2 = float(f_brk3(rp, rm))
        g3 = (
            float(f_p(rp, rm))
            - float(f_m(rp, rm))
            - 2.0 * (rp - rm) * float(f_brk2(rp, rm))
        )
        return np.array([g2, g3 / gap**2])

    def gjac(w, _):
        rp = w[0]
        gap = math.exp(w[1])
        rm = rp - gap
        # partials in (rp, rm), then chain through rm = rp - e^g
        d2_p, d2_m = float(f_brk3_p(rp, rm)), float(f_brk3_m(rp, rm))
        b2 = float(f_brk2(rp, rm))
        b2_p, b2_m = float(f_brk2_p(rp, rm)), float(f_brk2_m(rp, rm))
        g3 = (
            float(f_p(rp, rm)) - float(f_m(rp, rm)) - 2.0 * gap * b2
        )
        g3_p = float(f_pp(rp, rm)) - float(f_pm(rp, rm)) - 2.0 * b2 - 2.0 * gap * b2_p
        g3_m = float(f_pm(rp, rm)) - float(f_mm(rp, rm)) + 2.0 * b2 - 2.0 * gap * b2_m
        row2_rp = (g3_p + g3_m) / gap**2
        row2_g = -gap * g3_m / gap**2 - 2.0 * g3 / gap**2
        return np.array(
            [
                [d2_p + d2_m, -gap * d2_m],
                [row2_rp, row2_g],
            ]
        )

    # 161 x 80 scan over gaps of at least 0.2 where t_c > 1e-3, scored
    # like gfun by |g2| + |g3| / gap^2
    rp = np.linspace(-8.0, 8.0, 161)
    # row by row: the empty row rp = -7.8 would switch one array-stop
    # linspace to another rounding for every row
    rm = np.array([np.linspace(-8.0, r - 0.2, 80) for r in rp])
    rp = rp[:, None]
    gap = rp - rm
    with np.errstate(divide="ignore", invalid="ignore"):
        g3 = f_p(rp, rm) - f_m(rp, rm) - 2.0 * gap * f_brk2(rp, rm)
        score = np.abs(f_brk3(rp, rm)) + np.abs(g3 / gap**2)
    score = np.where(np.isfinite(score) & (4.0 * f_brk2(rp, rm) > 1e-3), score, np.inf)
    i, j = np.unravel_index(np.argmin(score), score.shape)
    if score[i, j] == np.inf:
        raise GenericityError("no catastrophe candidate with t_c > 0 in the scan box")
    w0 = np.array([rp[i, 0], math.log(rp[i, 0] - rm[i, j])])
    try:
        res = newton_solve(gfun, w0, tol=1e-10, max_iter=80, jac=gjac)
    except ConvergenceError as exc:
        raise GenericityError(
            "no generic catastrophe point found for this potential/family"
        ) from exc
    rp = float(res.x[0])
    rm = rp - math.exp(float(res.x[1]))
    if rp - rm < 0.1:
        raise GenericityError(
            "catastrophe solve collapsed onto the degenerate diagonal r_+ = r_-"
        )
    t_c = t_of(rp, rm)
    if t_c <= 0.0:
        raise GenericityError("catastrophe time is not positive")
    lp, lm = _lambdas(rp, rm)
    if family == "plus":
        x_c = lp * t_c + float(f_p(rp, rm))
        lam_brk_slope, lam_gap = -0.25, lp - lm
    else:
        x_c = lm * t_c + float(f_m(rp, rm))
        lam_brk_slope, lam_gap = -0.25, lm - lp

    quart = float(f_brk4(rp, rm))
    c1 = float(f_oth2(rp, rm)) - t_c / 4.0
    if abs(quart) < 1e-10 or abs(c1) < 1e-10:
        raise GenericityError("higher-order nondegeneracy fails at the located point")
    c2 = lam_brk_slope / lam_gap
    c3 = quart / 6.0
    c4 = ((rp - rm) / (lm - lp) if family == "plus" else (rm - rp) / (lp - lm)) / 192.0
    return CatastropheData(
        r_plus=rp, r_minus=rm, t_c=t_c, x_c=x_c, c1=c1, c2=c2, c3=c3, c4=c4
    )
