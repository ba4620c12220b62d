"""Boundary-value solvers for the two Painlevé-type profiles.

Two objects are produced here:

* ``solve_pi2`` - the pole-free real solution U(X, T) of the fourth-order
  ODE  X = T U - [U^3/6 + (U_X^2 + 2 U U_XX)/24 + U_XXXX/240], solved as a
  first-order system with Lobatto-IIIA (MIRK4) collocation on a mesh that
  equidistributes its defect, and Dirichlet data taken from the two-term
  algebraic expansion U ~ -+ (6|X|)^{1/3} -+ (1/3) 6^{2/3} T |X|^{-1/3} at
  the truncation ends.

* ``solve_hastings_mcleod`` - the positive solution of q'' = s q + 2 q^3
  with parabola growth on the left and Airy decay on the right.

Both use the same collocation core, which takes Dirichlet data on some
components at each end and hands its residual and band Jacobian to
``core.newton_solve``.  Its Newton rows run left conditions, interval
blocks, right conditions, so with m components and p left conditions the
Jacobian is banded (l = m - 1 + p, u = 2m - 1 - p: 5/5 for the profile,
2/2 for Hastings-McLeod) and each step is one ``scipy.linalg.solve_banded``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sspecial
from scipy.linalg import solve_banded

from .core import airy, newton_solve
from .errors import AccuracyError, BranchError, ConvergenceError, DomainError

__all__ = [
    "PI2Solution",
    "HMGrid",
    "solve_pi2",
    "solve_hastings_mcleod",
    "eval_pi2",
    "eval_pi2_ext",
    "eval_hm",
    "eval_hm_ext",
    "pi2_asymptote",
    "pi2_solution_cached",
    "default_hm_grid",
]

_SIXTH23 = 6.0 ** (2.0 / 3.0)


# ----------------------------------------------------------------------
# shared MIRK4 collocation core
# ----------------------------------------------------------------------

def _mirk4_newton(f, dfdy, left, right, x, y0, tol=1e-11):
    """Solve the 3-stage Lobatto-IIIA collocation equations by ``newton_solve``.

    ``x``: mesh (M+1,), ``y0``: initial iterate (M+1, m).  ``left`` and
    ``right`` are (components, values) pairs of Dirichlet data at x[0]
    and x[-1], m conditions together.  Returns the converged grid values.
    The scheme per interval is

        y_{i+1} - y_i = h/6 (f_i + 4 f(x_mid, y_mid) + f_{i+1}),
        y_mid = (y_i + y_{i+1})/2 + h/8 (f_i - f_{i+1}),

    i.e. collocation at both ends and the midpoint; fourth order, and the
    natural cubic Hermite interpolant collocates exactly at those points.

    The Newton rows are ordered left conditions, interval blocks, right
    conditions (the almost-block-diagonal order).  With p left conditions
    the Jacobian is then banded with l = m - 1 + p sub- and u = 2m - 1 - p
    superdiagonals, and each step is one ``solve_banded``.
    """
    n_nodes, m = np.shape(y0)
    big_m = n_nodes - 1
    h = np.diff(x)[:, None]
    x_mid = 0.5 * (x[:-1] + x[1:])
    eye = np.eye(m)
    comp_l, val_l = (np.asarray(a) for a in left)
    comp_r, val_r = (np.asarray(a) for a in right)
    p = comp_l.size
    n_lo, n_up = m - 1 + p, 2 * m - 1 - p

    def midpoints(yv):
        fv = f(x, yv)
        return fv, 0.5 * (yv[:-1] + yv[1:]) + (h / 8.0) * (fv[:-1] - fv[1:])

    def residual(flat):
        yv = flat.reshape(n_nodes, m)
        fv, y_mid = midpoints(yv)
        res_i = yv[1:] - yv[:-1] - (h / 6.0) * (fv[:-1] + 4.0 * f(x_mid, y_mid) + fv[1:])
        return np.concatenate([yv[0, comp_l] - val_l, res_i.ravel(), yv[-1, comp_r] - val_r])

    # band storage ab[n_up + row - col, col]: the interval blocks (m x 2m)
    # follow the p left rows; each boundary row holds a constant 1
    shape3 = (big_m, m, m)
    rows_i = p + np.broadcast_to(
        np.arange(big_m)[:, None, None] * m + np.arange(m)[None, :, None], shape3
    ).ravel()
    cols_lo = np.broadcast_to(
        np.arange(big_m)[:, None, None] * m + np.arange(m)[None, None, :], shape3
    ).ravel()
    band_lo = (n_up + rows_i - cols_lo, cols_lo)
    band_hi = (band_lo[0] - m, cols_lo + m)
    ab = np.zeros((n_lo + n_up + 1, n_nodes * m))
    ab[n_up + np.arange(p) - comp_l, comp_l] = 1.0
    ab[n_up + p + np.arange(comp_r.size) - comp_r, big_m * m + comp_r] = 1.0

    def jac(flat, _res):
        yv = flat.reshape(n_nodes, m)
        df = dfdy(x, yv)
        df_mid = dfdy(x_mid, midpoints(yv)[1])
        h3 = h[:, :, None]
        dmid_lo = 0.5 * eye + (h3 / 8.0) * df[:-1]
        dmid_hi = 0.5 * eye - (h3 / 8.0) * df[1:]
        block_lo = -eye - (h3 / 6.0) * (df[:-1] + 4.0 * np.einsum("nij,njk->nik", df_mid, dmid_lo))
        block_hi = eye - (h3 / 6.0) * (df[1:] + 4.0 * np.einsum("nij,njk->nik", df_mid, dmid_hi))
        ab[band_lo] = block_lo.ravel()
        ab[band_hi] = block_hi.ravel()
        return ab

    def solve(band, r):
        return solve_banded((n_lo, n_up), band, r, check_finite=False)

    y = np.asarray(y0, dtype=float).ravel()
    sol = newton_solve(residual, y, tol=tol, max_iter=40, jac=jac, solve=solve)
    return sol.x.reshape(n_nodes, m)


def _fd_weights7(x: np.ndarray):
    """7-point first-derivative weights at the interior nodes x[3:-3].

    Returns ``(idx, w)``, both (len(x) - 6, 7): the derivative of v at
    x[i + 3] is ``(w * v[idx]).sum(axis=1)``.  The weights are those of
    the interpolating sextic on the actual node spacing, so the stencil
    is sixth order on any mesh and, on a uniform one, the classical
    (-1, 9, -45, 0, 45, -9, 1) / (60 h).
    """
    idx = np.arange(3, x.size - 3)[:, None] + np.arange(-3, 4)
    d = np.delete(x[idx] - x[3:-3, None], 3, axis=1)  # the six nonzero offsets
    w = np.empty_like(d)
    for k in range(6):
        others = np.delete(d, k, axis=1)
        w[:, k] = np.prod(others / (others - d[:, k : k + 1]), axis=1) / d[:, k]
    return idx, np.insert(w, 3, -np.sum(1.0 / d, axis=1), axis=1)


def _replay_residual(x: np.ndarray, comp: np.ndarray, target: np.ndarray) -> float:
    """Max defect of d(comp)/dx against its target on interior nodes.

    The derivative is recomputed from the stored grid values with the
    sixth-order 7-point stencil of the actual spacing, independently of
    the collocation scheme, so the number measures how well the returned
    solution actually satisfies the closing equation of the first-order
    system.
    """
    idx, w = _fd_weights7(x)
    d = np.sum(w * comp[idx], axis=1)
    return float(np.max(np.abs(d - target[3:-3])))


def _hermite_eval(x_grid, y, dy, x_eval):
    """Vectorized cubic Hermite evaluation of grid values ``y`` (n,) or (n, m)."""
    x_eval = np.asarray(x_eval, dtype=float)
    idx = np.clip(np.searchsorted(x_grid, x_eval) - 1, 0, x_grid.size - 2)
    h = x_grid[idx + 1] - x_grid[idx]
    th = (x_eval - x_grid[idx]) / h
    h, th = (a.reshape(a.shape + (1,) * (np.ndim(y) - 1)) for a in (h, th))
    h00 = 2 * th**3 - 3 * th**2 + 1
    h10 = th**3 - 2 * th**2 + th
    h01 = -2 * th**3 + 3 * th**2
    h11 = th**3 - th**2
    return h00 * y[idx] + h01 * y[idx + 1] + h * (h10 * dy[idx] + h11 * dy[idx + 1])


def _eval_grid(x_grid, y, dy, x, tail):
    """Hermite interpolant on the symmetric grid, ``tail(x)`` beyond it.

    Returns the values (a float for a scalar ``x``) and whether any point
    fell outside the grid.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    inside = np.abs(x_arr) <= x_grid[-1]
    flag = not inside.all()
    out = np.empty_like(x_arr)
    if inside.any():
        out[inside] = _hermite_eval(x_grid, y, dy, x_arr[inside])
    if flag:
        out[~inside] = tail(x_arr[~inside])
    if scalar:
        return float(out[0]), flag
    return out, flag


# ----------------------------------------------------------------------
# the fourth-order profile U(X, T)
# ----------------------------------------------------------------------

def pi2_asymptote(x, t_param, order=0):
    """Two-term algebraic tail of U(X, T); ``order`` 0 or 1 (d/dX)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    sgn = np.where(x >= 0.0, -1.0, 1.0)
    c_t = _SIXTH23 * t_param / 3.0
    if order == 0:
        return sgn * ((6.0 * ax) ** (1.0 / 3.0) + c_t * ax ** (-1.0 / 3.0))
    if order == 1:
        return -2.0 * (6.0 * ax) ** (-2.0 / 3.0) + (c_t / 3.0) * ax ** (-4.0 / 3.0)
    raise DomainError("order must be 0 or 1")


def _pi2_system(t_param: float):
    """RHS and Jacobian of the first-order form at fixed T (pure closures)."""

    def rhs(x, y):
        y = np.atleast_2d(y)
        u, u1, u2, u3 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
        f4 = 240.0 * (
            t_param * u - u**3 / 6.0 - (u1**2 + 2.0 * u * u2) / 24.0 - np.asarray(x)
        )
        return np.stack([u1, u2, u3, f4], axis=-1)

    def jac(x, y):
        y = np.atleast_2d(y)
        u, u1, u2 = y[..., 0], y[..., 1], y[..., 2]
        n = y.shape[0]
        out = np.zeros((n, 4, 4))
        out[:, 0, 1] = 1.0
        out[:, 1, 2] = 1.0
        out[:, 2, 3] = 1.0
        out[:, 3, 0] = 240.0 * t_param - 120.0 * u**2 - 20.0 * u2
        out[:, 3, 1] = -20.0 * u1
        out[:, 3, 2] = -20.0 * u
        return out

    return rhs, jac


@dataclass(frozen=True)
class PI2Solution:
    """Pole-free solution of the fourth-order profile equation at fixed T.

    Grid values of U and its first four derivatives, plus the replay
    residual of the defining equation at the interior nodes (scaled back
    to the printed form, i.e. divided by 240) and the mismatch against
    the two-term tail at the truncation points.
    """

    T: float
    L: float
    x_grid: np.ndarray
    u: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray
    residual_norm: float
    boundary_mismatch: float


def _solve_pi2_mesh(t_param, x, y_init, tol=1e-11):
    rhs, jac = _pi2_system(t_param)
    ends = np.array([x[0], x[-1]])
    u_l, u_r = pi2_asymptote(ends, t_param)
    d_l, d_r = pi2_asymptote(ends, t_param, 1)
    return _mirk4_newton(
        rhs, jac, ([0, 1], [u_l, d_l]), ([0, 1], [u_r, d_r]), x, y_init, tol=tol
    )


def _pi2_initial_guess(x):
    # the root -(6X)^(1/3) of the dispersionless cubic T u - u^3/6 = X at
    # T = 0; continuation in T handles the rest
    u = -np.cbrt(6.0 * x)
    u1 = np.gradient(u, x)
    u2 = np.gradient(u1, x)
    u3 = np.gradient(u2, x)
    return np.stack([u, u1, u2, u3], axis=1)


# Defect target of the final PI2 mesh: its nodes are placed so that the
# 7-point defect of every component of the first-order system (the closing
# one divided by 240, the printed-equation scale of the replay residual)
# sits near this value.  The replay then lands at 1-2x of it (2.7e-9 at
# most for |T| <= 1 at L = 50, 4.2e-9 for T = 1 at L = 400), inside the
# 1e-8 residual bound of the acceptance criteria.
_DEFECT_TARGET = 2e-9
_DEFECT_SCALE = np.array([1.0, 1.0, 1.0, 1.0 / 240.0])
_MAX_NODES = 320_000


def _coarse_spacing(x, big_l):
    """Node spacing of the continuation mesh, and the widest fine spacing.

    Spacing 0.05 at the center and 0.02 at the ends (the boundary layers
    the two-term tail data leaves are about 0.1 wide), growing by 0.1 per
    unit distance from either, at most 1.
    """
    ax = np.abs(x)
    return np.minimum(np.minimum(0.05 + 0.1 * ax, 0.02 + 0.1 * (big_l - ax)), 1.0)


def _equidistribute(x, rho, n_points=None):
    """Nodes on [x[0], x[-1]] that split the integral of ``rho`` evenly.

    ``rho`` is a density, constant on each interval of ``x``; without
    ``n_points`` every new interval carries an integral of at most one.
    """
    cum = np.concatenate([[0.0], np.cumsum(rho * np.diff(x))])
    if n_points is None:
        n_points = int(math.ceil(cum[-1])) + 1
    if n_points > _MAX_NODES:
        raise DomainError("requested mesh beyond the desk-scale budget; reduce |T| or L")
    nodes = np.interp(np.linspace(0.0, cum[-1], n_points), cum, x)
    nodes[0], nodes[-1] = x[0], x[-1]
    return nodes


def _defect_mesh(x, y, fy, target, big_l, n_points=None):
    """Mesh whose intervals equidistribute the defect of the solution (x, y).

    The defect is the 7-point derivative of each component minus its
    right-hand side ``fy``, scaled by ``_DEFECT_SCALE``; MIRK4 leaves it
    O(h^4), so an interval carrying defect d is split into (d/target)^(1/4)
    parts.  The spacing never exceeds ``_coarse_spacing``.
    """
    idx, w = _fd_weights7(x)
    d = np.abs(np.einsum("ij,ijk->ik", w, y[idx]) - fy[3:-3]) * _DEFECT_SCALE
    d = np.pad(np.max(d, axis=1), 3, mode="edge")
    h = np.diff(x)
    rho = np.maximum(
        (np.maximum(d[:-1], d[1:]) / target) ** 0.25 / h,
        1.0 / _coarse_spacing(x[:-1] + 0.5 * h, big_l),
    )
    return _equidistribute(x, rho, n_points)


def solve_pi2(t_param: float, big_l: float = 50.0, n_points: int | None = None) -> PI2Solution:
    """Solve the fourth-order profile BVP on [-L, L] at parameter T.

    Strategy: continuation in T from 0 in steps of 0.25 (the nonlinear
    problem needs decent initial iterates) on a coarse graded mesh
    (``_coarse_spacing``, a few hundred nodes), then two passes that each
    build a mesh equidistributing the current solution's defect (first
    against 16 times ``_DEFECT_TARGET``, then against it), prolong onto
    it with cubic Hermite interpolation through y' = f(x, y) and polish
    with Newton.  The final mesh is sized so that the replay residual
    sits near ``_DEFECT_TARGET``; ``n_points`` instead fixes its node
    count, with the same grading.

    Raises
    ------
    DomainError
        If L is too small for the two-term tail to be self-consistent
        (correction above 5% of the leading term), or the mesh would
        exceed the desk-scale node budget.
    ConvergenceError
        If Newton fails even under continuation.
    AccuracyError
        If the replay residual exceeds 1e-7 (the defect-sized mesh lands
        it near ``_DEFECT_TARGET``; a fixed ``n_points`` may not).
    """
    t_param = float(t_param)
    if n_points is not None and not 200 <= n_points <= _MAX_NODES:
        raise DomainError(f"need 200 <= n_points <= {_MAX_NODES}")
    if big_l <= 1.0:
        raise DomainError("need L > 1")
    lead = (6.0 * big_l) ** (1.0 / 3.0)
    corr = (_SIXTH23 * abs(t_param) / 3.0) * big_l ** (-1.0 / 3.0)
    if corr > 0.05 * lead:
        raise DomainError(
            f"L={big_l} too small for T={t_param}: tail correction {corr:.3g} "
            f"exceeds 5% of leading term {lead:.3g}"
        )

    s = np.linspace(-big_l, big_l, int(math.ceil(400.0 * big_l)) + 1)
    x = _equidistribute(s, 1.0 / _coarse_spacing(0.5 * (s[:-1] + s[1:]), big_l))
    y = _pi2_initial_guess(x)
    try:
        y = _solve_pi2_mesh(0.0, x, y, tol=1e-10)
        n_steps = int(math.ceil(abs(t_param) / 0.25))
        for j in range(1, n_steps + 1):
            t_j = t_param * j / n_steps
            y = _solve_pi2_mesh(t_j, x, y, tol=1e-10)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"continuation from T=0 failed on the way to T={t_param}; "
            "retry with a finer T path or larger L"
        ) from exc

    rhs, _ = _pi2_system(t_param)
    for target in (16.0 * _DEFECT_TARGET, _DEFECT_TARGET):
        fy = rhs(x, y)
        x_new = _defect_mesh(x, y, fy, target, big_l, n_points)
        y = _solve_pi2_mesh(t_param, x_new, _hermite_eval(x, y, fy, x_new), tol=1e-11)
        x = x_new

    u4 = rhs(x, y)[:, 3]
    resid = _replay_residual(x, y[:, 3], u4) / 240.0
    if resid > 1e-7:
        raise AccuracyError(f"PI2 replay residual {resid:.2e} above tolerance")
    tail = pi2_asymptote(np.array([-big_l, big_l]), t_param)
    mismatch = float(max(abs(y[0, 0] - tail[0]), abs(y[-1, 0] - tail[1])))
    return PI2Solution(
        T=t_param,
        L=big_l,
        x_grid=x,
        u=y[:, 0],
        u1=y[:, 1],
        u2=y[:, 2],
        u3=y[:, 3],
        u4=u4,
        residual_norm=resid,
        boundary_mismatch=mismatch,
    )


def eval_pi2(sol: PI2Solution, x) -> float | np.ndarray:
    """Interpolated U(X); outside the solved domain the tail is used."""
    val, _ = eval_pi2_ext(sol, x)
    return val


def eval_pi2_ext(sol: PI2Solution, x):
    """Like :func:`eval_pi2` but also returns the extrapolation flag."""
    return _eval_grid(sol.x_grid, sol.u, sol.u1, x, lambda xo: pi2_asymptote(xo, sol.T))


def pi2_solution_cached(t_param: float, big_l: float = 50.0, n_points: int | None = None) -> PI2Solution:
    """Memoized ``solve_pi2`` keyed on the exact argument triple.

    The 16 most recently used solutions are kept.
    """
    return _pi2_cached(float(t_param), float(big_l), None if n_points is None else int(n_points))


@lru_cache(maxsize=16)
def _pi2_cached(t_param: float, big_l: float, n_points: int | None) -> PI2Solution:
    return solve_pi2(t_param, big_l, n_points)


# ----------------------------------------------------------------------
# Hastings-McLeod profile q(s)
# ----------------------------------------------------------------------

def _hm_rhs(x, y):
    y = np.atleast_2d(y)
    q, q1 = y[..., 0], y[..., 1]
    return np.stack([q1, np.asarray(x) * q + 2.0 * q**3], axis=-1)


def _hm_jac(x, y):
    y = np.atleast_2d(y)
    q = y[..., 0]
    n = y.shape[0]
    jac = np.zeros((n, 2, 2))
    jac[:, 0, 1] = 1.0
    jac[:, 1, 0] = np.asarray(x) + 6.0 * q**2
    return jac


@dataclass(frozen=True)
class HMGrid:
    """Grid solution of q'' = s q + 2 q^3 on [-S, S], positive branch."""

    s_grid: np.ndarray
    q_values: np.ndarray
    q_prime: np.ndarray
    residual_norm: float


def solve_hastings_mcleod(big_s: float = 10.0, n_points: int = 4001) -> HMGrid:
    """Positive connecting solution with q(-S) = sqrt(S/2), q(S) = Ai(S).

    The positive branch is selected by a positive initial iterate; a
    post-solve negativity check guards against convergence to the
    sign-flipped or singular branches.
    """
    big_s = float(big_s)
    if big_s < 8.0:
        raise DomainError("need S >= 8 so both tails are in their asymptotic regime")
    if n_points < 400:
        raise DomainError("need n_points >= 400")
    s = np.linspace(-big_s, big_s, int(n_points))
    hyp = np.hypot(s, 1.0)
    q0 = np.sqrt((hyp - s) / 4.0)
    q0p = (s / hyp - 1.0) / (8.0 * q0)
    y0 = np.stack([q0, q0p], axis=1)

    left = ([0], [math.sqrt(big_s / 2.0)])
    right = ([0], [airy(big_s)])
    y = _mirk4_newton(_hm_rhs, _hm_jac, left, right, s, y0, tol=1e-12)
    if np.min(y[:, 0]) <= 0.0:
        raise BranchError("solver left the positive Hastings-McLeod branch")
    resid = _replay_residual(s, y[:, 1], s * y[:, 0] + 2.0 * y[:, 0] ** 3)
    if resid > 1e-8:
        raise AccuracyError(f"HM replay residual {resid:.2e} above tolerance")
    return HMGrid(s_grid=s, q_values=y[:, 0], q_prime=y[:, 1], residual_norm=resid)


def eval_hm(grid: HMGrid, s) -> float | np.ndarray:
    val, _ = eval_hm_ext(grid, s)
    return val


def eval_hm_ext(grid: HMGrid, s):
    """Interpolated q(s); beyond the grid the defining tails take over."""
    return _eval_grid(grid.s_grid, grid.q_values, grid.q_prime, s, _hm_tail)


def _hm_tail(s: np.ndarray) -> np.ndarray:
    # Ai(s) on the right, sqrt(-s/2) on the left
    return np.where(s > 0.0, sspecial.airy(s)[0], np.sqrt(np.abs(s) / 2.0))


@lru_cache(maxsize=1)
def default_hm_grid() -> HMGrid:
    """The Hastings-McLeod grid every caller shares, solved once."""
    return solve_hastings_mcleod()
