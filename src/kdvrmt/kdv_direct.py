"""Direct pseudospectral solver for u_t + 6 u u_x + eps^2 u_xxx = 0.

Periodic surrogate of the whole-line problem: the decaying profile is
wrapped onto [-P, P] with 2^m Fourier modes.  Time stepping is ETDRK4
(Cox & Matthews 2002): the stiff linear part L = i eps^2 k^3 is
integrated exactly, and only the dealiased quadratic term is stepped
explicitly, with coefficients from a contour mean over a full circle
(Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005).  Step sizes sit
on the dyadic ladder t_final / 2^j and are chosen by step doubling with
local extrapolation.  In this form the truncated system conserves mass
exactly and the L2 norm up to time integration error, which is what the
conservation budget checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError, StabilityError
from .hopf import InitialData

__all__ = ["KdVField", "solve_kdv", "probe"]

# 32 points on the unit circle, none on the imaginary axis where hL lives
_CONTOUR = np.exp(1j * math.pi * (np.arange(32) + 0.5) / 16.0)


@dataclass(frozen=True)
class KdVField:
    """Snapshot of the dispersive solution on its periodic grid.

    ``err_est`` is the sum of the step-doubling estimates, a bound on the
    time-integration error in max |u|.
    """

    x: np.ndarray
    u: np.ndarray
    eps: float
    t: float
    P: float
    mass_drift: float
    l2_drift: float
    n_steps: int
    err_est: float = 0.0

    @property
    def dx(self) -> float:
        return 2.0 * self.P / self.u.size


def _auto_m(eps: float, big_p: float) -> int:
    for m in range(6, 17):
        if 2.0 * big_p / 2**m < eps / 6.0:
            return m
    raise ResolutionError(
        f"eps = {eps} needs more than 2^16 points on [-{big_p}, {big_p}]; "
        "outside the desk-scale regime"
    )


def _etd_coefficients(h: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """ETDRK4 coefficients (E, E_half, Q, f1, f2, f3) for a column h of steps.

    Means over a full circle around each h L (L is imaginary, so the real
    part of a half circle would be wrong), walked one point at a time.
    """
    hl = h * lin
    q, f1, f2, f3 = (np.zeros_like(hl) for _ in range(4))
    for r in _CONTOUR:
        z = hl + r
        ez = np.exp(z)
        z3 = z**3
        q += (np.exp(z / 2.0) - 1.0) / z
        f1 += (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3
        f2 += (2.0 + z + ez * (z - 2.0)) / z3
        f3 += (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3
    s = h / _CONTOUR.size
    return np.array([np.exp(hl), np.exp(hl / 2.0), q * s, f1 * s, f2 * s, f3 * s])


def _etdrk4(v, nv, c, nonlinear):
    """One ETDRK4 step from v, with nv = nonlinear(v) and coefficients c."""
    e, e_half, q, f1, f2, f3 = c
    ev = e_half * v
    a = ev + q * nv
    na = nonlinear(a)
    b = ev + q * na
    nb = nonlinear(b)
    nc = nonlinear(e_half * a + q * (2.0 * nb - nv))
    return e * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc


def solve_kdv(
    data: InitialData | None,
    eps: float,
    t_final: float,
    big_p: float = 15.0,
    m: int | None = None,
    rtol: float = 5e-13,
    atol: float = 1e-14,
    u0_values: np.ndarray | None = None,
) -> KdVField:
    """Evolve the initial profile to t_final at dispersion parameter eps.

    ``data`` supplies u0 (alternatively pass raw grid values through
    ``u0_values`` for manufactured tests).  Preconditions enforced: the
    profile must be negligible at the periodic wrap (|u0(+-P)| < 1e-8)
    and the grid spacing must resolve the eps-scale oscillations
    (spacing < eps/4).

    Tolerances are norm-wise: a step h is accepted when the local error
    of two h/2 steps, (two - one) / 15, has Fourier coefficient 2-norm
    at most ``atol * sqrt(n) + rtol * |u_hat|``.  By Parseval ``atol``
    bounds (within sqrt(2)) the local error's Euclidean norm over the n
    grid values and ``rtol`` its size relative to u.  The extrapolated value is kept, so
    ``err_est`` over-estimates the error of the returned field.

    Raises
    ------
    ResolutionError
        If the requested/auto grid cannot resolve eps, or the final
        spectrum carries a tail above 1e-6 of its peak.
    StabilityError
        On blow-up (non-finite or runaway amplitude), or when the step
        budget runs out.
    """
    from scipy import fft as sfft

    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if eps < 0.02:
        raise ResolutionError("eps below 0.02 is outside the desk-scale regime")
    if m is None:
        m = _auto_m(eps, big_p)
    if m > 16:
        raise ResolutionError("m > 16 is outside the desk-scale regime")
    n = 2**m
    dx = 2.0 * big_p / n
    if dx >= eps / 4.0:
        raise ResolutionError(
            f"grid spacing {dx:.3g} does not resolve eps/4 = {eps / 4.0:.3g}"
        )
    x = -big_p + dx * np.arange(n)
    if u0_values is not None:
        u = np.asarray(u0_values, dtype=float).copy()
        if u.size != n:
            raise DomainError("u0_values size must match the grid")
    else:
        u = np.asarray(data.u0(x), dtype=float).copy()
        if max(abs(float(data.u0(big_p))), abs(float(data.u0(-big_p)))) > 1e-8:
            raise DomainError("initial profile does not decay at the periodic wrap")
    if t_final < 0.0:
        raise DomainError("t_final must be >= 0")

    k = 2.0 * math.pi * sfft.rfftfreq(n, d=dx)
    lin = 1j * eps**2 * k**3
    dealias = np.ones(k.size)
    dealias[k > (2.0 / 3.0) * k[-1]] = 0.0
    grad = -3j * k * dealias

    v = sfft.rfft(u)
    mass0 = v[0].real * dx
    l2_0 = float(np.sum(u * u)) * dx
    amp_cap = 10.0 * (1.0 + float(np.max(np.abs(u))))

    def nonlinear(v_hat):
        # rows of a stacked v_hat are independent fields
        u_phys = sfft.irfft(v_hat * dealias, n)
        return grad * sfft.rfft(u_phys * u_phys)

    # level j steps h = t_final / 2^j; each cached set holds the
    # coefficients for h and h/2, stacked so both run as one batch
    coeffs = {}

    def at(level):
        if level not in coeffs:
            h = t_final / 2.0**level
            coeffs[level] = _etd_coefficients(np.array([[h], [h / 2.0]]), lin)
        return coeffs[level]

    level = 0
    while t_final > 1e-3 * 2**level:
        level += 1
    pos = 0  # t = pos * t_final / 2^level
    abs_tol = atol * math.sqrt(n)
    err_est = 0.0
    n_steps = attempts = 0
    while t_final > 0.0 and pos < 2**level:
        # a rejected non-finite trial halves the step, down to a floor
        if attempts == 2_000_000 or level > 40:
            raise StabilityError(f"step budget exhausted at t = {t_final * pos / 2**level:.6f}")
        attempts += 1
        c = at(level)
        nv = nonlinear(v)
        full, mid = _etdrk4(v, nv, c, nonlinear)
        two = _etdrk4(mid, nonlinear(mid), c[:, 1], nonlinear)
        corr = (two - full) / 15.0
        corr_norm = float(np.linalg.norm(corr))
        err = corr_norm / (abs_tol + rtol * float(np.linalg.norm(v)))
        if err <= 1.0:
            v = two + corr
            pos += 1
            n_steps += 1
            err_est += corr_norm
            if not np.all(np.isfinite(v)):
                raise StabilityError(f"non-finite spectrum at t = {t_final * pos / 2**level:.6f}")
            # twice the step raises the error 32-fold: try it if that fits
            if err < 1.0 / 64.0 and pos % 2 == 0 and level > 0:
                level -= 1
                pos //= 2
        else:
            level += 1
            pos *= 2

    u_final = sfft.irfft(v, n)
    if not np.all(np.isfinite(u_final)) or np.max(np.abs(u_final)) > amp_cap:
        raise StabilityError("solution blew up")

    spec = np.abs(v)
    kept = spec[dealias > 0.0]
    tail = float(np.max(kept[int(0.8 * kept.size):]))
    if tail > 1e-6 * float(np.max(spec)):
        raise ResolutionError(
            f"spectral tail {tail:.3e} above 1e-6 of peak {float(np.max(spec)):.3e}; "
            "increase m or P"
        )

    mass_drift = abs(v[0].real * dx - mass0) / max(1.0, abs(mass0))
    l2_final = float(np.sum(u_final**2)) * dx
    l2_drift = abs(l2_final - l2_0) / max(1e-30, abs(l2_0))
    # |e(x)| <= sqrt(2/n) |e_hat| for a real field on n points
    return KdVField(
        x=x, u=u_final, eps=eps, t=t_final, P=big_p, mass_drift=mass_drift,
        l2_drift=l2_drift, n_steps=n_steps, err_est=err_est * math.sqrt(2.0 / n),
    )


def probe(field: KdVField, x) -> float | np.ndarray:
    """Band-limited (trigonometric) interpolation of the field at x."""
    from scipy import fft as sfft

    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < -field.P) or np.any(x_arr > field.P):
        raise DomainError("probe point outside the periodic domain")
    n = field.u.size
    c = sfft.rfft(field.u)
    k = 2.0 * math.pi * sfft.rfftfreq(n, d=field.dx)
    shift = x_arr[:, None] - (-field.P)
    basis = np.exp(1j * shift * k[None, :])
    # interior modes count twice (conjugate pairs), edges once
    w = np.full(k.size, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    vals = (basis * (w * c)[None, :]).real.sum(axis=1) / n
    if np.ndim(x) == 0:
        return float(vals[0])
    return vals
