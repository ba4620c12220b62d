"""Direct pseudospectral solver for u_t + 6 u u_x + eps^2 u_xxx = 0.

Periodic surrogate of the whole-line problem: the decaying profile is
wrapped onto [-P, P] with 2^m Fourier modes.  Time stepping is Krogstad's
ETDRK4 (J. Comput. Phys. 203, 2005): the stiff linear part
L = i eps^2 k^3 is integrated exactly, and only the dealiased quadratic
term is stepped explicitly, with the phi-functions of hL in closed form.
Step sizes sit on the half-octave ladder t_final 2^(-j/2) (the last step
is clipped to land on t_final) and are chosen by step doubling with local
extrapolation.  In this form the truncated system conserves mass exactly
and the L2 norm up to time integration error, which is what the
conservation budget checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError, StabilityError
from .hopf import InitialData

__all__ = ["KdVField", "solve_kdv", "probe"]

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


def _phi(z: np.ndarray) -> list:
    """phi_1, phi_2, phi_3 of z: phi_{k+1} = (phi_k - 1/k!) / z where |z| >= 1,
    else 18 Taylor terms sum_j z^j / (j + k)! (exactly 1, 1/2, 1/6 at z = 0)."""
    small = np.abs(z) < 1.0
    zb = np.where(small, 1.0, z)
    p, out = np.exp(zb), []
    for k in range(1, 4):
        p = (p - 1.0 / math.factorial(k - 1)) / zb
        p[small] = np.polyval([1.0 / math.factorial(j + k) for j in range(17, -1, -1)], z[small])
        out.append(p)
    return out


def _etd_coefficients(h: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Krogstad ETDRK4 coefficients for a column h of steps: e^{hL}, e^{hL/2},
    the stage weights h/2 phi_1(hL/2), h phi_2(hL/2), h phi_1(hL), 2h phi_2(hL)
    and the final weights h (phi_1 - 3 phi_2 + 4 phi_3, 2 phi_2 - 4 phi_3,
    4 phi_3 - phi_2)."""
    z = h * lin
    p1, p2, p3 = _phi(z)
    q1, q2, _ = _phi(z / 2.0)
    return np.array([
        np.exp(z), np.exp(z / 2.0), h / 2.0 * q1, h * q2, h * p1, 2.0 * h * p2,
        h * (p1 - 3.0 * p2 + 4.0 * p3), 2.0 * h * (p2 - 2.0 * p3), h * (4.0 * p3 - p2),
    ])


def _etdrk4(v, nv, c, nonlinear):
    """One Krogstad ETDRK4 step from v, with nv = nonlinear(v) and coefficients c."""
    e, e_half, a1, a2, b1, b2, f1, f2, f3 = c
    ev = e * v
    a = e_half * v + a1 * nv
    na = nonlinear(a)
    nb = nonlinear(a + a2 * (na - nv))
    nc = nonlinear(ev + b1 * nv + b2 * (nb - nv))
    return ev + f1 * nv + f2 * (na + nb) + f3 * nc


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
    ``err_est`` over-estimates the error of the returned field.  Blow-up
    and the spectral tail are checked after every accepted step, so an
    unresolved run fails within a few steps of losing resolution.

    Raises
    ------
    DomainError
        If eps <= 0, t_final < 0 or rtol is below float64 machine epsilon
        (round-off alone exceeds such a tolerance).
    ResolutionError
        If the requested/auto grid cannot resolve eps, or the spectrum
        carries a tail above 1e-6 of its peak after any step.
    StabilityError
        On blow-up (non-finite or runaway amplitude after any step), or
        when the step budget or the step floor t_final 2^-40 is reached.
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
    if t_final < 0.0:
        raise DomainError("t_final must be >= 0")
    if rtol < np.finfo(float).eps:
        raise DomainError(f"rtol {rtol:.3g} is below float64 machine epsilon and cannot be met")
    x = -big_p + dx * np.arange(n)
    if u0_values is not None:
        u = np.asarray(u0_values, dtype=float).copy()
        if u.size != n:
            raise DomainError("u0_values size must match the grid")
    else:
        u = np.asarray(data.u0(x), dtype=float).copy()
        if max(abs(float(data.u0(big_p))), abs(float(data.u0(-big_p)))) > 1e-8:
            raise DomainError("initial profile does not decay at the periodic wrap")

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

    tail_modes = np.flatnonzero(dealias)[int(0.8 * np.count_nonzero(dealias)):]

    def check(v_hat):
        # max |u| <= 2 sum |u_hat| / n, so the inverse transform runs only
        # when that bound fails; NaN fails both tests
        spec = np.abs(v_hat)
        if not (2.0 * float(np.sum(spec)) / n <= amp_cap
                or np.max(np.abs(sfft.irfft(v_hat, n))) <= amp_cap):
            raise StabilityError(f"solution blew up at t = {t_final - left:.6f}")
        tail, peak = float(np.max(spec[tail_modes])), float(np.max(spec))
        if tail > 1e-6 * peak:
            raise ResolutionError(
                f"spectral tail {tail:.3e} above 1e-6 of peak {peak:.3e}; increase m or P"
            )

    # rung j steps h = t_final * 2^(-j/2); each of at most four cached sets
    # holds the coefficients for h and h/2, stacked so both run as one batch
    coeffs = {}

    def at(h):
        if h not in coeffs:
            if len(coeffs) == 4:
                del coeffs[next(iter(coeffs))]
            coeffs[h] = _etd_coefficients(np.array([[h], [h / 2.0]]), lin)
        return coeffs[h]

    rung = 0
    while t_final * 2.0 ** (-rung / 2) > 1e-3:
        rung += 1
    # t / t_final = done[0] + sqrt(2) done[1], both sums exact in floats
    done, left = [0.0, 0.0], t_final
    abs_tol = atol * math.sqrt(n)
    err_est = 0.0
    n_steps = attempts = 0
    while left > 0.0:
        # a rejected non-finite trial shrinks the step, down to a floor
        if attempts == 2_000_000 or rung > 80:
            raise StabilityError(f"step budget exhausted at t = {t_final - left:.6f}")
        attempts += 1
        # the last step is clipped to land on t_final
        h = min(t_final * 2.0 ** (-rung / 2), left)
        c = at(h)
        nv = nonlinear(v)
        full, mid = _etdrk4(v, nv, c, nonlinear)
        two = _etdrk4(mid, nonlinear(mid), c[:, 1], nonlinear)
        corr = (two - full) / 15.0
        corr_norm = float(np.linalg.norm(corr))
        err = corr_norm / (abs_tol + rtol * float(np.linalg.norm(v)))
        if err <= 1.0:
            v = two + corr
            done[rung % 2] += 0.5 ** ((rung + 1) // 2)
            left = 0.0 if h == left else t_final * (1.0 - done[0] - math.sqrt(2.0) * done[1])
            n_steps += 1
            err_est += corr_norm
            check(v)
        # the error scales as h^5: move to the rung of 0.9 err^(-1/5) h,
        # at most one octave either way; a non-finite trial moves one down
        grow = 0.9 * max(err, 1e-3) ** -0.2 if math.isfinite(err) else 0.5
        rung -= max(-2, min(2, math.floor(2.0 * math.log2(grow))))

    check(v)
    u_final = sfft.irfft(v, n)
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
