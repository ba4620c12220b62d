"""Special functions, from scipy.special where it has them, and generic solvers.

Everything here is a pure function of its inputs, and the package's two
solver primitives live here alone: ``doubling_quadrature`` climbs the
Gauss-Jacobi ladders of ``_jacobi_rules.npz`` (``roots_jacobi``'s own output,
read on first use) to a 1e-10 stop, and ``newton_solve`` is the one damped
Newton loop.  It hands ``jac(x, fx)`` the residual it holds, takes the
linear step from ``solve`` (dense for the edge, Toda and one-cut systems,
banded for ``painleve``'s collocation), and stops at the rounding floor of
the residual.  The bounded ``lru_cache``s under the edge kernels, this
module's read-only rules and ``hopf``'s memo of scalar theta values, hand
out no shared mutable object, so concurrent use from several threads is
safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special as sspecial

from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    SingularJacobianError,
)

__all__ = [
    "QuadratureRule",
    "NewtonResult",
    "airy",
    "complete_elliptic",
    "theta3",
    "doubling_quadrature",
    "gauss_jacobi_rule",
    "newton_solve",
    "sech2",
    "sech2_train",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a fixed quadrature rule.

    Both arrays are read-only copies, so a cached rule can be shared.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.nodes.size < 1:
            raise DomainError("quadrature rule needs at least one node")
        if np.any(self.weights <= 0.0):
            raise DomainError("quadrature weights must be positive")


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual_norm: float


def airy(s: float) -> float:
    """Airy function Ai(s) for finite real s.

    Backed by the scipy implementation, which is accurate to machine
    precision on the range used here; the defining-ODE and series checks
    live in the test suite.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError("airy requires finite argument")
    return float(sspecial.airy(s)[0])


def complete_elliptic(s: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(s), E(s)) in the modulus convention.

    K(s) = int_0^{pi/2} (1 - s^2 sin^2 t)^{-1/2} dt and similarly E.
    K is taken from the complementary parameter 1 - s^2 = (1 - s)(1 + s),
    so it keeps its relative accuracy as s -> 1.

    Raises
    ------
    DomainError
        If s >= 1 (K diverges there; for the elliptic ansatz this is the
        soliton degeneration beta_1 = beta_2).
    """
    s = float(s)
    if not 0.0 <= s < 1.0:
        raise DomainError(f"complete_elliptic requires 0 <= s < 1, got {s}")
    return float(sspecial.ellipkm1((1.0 - s) * (1.0 + s))), float(sspecial.ellipe(s * s))


def theta3(z: float, tau: complex, dz: int = 0) -> float:
    """Jacobi theta function with unit period in z.

    theta(z; tau) = sum_n exp(pi i n^2 tau + 2 pi i n z), restricted here
    to purely imaginary tau = i*T with T > 0, where the series is real:

        theta = 1 + 2 sum_{n>=1} exp(-pi T n^2) cos(2 pi n z).

    ``dz`` selects the analytic z-derivative of that order (term-by-term
    differentiation of the series).  The sum stops where every later term
    of the differentiated series is below 1e-17, comfortably inside the
    advertised 1e-14.
    """
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise DomainError("theta3 requires Im(tau) > 0")
    if abs(tau.real) > 1e-13:
        raise DomainError("theta3 implemented for purely imaginary tau only")
    if dz < 0:
        raise DomainError(f"theta3 derivative order must be >= 0, got {dz}")
    big_t = tau.imag
    # 2 exp(-pi T n^2) (2 pi n)^dz < 1e-17 for every n > n_top, since
    # 2 pi n <= 2 pi 4000 up to the cap
    n_top = math.sqrt((math.log(2e17) + dz * math.log(8000.0 * math.pi)) / (math.pi * big_t))
    if not n_top <= 4000.0:
        raise AccuracyError("theta3 series needs over 4000 terms; tau too close to real axis")
    n = np.arange(1, math.ceil(n_top) + 1)
    k = 2.0 * math.pi * n
    terms = 2.0 * np.exp(-math.pi * big_t * n * n) * k**dz * (1j**dz * np.exp(1j * k * float(z))).real
    # summed in the order of n, from the n = 0 term (1 before differentiation)
    return float(np.cumsum(np.r_[dz == 0, terms])[-1])


# (alpha, beta) -> the node counts doubling_quadrature climbs, served from
# _jacobi_rules.npz.  roots_jacobi is O(n^2) per rule, so each process
# would otherwise rebuild them; the table holds its exact output.
_JACOBI_LADDERS = {
    (-0.5, 0.0): (48, 96, 192, 384, 768, 1536, 3072),
    (0.0, 0.5): (96, 192, 384, 768),
}
_JACOBI_TABLE = Path(__file__).with_name("_jacobi_rules.npz")


def _jacobi_table_name(n: int, alpha: float, beta: float) -> str:
    """Name of the (2, n) array [nodes; weights] of one rule in the table."""
    return f"n{n}_a{float(alpha):g}_b{float(beta):g}"


@lru_cache(maxsize=1)
def _jacobi_table() -> dict:
    with np.load(_JACOBI_TABLE) as npz:
        return {name: npz[name] for name in npz.files}


@lru_cache(maxsize=64)
def gauss_jacobi_rule(n: int, alpha: float, beta: float) -> QuadratureRule:
    """n-point Gauss-Jacobi rule for weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Exact for polynomials of degree 2n-1 against that weight; used for
    the inverse-square-root endpoint factors in the edge integrals, and
    with alpha = beta = 0 as the Gauss-Legendre rule.  Rules are cached
    (bounded) and read-only, so repeated calls return the same object.
    The rules of ``_JACOBI_LADDERS`` are read from the table; every other
    rule is built by scipy.
    """
    if n < 1:
        raise DomainError("need n >= 1 nodes")
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError("Jacobi exponents must exceed -1")
    if n in _JACOBI_LADDERS.get((alpha, beta), ()):
        x, w = _jacobi_table()[_jacobi_table_name(n, alpha, beta)]
    elif alpha == 0.0 and beta == 0.0:
        x, w = sspecial.roots_legendre(n)
    else:
        x, w = sspecial.roots_jacobi(n, alpha, beta)
    return QuadratureRule(nodes=x, weights=w)


def doubling_quadrature(alpha: float, beta: float, integrate: Callable, what: str):
    """Climb the ``_JACOBI_LADDERS[(alpha, beta)]`` rules until two agree.

    Returns the first ``integrate(rule)``, a float or an array, within 1e-10
    (max-abs) of its predecessor; at the cap, AccuracyError names ``what``.
    """
    prev = None
    for n in _JACOBI_LADDERS[(alpha, beta)]:
        val = integrate(gauss_jacobi_rule(n, alpha, beta))
        if prev is not None and np.max(np.abs(val - prev)) < 1e-10:
            return val
        prev = val
    raise AccuracyError(f"{what} did not converge under node doubling up to {n} nodes")


def _fd_jacobian(f: Callable, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    n = x.size
    m = fx.size
    jac = np.empty((m, n))
    h = _EPS ** (1.0 / 3.0)
    for j in range(n):
        step = h * max(abs(x[j]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (np.atleast_1d(f(xp)) - np.atleast_1d(f(xm))) / (2.0 * step)
    return jac


def newton_solve(
    f: Callable,
    x0,
    tol: float = 1e-12,
    max_iter: int = 60,
    jac: Callable | None = None,
    bracket: tuple | None = None,
    solve: Callable = np.linalg.solve,
) -> NewtonResult:
    """Damped Newton iteration for F(x) = 0, F: R^k -> R^k, from the 1-d array x0.

    Stops once max |F| <= ``tol``, or at the rounding floor: once a step
    fails to halve a residual already within 100 ``tol``, the better of
    the two iterates is returned.  ``jac(x, fx)`` receives the residual
    fx = F(x) of the same iterate; it defaults to central finite
    differences with step eps^(1/3) * scale.  ``solve(J, fx)`` returns
    the Newton step for whatever matrix form ``jac`` builds (dense by
    default; ``painleve`` passes a banded one).  Trial points are clipped
    to ``bracket = (lo, hi)`` when given.  Identical inputs produce
    identical iterates.

    Raises
    ------
    SingularJacobianError
        If the linearization cannot be solved.
    ConvergenceError
        After ``max_iter`` iterations without meeting ``tol``;
        the exception carries the last iterate.
    """
    x = np.array(x0, dtype=float)

    def fvec(v):
        return np.atleast_1d(np.asarray(f(v), dtype=float))

    fx = fvec(x)
    norm = float(np.max(np.abs(fx)))
    for it in range(max_iter):
        if norm <= tol:
            return NewtonResult(x=x, iterations=it, residual_norm=norm)
        jmat = (
            np.atleast_2d(np.asarray(jac(x, fx), dtype=float))
            if jac is not None
            else _fd_jacobian(fvec, x, fx)
        )
        try:
            step = solve(jmat, fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {it}", last_iterate=x.copy(), iterations=it
            ) from exc
        lam = 1.0
        improved = False
        for _ in range(25):
            x_new = x - lam * step
            if bracket is not None:
                lo, hi = bracket
                x_new = np.clip(x_new, lo, hi)
            try:
                f_new = fvec(x_new)
                n_new = float(np.max(np.abs(f_new)))
            except (ValueError, ArithmeticError):
                # trial left the admissible region; shorten the step
                lam *= 0.5
                continue
            if math.isfinite(n_new) and n_new < norm:
                improved = True
                break
            lam *= 0.5
        if norm <= 100.0 * tol and not (improved and n_new <= 0.5 * norm):
            # a step that fails to halve a residual this small has reached
            # the rounding floor of the residual
            if improved:
                return NewtonResult(x=x_new, iterations=it + 1, residual_norm=n_new)
            return NewtonResult(x=x, iterations=it, residual_norm=norm)
        if not improved:
            raise ConvergenceError(
                "Newton line search stalled", last_iterate=x.copy(), iterations=it
            )
        x, fx, norm = x_new, f_new, n_new
    if norm <= tol:
        return NewtonResult(x=x, iterations=max_iter, residual_norm=norm)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (|F| = {norm:.3e})",
        last_iterate=x.copy(),
        iterations=max_iter,
    )


def sech2(x: float) -> float:
    """sech(x)^2 without overflow for large |x|."""
    ax = abs(x)
    if ax > 350.0:
        return 0.0
    c = math.cosh(ax)
    return 1.0 / (c * c)


def sech2_train(offset: Callable[[int], float]) -> float:
    """Sum of sech^2 over a train of centers, sum_k sech^2(X_k).

    ``offset(k)`` returns X_k.  Within the validity window the X_k
    decrease strictly with k; summation stops once a term on that
    decreasing side falls under 1e-16, or as soon as the sequence
    turns around (the far formal tail where X_k rises again lies outside
    the window and is deliberately not summed).  Both the soliton-train
    edge expansion and the conjectured exterior-point recurrence formula
    evaluate their sums through this one kernel, so matched inputs agree
    bit-for-bit.
    """
    x_cut = 0.5 * math.log(4.0 / 1e-16)  # sech^2 x < 4 e^{-2|x|}
    total = 0.0
    x_prev = math.inf
    for k in range(100000):
        x_k = offset(k)
        if x_k >= x_prev:
            return total
        total += sech2(x_k)
        if x_k <= -x_cut:
            return total
        x_prev = x_k
    raise ConvergenceError("sech2_train did not reach its cutoff", last_iterate=total)
