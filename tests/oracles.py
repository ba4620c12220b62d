"""Independent reference computations used to freeze expected values.

Every oracle here deliberately avoids the code path it checks: series
summation instead of library calls, mpmath's AGM for the complete
elliptic integrals, dense scans and golden-section search instead of
Newton, adaptive quadrature with explicit substitutions instead of fixed
Gauss rules, moment determinants instead of the Stieltjes loop, time
stepping instead of the spectral map, the nested trailing integral instead
of its swapped form, spline derivatives for the Toda continuum limit, IVP
shooting instead of collocation.  The one exception, ``jacobi_rule_table``, calls
scipy on purpose: it writes the table of scipy rules that ``core``
serves, and checks it bit for bit.
"""
from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.special import airy


def airy_maclaurin(s: float, n_terms: int = 120) -> float:
    """Ai(s) from the Maclaurin series, summed to machine precision."""
    c1 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
    c2 = 1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
    s3 = s**3
    f_term, f_sum = 1.0, 1.0
    g_term, g_sum = s, s
    for k in range(n_terms):
        f_term *= s3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= s3 / ((3 * k + 3) * (3 * k + 4))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) < 1e-20 * abs(f_sum) and abs(g_term) < 1e-20 * max(1e-300, abs(g_sum)):
            break
    return c1 * f_sum - c2 * g_sum


def elliptic_by_mpmath(s: float) -> tuple[float, float]:
    """K(s), E(s) from mpmath's arbitrary-precision AGM (parameter s^2)."""
    return float(mpmath.ellipk(s * s)), float(mpmath.ellipe(s * s))


def theta3_direct(z: float, im_tau: float, n_terms: int = 400) -> float:
    """Two-sided direct summation of the defining theta series."""
    total = 0.0 + 0.0j
    for n in range(-n_terms, n_terms + 1):
        total += np.exp(1j * math.pi * n * n * (1j * im_tau) + 2j * math.pi * n * z)
    assert abs(total.imag) < 1e-13
    return float(total.real)


def golden_section_max(f, a: float, b: float, tol: float = 1e-13) -> float:
    """Golden-section search for the maximizer of f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def hopf_dense_scan(x: float, t: float, data, n: int = 10**7) -> float:
    """Characteristic root by dense-grid bisection over the foot point."""
    lo, hi = x - 1e-9, x + 6.0 * t + 1e-9
    grid = np.linspace(lo, hi, n)
    g = x - 6.0 * t * np.asarray(data.u0(grid)) - grid
    sign_change = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    assert sign_change.size == 1, "oracle expects a single-valued region"
    i = sign_change[0]
    a, b = grid[i], grid[i + 1]
    for _ in range(80):
        mid = 0.5 * (a + b)
        gm = x - 6.0 * t * float(data.u0(mid)) - mid
        ga = x - 6.0 * t * float(data.u0(a)) - a
        if ga * gm <= 0.0:
            b = mid
        else:
            a = mid
    return float(data.u0(0.5 * (a + b)))


def theta_by_substitution(lam: float, u: float, data) -> float:
    """theta(lam; u) via adaptive quadrature after m = 1 - tau^2."""

    def integrand(tau):
        m = 1.0 - tau * tau
        z = 0.5 * (1.0 + m) * lam + 0.5 * (1.0 - m) * u
        return 2.0 * float(data.f_L_prime(z))

    val, _ = quad(integrand, 0.0, math.sqrt(2.0), epsabs=1e-13, epsrel=1e-13, limit=200)
    return val / (2.0 * math.sqrt(2.0))


def nested_trailing_integral(u: float, v: float, t: float, data) -> float:
    """int_u^v (6t + theta(lam; u)) sqrt(lam - u) dlam, the nested definition.

    A fixed 384-point Gauss-Jacobi (0, 1/2) rule from scipy over scalar
    ``hopf.theta_of``: the order of integration ``trailing_integral`` swaps
    is kept, so its one closed-form integrand is checked against the
    integral it replaces.
    """
    from scipy.special import roots_jacobi

    from kdvrmt.hopf import theta_of

    x, w = roots_jacobi(384, 0.0, 0.5)
    lam = u + (v - u) * 0.5 * (1.0 + x)
    vals = np.array([6.0 * t + theta_of(float(z), u, data) for z in lam])
    return (0.5 * (v - u)) ** 1.5 * float(w @ vals)


def edge_grid_scan(t: float, data, kind: str, n_coarse: int = 81, n_refine: int = 4):
    """Edge point (u, v) by nested 2-d grid scan on the defining system.

    Minimizes |6t + theta(v;u)| + |second condition| over a shrinking
    (u, v) window, with the quadratures evaluated by dense broadcasting
    over the grid; completely independent of the Newton continuation.
    """
    from scipy.special import roots_jacobi

    from kdvrmt import hopf as hopf_mod

    cp = hopf_mod.breaking_point(data)
    m_sqrt, w_sqrt = roots_jacobi(48, -0.5, 0.0)  # weight (1-m)^{-1/2}
    m_15, w_15 = roots_jacobi(48, 0.0, 0.5)  # weight (1+m)^{1/2}
    inv_2sqrt2 = 1.0 / (2.0 * math.sqrt(2.0))

    def theta_grid(lam, u):
        # lam, u broadcast arrays -> theta and d theta / d lam on the grid
        z = 0.5 * (1.0 + m_sqrt) * lam[..., None] + 0.5 * (1.0 - m_sqrt) * u[..., None]
        th = inv_2sqrt2 * np.asarray(data.f_L_prime(z)) @ w_sqrt
        thv = inv_2sqrt2 * (
            (np.asarray(data.f_L_second(z)) * (0.5 * (1.0 + m_sqrt))) @ w_sqrt
        )
        return th, thv

    def trailing_int_grid(u, v):
        out = np.empty_like(u)
        for i in range(u.shape[0]):  # chunk to bound the broadcast size
            ui, vi = u[i], v[i]
            lam = ui[:, None] + (vi - ui)[:, None] * 0.5 * (1.0 + m_15)
            z = (
                0.5 * (1.0 + m_sqrt)[None, None, :] * lam[..., None]
                + 0.5 * (1.0 - m_sqrt)[None, None, :] * ui[:, None, None]
            )
            theta_lam = inv_2sqrt2 * np.asarray(data.f_L_prime(z)) @ w_sqrt
            out[i] = ((vi - ui) * 0.5) ** 1.5 * ((6.0 * t + theta_lam) @ w_15)
        return out

    if kind == "leading":
        u_lo, u_hi = cp.u_c + 1e-4, -1e-3
        v_lo, v_hi = -1.0 + 1e-3, cp.u_c - 1e-4
    else:
        u_lo, u_hi = -1.0 + 1e-3, cp.u_c - 1e-4
        v_lo, v_hi = cp.u_c + 1e-4, -1e-3

    best = None
    for _ in range(n_refine):
        us = np.linspace(u_lo, u_hi, n_coarse)
        vs = np.linspace(v_lo, v_hi, n_coarse)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        th, thv = theta_grid(vv, uu)
        r1 = np.abs(6.0 * t + th)
        if kind == "leading":
            r2 = np.abs(thv)
        else:
            r2 = np.abs(trailing_int_grid(uu, vv))
        vals = r1 + r2
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = (us[i], vs[j])
        du = (u_hi - u_lo) / (n_coarse - 1)
        dv = (v_hi - v_lo) / (n_coarse - 1)
        u_lo, u_hi = best[0] - 2 * du, best[0] + 2 * du
        v_lo, v_hi = best[1] - 2 * dv, best[1] + 2 * dv
    return best


def log_potential_oracle(mu, s: float, n: int = 400001) -> float:
    """Log potential by dense midpoint summation with endpoint substitution.

    Uses y = a + (b-a) sin^2(phi) so the sqrt endpoint factors become
    smooth; for interior s the log singularity is subtracted and its
    closed-form integral added back.  Independent of the adaptive
    quadrature in the library.
    """
    a, b = mu.support
    phi = (np.arange(n) + 0.5) * (math.pi / 2.0) / n
    y = a + (b - a) * np.sin(phi) ** 2
    dy = (b - a) * 2.0 * np.sin(phi) * np.cos(phi) * (math.pi / 2.0) / n
    log_term = np.log(np.abs(s - y))
    if a < s < b:
        rho_s = float(mu.density(s))
        smooth = (mu.density(y) - rho_s) * log_term
        closed = (s - a) * math.log(s - a) + (b - s) * math.log(b - s) - (b - a)
        return float(np.sum(smooth * dy)) + rho_s * closed
    return float(np.sum(mu.density(y) * log_term * dy))


def hankel_recurrence(coeffs, n_weight: int, n_top: int, dps: int = 80, radius: float = 12.0):
    """Recurrence coefficients from Hankel determinants of exact moments.

    Monic-polynomial route: gamma_n^2 = D_{n+1} D_{n-1} / D_n^2 and
    beta_n from the shifted-column determinants; everything in mpmath,
    fully independent of the discretized Stieltjes procedure.
    """
    import mpmath as mp

    with mp.workdps(dps):
        c = [mp.mpf(float(x)) for x in coeffs]

        def weight(s):
            acc = mp.mpf(0)
            for ci in reversed(c):
                acc = acc * s + ci
            return mp.e ** (-n_weight * acc)

        moments = [
            mp.quad(lambda s: s**k * weight(s), [-radius, 0, radius])
            for k in range(2 * n_top + 3)
        ]

        def det_d(n):
            if n == 0:
                return mp.mpf(1)
            return mp.det(mp.matrix([[moments[i + j] for j in range(n)] for i in range(n)]))

        def det_e(n):
            if n == 0:
                return mp.mpf(0)
            cols = list(range(n - 1)) + [n]
            return mp.det(mp.matrix([[moments[i + j] for j in cols] for i in range(n)]))

        gammas = [
            float(mp.sqrt(det_d(n + 1) * det_d(n - 1) / det_d(n) ** 2))
            for n in range(1, n_top + 1)
        ]
        betas = []
        for n in range(n_top + 1):
            c_n = -det_e(n) / det_d(n)
            c_n1 = -det_e(n + 1) / det_d(n + 1)
            betas.append(float(c_n - c_n1))
    return gammas, betas


def onecut_scan_starts(f, n_keep: int = 8):
    """The one-cut seed scan as a scalar loop over the 65 x 65 grid.

    Scores each (center, log half-width) point by |r_0| + |r_1| of the
    moment conditions and keeps the best ``n_keep`` in grid order among
    equal scores (Python's sort is stable).
    """
    from kdvrmt import rmt_eq

    scored = []
    for c in np.linspace(-4.0, 4.0, 65):
        for lw in np.linspace(math.log(0.05), math.log(8.0), 65):
            r = rmt_eq._endpoint_conditions(f, c, math.exp(lw))
            scored.append((abs(r[0]) + abs(r[1]), float(c), float(lw)))
    scored.sort(key=lambda row: row[0])
    return [(c, lw) for _, c, lw in scored[:n_keep]]


def _hierarchy_rhs(gamma, beta, eps: float, k: int):
    """Right-hand side of the truncated k-th hierarchy flow through Q^k."""
    m = gamma.size
    q = np.diag(beta) + np.diag(gamma, 1) + np.diag(gamma, -1)
    qk = np.linalg.matrix_power(q, k)
    diag = np.diag(qk)
    sub = np.diag(qk, -1)
    dgamma = gamma * (diag[:-1] - diag[1:]) / (2.0 * eps)
    # beta_n: gamma_n [Q^k]_{n,n-1} - gamma_{n+1} [Q^k]_{n+1,n}; Dirichlet ends
    left = np.zeros(m + 1)
    left[1:] = gamma * sub
    right = np.zeros(m + 1)
    right[:-1] = gamma * sub
    return dgamma, (left - right) / eps


def toda_rk4(state, k: int, dt: float, steps: int):
    """(gamma, beta) after ``steps`` classical RK4 steps of the k-th flow."""
    gamma, beta, eps = state.gamma.copy(), state.beta.copy(), state.eps
    for _ in range(steps):
        k1g, k1b = _hierarchy_rhs(gamma, beta, eps, k)
        k2g, k2b = _hierarchy_rhs(gamma + 0.5 * dt * k1g, beta + 0.5 * dt * k1b, eps, k)
        k3g, k3b = _hierarchy_rhs(gamma + 0.5 * dt * k2g, beta + 0.5 * dt * k2b, eps, k)
        k4g, k4b = _hierarchy_rhs(gamma + dt * k3g, beta + dt * k3b, eps, k)
        gamma = gamma + dt / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        beta = beta + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return gamma, beta


def continuum_residual(state) -> float:
    """Defect of the first-order continuum truncation on smooth interpolants.

    The lattice right-hand sides (v_n - v_{n-1})/eps and
    (e^{u_{n+1}} - e^{u_n})/eps are compared against v_x - (eps/2) v_xx
    and e^u u_x + (eps/2)(e^u)_xx evaluated by differentiating cubic
    splines through the lattice data; for smooth profiles the defect is
    O(eps^2).  Nodes within 12% of the lattice of either truncation end
    are excluded.
    """
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


def hm_center_by_shooting() -> float:
    """q(0) of the Hastings-McLeod solution by one backward IVP.

    The solution decays like Ai, so it starts from q = Ai, q' = Ai' at
    s = 8 (the cubic term is O(Ai^3), below 1e-21 there) and runs
    DOP853 back to 0.  Backward, the Bi component of any error decays,
    so the run is stable.
    """
    from kdvrmt.errors import ConvergenceError

    ai, ai_prime, _, _ = airy(8.0)
    sol = solve_ivp(
        lambda s, y: [y[1], s * y[0] + 2.0 * y[0] ** 3],
        (8.0, 0.0),
        [float(ai), float(ai_prime)],
        method="DOP853",
        rtol=1e-12,
        atol=1e-20,
    )
    if not sol.success:
        raise ConvergenceError(f"Hastings-McLeod IVP failed: {sol.message}")
    return float(sol.y[0, -1])


@functools.cache
def pi2_center_by_shooting() -> float:
    """U(0, 0) by multiple shooting, matched across interior nodes.

    Both-end single shooting cannot cross the exponential dichotomy of
    the linearized equation on a domain long enough for the tail data to
    be accurate, so [-10, 3.2] is split into 20 short segments with the
    full state at each interface as unknowns; damped Newton enforces
    segment continuity plus the two-term tail values of (U, U') at both
    ends.  Left-end data errors decay inward only at the slow oscillatory
    rate, hence the long left side: ten 0.68 segments out to -10, then
    ten 0.64 segments across [-3.2, 3.2].  Every interface state is
    seeded from the dispersionless profile -(6X)^{1/3}.  Each segment's
    IVP carries the 4 x 4 fundamental matrix of the linearized equation
    (20 ODEs), which gives that segment's transition block of the Newton
    Jacobian.  Independent of the collocation path: IVP integrations plus
    small dense Newton solves.  The run takes about a second and its
    value never changes, so it is computed once per process.
    """
    from kdvrmt.errors import ConvergenceError
    from kdvrmt.painleve import pi2_asymptote

    t_param = 0.0

    def rhs(x, y):
        u, u1, u2, u3 = y
        return [u1, u2, u3, 240.0 * (t_param * u - u**3 / 6.0 - (u1**2 + 2 * u * u2) / 24.0 - x)]

    def variational(x, z):
        # state and fundamental matrix (row-major in z[4:]): Phi' = J Phi,
        # where J shifts the rows up and closes with the linearized
        # fourth-derivative row
        u, u1, u2, u3, *phi = z.tolist()
        a0 = 240.0 * t_param - 120.0 * u * u - 20.0 * u2
        closing = [a0 * phi[k] - 20.0 * (u1 * phi[4 + k] + u * phi[8 + k]) for k in range(4)]
        return rhs(x, (u, u1, u2, u3)) + phi[4:] + closing

    blow = lambda x, y: abs(y[0]) - 50.0
    blow.terminal = True

    def propagate(x0, x1, state):
        """End state of one segment and its transition block."""
        z0 = np.concatenate([state, np.eye(4).ravel()])
        sol = solve_ivp(
            variational, (x0, x1), z0, method="DOP853", rtol=1e-12, atol=1e-13, events=[blow]
        )
        phi = sol.y[4:, -1].reshape(4, 4)
        if (x1 > x0 and sol.t[-1] < x1) or (x1 < x0 and sol.t[-1] > x1):
            return np.full(4, 1e6 * (abs(x1 - sol.t[-1]) + 1.0)), phi
        return sol.y[:4, -1], phi

    nodes = np.concatenate([np.linspace(-10.0, -3.2, 11)[:-1], np.linspace(-3.2, 3.2, 11)])
    n_seg = len(nodes) - 1
    n_unknown = 4 * (n_seg + 1)
    bc_l = np.array([float(pi2_asymptote(nodes[0], t_param, k)) for k in (0, 1)])
    bc_r = np.array([float(pi2_asymptote(nodes[-1], t_param, k)) for k in (0, 1)])

    def residual(st):
        res = [st[0, :2] - bc_l]
        blocks = []
        for i in range(n_seg):
            end_state, phi = propagate(nodes[i], nodes[i + 1], st[i])
            res.append(end_state - st[i + 1])
            blocks.append(phi)
        res.append(st[-1, :2] - bc_r)
        return np.concatenate(res), blocks

    safe = np.where(np.abs(nodes) < 0.4, 0.4 * np.sign(nodes) + (nodes == 0.0), nodes)
    states = np.stack(
        [
            -np.cbrt(6.0 * nodes),
            -2.0 * (6.0 * np.abs(safe)) ** (-2.0 / 3.0),
            8.0 * (6.0 * np.abs(safe)) ** (-5.0 / 3.0) * np.sign(safe),
            -80.0 * (6.0 * np.abs(safe)) ** (-8.0 / 3.0),
        ],
        axis=1,
    )
    res, blocks = residual(states)
    norm = float(np.max(np.abs(res)))
    for _ in range(50):
        if norm <= 2e-10:
            break
        jac = np.zeros((n_unknown, n_unknown))
        jac[0, 0] = 1.0
        jac[1, 1] = 1.0
        jac[n_unknown - 2, 4 * n_seg + 0] = 1.0
        jac[n_unknown - 1, 4 * n_seg + 1] = 1.0
        for i, phi in enumerate(blocks):
            jac[2 + 4 * i : 6 + 4 * i, 4 * i : 4 * (i + 1)] = phi
            jac[2 + 4 * i : 6 + 4 * i, 4 * (i + 1) : 4 * (i + 2)] = -np.eye(4)
        try:
            step_vec = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("multiple-shooting Jacobian is singular") from exc
        lam = 1.0
        for _ in range(25):
            trial = states - lam * step_vec.reshape(n_seg + 1, 4)
            res_try, blocks_try = residual(trial)
            norm_try = float(np.max(np.abs(res_try)))
            if math.isfinite(norm_try) and norm_try < norm:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(f"multiple-shooting line search stalled at {norm:.2e}")
        states, res, blocks, norm = trial, res_try, blocks_try, norm_try
    else:
        raise ConvergenceError(f"multiple shooting stalled at residual {norm:.2e}")

    i_mid = int(np.argmin(np.abs(nodes)))
    if abs(nodes[i_mid]) < 1e-12:
        return float(states[i_mid, 0])
    i0 = i_mid if nodes[i_mid] < 0.0 else i_mid - 1
    sol = solve_ivp(rhs, (nodes[i0], 0.0), states[i0], method="DOP853", rtol=1e-13, atol=1e-14)
    return float(sol.y[0, -1])


def jacobi_rule_table() -> dict:
    """The Gauss-Jacobi ladders of ``core._JACOBI_LADDERS``, built by scipy.

    One (2, n) array [nodes; weights] per rule, named as ``core`` looks it
    up, plus ``scipy_version``: the contents of ``_jacobi_rules.npz``.
    """
    import scipy
    from scipy.special import roots_jacobi

    from kdvrmt import core

    table = {"scipy_version": np.array(scipy.__version__)}
    for (alpha, beta), ladder in core._JACOBI_LADDERS.items():
        for n in ladder:
            table[core._jacobi_table_name(n, alpha, beta)] = np.stack(roots_jacobi(n, alpha, beta))
    return table


def write_jacobi_rule_table() -> None:
    """Rewrite ``src/kdvrmt/_jacobi_rules.npz`` from the installed scipy."""
    from kdvrmt import core

    np.savez(core._JACOBI_TABLE, **jacobi_rule_table())
