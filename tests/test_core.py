import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvrmt import core
from kdvrmt.errors import (
    AccuracyError,
    AmbiguityError,
    ConvergenceError,
    DomainError,
    SingularJacobianError,
)

from oracles import airy_maclaurin, elliptic_by_mpmath, jacobi_rule_table, theta3_direct


class TestAiry:
    def test_value_at_zero(self):
        expected = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
        assert core.airy(0.0) == pytest.approx(expected, rel=1e-14)
        assert core.airy(0.0) == pytest.approx(airy_maclaurin(0.0), rel=1e-14)

    def test_monotone_decay_positive_axis(self):
        assert core.airy(10.0) < core.airy(5.0) < core.airy(1.0)

    @pytest.mark.parametrize("s", [-2.0, 0.0, 2.0])
    def test_defining_ode_by_central_differences(self, s):
        # Richardson-extrapolated central second difference keeps both the
        # truncation and the rounding error below the 1e-8 budget
        def second(h):
            return (core.airy(s + h) - 2.0 * core.airy(s) + core.airy(s - h)) / h**2

        h = 1e-3
        extrap = (4.0 * second(h) - second(2.0 * h)) / 3.0
        assert abs(extrap - s * core.airy(s)) < 1e-8

    @pytest.mark.parametrize("s", [-4.0, -1.3, 0.7, 2.5, 4.9])
    def test_against_series_oracle(self, s):
        assert core.airy(s) == pytest.approx(airy_maclaurin(s), rel=1e-10, abs=1e-14)


class TestCompleteElliptic:
    def test_degenerate_modulus(self):
        k, e = core.complete_elliptic(0.0)
        assert k == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert e == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_legendre_relation(self):
        s = 0.6
        sp = math.sqrt(1.0 - s * s)
        k, e = core.complete_elliptic(s)
        kp, ep = core.complete_elliptic(sp)
        assert abs(e * kp + ep * k - k * kp - math.pi / 2.0) < 1e-10

    def test_against_mpmath_oracle(self):
        k, e = core.complete_elliptic(0.9)
        k_ref, e_ref = elliptic_by_mpmath(0.9)
        assert k == pytest.approx(k_ref, rel=1e-12)
        assert e == pytest.approx(e_ref, rel=1e-12)

    def test_domain_error_at_one(self):
        with pytest.raises(DomainError):
            core.complete_elliptic(1.0)

    @given(st.floats(min_value=1e-6, max_value=0.999))
    @settings(max_examples=40, deadline=None)
    def test_legendre_relation_property(self, s):
        sp = math.sqrt((1.0 - s) * (1.0 + s))
        k, e = core.complete_elliptic(s)
        kp, ep = core.complete_elliptic(sp)
        assert abs(e * kp + ep * k - k * kp - math.pi / 2.0) < 1e-9


class TestTheta3:
    def test_periodicity(self):
        z, tau = 0.3, 0.8j
        assert abs(core.theta3(z + 1.0, tau) - core.theta3(z, tau)) < 1e-14

    def test_zero_at_half_period(self):
        # z = 1/2 + tau/2 lies off the real axis (complex arguments are out
        # of scope for the implementation), so the classical zero is checked
        # on the same series convention by direct complex summation: terms
        # pair as (n, -n-1) with opposite signs and cancel exactly.
        z = 0.5 + 0.5j
        total = 0.0 + 0.0j
        for n in range(-60, 61):
            total += np.exp(1j * math.pi * (n * n) * 1j + 2j * math.pi * n * z)
        assert abs(total) < 1e-12

    def test_against_direct_summation(self):
        assert core.theta3(0.0, 1j) == pytest.approx(theta3_direct(0.0, 1.0), rel=1e-14)
        assert core.theta3(0.37, 0.45j) == pytest.approx(theta3_direct(0.37, 0.45), rel=1e-13)

    def test_truncation_tail_bound(self):
        # adding explicit extra terms changes nothing at the advertised bound
        z, im_tau = 0.21, 0.3
        val = core.theta3(z, complex(0.0, im_tau))
        ref = theta3_direct(z, im_tau, n_terms=2000)
        assert abs(val - ref) < 1e-14

    def test_derivative_matches_finite_difference(self):
        z, tau = 0.13, 0.7j
        h = 1e-5
        fd1 = (core.theta3(z + h, tau) - core.theta3(z - h, tau)) / (2 * h)
        assert core.theta3(z, tau, dz=1) == pytest.approx(fd1, rel=1e-8, abs=1e-9)
        fd2 = (core.theta3(z + h, tau) - 2 * core.theta3(z, tau) + core.theta3(z - h, tau)) / h**2
        assert core.theta3(z, tau, dz=2) == pytest.approx(fd2, rel=1e-6)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            core.theta3(0.0, -0.3j)


class TestQuadratureRules:
    def test_midpoint_degenerate(self):
        rule = core.gauss_jacobi_rule(1, 0.0, 0.0)
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)

    def test_inverse_sqrt_weight_constant(self):
        rule = core.gauss_jacobi_rule(8, -0.5, 0.0)
        assert rule.weights.sum() == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_inverse_sqrt_weight_cubic(self):
        rule = core.gauss_jacobi_rule(16, -0.5, 0.0)
        val = float(np.dot(rule.weights, rule.nodes**3))
        # substitution u = 1 - x turns the integrand into
        # (1-u)^3 u^(-1/2) on [0, 2]; expand and integrate term by term
        r2 = math.sqrt(2.0)
        exact = 2.0 * r2 - 3.0 * (2.0 / 3.0) * r2**3 + 3.0 * (2.0 / 5.0) * r2**5 - (2.0 / 7.0) * r2**7
        assert val == pytest.approx(exact, rel=1e-12)

    def test_gauss_legendre_polynomial_exactness(self):
        rule = core.gauss_jacobi_rule(6, 0.0, 0.0)
        # degree 11 polynomial integrated exactly
        coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.5, 1.1, 0.0, 0.25, -0.1, 0.05, 0.4, -0.02])
        vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        exact = sum(
            c / (k + 1) * (1.0 - (-1.0) ** (k + 1)) for k, c in enumerate(coeffs)
        )
        assert float(np.dot(rule.weights, vals)) == pytest.approx(exact, rel=1e-12)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_weight_sum_is_interval_length(self, n):
        rule = core.gauss_jacobi_rule(n, 0.0, 0.0)
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-12)

    def test_invalid_exponents(self):
        with pytest.raises(DomainError):
            core.gauss_jacobi_rule(4, -1.0, 0.0)

    def test_rule_is_cached_and_read_only(self):
        rule = core.gauss_jacobi_rule(12, -0.5, 0.0)
        assert core.gauss_jacobi_rule(12, -0.5, 0.0) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))


class TestJacobiTable:
    """The edge ladders come from _jacobi_rules.npz, scipy's rules stored."""

    def test_table_is_scipys_output_bit_for_bit(self):
        import scipy

        with np.load(core._JACOBI_TABLE) as npz:
            stored = {name: npz[name] for name in npz.files}
        recorded = str(stored.pop("scipy_version"))
        if recorded != scipy.__version__:
            pytest.skip(f"table written by scipy {recorded}, scipy {scipy.__version__} installed")
        built = jacobi_rule_table()
        built.pop("scipy_version")
        assert stored.keys() == built.keys()
        for (alpha, beta), ladder in core._JACOBI_LADDERS.items():
            for n in ladder:
                name = core._jacobi_table_name(n, alpha, beta)
                assert stored[name].tobytes() == built[name].tobytes(), name
                rule = core.gauss_jacobi_rule(n, alpha, beta)
                assert rule.nodes.tobytes() == built[name][0].tobytes(), name
                assert rule.weights.tobytes() == built[name][1].tobytes(), name

    @pytest.mark.parametrize("n,alpha,beta", [(100, -0.5, 0.0), (24, 0.5, 0.5), (16, 0.0, 0.0)])
    def test_untabulated_rules_come_from_scipy(self, monkeypatch, n, alpha, beta):
        calls = []
        _count_calls(monkeypatch, core.sspecial, "roots_jacobi", calls)
        _count_calls(monkeypatch, core.sspecial, "roots_legendre", calls)
        core.gauss_jacobi_rule.cache_clear()
        core._jacobi_table.cache_clear()
        rule = core.gauss_jacobi_rule(n, alpha, beta)
        assert len(calls) == 1 and rule.nodes.size == n
        assert core._jacobi_table.cache_info().currsize == 0

    def test_edge_ladders_make_no_scipy_calls(self, monkeypatch):
        # integrands that grow with the node count never converge, so both
        # kernels climb their ladders to the cap and ask for every rung
        from kdvrmt import hopf, kdv_asym

        calls, asked = [], []
        core.gauss_jacobi_rule.cache_clear()
        _count_calls(monkeypatch, core.sspecial, "roots_jacobi", calls)
        _count_calls(monkeypatch, core, "gauss_jacobi_rule", asked)

        def by_size(z):
            return np.full(np.shape(z), float(np.shape(z)[-1]))

        with pytest.raises(AccuracyError):
            hopf._theta_kernel(np.array([-0.5, -0.4]), -0.6, by_size, 0)
        with pytest.raises(AccuracyError):
            kdv_asym._sqrt_weighted_integral(by_size, -0.6, -0.5, "test integral")
        assert calls == []
        tabulated = {(n, a, b) for (a, b), ladder in core._JACOBI_LADDERS.items() for n in ladder}
        assert set(asked) == tabulated


class TestDoublingQuadrature:
    @pytest.mark.parametrize("alpha,beta", sorted(core._JACOBI_LADDERS))
    def test_stops_at_first_agreement(self, alpha, beta):
        # the value settles at the second rung, so the third confirms it and
        # no further rule is asked for
        ladder = core._JACOBI_LADDERS[(alpha, beta)]
        sizes = []

        def integrate(rule):
            sizes.append(rule.nodes.size)
            return 1.0 if len(sizes) >= 2 else 2.0

        assert core.doubling_quadrature(alpha, beta, integrate, "test") == 1.0
        assert sizes == list(ladder[:3])

    def test_agreement_is_max_abs_below_1e10(self):
        # one entry moves by 2e-10, then by 5e-11: the stop waits for the worst entry
        vals = iter([np.array([1.0, 2.0]), np.array([1.0, 2.0 + 2e-10]), np.array([1.0, 2.0 + 2.5e-10])])
        out = core.doubling_quadrature(-0.5, 0.0, lambda rule: next(vals), "test")
        assert out[1] == 2.0 + 2.5e-10

    @pytest.mark.parametrize("alpha,beta", sorted(core._JACOBI_LADDERS))
    def test_cap_names_what_and_node_count(self, alpha, beta):
        ladder = core._JACOBI_LADDERS[(alpha, beta)]
        sizes = []

        def integrate(rule):
            sizes.append(rule.nodes.size)
            return float(rule.nodes.size)

        with pytest.raises(AccuracyError, match=f"widget integral .* {ladder[-1]} nodes"):
            core.doubling_quadrature(alpha, beta, integrate, "widget integral")
        assert sizes == list(ladder)


class TestNewtonSolve:
    def test_square_root(self):
        res = core.newton_solve(lambda x: x * x - 4.0, np.array([3.0]))
        assert res.x[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_iterations_at_root(self):
        res = core.newton_solve(lambda x: x, np.array([0.0]))
        assert res.iterations == 0
        assert res.x[0] == 0.0

    def test_linear_system(self):
        res = core.newton_solve(
            lambda v: np.array([v[0] + v[1] - 3.0, v[0] - v[1] - 1.0]), np.zeros(2)
        )
        assert np.allclose(res.x, [2.0, 1.0], atol=1e-12)

    def test_deterministic(self):
        f = lambda v: np.array([math.sin(v[0]) - 0.3, v[1] ** 3 - 2.0])
        r1 = core.newton_solve(f, np.array([0.1, 1.0]))
        r2 = core.newton_solve(f, np.array([0.1, 1.0]))
        assert np.array_equal(np.atleast_1d(r1.x), np.atleast_1d(r2.x))
        assert r1.iterations == r2.iterations

    def test_analytic_jacobian_replaces_differences(self):
        points = []

        def f(v):
            points.append(v.copy())
            return np.array([v[0] ** 2 + v[1] ** 2 - 4.0, v[0] - v[1]])

        def jac(v, fv):
            return np.array([[2.0 * v[0], 2.0 * v[1]], [1.0, -1.0]])

        res = core.newton_solve(f, np.array([1.0, 2.0]), jac=jac)
        assert np.allclose(res.x, [math.sqrt(2.0), math.sqrt(2.0)], atol=1e-12)
        # one residual per iterate (these steps are undamped), none for a
        # difference Jacobian
        assert len(points) == res.iterations + 1

    def test_jacobian_receives_the_residual_of_its_iterate(self):
        # jac(x, fx) is handed F(x) of the same x, including after a damped step
        seen = []

        def f(v):
            return np.array([math.atan(v[0] - 1.0)])

        def jac(v, fv):
            seen.append((v.copy(), fv.copy()))
            return np.array([[1.0 / (1.0 + (v[0] - 1.0) ** 2)]])

        core.newton_solve(f, np.array([4.0]), jac=jac)
        assert len(seen) >= 3
        for v, fv in seen:
            assert fv.tobytes() == f(v).tobytes()

    def test_banded_solve_follows_the_dense_path(self):
        # tridiagonal A v + v^3 / 10 = b: the banded step reproduces the dense
        # iterates, and a singular band is reported like a singular matrix
        from scipy.linalg import solve_banded

        n = 6
        b = np.arange(1.0, n + 1.0)

        def f(v):
            av = 4.0 * v
            av[1:] -= v[:-1]
            av[:-1] -= v[1:]
            return av + 0.1 * v**3 - b

        def dense(v, fv):
            seen.append(v.copy())
            return 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1) + np.diag(0.3 * v**2)

        def band(v, fv):
            seen.append(v.copy())
            ab = np.zeros((3, n))
            ab[0, 1:], ab[1], ab[2, :-1] = -1.0, 4.0 + 0.3 * v**2, -1.0
            return ab

        def banded(ab, r):
            return solve_banded((1, 1), ab, r)

        seen = []
        r_dense = core.newton_solve(f, np.full(n, 3.0), jac=dense)
        dense_iterates, seen = seen, []
        r_band = core.newton_solve(f, np.full(n, 3.0), jac=band, solve=banded)
        assert r_band.iterations == r_dense.iterations >= 3
        np.testing.assert_allclose(seen, dense_iterates, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(r_band.x, r_dense.x, rtol=0.0, atol=1e-14)
        with pytest.raises(SingularJacobianError, match="singular"):
            core.newton_solve(f, np.zeros(n), jac=lambda v, fv: np.zeros((3, n)), solve=banded)

    def test_stops_at_a_floor_between_tol_and_100_tol(self):
        # |F| = c (1 + e^{-x}) decays onto the floor c = 3e-12, which lies
        # between tol and 100 tol: the step from x = 0 improves 6e-12 to
        # 3.4e-12 without halving it, so that iterate is returned (going on
        # drives e^{-x} to zero and the Jacobian singular)
        c = 3e-12

        def f(v):
            return c * (1.0 + np.exp(-v))

        def jac(v, fv):
            return np.array([[-c * math.exp(-v[0])]])

        res = core.newton_solve(f, np.array([0.0]), tol=1e-13, jac=jac)
        assert res.x[0] == 2.0
        assert res.iterations == 1
        assert res.residual_norm == pytest.approx(c * (1.0 + math.exp(-2.0)), rel=1e-15)

    def test_nonconvergence_carries_iterate(self):
        with pytest.raises(ConvergenceError) as err:
            core.newton_solve(lambda x: np.exp(x) + 1.0, np.array([0.0]), tol=1e-15, max_iter=3)  # no root
        assert err.value.last_iterate is not None


class TestSech2Train:
    def test_single_centered_term(self):
        vals = {0: 0.0, 1: -25.0}
        assert core.sech2_train(lambda k: vals.get(k, -30.0)) == pytest.approx(1.0, abs=1e-15)

    def test_truncation_invariance(self):
        def offsets(k):
            return 3.0 - 2.5 * k

        base = core.sech2_train(offsets)
        extended = sum(core.sech2(offsets(k)) for k in range(60))
        assert abs(base - extended) < 1e-14
