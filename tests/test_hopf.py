import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvrmt import core, hopf
from kdvrmt.core import gauss_jacobi_rule
from kdvrmt.errors import AccuracyError, AmbiguityError, DomainError, GenericityError

from oracles import golden_section_max, hopf_dense_scan, theta_by_substitution, theta_one_shot

SQ3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def data():
    d = hopf.make_sech2_data()
    d.self_check()
    return d


class TestSech2Data:
    def test_minimum_value(self, data):
        assert float(data.u0(0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_branch_inverse_at_minimum(self, data):
        assert float(data.f_L(-1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_property(self, data):
        u = float(data.u0(-2.0))
        assert float(data.f_L(u)) == pytest.approx(-2.0, abs=1e-10)

    def test_derivatives_consistent(self, data):
        # closed forms against central differences of f_L
        u = -0.4
        h = 1e-5
        fd1 = (float(data.f_L(u + h)) - float(data.f_L(u - h))) / (2 * h)
        assert float(data.f_L_prime(u)) == pytest.approx(fd1, rel=1e-8)
        fd2 = (float(data.f_L_prime(u + h)) - float(data.f_L_prime(u - h))) / (2 * h)
        assert float(data.f_L_second(u)) == pytest.approx(fd2, rel=1e-8)
        fd3 = (float(data.f_L_second(u + h)) - float(data.f_L_second(u - h))) / (2 * h)
        assert float(data.f_L_third(u)) == pytest.approx(fd3, rel=1e-7)


class TestHopfSolve:
    def test_time_zero_is_initial_profile(self, data):
        for x in (-3.0, -0.5, 0.0, 1.7):
            assert hopf.hopf_solve(x, 0.0, data) == float(data.u0(x))

    def test_value_at_catastrophe_point(self, data):
        # the foot point is a triple root at the catastrophe, so its
        # location is only residual^(1/3)-conditioned; the branch value
        # inherits that, while the characteristic residual stays < 1e-10
        cp = hopf.breaking_point(data)
        u = hopf.hopf_solve(cp.x_c, cp.t_c, data)
        assert u == pytest.approx(-2.0 / 3.0, abs=1e-4)
        xi = float(data.f_L(u))
        assert abs(cp.x_c - 6.0 * cp.t_c * float(data.u0(xi)) - xi) < 1e-10

    def test_against_dense_scan_oracle(self, data):
        val = hopf.hopf_solve(0.0, 0.1, data)
        ref = hopf_dense_scan(0.0, 0.1, data, n=10**7)
        assert val == pytest.approx(ref, abs=1e-9)

    def test_residual_small(self, data):
        u = hopf.hopf_solve(-1.2, 0.15, data)
        # recover xi from the returned branch value and replay the relation
        xi = float(data.f_L(u)) if u < float(data.u0(-1.2 + 6 * 0.15)) else None
        g_min = min(
            abs(-1.2 - 6 * 0.15 * float(data.u0(x)) - x)
            for x in np.linspace(-1.2, -1.2 + 0.9, 200001)
        )
        assert g_min < 1e-4  # bracketing sanity; the solver residual is far tighter

    def test_multivalued_region_raises(self, data):
        cp = hopf.breaking_point(data)
        with pytest.raises(AmbiguityError) as err:
            hopf.hopf_solve(cp.x_c + 6 * cp.u_c * 0.08, cp.t_c + 0.08, data)
        assert len(err.value.branches) >= 2

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_time_zero_property(self, x):
        d = hopf.make_sech2_data()
        assert hopf.hopf_solve(x, 0.0, d) == float(d.u0(x))

    def test_negative_time_rejected(self, data):
        with pytest.raises(DomainError):
            hopf.hopf_solve(0.0, -0.1, data)

    def test_far_left_foot_point_ends_at_float_resolution(self, data):
        # near xi = -12 the float spacing (1.8e-15) exceeds any 1e-15 width
        # tolerance; the bisection must stop when the midpoint is an end
        x, t = -12.0, 0.05
        u = hopf.hopf_solve(x, t, data)
        xi = float(data.f_L(u))
        assert -12.0 <= xi <= -12.0 + 6.0 * t
        assert abs(x - 6.0 * t * u - xi) < 1e-10


class TestBreakingPoint:
    def test_catastrophe_time_closed_form(self, data):
        cp = hopf.breaking_point(data)
        assert cp.t_c == pytest.approx(SQ3 / 8.0, abs=1e-10)

    def test_against_golden_section_oracle(self, data):
        xi_star = golden_section_max(lambda s: -6.0 * float(data.u0_prime(s)), -3.0, 0.0)
        t_ref = 1.0 / (-6.0 * float(data.u0_prime(xi_star)))
        cp = hopf.breaking_point(data)
        # the oracle maximizer is sqrt(eps)-limited near the flat top, which
        # caps the oracle's own u-accuracy near 1e-8
        assert cp.t_c == pytest.approx(t_ref, abs=1e-10)
        assert cp.u_c == pytest.approx(float(data.u0(xi_star)), abs=1e-8)

    def test_catastrophe_values(self, data):
        cp = hopf.breaking_point(data)
        assert cp.u_c == pytest.approx(-2.0 / 3.0, abs=1e-10)
        assert cp.xi_c == pytest.approx(math.atanh(-1.0 / SQ3), abs=1e-9)
        assert cp.x_c == pytest.approx(6.0 * cp.t_c * cp.u_c + cp.xi_c, abs=1e-10)
        assert cp.k == pytest.approx(81.0 * SQ3 / 16.0, rel=1e-9)
        assert cp.k > 0.0

    def test_catastrophe_values_at_float_resolution(self, data):
        # the maximizer is the bisected sign change of f_L''(u0(xi)), so
        # u_c and k = -f_L'''(u_c) carry no optimizer tolerance
        cp = hopf.breaking_point(data)
        assert cp.u_c == pytest.approx(-2.0 / 3.0, abs=1e-14)
        assert cp.k == pytest.approx(81.0 * SQ3 / 16.0, abs=1e-12)

    def test_scaling_of_catastrophe_time(self, data):
        # u0(lambda x) rescales t_c by 1/lambda (chain rule in the formula)
        lam = 2.0
        scaled = hopf.InitialData(
            u0=lambda x: data.u0(lam * np.asarray(x)),
            u0_prime=lambda x: lam * data.u0_prime(lam * np.asarray(x)),
            f_L=lambda u: data.f_L(u) / lam,
            f_L_prime=lambda u: data.f_L_prime(u) / lam,
            f_L_second=lambda u: data.f_L_second(u) / lam,
            f_L_third=lambda u: data.f_L_third(u) / lam,
            x_M=0.0,
            domain_halfwidth=data.domain_halfwidth / lam,
        )
        cp0 = hopf.breaking_point(data)
        cp1 = hopf.breaking_point(scaled)
        assert cp1.t_c == pytest.approx(cp0.t_c / lam, rel=1e-8)

    def test_flat_maximum_rejected(self):
        # u0' itself has a quartically flat minimum at 0, so -6 u0' has a
        # degenerate (flat) maximum there
        flat = hopf.InitialData(
            u0=lambda x: -np.exp(-np.asarray(x) ** 2),
            u0_prime=lambda x: -np.exp(-np.asarray(x) ** 4),
            f_L=lambda u: u,
            f_L_prime=lambda u: 1.0,
            f_L_second=lambda u: 0.0,
            f_L_third=lambda u: 0.0,
            x_M=0.0,
            domain_halfwidth=6.0,
        )
        with pytest.raises(GenericityError):
            hopf.breaking_point(flat)


class TestThetaKernel:
    def test_constant_slope_data(self):
        const = hopf.InitialData(
            u0=lambda x: np.asarray(x) * 0.0 - 0.5,
            u0_prime=lambda x: np.asarray(x) * 0.0,
            f_L=lambda u: np.asarray(u) * 2.5,
            f_L_prime=lambda u: np.asarray(u) * 0.0 + 2.5,
            f_L_second=lambda u: np.asarray(u) * 0.0,
            f_L_third=lambda u: np.asarray(u) * 0.0,
            x_M=0.0,
            domain_halfwidth=10.0,
        )
        assert hopf.theta_of(-0.3, -0.6, const) == pytest.approx(2.5, abs=1e-12)

    def test_diagonal_is_branch_slope(self, data):
        for u in (-0.8, -0.5, -0.2):
            assert hopf.theta_of(u, u, data) == pytest.approx(
                float(data.f_L_prime(u)), rel=1e-10
            )

    def test_against_substitution_oracle(self, data):
        val = hopf.theta_of(-0.5, -0.3, data)
        ref = theta_by_substitution(-0.5, -0.3, data)
        assert val == pytest.approx(ref, abs=1e-10)

    def test_derivatives_match_finite_differences(self, data):
        lam, u = -0.45, -0.35
        h = 1e-6
        fd1 = (hopf.theta_of(lam + h, u, data) - hopf.theta_of(lam - h, u, data)) / (2 * h)
        assert hopf.theta_v(lam, u, data) == pytest.approx(fd1, rel=1e-6)
        h2 = 1e-4
        fd2 = (
            hopf.theta_of(lam + h2, u, data)
            - 2.0 * hopf.theta_of(lam, u, data)
            + hopf.theta_of(lam - h2, u, data)
        ) / h2**2
        assert hopf.theta_vv(lam, u, data) == pytest.approx(fd2, rel=1e-5)

    def test_domain_guard(self, data):
        with pytest.raises(DomainError):
            hopf.theta_of(0.1, -0.5, data)
        with pytest.raises(DomainError):
            hopf.theta_of(-0.5, -1.2, data)

    @pytest.mark.parametrize("fn", [hopf.theta_of, hopf.theta_v, hopf.theta_vv])
    def test_array_matches_scalar_calls(self, data, fn):
        lams = np.linspace(-0.8, -0.1, 29)
        for u in (-0.9, -0.5, -0.2):
            vals = fn(lams, u, data)
            assert isinstance(vals, np.ndarray) and vals.shape == lams.shape
            scalars = [fn(float(lam), u, data) for lam in lams]
            assert all(isinstance(s, float) for s in scalars)
            np.testing.assert_allclose(vals, scalars, rtol=1e-12, atol=0.0)

    @given(st.floats(min_value=-0.95, max_value=-0.05))
    @settings(max_examples=20, deadline=None)
    def test_diagonal_property(self, u):
        d = hopf.make_sech2_data()
        assert hopf.theta_of(u, u, d) == pytest.approx(float(d.f_L_prime(u)), rel=1e-9)


class TestThetaBlocks:
    """The blocked kernel against the one-shot (lam x n) reference.

    The blocks change only the summation order, so values agree to a
    few ulp of the largest value; the bound is 1e-14 relative to that
    (norm-wise), because theta_v changes sign on (-0.9, -0.2) and a value
    next to its zero carries the rounding of much larger summands.
    """

    DERIV = {"theta_of": ("f_L_prime", 0), "theta_v": ("f_L_second", 1), "theta_vv": ("f_L_third", 2)}

    @pytest.fixture(scope="class")
    def trailing_lam(self):
        # the 768-node (0, 1/2) rule of trailing_integral on [u, v], near
        # the end of the trailing window: dozens of blocks at 3,072 nodes
        u, v = -0.99989078, -0.2545
        rule = gauss_jacobi_rule(768, 0.0, 0.5)
        return u + (v - u) * 0.5 * (1.0 + rule.nodes), u

    def reference(self, fn, lam, u, data):
        name, power = self.DERIV[fn.__name__]
        return theta_one_shot(lam, u, getattr(data, name), power)

    def test_trailing_rule_matches_one_shot(self, data, trailing_lam):
        lam, u = trailing_lam
        val = hopf.theta_of(lam, u, data)
        assert val.shape == lam.shape
        ref = self.reference(hopf.theta_of, lam, u, data)
        assert np.max(np.abs(val - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fn", [hopf.theta_v, hopf.theta_vv])
    def test_trailing_rule_derivatives_still_unconverged(self, data, trailing_lam, fn):
        lam, u = trailing_lam
        with pytest.raises(AccuracyError):
            fn(lam, u, data)
        with pytest.raises(AccuracyError):
            self.reference(fn, lam, u, data)

    @pytest.mark.parametrize("fn", [hopf.theta_of, hopf.theta_v, hopf.theta_vv])
    def test_many_lam_and_scalar_match_one_shot(self, data, fn):
        lams = np.random.default_rng(8).uniform(-0.9, -0.2, 3000)
        for lam in (lams, lams[:2400].reshape(40, 60), -0.45):
            val = fn(lam, -0.7, data)
            ref = self.reference(fn, lam, -0.7, data)
            assert type(val) is type(ref) and np.shape(val) == np.shape(ref)
            assert np.max(np.abs(val - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fn", [hopf.theta_of, hopf.theta_v, hopf.theta_vv])
    def test_scalar_path_is_bitwise_the_blocked_row(self, data, fn):
        # a 0-d lam takes the one-row contraction, which keeps the blocked
        # summation, so edge solves on scalars see the array values exactly
        for lam, u in ((-0.45, -0.7), (-0.3, -0.95), (-0.9, -0.2)):
            assert fn(lam, u, data) == fn(np.array([lam]), u, data)[0]

    def test_trailing_rule_peak_memory(self, data, trailing_lam):
        # the one-shot form holds a 768 x 3,072 integrand (18 MiB) and its
        # temporaries; the blocked kernel holds one block at a time
        lam, u = trailing_lam
        hopf.theta_of(lam, u, data)  # rules cached before tracing
        hopf._theta_memo.cache_clear()  # so the traced call computes
        tracemalloc.start()
        try:
            hopf.theta_of(lam, u, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_cap_still_raises_next_to_the_minimum(self, data):
        with pytest.raises(AccuracyError):
            hopf.theta_of(-0.25, -0.9999999, data)


class TestThetaProbe:
    """An array of over 16 values climbs a few probe rows first.

    The stop is the largest change over all rows, so it can come no
    earlier than the probe rows' stop; values and errors stay the plain
    climb's only if each probe entry is the array's entry bit for bit.
    """

    @staticmethod
    def integrands(monkeypatch, lam, u, deriv_fn, power):
        # the kernel's own closures, taken from its call of the ladder (the
        # memo is bypassed, so it never holds what this stub returns)
        seen = []

        def capture(alpha, beta, integrate, what, probe=None):
            seen.append((integrate, probe))
            return integrate(gauss_jacobi_rule(48, alpha, beta))

        monkeypatch.setattr(hopf, "doubling_quadrature", capture)
        hopf._theta_kernel(lam, u, deriv_fn, power)
        return seen[0]

    @pytest.mark.parametrize("name,power", [("f_L_prime", 0), ("f_L_second", 1)])
    def test_probe_entries_are_bitwise_the_array_entries(self, data, monkeypatch, name, power):
        rng = np.random.default_rng(11)
        checked = 0
        for u in (-0.99995, -0.9999, -0.9, -0.5, -0.2):
            for lam in (
                u + (-0.2538 - u) * 0.5 * (1.0 + gauss_jacobi_rule(768, 0.0, 0.5).nodes),
                rng.uniform(u, -0.05, 17),
                rng.uniform(-0.95, -0.05, 300),
                rng.uniform(-0.95, -0.05, (12, 25)),
            ):
                integrate, probe = self.integrands(monkeypatch, lam, u, getattr(data, name), power)
                rows = hopf._probe_rows(lam.reshape(-1), u)
                assert 6 <= rows.size <= 8
                for n in core._JACOBI_LADDERS[(-0.5, 0.0)]:
                    rule = gauss_jacobi_rule(n, -0.5, 0.0)
                    whole, part = integrate(rule).reshape(-1)[rows], probe(rule)
                    assert whole.tobytes() == part.tobytes()
                    checked += part.size
        assert checked >= 5 * 4 * 7 * 6

    def test_probe_rows_are_the_six_nearest_the_middle_and_the_largest(self):
        lam = np.array([-0.5, -0.9, -0.1, -0.89, -0.3, -0.88, -0.87, -0.2, -0.86, -0.85, -0.4])
        assert hopf._probe_rows(lam, -0.95).tolist() == [1, 2, 3, 5, 6, 8, 9]

    @pytest.mark.parametrize("lam", [-0.45, np.linspace(-0.8, -0.1, 16)])
    def test_small_arrays_and_scalars_climb_without_probe(self, data, monkeypatch, lam):
        assert self.integrands(monkeypatch, np.asarray(lam), -0.7, data.f_L_prime, 0)[1] is None

    def test_hopeless_array_fails_in_its_probe_rows(self, data):
        # the 768-node trailing rule on [u, v] at the t = 0.30 sech^2
        # solution: the probe never agrees, so no other row is integrated
        u, v = -0.99995143, -0.2538578
        lam = u + (v - u) * 0.5 * (1.0 + gauss_jacobi_rule(768, 0.0, 0.5).nodes)
        rows = []

        def counted(z):
            rows.append(z.shape[0])
            return data.f_L_prime(z)

        with pytest.raises(AccuracyError) as err:
            hopf.theta_of(lam, u, dataclasses.replace(data, f_L_prime=counted))
        assert str(err.value) == "theta quadrature did not converge under node doubling up to 3072 nodes"
        assert sum(rows) == 8 * len(core._JACOBI_LADDERS[(-0.5, 0.0)])


class TestThetaMemo:
    """The bounded memo under the theta kernel: exact, bounded, per data."""

    @pytest.fixture(scope="class")
    def trailing_lam(self):
        u, v = -0.99989078, -0.2545
        rule = gauss_jacobi_rule(768, 0.0, 0.5)
        return u + (v - u) * 0.5 * (1.0 + rule.nodes), u

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        hopf._theta_memo.cache_clear()

    def test_scalar_hit_is_the_fresh_value(self, data):
        first = hopf.theta_v(-0.45, -0.7, data)
        hit = hopf.theta_v(-0.45, -0.7, data)
        fresh = hopf._theta_kernel(np.asarray(-0.45), -0.7, data.f_L_second, 1)
        assert hopf._theta_memo.cache_info().hits == 1
        assert type(hit) is float and hit == first == fresh

    def test_array_hit_is_a_fresh_copy(self, data, trailing_lam):
        lam, u = trailing_lam
        first = hopf.theta_of(lam, u, data)
        fresh = hopf._theta_kernel(lam, u, data.f_L_prime, 0)
        first[:] = 0.0
        hit = hopf.theta_of(lam, u, data)
        assert hopf._theta_memo.cache_info().hits == 1
        assert hit.tobytes() == fresh.tobytes()
        hit[:] = 0.0
        assert hopf.theta_of(lam, u, data).tobytes() == fresh.tobytes()

    def test_bounded_and_large_lam_not_stored(self, data):
        for lam in np.linspace(-0.8, -0.3, 40):
            hopf.theta_of(lam, -0.7, data)
        assert hopf._theta_memo.cache_info().currsize == 32
        big = np.random.default_rng(3).uniform(-0.9, -0.2, 3000)
        hopf.theta_of(big, -0.7, data)
        hopf.theta_of(big, -0.7, data)
        info = hopf._theta_memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 40, 32)

    def test_errors_not_stored(self, data):
        for _ in range(2):
            with pytest.raises(AccuracyError):
                hopf.theta_of(-0.25, -0.9999999, data)
        assert hopf._theta_memo.cache_info().currsize == 0

    def test_initial_data_do_not_share_entries(self, data):
        # constant f_L' makes theta that constant
        flat = dataclasses.replace(data, f_L_prime=lambda z: np.full_like(z, 0.5))
        sech2 = hopf.theta_of(-0.45, -0.7, data)
        assert hopf.theta_of(-0.45, -0.7, flat) == pytest.approx(0.5, abs=1e-14)
        assert hopf.theta_of(-0.45, -0.7, data) == sech2 != pytest.approx(0.5)

    def test_threads_return_the_serial_values(self, data):
        fns = (hopf.theta_of, hopf.theta_v, hopf.theta_vv)
        keys = [(fn, lam) for fn in fns for lam in np.linspace(-0.6, -0.3, 12)]
        serial = [fn(lam, -0.7, data) for fn, lam in keys]
        hopf._theta_memo.cache_clear()
        rng = np.random.default_rng(5)
        orders = [rng.permutation(len(keys)) for _ in range(4)]

        def run(order):
            return {i: keys[i][0](keys[i][1], -0.7, data) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the memo's bookkeeping
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, order) for order in orders]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for res in results:
            assert all(res[i] == serial[i] for i in range(len(keys)))


class TestTabulatedData:
    def test_roundtrip_from_samples(self, data, tmp_path):
        xs = np.linspace(-15.0, 15.0, 1201)
        us = np.asarray(data.u0(xs))
        path = tmp_path / "profile.csv"
        np.savetxt(path, np.column_stack([xs, us]), delimiter=",")
        tab = hopf.load_initial_data_csv(path)
        cp_ref = hopf.breaking_point(data)
        cp_tab = hopf.breaking_point(tab)
        # pchip derivatives of sampled data are the honest accuracy limit
        assert cp_tab.t_c == pytest.approx(cp_ref.t_c, rel=5e-4)
        assert cp_tab.u_c == pytest.approx(cp_ref.u_c, rel=5e-3)

    def test_unnormalized_profile_rejected(self, tmp_path):
        xs = np.linspace(-10, 10, 101)
        us = -0.5 / np.cosh(xs) ** 2
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.column_stack([xs, us]), delimiter=",")
        with pytest.raises(DomainError):
            hopf.load_initial_data_csv(path)


class TestGradientBlowup:
    def test_x_derivative_grows_near_catastrophe(self, data):
        cp = hopf.breaking_point(data)
        t = cp.t_c - 1e-6
        h = 1e-7
        x_star = 6.0 * t * cp.u_c + cp.xi_c
        du = (hopf.hopf_solve(x_star + h, t, data) - hopf.hopf_solve(x_star - h, t, data)) / (
            2 * h
        )
        assert abs(du) > 1e3
