import math

import numpy as np
import pytest

from kdvrmt import orthopoly, rmt_eq, toda
from kdvrmt.errors import DomainError, GenericityError, PrecisionError

from oracles import continuum_residual, toda_rk4


def state_from_hodograph(v0_coeffs, t: float, eps: float, n_max: int) -> toda.TodaState:
    """Sample the hodograph solution on the lattice x = eps n.

    gamma(x) = (r_+ - r_-)/4 and beta(x) = -(r_+ + r_-)/2 (the Riemann
    invariants are r_{+-} = v +- 2 e^{w/2} with v = -beta at leading order).
    """
    gamma = np.empty(n_max)
    beta = np.empty(n_max + 1)
    prev = None
    for n in range(1, n_max + 1):
        pt = toda.hodograph_solve(eps * n, t, v0_coeffs, seed=prev)
        prev = (pt.r_plus, pt.r_minus)
        gamma[n - 1] = (pt.r_plus - pt.r_minus) / 4.0
        beta[n] = -(pt.r_plus + pt.r_minus) / 2.0
    beta[0] = beta[1]
    return toda.TodaState(eps=eps, gamma=gamma, beta=beta, times={1: t})


@pytest.fixture(scope="module")
def gauss20():
    return toda.gaussian_state(20, 40)


class TestFlows:
    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan])
    def test_state_rejects_nonpositive_or_nan_gamma(self, bad):
        with pytest.raises(DomainError, match="gamma must be positive"):
            toda.TodaState(eps=0.1, gamma=np.array([0.5, bad]), beta=np.zeros(3), times={})

    def test_constant_state_is_fixed_point(self):
        st = toda.TodaState(
            eps=0.1, gamma=np.full(24, 0.8), beta=np.full(25, 0.3), times={}
        )
        out = toda.flow_t1(st, dt=0.01, steps=10)
        # interior rows are stationary; truncation effects enter at the
        # ends and decay about two orders of magnitude per site inward
        assert np.max(np.abs(out.gamma[7:-7] - 0.8)) < 1e-12
        assert np.max(np.abs(out.beta[8:-8] - 0.3)) < 1e-12

    def test_isospectrality_t1(self, gauss20):
        spec0 = np.linalg.eigvalsh(toda.jacobi_matrix(gauss20))
        out = toda.flow_t1(gauss20, dt=0.00125, steps=80)
        spec1 = np.linalg.eigvalsh(toda.jacobi_matrix(out))
        assert np.max(np.abs(spec1 - spec0)) < 1e-8

    def test_gaussian_flow_closed_form(self, gauss20):
        # gamma is frozen and beta drifts linearly to -t1 in the interior
        out = toda.flow_t1(gauss20, dt=0.005, steps=20)
        sl = slice(2, 25)
        assert np.max(np.abs(out.gamma[sl] - gauss20.gamma[sl])) < 1e-12
        assert np.max(np.abs(out.beta[sl] + 0.1)) < 1e-12

    def test_hierarchy_k1_equals_t1(self, gauss20):
        a = toda.flow_t1(gauss20, dt=0.005, steps=10)
        b = toda.flow_hierarchy(gauss20, 1, dt=0.005, steps=10)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-12
        assert np.max(np.abs(a.beta - b.beta)) < 1e-12

    def test_k2_preserves_even_symmetry(self, gauss20):
        # even field: beta stays zero under the second flow (interior)
        out = toda.flow_hierarchy(gauss20, 2, dt=0.002, steps=25)
        assert np.max(np.abs(out.beta[3:30])) < 1e-10

    def test_k2_isospectral(self, gauss20):
        spec0 = np.linalg.eigvalsh(toda.jacobi_matrix(gauss20))
        out = toda.flow_hierarchy(gauss20, 2, dt=0.001, steps=50)
        spec1 = np.linalg.eigvalsh(toda.jacobi_matrix(out))
        assert np.max(np.abs(spec1 - spec0)) < 1e-8

    def test_zero_steps_identity(self, gauss20):
        out = toda.flow_hierarchy(gauss20, 3, dt=0.01, steps=0)
        assert out is gauss20

    def test_map_matches_rk4_oracle(self, gauss20):
        # T = 3.2 in four "steps" of 0.8: the map has no step to fail.  RK4
        # at dt = 2.5e-3 is 3.8e-8 off it and closes in at fourth order
        out = toda.flow_t1(gauss20, dt=0.8, steps=4)

        def off(dt):
            gamma, beta = toda_rk4(gauss20, 1, dt, round(3.2 / dt))
            return max(np.max(np.abs(out.gamma - gamma)), np.max(np.abs(out.beta - beta)))

        coarse, fine = off(2.5e-3), off(1.25e-3)
        assert coarse < 1e-7
        assert 12.0 < coarse / fine < 20.0

    def test_matches_direct_recurrence(self, gauss20):
        # Toda-flowed coefficients against the weight with the shifted field
        out = toda.flow_t1(gauss20, dt=0.005, steps=20)
        tab = orthopoly.compute_recurrence([0.0, 0.1, 0.5], 20, 30)
        sl = slice(2, 25)
        assert np.max(np.abs(out.gamma[sl] - tab.gamma[sl])) < 1e-13
        assert np.max(np.abs(out.beta[sl] - tab.beta[sl])) < 1e-13

    def test_weights_beyond_float64_raise(self, gauss20):
        # T lambda / eps runs over +-1560 on the spectrum at T = 30, so
        # the deformed weights cannot all be float64 numbers
        with pytest.raises(PrecisionError):
            toda.flow_t1(gauss20, dt=30.0, steps=1)


class TestStringEquation:
    def test_gaussian_data_exact(self, gauss20):
        r1, r2, idx = toda.string_residual(gauss20, [0.0, 0.0, 0.5])
        assert np.max(np.abs(r1[idx - 1])) < 1e-14
        assert np.max(np.abs(r2[idx])) < 1e-14

    def test_propagates_under_flow(self, gauss20):
        out = toda.flow_t1(gauss20, dt=0.005, steps=20)
        r1, r2, idx = toda.string_residual(out, [0.0, 0.1, 0.5])
        # the truncation boundary contaminates the last rows at finite
        # speed; restrict to rows the contamination has not reached
        deep = idx[idx < out.n_max - 12]
        assert np.max(np.abs(r1[deep - 1])) < 1e-6
        assert np.max(np.abs(r2[deep])) < 1e-6

    def test_detects_perturbation(self, gauss20):
        bad = toda.TodaState(
            eps=gauss20.eps,
            gamma=gauss20.gamma + 0.1,
            beta=gauss20.beta,
            times={},
        )
        r1, _, idx = toda.string_residual(bad, [0.0, 0.0, 0.5])
        assert np.max(np.abs(r1[idx - 1])) > 1e-2


class TestHodograph:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_gaussian_invariants(self, x):
        pt = toda.hodograph_solve(x, 0.0, [0.0, 0.0, 0.5])
        assert pt.r_plus == pytest.approx(2.0 * math.sqrt(x), abs=1e-10)
        assert pt.r_minus == pytest.approx(-2.0 * math.sqrt(x), abs=1e-10)

    def test_lambda_definition_replay(self):
        pt = toda.hodograph_solve(1.3, 0.0, [0.0, 0.0, 0.5])
        assert pt.lambda_plus == pytest.approx(-(pt.r_plus - pt.r_minus) / 4.0, abs=1e-14)
        assert pt.lambda_minus == pytest.approx((pt.r_plus - pt.r_minus) / 4.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_agreement_with_equilibrium_endpoints(self, x):
        # Gaussian family: the field e^{x_g} s^2/2 has endpoints
        # -+2 e^{-x_g/2}; matching normalization maps x = e^{-x_g}
        pt = toda.hodograph_solve(x, 0.0, [0.0, 0.0, 0.5])
        a, b = rmt_eq.solve_onecut_endpoints(rmt_eq.QuarticField(-math.log(x), 0.0))
        assert pt.r_plus == pytest.approx(b, abs=1e-8)
        assert pt.r_minus == pytest.approx(a, abs=1e-8)

    def test_tilted_quartic_consistency(self):
        # reflection maps the Flaschka invariants to the endpoints of the
        # reflected field: r_+ = -a, r_- = -b for V0(s) + t s
        x, t1 = 1.0, 0.7
        v0 = [0.0, 0.0, 0.0, 0.0, 1.0]
        pt = toda.hodograph_solve(x, t1, v0)
        nodes = np.cos((2 * np.arange(1, 25) - 1) * np.pi / 48.0)
        from kdvrmt.core import newton_solve

        def cond(p):
            c, lw = p
            w = math.exp(lw)
            s = c + w * nodes
            coeffs = np.array([0.0, t1, 0.0, 0.0, 1.0]) / x
            vp = np.polynomial.polynomial.polyval(
                s, np.polynomial.polynomial.polyder(coeffs)
            )
            return np.array([float(np.mean(vp)), float(np.mean(s * vp)) - 2.0])

        res = newton_solve(cond, np.array([0.0, 0.0]), tol=1e-12)
        c, w = float(res.x[0]), math.exp(float(res.x[1]))
        a, b = c - w, c + w
        assert pt.r_plus == pytest.approx(-a, abs=1e-8)
        assert pt.r_minus == pytest.approx(-b, abs=1e-8)


class TestContinuumLimit:
    def test_linear_profiles_near_exact(self):
        eps = 0.02
        n_max = 100
        n = np.arange(1, n_max + 1)
        u = 0.3 + 0.05 * eps * n
        beta = -(0.1 + 0.02 * eps * np.arange(0, n_max + 1))
        st = toda.TodaState(eps=eps, gamma=np.exp(u / 2.0), beta=beta, times={})
        # v linear: first differences are exact; residual carries only the
        # curvature of e^u, which is O(eps^2)
        assert continuum_residual(st) < 10.0 * eps**2

    def test_eps_refinement_slope(self):
        # tilted quartic so that both lattice fields have genuine
        # curvature (for the pure Gaussian the truncated equations are
        # satisfied exactly and only spline noise would remain)
        v0 = [0.0, 0.0, 0.0, 0.0, 1.0]
        res = []
        eps_list = (0.04, 0.02, 0.01)
        for eps in eps_list:
            st = state_from_hodograph(v0, 0.7, eps, int(4.0 / eps))
            res.append(continuum_residual(st))
        slope = np.polyfit(np.log(eps_list), np.log(res), 1)[0]
        assert 1.6 < slope < 2.4

    def test_hodograph_state_residual_bound(self):
        eps = 0.02
        for v0, t1 in (([0.0, 0.0, 0.5], 0.5), ([0.0, 0.0, 0.0, 0.0, 1.0], 0.7)):
            st = state_from_hodograph(v0, t1, eps, 200)
            assert continuum_residual(st) < 10.0 * eps**2


class TestCatastrophe:
    V0 = [0.0, 0.0, 0.2, 4.0 / 15.0, 0.05]

    def test_located_point_matches_edge_singular_field(self):
        # the minus-invariant breaking of this quartic sits exactly at the
        # reflected edge-singular point of the t = 1 field: the density
        # there vanishes to order 5/2 at one support endpoint
        cd = toda.catastrophe_constants(self.V0, family="minus")
        assert cd.r_plus == pytest.approx(2.0, abs=1e-9)
        assert cd.r_minus == pytest.approx(-2.0, abs=1e-9)
        assert cd.t_c == pytest.approx(1.6, abs=1e-9)
        assert cd.x_c == pytest.approx(1.0, abs=1e-9)

    def test_universal_dispersive_constant(self):
        cd = toda.catastrophe_constants(self.V0, family="minus")
        assert cd.c4 == 1.0 / 96.0

    def test_speed_slope_constant(self):
        cd = toda.catastrophe_constants(self.V0, family="minus")
        # c2 = (speed slope -1/4) / (speed gap), gap = (r+ - r-)/2 = 2
        assert cd.c2 == pytest.approx(-0.125, abs=1e-10)

    def test_constants_against_symbolic_oracle(self):
        cd = toda.catastrophe_constants(self.V0, family="minus")
        f = toda.hodograph_potential(self.V0)
        f_pp = f.diff(0).diff(0)
        f_m4 = f.diff(1).diff(1).diff(1).diff(1)
        assert cd.c1 == pytest.approx(
            float(f_pp(cd.r_plus, cd.r_minus)) - cd.t_c / 4.0, abs=1e-9
        )
        assert cd.c3 == pytest.approx(float(f_m4(cd.r_plus, cd.r_minus)) / 6.0, abs=1e-9)

    def test_plus_family_located_point(self):
        # the mirror case: for this quartic the r_+ invariant breaks first
        v0 = [0.0, 0.0, 0.5, -4.0 / 15.0, 0.05]
        cd = toda.catastrophe_constants(v0, family="plus")
        assert cd.r_plus == pytest.approx(1.5441518440112243, abs=1e-12)
        assert cd.r_minus == pytest.approx(0.27924077994387453, abs=1e-12)
        assert cd.t_c == pytest.approx(0.3477063388424491, abs=1e-12)
        assert cd.c4 == 1.0 / 96.0
        # replay the defining pair and the branch consistency at the point
        f = toda.hodograph_potential(v0)
        f_p, f_m = f.diff(0), f.diff(1)
        f_pp = f_p.diff(0)
        rp, rm = cd.r_plus, cd.r_minus
        assert abs(float(f_pp.diff(0)(rp, rm))) < 1e-12
        assert cd.t_c == 4.0 * float(f_pp(rp, rm))
        consistency = float(f_p(rp, rm)) - float(f_m(rp, rm)) - 2.0 * (rp - rm) * float(f_pp(rp, rm))
        assert abs(consistency) < 1e-12
        # x_c on the r_+ branch, c2 = (speed slope -1/4) / (lambda_+ - lambda_-)
        assert cd.x_c == pytest.approx(-(rp - rm) / 4.0 * cd.t_c + float(f_p(rp, rm)), abs=1e-14)
        assert cd.c2 == pytest.approx(0.5 / (rp - rm), rel=1e-14)

    def test_cubic_perturbation_has_no_generic_point(self):
        # for a cubic tilt the two defining curves meet only on the
        # degenerate diagonal, which must be reported, not returned
        with pytest.raises(GenericityError):
            toda.catastrophe_constants([0.0, 0.0, 0.5, -0.1])

    # (V0, family, (r_+, r_-, t_c, x_c)) of located points; a sample of
    # the quartic family V0 = [0, d, a, b, c] over both families
    LOCATED = [
        ([0.0, 0.0, 0.1, -0.3, 0.05], "minus",
         (5.877975178854634, 0.6244049642290044, 1.6351581096974663, 2.975624999999998)),
        ([0.0, 0.0, 0.1, 0.1, 0.02], "minus",
         (1.450308624337498, -1.7900617248685162, 0.31452880493808383, 0.17226562500000026)),
        ([0.0, 0.0, 0.2, 4.0 / 15.0, 0.1], "minus",
         (0.3874258867227927, -0.8774851773445584, 0.045328063055842985, 0.019999999999999997)),
        ([0.0, 0.1, 0.2, -4.0 / 15.0, 0.1], "plus",
         (0.8774851773476693, -0.38742588674150724, 0.054671936944157104, 0.01999999999999997)),
        ([0.0, -0.1, 0.5, -4.0 / 15.0, 0.05], "plus",
         (1.5441518440112243, 0.27924077994387453, 0.24770633884244908, 0.009999999999999926)),
    ]
    # cells of the same family with no generic point: a stalled Newton, a
    # collapse onto the diagonal and a non-positive catastrophe time
    NON_GENERIC = [
        ([0.0, -0.1, 0.2, -0.1, 0.1], "plus"),
        ([0.0, 0.1, 0.1, -0.3, 0.05], "plus"),
        ([0.0, 0.1, 0.5, 4.0 / 15.0, 0.05], "plus"),
        ([0.0, 0.0, 0.1, 0.0, 0.02], "minus"),
        ([0.0, 0.0, 0.5, 0.0, 0.1], "minus"),
    ]

    @pytest.mark.parametrize("v0, family, expected", LOCATED)
    def test_located_points_pinned(self, v0, family, expected):
        cd = toda.catastrophe_constants(v0, family=family)
        assert (cd.r_plus, cd.r_minus, cd.t_c, cd.x_c) == pytest.approx(expected, rel=0, abs=1e-12)
        assert cd.c4 == 1.0 / 96.0

    @pytest.mark.parametrize("v0, family", NON_GENERIC)
    def test_non_generic_cells_pinned(self, v0, family):
        with pytest.raises(GenericityError):
            toda.catastrophe_constants(v0, family=family)

    def test_overflowing_trial_points_raise_the_typed_error(self):
        # the plus-family Newton of this quartic overflows at trial points;
        # that shortens the step instead of warning, and the stalled search
        # is reported as non-generic
        with pytest.raises(GenericityError):
            toda.catastrophe_constants([0.0, 0.0, 0.3, 0.0, 0.1], family="plus")


class TestPotential:
    def test_gaussian_polynomial(self):
        f = toda.hodograph_potential([0.0, 0.0, 0.5])
        # f = (r+ - r-)^2 (r+ + r-) / 16
        for rp, rm in ((1.0, -0.3), (2.5, 0.5), (0.2, -2.0)):
            expected = (rp - rm) ** 2 * (rp + rm) / 16.0
            assert float(f(rp, rm)) == pytest.approx(expected, rel=1e-13)

    def test_quartic_matches_equilibrium_normalization(self):
        f = toda.hodograph_potential([0.0, 0.0, 0.0, 0.0, 1.0]).diff(0)
        for x in (0.5, 1.0, 2.0):
            a = (4.0 * x / 3.0) ** 0.25
            assert float(f(a, -a)) == pytest.approx(x, rel=1e-12)
