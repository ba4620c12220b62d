import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from kdvrmt import orthopoly, painleve, rmt_eq
from kdvrmt.errors import DomainError, PrecisionError

from oracles import hankel_recurrence

X_STAR = rmt_eq.X_STAR


@pytest.fixture(scope="module")
def gauss_table():
    return orthopoly.compute_recurrence([0.0, 0.0, 0.5], 20, 20)


class TestComputeRecurrence:
    def test_gaussian_closed_form(self, gauss_table):
        n = np.arange(1, 21)
        assert np.max(np.abs(gauss_table.gamma - np.sqrt(n / 20.0))) < 1e-10
        assert np.max(np.abs(gauss_table.beta)) < 1e-10

    def test_even_field_beta_vanishes(self):
        tab = orthopoly.compute_recurrence(rmt_eq.QuarticField(0.0, 0.0), 12, 16)
        assert np.max(np.abs(tab.beta)) < 1e-10

    def test_against_hankel_oracle(self):
        f = rmt_eq.QuarticField(0.0, 1.0)
        tab = orthopoly.compute_recurrence(f, 8, 4)
        gam_o, bet_o = hankel_recurrence(rmt_eq.field_coeffs(f), 8, 4)
        assert np.max(np.abs(tab.gamma - np.array(gam_o))) < 1e-12
        assert np.max(np.abs(tab.beta - np.array(bet_o))) < 1e-12

    def test_node_doubling_invariance(self):
        f = rmt_eq.QuarticField(X_STAR - 1.0, 9.0)
        a = orthopoly.compute_recurrence(f, 16, 16)
        b = orthopoly.compute_recurrence(f, 16, 16, nodes_per_panel=96)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-10

    def test_orthonormality_replay(self):
        # rebuild p_j on a finer independent quadrature and check the Gram
        # matrix of the first 13 polynomials
        f = rmt_eq.QuarticField(0.0, 1.0)
        n_weight = 10
        tab = orthopoly.compute_recurrence(f, n_weight, 12)
        coeffs = rmt_eq.field_coeffs(f)
        from scipy.special import roots_legendre

        x0, w0 = roots_legendre(600)
        radius = 9.0
        x = radius * x0
        w = radius * w0 * np.exp(
            -n_weight * np.polynomial.polynomial.polyval(x, coeffs)
        )
        p_prev = np.zeros_like(x)
        p_cur = np.full_like(x, tab.kappa[0])
        polys = [p_cur.copy()]
        for k in range(12):
            beta_k = tab.beta[k]
            gam_prev = tab.gamma[k - 1] if k >= 1 else 0.0
            p_next = ((x - beta_k) * p_cur - gam_prev * p_prev) / tab.gamma[k]
            polys.append(p_next.copy())
            p_prev, p_cur = p_cur, p_next
        gram = np.array([[np.sum(w * pi * pj) for pj in polys] for pi in polys])
        assert np.max(np.abs(gram - np.eye(13))) < 1e-8

    def test_edge_critical_n64_converged(self):
        # p_64^2 w reaches past the weight-tail radius here; values
        # converged at R = 6-10 with 60-200 panels
        tab = orthopoly.compute_recurrence(rmt_eq.QuarticField(0.0, 1.0), 64, 64)
        assert tab.gamma[63] == pytest.approx(0.9598093916357714, abs=1e-12)
        assert tab.beta[63] == pytest.approx(-0.1714751771394950, abs=1e-12)

    def test_orthogonality_loss_raises(self):
        # 40 nodes cannot carry 41 orthonormal polynomials
        with pytest.raises(PrecisionError):
            orthopoly.compute_recurrence([0.0, 0.0, 0.5], 10, 40, nodes_per_panel=2)

    def test_unresolved_weight_raises(self):
        # 60 nodes keep 41 vectors orthogonal, yet their gamma_40 is 1.1e-4
        # (true value 2.0): the rule does not resolve the weight
        with pytest.raises(PrecisionError):
            orthopoly.compute_recurrence([0.0, 0.0, 0.5], 10, 40, nodes_per_panel=3)

    def test_rejects_odd_degree(self):
        with pytest.raises(DomainError):
            orthopoly.compute_recurrence([0.0, 1.0, 0.0, 0.3], 10, 5)


class TestPartition:
    def test_n1_matches_quadrature(self, gauss_table):
        pv = orthopoly.partition_log(gauss_table, 1)
        z1, _ = quad(lambda s: math.exp(-10.0 * s * s), -np.inf, np.inf)
        assert pv == pytest.approx(math.log(z1), abs=1e-10)

    def test_n2_matches_tensor_quadrature(self):
        tab = orthopoly.compute_recurrence([0.0, 0.0, 0.5], 2, 4)
        pv = orthopoly.partition_log(tab, 2)
        from scipy.special import roots_legendre

        x0, w0 = roots_legendre(220)
        radius = 10.0
        x = radius * x0
        w = radius * w0 * np.exp(-x * x)  # N V = 2 * s^2/2 = s^2
        vand = (x[:, None] - x[None, :]) ** 2
        z2 = float(w @ vand @ w)
        assert pv == pytest.approx(math.log(z2), abs=1e-9)

    def test_n3_matches_qmc(self):
        tab = orthopoly.compute_recurrence([0.0, 0.0, 0.5], 2, 4)
        pv = orthopoly.partition_log(tab, 3)
        sob = qmc.Sobol(d=3, scramble=False, seed=0)
        pts = sob.random_base2(m=21)
        radius = 6.0
        lam = radius * (2.0 * pts - 1.0)
        vand = (
            (lam[:, 0] - lam[:, 1]) ** 2
            * (lam[:, 0] - lam[:, 2]) ** 2
            * (lam[:, 1] - lam[:, 2]) ** 2
        )
        vals = vand * np.exp(-np.sum(lam**2, axis=1))
        z3 = float(np.mean(vals)) * (2.0 * radius) ** 3
        assert math.exp(pv) == pytest.approx(z3, rel=1e-3)

    def test_consistency_identity(self, gauss_table):
        pv = orthopoly.partition_log(gauss_table, 5)
        direct = math.lgamma(6.0) - 2.0 * float(np.sum(gauss_table.log_kappa[:5]))
        assert pv == direct


class TestAsymptotics:
    def test_onecut_limits(self):
        assert orthopoly.asym_onecut(-2.0, 2.0) == (1.0, 0.0)
        bh = rmt_eq.t9_halfwidth(X_STAR - 1.0)
        g, b = orthopoly.asym_onecut(4.0 / 3.0 - bh, 4.0 / 3.0 + bh)
        assert g == pytest.approx(bh / 2.0, rel=1e-14)
        assert b == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_interior_critical_data(self):
        crit = orthopoly.interior_critical_data_t9()
        assert crit.s_star == pytest.approx(4.0 / 3.0)
        bh = 2.0 / 3.0 * math.sqrt(35.0)
        assert crit.b - crit.a == pytest.approx(2.0 * bh, abs=1e-9)
        # theta angle of the endpoints: arcsin(2/sqrt(35))
        ratio = (crit.b + crit.a) / (crit.b - crit.a)
        assert math.asin(ratio) == pytest.approx(math.asin(2.0 / math.sqrt(35.0)), abs=1e-10)
        assert 0.0 < crit.omega < 1.0

    def test_interior_omega_against_quad(self):
        # the fixed 16-node rule in phi against adaptive quadrature in s
        crit = orthopoly.interior_critical_data_t9()
        mu = rmt_eq.measure_t9(X_STAR)
        ref, _ = quad(lambda s: float(mu.density(s)), 0.0, crit.b, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert crit.omega == pytest.approx(ref, abs=1e-14)

    def test_interior_at_xstar_scale_argument_zero(self):
        crit = orthopoly.interior_critical_data_t9()
        g1, b1 = orthopoly.asym_interior(X_STAR, 7, crit)
        g2, b2 = orthopoly.asym_interior(X_STAR, 29, crit)
        # s_{x,n} = 0 for every n at the critical parameter, so the
        # envelope factor is q(0) in both cases
        q0 = painleve.eval_hm(painleve.default_hm_grid(), 0.0)
        c = (math.pi * crit.big_c * math.sqrt((crit.s_star - crit.a) * (crit.b - crit.s_star)) / 4.0) ** (1.0 / 3.0)
        for n, g in ((7, g1), (29, g2)):
            pred = (crit.b - crit.a) / 4.0 - 0.5 / c * q0 * math.cos(
                2.0 * math.pi * n * crit.omega
            ) * n ** (-1.0 / 3.0)
            assert g == pytest.approx(pred, abs=1e-12)

    def test_interior_far_side_recovers_onecut(self):
        crit = orthopoly.interior_critical_data_t9()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, b = orthopoly.asym_interior(X_STAR - 1.5, 10**7, crit)
        assert g == pytest.approx((crit.b - crit.a) / 4.0, abs=1e-9)
        assert b == pytest.approx((crit.b + crit.a) / 2.0, abs=1e-9)

    def test_edge_constants(self):
        assert orthopoly.EDGE_C == pytest.approx(6.0 ** (2.0 / 7.0), rel=1e-15)
        assert orthopoly.EDGE_C1 == pytest.approx(6.0 ** (-1.0 / 7.0), rel=1e-15)
        assert orthopoly.EDGE_C2 == pytest.approx(2.0 * 6.0 ** (-3.0 / 7.0), rel=1e-15)

    def test_edge_center_point(self):
        g, b = orthopoly.asym_edge(0.0, 1.0, 100, big_l=30.0, n_points=9001)
        u00 = painleve.eval_pi2(painleve.pi2_solution_cached(0.0, 30.0, 9001), 0.0)
        corr = u00 * 100 ** (-2.0 / 7.0)
        assert g == pytest.approx(1.0 + corr / (2.0 * orthopoly.EDGE_C), abs=1e-12)
        assert b == pytest.approx(corr / orthopoly.EDGE_C, abs=1e-12)

    def test_edge_gamma_beta_locking(self):
        # both formulas read the same profile value, so
        # gamma - 1 = beta / 2 exactly as evaluated
        g, b = orthopoly.asym_edge(1e-4, 1.0 + 1e-4, 64, big_l=30.0, n_points=9001)
        assert g - 1.0 == pytest.approx(b / 2.0, abs=1e-15)

    def test_edge_domain_guard(self):
        with pytest.raises(DomainError):
            orthopoly.asym_edge(1.0, 1.0, 10**9, big_l=30.0)


class TestConjecturedExterior:
    def test_suppressed_train_reduces_to_onecut(self):
        params = orthopoly.ExteriorParams(
            a=-2.0, b=2.0, c1=0.5, c2=lambda y, k: 0.0, c3=lambda k: 40.0 + k
        )
        out = orthopoly.conjectured_exterior(0.3, 50, params)
        assert out.conjectural
        # every center is far positive and rising, so the kernel adds one
        # negligible term and stops at the turnaround
        assert out.gamma_n == pytest.approx(1.0, abs=1e-10)
        assert out.beta_n == pytest.approx(0.0, abs=1e-10)

    def test_single_centered_term(self):
        params = orthopoly.ExteriorParams(
            a=-2.0,
            b=2.0,
            c1=0.7,
            c2=lambda y, k: 1.0 + k,
            c3=lambda k: (1.0 + k) * math.log(50) if k == 0 else -10.0 * (k + 1),
        )
        out = orthopoly.conjectured_exterior(0.0, 50, params)
        assert out.gamma_n == pytest.approx(1.0 + 0.7, abs=1e-8)

    def test_bitwise_match_with_trailing_kernel(self):
        # matched parameters: route the exact trailing-edge offsets through
        # the conjectured-exterior evaluation; the shared kernel must give
        # bit-identical sums
        from kdvrmt import hopf, kdv_asym

        data = hopf.make_sech2_data()
        edge = kdv_asym.solve_trailing_edge(0.25, data)
        import math as _m

        slope = -hopf.theta_v(edge.v, edge.u, data)
        log_gamma = _m.log(4.0 * (edge.v - edge.u) ** 1.25 * _m.sqrt(slope))
        eps, y = 0.02, 0.8
        direct = kdv_asym.trailing_train_sum(y, eps, log_gamma)
        params = orthopoly.ExteriorParams(
            a=0.0,
            b=0.0,
            c1=1.0,
            c2=lambda yy, k: 0.0,
            c3=lambda k: kdv_asym.trailing_offset(k, y, eps, log_gamma),
        )
        out = orthopoly.conjectured_exterior(y, 17, params)
        assert out.gamma_n == direct  # bit-for-bit


class TestCompare:
    def test_gaussian_regular_machine_precision(self):
        f = rmt_eq.QuarticField(0.0, 0.0)
        rows, slope = orthopoly.compare_asymptotics(f, [4, 8, 12], "regular")
        # gamma_n = sqrt(n/n) = 1 exactly; formula (b-a)/4 = 1
        for r in rows:
            assert r["err_gamma"] < 1e-10
            assert r["err_beta"] < 1e-10

    def test_regular_n200_in_regime(self):
        f = rmt_eq.QuarticField(-1.0, 0.5)
        rows, _ = orthopoly.compare_asymptotics(f, [200], "regular")
        assert rows[0]["err_gamma"] < 1e-5
        tab = orthopoly.compute_recurrence(f, 200, 200)
        fine = orthopoly.compute_recurrence(f, 200, 200, nodes_per_panel=96)
        assert np.max(np.abs(tab.gamma - fine.gamma)) < 1e-13
        assert np.max(np.abs(tab.beta - fine.beta)) < 1e-13

    def test_onecut_tail_slope(self):
        # the n^-2 coefficient is modulated, so the fit needs every
        # integer in the window to avoid aliasing the oscillation
        f = rmt_eq.QuarticField(X_STAR - 1.0, 9.0)
        rows, slope = orthopoly.compare_asymptotics(f, range(20, 49), "regular")
        assert -2.6 < slope < -1.4
