import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvrmt import core, hopf, kdv_asym, painleve
from kdvrmt.errors import AccuracyError, DomainError, GenericityError

from oracles import edge_grid_scan


@pytest.fixture(scope="module")
def data():
    return hopf.make_sech2_data()


@pytest.fixture(scope="module")
def cp(data):
    return hopf.breaking_point(data)


@pytest.fixture(scope="module")
def lead(data):
    return kdv_asym.solve_leading_edge(0.25, data)


@pytest.fixture(scope="module")
def trail(data):
    return kdv_asym.solve_trailing_edge(0.25, data)


class TestEdgeSystems:
    def test_leading_residual_replay(self, data, lead):
        assert abs(6.0 * 0.25 + hopf.theta_of(lead.v, lead.u, data)) < 1e-8
        assert abs(hopf.theta_v(lead.v, lead.u, data)) < 1e-8
        assert abs(lead.x_edge - 6.0 * 0.25 * lead.u - float(data.f_L(lead.u))) < 1e-10
        assert lead.u > lead.v

    def test_trailing_residual_replay(self, data, trail):
        assert abs(6.0 * 0.25 + hopf.theta_of(trail.v, trail.u, data)) < 1e-8
        assert abs(kdv_asym.trailing_integral(trail.u, trail.v, 0.25, data)) < 1e-8
        assert trail.u < trail.v

    def test_trailing_integral_unconverged_raises(self, data, monkeypatch):
        # a kink in the integrand defeats the node doubling by 768 nodes
        monkeypatch.setattr(kdv_asym, "theta_of", lambda lam, u, d: np.abs(lam - 0.3))
        with pytest.raises(AccuracyError):
            kdv_asym.trailing_integral(0.0, 1.0, 0.0, data)

    def test_trailing_integral_partials(self, data, trail):
        # off the edge, where 6t + theta(v; u) and so dI/dv are not zero
        t, u, v, h = 0.25, trail.u + 0.01, trail.v - 0.03, 1e-5

        def integral(a, b):
            return kdv_asym.trailing_integral(a, b, t, data)

        d_u = (integral(u + h, v) - integral(u - h, v)) / (2.0 * h)
        d_v = (integral(u, v + h) - integral(u, v - h)) / (2.0 * h)
        root = math.sqrt(v - u)
        assert d_u == pytest.approx(-root * (6.0 * t + float(data.f_L_prime(u))), rel=1e-6)
        assert d_v == pytest.approx(root * (6.0 * t + hopf.theta_of(v, u, data)), rel=1e-6)

    @pytest.mark.parametrize("t", [0.25, 0.28])
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.01, 0.05), (0.005, -0.1)])
    def test_trailing_jacobian_against_differences(self, data, t, shift):
        edge = kdv_asym.solve_trailing_edge(t, data)
        w = np.array([edge.u, math.log(edge.v - edge.u)]) + shift
        fun, jac = kdv_asym._trailing_system(t, data)
        exact = jac(w, fun(w))
        diff = core._fd_jacobian(fun, w, fun(w))
        assert np.max(np.abs(exact - diff)) <= 1e-6 * np.max(np.abs(diff))

    def test_trailing_solve_skips_differences_of_the_integral(self, data, monkeypatch):
        # central differences of the full residual evaluate the nested
        # integral four more times per iterate (122 calls in all)
        calls = []
        inner = kdv_asym._sqrt_weighted_integral

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(kdv_asym, "_sqrt_weighted_integral", counted)
        kdv_asym.solve_trailing_edge(0.25, data)
        assert len(calls) <= 40

    def test_leading_against_grid_scan_oracle(self, data, lead):
        u_ref, v_ref = edge_grid_scan(0.25, data, "leading")
        assert lead.u == pytest.approx(u_ref, abs=2e-4)
        assert lead.v == pytest.approx(v_ref, abs=2e-4)

    def test_trailing_against_grid_scan_oracle(self, data, trail):
        u_ref, v_ref = edge_grid_scan(0.25, data, "trailing")
        assert trail.u == pytest.approx(u_ref, abs=2e-4)
        assert trail.v == pytest.approx(v_ref, abs=2e-4)

    def test_trailing_start_step_stays_off_the_diagonal(self, data):
        # from t_c + 1e-4, Newton's first step toward t = 0.23 lands on the
        # trivial root v = u (gap ~1e-12); the continuation must halve that
        # step instead of returning the point
        trail = kdv_asym.solve_trailing_edge(0.23, data)
        u_ref, v_ref = edge_grid_scan(0.23, data, "trailing")
        assert trail.u == pytest.approx(u_ref, abs=2e-4)
        assert trail.v == pytest.approx(v_ref, abs=2e-4)

    def test_degeneration_at_catastrophe(self, data, cp):
        t = cp.t_c + 1e-8
        lead = kdv_asym.solve_leading_edge(t, data)
        trail = kdv_asym.solve_trailing_edge(t, data)
        for edge in (lead, trail):
            assert edge.x_edge == pytest.approx(cp.x_c, abs=1e-3)
            assert edge.u == pytest.approx(cp.u_c, abs=1e-3)
            assert edge.v == pytest.approx(cp.u_c, abs=1e-3)

    def test_cusp_ordering(self, data, cp):
        # t <= t_c + 0.05 ~ 0.267, well inside the trailing window (the
        # continuation solves up to ~0.29896; the branch itself ends at
        # t* ~ 0.3023, where u reaches the profile minimum -1)
        for dt in (0.01, 0.03, 0.05):
            t = cp.t_c + dt
            lead = kdv_asym.solve_leading_edge(t, data)
            trail = kdv_asym.solve_trailing_edge(t, data)
            assert trail.x_edge > lead.x_edge

    def test_below_catastrophe_rejected(self, data, cp):
        with pytest.raises(DomainError):
            kdv_asym.solve_leading_edge(cp.t_c - 0.01, data)


class TestPhaseDiagram:
    def test_rows_and_monotone_width(self, data, cp):
        t_grid = [0.23, 0.25, 0.26]
        rows = kdv_asym.kdv_phase_diagram(data, t_grid)
        assert len(rows) == 3
        widths = [r["x_plus"] - r["x_minus"] for r in rows]
        assert all(w > 0 for w in widths)
        assert widths == sorted(widths)
        # rows agree with independent per-t solves
        for r in rows:
            lead = kdv_asym.solve_leading_edge(r["t"], data)
            assert r["x_minus"] == pytest.approx(lead.x_edge, abs=1e-8)
            trail = kdv_asym.solve_trailing_edge(r["t"], data)
            assert r["x_plus"] == pytest.approx(trail.x_edge, abs=1e-8)

    def test_window_end_marked_not_fatal(self, data, cp):
        # at 0.30 a trailing solution exists (u ~ -0.99995; the branch ends
        # at t* ~ 0.3023), but near u = -1 the theta quadrature's node cap
        # rejects Newton's trial points; the sweep must mark, not abort
        rows = kdv_asym.kdv_phase_diagram(data, [0.25, 0.30])
        assert rows[1]["error"] != ""
        assert math.isnan(rows[1]["x_plus"])
        assert not math.isnan(rows[1]["x_minus"])  # leading edge still fine

    def test_window_end_solved_in_a_chain(self, data):
        # the last row lies 1.6e-4 before the end of the continuation
        # (~0.298962); a theta_v Jacobian row ends it before 0.2988
        rows = kdv_asym.kdv_phase_diagram(data, [0.22, 0.24, 0.26, 0.28, 0.2988])
        assert all(r["error"] == "" for r in rows)
        assert rows[-1]["x_plus"] == pytest.approx(-1.80325884198, abs=1e-8)

    def test_chained_sweep_reuses_theta_quadratures(self, data, monkeypatch):
        # a failed continuation step restarts Newton from the same iterate,
        # so its retries ask again for quadratures the memo holds (2,087 of
        # 2,319 computed); without the memo every one is computed
        asked, computed = [], []
        quadrature, kernel = hopf._theta_quadrature, hopf._theta_kernel

        def count(calls, fn):
            return lambda *args: calls.append(None) or fn(*args)

        monkeypatch.setattr(hopf, "_theta_quadrature", count(asked, quadrature))
        monkeypatch.setattr(hopf, "_theta_kernel", count(computed, kernel))
        hopf._theta_memo.cache_clear()
        rows = kdv_asym.kdv_phase_diagram(data, [0.22, 0.24, 0.26, 0.28, 0.30])
        assert rows[-1]["error"] != ""
        assert len(computed) <= 0.92 * len(asked)

    def test_chained_sweep_probes_skip_rungs_and_keep_the_results(self, data, monkeypatch):
        # the plain climb of every theta array integrates 92.1 M values over
        # this sweep (2 vCPU Xeon, numpy 2.4); the probe rows let 60.9 M do,
        # and every row value and error string stays the plain climb's
        def sweep():
            evaluated = [0]

            def counted(fn):
                def f(z):
                    evaluated[0] += np.size(z) if np.ndim(z) == 2 else 0
                    return fn(z)

                return f

            names = ("f_L_prime", "f_L_second", "f_L_third")
            d = dataclasses.replace(data, **{n: counted(getattr(data, n)) for n in names})
            hopf._theta_memo.cache_clear()
            rows = kdv_asym.kdv_phase_diagram(d, [0.22, 0.24, 0.26, 0.28, 0.30])
            return [(r["t"], repr(r["x_minus"]), repr(r["x_plus"]), r["error"]) for r in rows], evaluated[0]

        probed, n_probed = sweep()
        plain_climb = core.doubling_quadrature
        monkeypatch.setattr(
            hopf, "doubling_quadrature", lambda a, b, integrate, what, probe=None: plain_climb(a, b, integrate, what)
        )
        plain, n_plain = sweep()
        assert probed == plain
        assert "failed near t = 0.298962" in plain[-1][3]
        assert n_probed <= 0.75 * n_plain

    def test_chained_sweep_from_the_fold(self, data, cp):
        # the fold row lies before the seed point, and its gap is far too
        # small at 0.22: a warm start from it can land on a wrong branch
        rows = kdv_asym.kdv_phase_diagram(data, [cp.t_c + 1e-6, 0.22])
        assert rows[1]["error"] == ""
        lead = kdv_asym.solve_leading_edge(0.22, data)
        trail = kdv_asym.solve_trailing_edge(0.22, data)
        assert rows[1]["x_minus"] == pytest.approx(lead.x_edge, abs=1e-8)
        assert rows[1]["x_plus"] == pytest.approx(trail.x_edge, abs=1e-8)

    def test_sampled_data_row_names_the_theta_quadrature(self, data, tmp_path):
        # piecewise-cubic f_L' never meets the node-doubling tolerance; the
        # row reports that first failure, not a bisected continuation
        xs = np.linspace(-15.0, 15.0, 1201)
        path = tmp_path / "profile.csv"
        np.savetxt(path, np.column_stack([xs, np.asarray(data.u0(xs))]), delimiter=",")
        rows = kdv_asym.kdv_phase_diagram(hopf.load_initial_data_csv(path), [0.22])
        assert "theta quadrature" in rows[0]["error"]
        assert "validity window" not in rows[0]["error"]

    def test_cusp_vertex(self, data, cp):
        rows = kdv_asym.kdv_phase_diagram(data, [cp.t_c + 1e-6])
        assert rows[0]["x_minus"] == pytest.approx(cp.x_c, abs=1e-3)
        assert rows[0]["x_plus"] == pytest.approx(cp.x_c, abs=1e-3)


class TestEllipticAnsatz:
    def test_invariants(self):
        ans = kdv_asym.EllipticAnsatz(beta1=-0.2, beta2=-0.5, beta3=-0.8)
        assert 0.0 < ans.s < 1.0
        assert ans.tau.real == 0.0
        assert ans.tau.imag > 0.0

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            kdv_asym.EllipticAnsatz(beta1=-0.9, beta2=-0.5, beta3=-0.8)

    def test_merged_lower_branch_recovers_top_branch(self):
        # beta2 -> beta3: the modulus vanishes, the oscillation dies and the
        # field reduces to beta1
        ans = kdv_asym.EllipticAnsatz(beta1=-0.2, beta2=-0.8 + 1e-12, beta3=-0.8)
        val = kdv_asym.elliptic_approx(0.3, 0.1, 0.05, ans)
        assert val == pytest.approx(-0.2, abs=1e-6)

    def test_weak_limit_term(self):
        b1, b2, b3 = -0.2, -0.5, -0.8
        s = math.sqrt((b2 - b3) / (b1 - b3))
        k_val, e_val = core.complete_elliptic(s)
        alpha = -b1 + (b1 - b3) * e_val / k_val
        expected = b1 + b2 + b3 + 2.0 * alpha
        # value oracle: direct K, E evaluation of the mean term
        assert expected == pytest.approx(-1.5 + 2.0 * alpha, abs=1e-15)
        ans = kdv_asym.EllipticAnsatz(beta1=b1, beta2=b2, beta3=b3)
        assert ans.alpha == pytest.approx(alpha, rel=1e-13)

    def test_x_periodicity(self):
        ans = kdv_asym.EllipticAnsatz(beta1=-0.2, beta2=-0.5, beta3=-0.8)
        eps = 0.05
        s = ans.s
        k_val, _ = core.complete_elliptic(s)
        period = 2.0 * eps * k_val / math.sqrt(ans.beta1 - ans.beta3)
        x = 0.37
        v1 = kdv_asym.elliptic_approx(x, 0.1, eps, ans)
        v2 = kdv_asym.elliptic_approx(x + period, 0.1, eps, ans)
        assert v1 == pytest.approx(v2, abs=1e-8)

    def test_series_derivative_against_finite_differences(self):
        # the analytic theta-log second derivative inside elliptic_approx
        # is cross-checked by central differences of eps^2 log theta in x
        ans = kdv_asym.EllipticAnsatz(beta1=-0.2, beta2=-0.5, beta3=-0.8)
        eps = 0.07
        t = 0.12
        s, k_val, e_val, kp_val = ans.modulus_data
        tau = 1j * kp_val / k_val
        root = math.sqrt(ans.beta1 - ans.beta3)

        def log_theta(x):
            z = (root / (2.0 * eps * k_val)) * (x - 2.0 * t * sum((ans.beta1, ans.beta2, ans.beta3)))
            return math.log(core.theta3(z, tau))

        rng = np.random.default_rng(7)
        for x in rng.uniform(-1.0, 1.0, 5):
            h = 1e-4
            fd = (log_theta(x + h) - 2.0 * log_theta(x) + log_theta(x - h)) / h**2
            osc_fd = 2.0 * eps**2 * fd
            weak = ans.beta1 + ans.beta2 + ans.beta3 + 2.0 * ans.alpha
            full = kdv_asym.elliptic_approx(float(x), t, eps, ans)
            assert full - weak == pytest.approx(osc_fd, abs=1e-6)

    def test_soliton_degeneration_rejected(self):
        ans = kdv_asym.EllipticAnsatz(beta1=-0.2, beta2=-0.2 - 1e-15, beta3=-0.8)
        with pytest.raises(DomainError):
            kdv_asym.elliptic_approx(0.0, 0.1, 0.05, ans)


class TestCatastropheExpansion:
    def test_scaling_center_line(self, cp):
        # on x = x_c + 6 u_c (t - t_c) the first rescaled argument vanishes
        eps = 0.05
        t = cp.t_c + 0.01
        x = cp.x_c + 6.0 * cp.u_c * (t - cp.t_c)
        val = kdv_asym.catastrophe_approx(x, t, eps, cp)
        big_t = 6.0 * (t - cp.t_c) / (4.0 * cp.k**3 * eps**4) ** (1.0 / 7.0)
        sol = painleve.pi2_solution_cached(big_t)
        expected = cp.u_c + (2.0 * eps**2 / cp.k**2) ** (1.0 / 7.0) * painleve.eval_pi2(sol, 0.0)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_rescaled_argument_is_linear(self, cp):
        eps = 0.05
        t = cp.t_c
        dx = 0.3 * (8.0 * cp.k * eps**6) ** (1.0 / 7.0)
        sol = painleve.pi2_solution_cached(0.0)
        v1 = kdv_asym.catastrophe_approx(cp.x_c + dx, t, eps, cp)
        amp = (2.0 * eps**2 / cp.k**2) ** (1.0 / 7.0)
        expected = cp.u_c + amp * painleve.eval_pi2(sol, 0.3)
        assert v1 == pytest.approx(expected, abs=1e-12)

    def test_center_value_from_oracle(self, cp):
        # frozen through the independent shooting value U(0,0)
        eps = 0.05
        val = kdv_asym.catastrophe_approx(cp.x_c, cp.t_c, eps, cp)
        u00 = -0.4151721005
        amp = (2.0 * eps**2 / cp.k**2) ** (1.0 / 7.0)
        assert val == pytest.approx(cp.u_c + amp * u00, abs=1e-7)


class TestLeadingEdgeExpansion:
    def test_phase_at_edge_reduces_to_integral(self, data, lead):
        phase_edge = kdv_asym.leading_edge_phase(lead.x_edge, 0.25, lead, data)
        u, v = lead.u, lead.v
        rule = core.gauss_jacobi_rule(96, 0.0, 0.5)
        xi = v + (u - v) * 0.5 * (1.0 + rule.nodes)
        integral = ((u - v) * 0.5) ** 1.5 * float(
            np.dot(rule.weights, np.asarray(data.f_L_prime(xi)) + 6.0 * 0.25)
        )
        assert phase_edge == pytest.approx(2.0 * integral, rel=1e-10)

    def test_envelope_outside_decays_to_hopf_branch(self, data, lead):
        # x < x^- gives s > 0, where the envelope is Airy-small
        eps = 0.05
        x = lead.x_edge - 6.0 * eps ** (2.0 / 3.0)
        val = kdv_asym.leading_edge_approx(x, 0.25, eps, lead, data)
        c = -math.sqrt(lead.u - lead.v) * hopf.theta_vv(lead.v, lead.u, data)
        s = -(x - lead.x_edge) / (c ** (1.0 / 3.0) * math.sqrt(lead.u - lead.v) * eps ** (2.0 / 3.0))
        assert s > 4.0
        bound = 3.0 * (4.0 * eps ** (1.0 / 3.0) / c ** (1.0 / 3.0)) * core.airy(s)
        assert abs(val - lead.u) <= bound

    def test_envelope_inside_grows_like_parabola(self, data, lead):
        eps = 0.01
        x = lead.x_edge + 50.0 * eps ** (2.0 / 3.0)
        c = -math.sqrt(lead.u - lead.v) * hopf.theta_vv(lead.v, lead.u, data)
        s = -(x - lead.x_edge) / (c ** (1.0 / 3.0) * math.sqrt(lead.u - lead.v) * eps ** (2.0 / 3.0))
        assert s < -4.0
        grid = painleve.default_hm_grid()
        q_val = float(painleve.eval_hm(grid, s))
        assert q_val == pytest.approx(math.sqrt(-s / 2.0), rel=0.02)

    def test_wrong_edge_kind_rejected(self, data, trail):
        with pytest.raises(DomainError):
            kdv_asym.leading_edge_approx(0.0, 0.25, 0.05, trail, data)

    def test_unresolved_phase_integral_raises(self, data, lead):
        # a jump in f_L' inside [v, u] moves the phase integral by 1e-4
        # per node doubling: the guard refuses it instead of returning
        # the 96-node value
        mid = 0.5 * (lead.u + lead.v)
        jump = dataclasses.replace(
            data, f_L_prime=lambda xi: np.where(np.asarray(xi) < mid, -1.0, -2.0)
        )
        with pytest.raises(AccuracyError, match="phase integral"):
            kdv_asym.leading_edge_phase(lead.x_edge, 0.25, lead, jump)


class TestTrailingEdgeExpansion:
    def test_hermite_norm_constants(self):
        # h_0 = pi^{-1/4}, h_1 = sqrt(2)/pi^{1/4} enter through the offsets
        g = 1.7
        eps = 0.01
        x0 = kdv_asym.trailing_offset(0, 0.0, eps, math.log(g))
        expected0 = 0.25 * math.log(eps) - math.log(
            math.sqrt(2.0 * math.pi) / math.pi**0.25
        ) - 0.5 * math.log(g)
        assert x0 == pytest.approx(expected0, abs=1e-12)
        x1 = kdv_asym.trailing_offset(1, 0.0, eps, math.log(g))
        expected1 = 0.75 * math.log(eps) - math.log(
            math.sqrt(2.0 * math.pi) * math.sqrt(2.0) / math.pi**0.25
        ) - 1.5 * math.log(g)
        assert x1 == pytest.approx(expected1, abs=1e-12)

    def test_far_field_returns_branch_value(self, data, trail):
        # at desk-scale eps the interior of the train is dense (soliton
        # spacing ~ |ln eps|/2 per index), so clean far-field behaviour
        # lives outside the cusp (y < 0, all X_k already far negative)
        # and beyond the train turnaround (y >> 2 gamma^2 / eps)
        val_out = kdv_asym.trailing_edge_approx(-2.0, 0.25, 0.01, trail, data)
        assert val_out == pytest.approx(trail.u, abs=1e-4)
        val_far = kdv_asym.trailing_edge_approx(2000.0, 0.25, 0.01, trail, data)
        assert val_far == pytest.approx(trail.u, abs=1e-12)

    def test_value_against_direct_summation(self, data, trail):
        # independent summation with edge values from the solved system
        eps, y = 0.01, 0.5
        slope = -hopf.theta_v(trail.v, trail.u, data)
        gamma = 4.0 * (trail.v - trail.u) ** 1.25 * math.sqrt(slope)
        total = 0.0
        for k in range(200):
            log_hk = 0.5 * k * math.log(2.0) - 0.25 * math.log(math.pi) - 0.5 * math.lgamma(k + 1)
            xk = (
                0.5 * (0.5 - y + k) * math.log(eps)
                - (0.5 * math.log(2 * math.pi) + log_hk)
                - (k + 0.5) * math.log(gamma)
            )
            total += 1.0 / math.cosh(xk) ** 2 if abs(xk) < 300 else 0.0
        expected = trail.u + 2.0 * (trail.v - trail.u) * total
        val = kdv_asym.trailing_edge_approx(y, 0.25, eps, trail, data)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_truncation_invariance(self, data, trail):
        # extending the sum beyond the adaptive cutoff changes nothing
        eps, y = 0.02, 1.3
        val = kdv_asym.trailing_edge_approx(y, 0.25, eps, trail, data)
        slope = -hopf.theta_v(trail.v, trail.u, data)
        gamma = 4.0 * (trail.v - trail.u) ** 1.25 * math.sqrt(slope)
        base = kdv_asym.trailing_train_sum(y, eps, math.log(gamma))
        extended = base
        k = 0
        while True:
            xk = kdv_asym.trailing_offset(k, y, eps, math.log(gamma))
            if xk <= -0.5 * math.log(4.0 / 1e-16):
                break
            k += 1
        for kk in range(k + 1, k + 25):
            extended += core.sech2(kdv_asym.trailing_offset(kk, y, eps, math.log(gamma)))
        assert abs(base - extended) < 1e-14

    def test_eps_range_guard(self, data, trail):
        with pytest.raises(DomainError):
            kdv_asym.trailing_edge_approx(0.5, 0.25, 1.5, trail, data)

    @given(st.floats(min_value=-1.0, max_value=6.0), st.floats(min_value=0.005, max_value=0.2))
    @settings(max_examples=25, deadline=None)
    def test_sum_nonnegative_property(self, y, eps):
        total = kdv_asym.trailing_train_sum(y, eps, 0.3)
        assert 0.0 <= total < 3.0
