import math

import numpy as np
import pytest

from kdvrmt import painleve
from kdvrmt.core import airy, newton_solve
from kdvrmt.errors import AccuracyError, DomainError, SingularJacobianError

from oracles import hm_center_by_shooting, pi2_center_by_shooting


@pytest.fixture(scope="module")
def hm():
    return painleve.solve_hastings_mcleod(10.0, 4001)


@pytest.fixture(scope="module")
def pi2_t0():
    return painleve.pi2_solution_cached(0.0, 50.0)


def fd_replay_hm(grid):
    s = grid.s_grid
    q = grid.q_values
    h = s[1] - s[0]
    qpp = (-q[4:] + 16 * q[3:-1] - 30 * q[2:-2] + 16 * q[1:-3] - q[:-4]) / (12 * h * h)
    return np.max(np.abs(qpp - (s[2:-2] * q[2:-2] + 2 * q[2:-2] ** 3)))


def fd_replay_pi2(sol):
    # sixth-order interior stencil so the replay's own truncation error
    # stays beneath the 1e-8 budget being verified; the weights solve the
    # moment conditions on the grid's own (graded) spacing
    x = sol.x_grid
    idx = np.arange(3, x.size - 3)[:, None] + np.arange(-3, 4)
    d = x[idx] - x[3:-3, None]
    scale = d[:, -1:] - d[:, :1]
    moments = (d / scale)[:, None, :] ** np.arange(7)[None, :, None]
    unit = np.zeros((d.shape[0], 7))
    unit[:, 1] = 1.0
    w = np.linalg.solve(moments, unit[..., None])[..., 0] / scale
    du3 = np.sum(w * sol.u3[idx], axis=1)
    rhs = 240.0 * (
        sol.T * sol.u - sol.u**3 / 6.0 - (sol.u1**2 + 2 * sol.u * sol.u2) / 24.0 - x
    )
    return np.max(np.abs(du3 - rhs[3:-3])) / 240.0


def test_singular_collocation_jacobian_raises():
    # y' = 0 with both conditions on the second component leaves the level
    # of the first one free, so the Newton matrix is singular
    def zero(x, y):
        return np.zeros_like(np.atleast_2d(y))

    def zero_jac(x, y):
        return np.zeros((np.atleast_2d(y).shape[0], 2, 2))

    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(SingularJacobianError, match="singular"):
        painleve._mirk4_newton(zero, zero_jac, ([1], [1.0]), ([1], [0.0]), x, np.zeros((11, 2)))


def test_collocation_runs_on_the_shared_newton(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(painleve, "newton_solve", counting)
    painleve.solve_hastings_mcleod()
    assert len(calls) == 1
    # T = 0: the start on the continuation mesh, then two defect-mesh passes
    painleve.solve_pi2(0.0)
    assert len(calls) == 4
    assert all(kw["solve"] is not np.linalg.solve for kw in calls)


class TestHastingsMcLeod:
    def test_airy_tail_ratio(self, hm):
        assert 0.999 < painleve.eval_hm(hm, 8.0) / airy(8.0) < 1.001

    def test_parabola_tail_ratio(self, hm):
        assert 0.99 < painleve.eval_hm(hm, -8.0) / math.sqrt(4.0) < 1.01

    def test_positive_everywhere(self, hm):
        assert np.min(hm.q_values) > 0.0

    def test_interior_residual_replay(self, hm):
        assert fd_replay_hm(hm) < 1e-8

    def test_residual_norm_below_tolerance(self, hm):
        assert hm.residual_norm < 1e-8

    def test_residual_drops_with_refinement(self):
        # compare meshes coarse enough that the fourth-order error is
        # still above the finite-difference replay's rounding floor
        coarse = painleve.solve_hastings_mcleod(10.0, 401)
        fine = painleve.solve_hastings_mcleod(10.0, 801)
        assert fine.residual_norm < coarse.residual_norm / 4.0

    def test_eval_on_grid_is_exact(self, hm):
        i = 1234
        assert painleve.eval_hm(hm, float(hm.s_grid[i])) == pytest.approx(
            float(hm.q_values[i]), abs=1e-15
        )

    def test_eval_beyond_right_end_hands_off_to_airy(self, hm):
        val, flag = painleve.eval_hm_ext(hm, 12.0)
        assert flag
        assert val == pytest.approx(airy(12.0), rel=1e-12)

    def test_eval_beyond_left_end_hands_off_to_parabola(self, hm):
        val, flag = painleve.eval_hm_ext(hm, -14.0)
        assert flag
        assert val == pytest.approx(math.sqrt(7.0), rel=1e-12)

    def test_midgrid_refinement_agreement(self, hm):
        finer = painleve.solve_hastings_mcleod(10.0, 8001)
        s_probe = 0.5 * (hm.s_grid[2000] + hm.s_grid[2001])
        assert painleve.eval_hm(hm, s_probe) == pytest.approx(
            painleve.eval_hm(finer, s_probe), abs=1e-8
        )

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            painleve.solve_hastings_mcleod(6.0, 4001)
        with pytest.raises(DomainError):
            painleve.solve_hastings_mcleod(10.0, 100)

    def test_shooting_oracle_matches(self, hm):
        q0_shoot = hm_center_by_shooting()
        assert painleve.eval_hm(hm, 0.0) == pytest.approx(q0_shoot, abs=1e-6)


class TestPI2:
    def test_boundary_values_match_two_term_tail(self, pi2_t0):
        # Dirichlet data comes from the tail, so the mismatch is zero by
        # construction; the tail CONSISTENCY is the |X|^{-1} fit below
        assert pi2_t0.boundary_mismatch < 1e-12
        lead = -((6.0 * 50.0) ** (1.0 / 3.0))
        assert pi2_t0.u[-1] == pytest.approx(lead, rel=1e-3)

    def test_interior_residual_replay(self, pi2_t0):
        assert fd_replay_pi2(pi2_t0) < 1e-8

    @pytest.mark.parametrize("t_param", [1.0, -1.0])
    def test_other_t_residuals(self, t_param):
        sol = painleve.pi2_solution_cached(t_param, 50.0)
        assert sol.residual_norm < 1e-8
        assert fd_replay_pi2(sol) < 2e-8

    def test_residual_drops_with_refinement(self):
        # counts on the graded mesh where the h^4 drop (about 30x here)
        # is far above the replay's rounding floor
        coarse = painleve.solve_pi2(0.0, 50.0, 1501)
        fine = painleve.solve_pi2(0.0, 50.0, 3001)
        assert fine.residual_norm < coarse.residual_norm / 4.0

    def test_deterministic_rerun(self):
        a = painleve.solve_pi2(0.5, 30.0)
        b = painleve.solve_pi2(0.5, 30.0)
        assert np.array_equal(a.u, b.u)

    def test_tail_exponent_fit(self, pi2_t0):
        # the dropped tail term is bounded by |X|^{-1}; at T = 0 its
        # coefficient vanishes and the mismatch decays like |X|^{-2},
        # comfortably inside that bound (the generic-T window fit lives
        # in the acceptance suite, where it uses a wider domain)
        xs = np.linspace(15.0, 45.0, 13)
        mism = [
            abs(painleve.eval_pi2(pi2_t0, x) - float(painleve.pi2_asymptote(x, 0.0)))
            for x in xs
        ]
        slope = np.polyfit(np.log(xs), np.log(mism), 1)[0]
        assert slope < -0.9
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_shooting_oracle_runs_one_newton(self, monkeypatch):
        # one multiple-shooting Newton on the 21-node grid: about 240 IVPs
        import oracles

        calls = []
        real = oracles.solve_ivp
        monkeypatch.setattr(oracles, "solve_ivp", lambda *a, **k: calls.append(1) or real(*a, **k))
        oracles.pi2_center_by_shooting.cache_clear()
        u00 = oracles.pi2_center_by_shooting()
        assert len(calls) <= 300
        assert u00 == pytest.approx(-0.4151720866823554, abs=1e-10)

    def test_center_value_against_shooting(self, pi2_t0):
        u00 = pi2_center_by_shooting()
        assert painleve.eval_pi2(pi2_t0, 0.0) == pytest.approx(u00, abs=1e-6)

    def test_eval_outside_domain_flags(self, pi2_t0):
        val, flag = painleve.eval_pi2_ext(pi2_t0, 75.0)
        assert flag
        assert val == pytest.approx(float(painleve.pi2_asymptote(75.0, 0.0)), rel=1e-12)

    def test_small_l_rejected_for_large_t(self):
        with pytest.raises(DomainError):
            painleve.solve_pi2(5.0, 10.0, 2001)

    def test_coarse_mesh_over_residual_cap(self):
        # 500 graded nodes on [-50, 50] leave a replay residual near 3e-6
        with pytest.raises(AccuracyError, match="replay residual"):
            painleve.solve_pi2(0.0, 50.0, 500)

    def test_cache_is_bounded(self, monkeypatch):
        calls = []

        def fake_solve(t_param, big_l, n_points):
            calls.append(t_param)
            return t_param

        monkeypatch.setattr(painleve, "solve_pi2", fake_solve)
        keys = [100.0 + i for i in range(17)]
        for t_param in keys:
            assert painleve.pi2_solution_cached(t_param, 50.0, 1001) == t_param
        assert painleve.pi2_solution_cached(keys[-1], 50.0, 1001) == keys[-1]
        assert len(calls) == 17
        # the least recently used entry was evicted and is solved again
        painleve.pi2_solution_cached(keys[0], 50.0, 1001)
        assert len(calls) == 18

    def test_derivative_consistency(self, pi2_t0):
        # stored first derivative matches a finite difference of u
        # (three-point formula on the grid's own spacing)
        x, u = pi2_t0.x_grid, pi2_t0.u
        i = len(x) // 2 + 7
        hm, hp = x[i] - x[i - 1], x[i + 1] - x[i]
        fd = (hm**2 * u[i + 1] - hp**2 * u[i - 1] - (hm**2 - hp**2) * u[i]) / (hm * hp * (hm + hp))
        assert pi2_t0.u1[i] == pytest.approx(fd, abs=1e-5 + 1e-4 * abs(fd))


def test_replay_stencil_on_uniform_and_graded_grids():
    # uniform grid: the classical sixth-order stencil, to rounding
    x = np.linspace(-3.0, 3.0, 41)
    h = x[1] - x[0]
    v = np.sin(2.0 * x) + x**3
    classic = (-v[:-6] + 9 * v[1:-5] - 45 * v[2:-4] + 45 * v[4:-2] - 9 * v[5:-1] + v[6:]) / (60 * h)
    target = np.zeros_like(x)
    target[3:-3] = classic
    assert painleve._replay_residual(x, v, target) < 1e-12
    # sinh-graded grid: sixth-order convergence for a manufactured function
    errors = []
    for n in (81, 161, 321):
        x = 5.0 * np.sinh(3.0 * np.linspace(-1.0, 1.0, n)) / np.sinh(3.0)
        errors.append(painleve._replay_residual(x, np.sin(x), np.cos(x)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 5.5)
