import math
import time

import mpmath
import numpy as np
import pytest
from scipy import fft as sfft

from kdvrmt import hopf, kdv_direct
from kdvrmt.errors import DomainError, ResolutionError, StabilityError


@pytest.fixture(scope="module")
def data():
    return hopf.make_sech2_data()


def soliton(x, t, kappa=1.0, x0=0.0):
    return 2.0 * kappa**2 / np.cosh(kappa * (x - 4.0 * kappa**2 * t - x0)) ** 2


class TestSolveKdV:
    def test_zero_field_stays_zero(self):
        n = 2**8
        field = kdv_direct.solve_kdv(
            None, eps=1.0, t_final=0.5, big_p=10.0, m=8, u0_values=np.zeros(n)
        )
        assert np.max(np.abs(field.u)) == 0.0

    def test_soliton_propagation(self):
        P, m = 20.0, 9
        n = 2**m
        x = -P + 2 * P / n * np.arange(n)
        field = kdv_direct.solve_kdv(
            None, eps=1.0, t_final=1.0, big_p=P, m=m, u0_values=soliton(x, 0.0)
        )
        err = np.max(np.abs(field.u - soliton(field.x, 1.0)))
        assert err < 1e-4

    def test_conservation(self, data):
        field = kdv_direct.solve_kdv(data, eps=0.1, t_final=0.2)
        assert field.mass_drift < 1e-8
        assert field.l2_drift < 1e-8

    def test_hopf_window_error_small(self, data):
        field = kdv_direct.solve_kdv(data, eps=0.1, t_final=0.1)
        xs = np.linspace(-3.0, -1.0, 31)
        ref = np.array([hopf.hopf_solve(float(xv), 0.1, data) for xv in xs])
        assert np.max(np.abs(kdv_direct.probe(field, xs) - ref)) < 0.05

    def test_hopf_window_error_decreases_with_eps(self, data):
        xs = np.linspace(-3.0, -1.0, 21)
        ref = np.array([hopf.hopf_solve(float(xv), 0.1, data) for xv in xs])
        errs = []
        for eps in (0.2, 0.1, 0.05):
            field = kdv_direct.solve_kdv(data, eps=eps, t_final=0.1)
            errs.append(float(np.max(np.abs(kdv_direct.probe(field, xs) - ref))))
        assert errs[0] > errs[1] > errs[2]

    def test_time_tolerance_convergence(self, data):
        a = kdv_direct.solve_kdv(data, eps=0.1, t_final=0.1, rtol=1e-8)
        b = kdv_direct.solve_kdv(data, eps=0.1, t_final=0.1, rtol=1e-11)
        assert np.max(np.abs(a.u - b.u)) < 1e-6

    def test_fixed_ladder_order_four(self, data):
        # Krogstad ETDRK4 at h = T/8 ... T/64 against T/1024: error ratios ~16
        n, big_p, eps, t_final = 1024, 15.0, 0.1, 0.1
        dx = 2.0 * big_p / n
        k = 2.0 * math.pi * np.fft.rfftfreq(n, d=dx)
        dealias = (k <= (2.0 / 3.0) * k[-1]).astype(float)
        u0 = data.u0(-big_p + dx * np.arange(n))

        def nonlinear(v):
            w = sfft.irfft(v * dealias, n)
            return -3j * k * dealias * sfft.rfft(w * w)

        def run(steps):
            h = np.array([[t_final / steps]])
            c = kdv_direct._etd_coefficients(h, 1j * eps**2 * k**3)[:, 0]
            v = sfft.rfft(u0)
            for _ in range(steps):
                v = kdv_direct._etdrk4(v, nonlinear(v), c, nonlinear)
            return sfft.irfft(v, n)

        ref = run(1024)
        errs = [float(np.max(np.abs(run(s) - ref))) for s in (8, 16, 32, 64)]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(14.0 < r < 18.0 for r in ratios), ratios

    def test_error_estimate_bounds_true_error(self, data):
        ref = kdv_direct.solve_kdv(data, eps=0.1, t_final=0.4)
        loose = kdv_direct.solve_kdv(data, eps=0.1, t_final=0.4, rtol=1e-9)
        err = float(np.max(np.abs(loose.u - ref.u)))
        assert 1e-11 < err <= loose.err_est
        assert ref.err_est < loose.err_est

    def test_default_tolerance_meets_tight_solve(self, data):
        # accuracy guard: a faster stepper may not loosen the default solve
        ref = kdv_direct.solve_kdv(data, eps=0.2, t_final=0.1, rtol=1e-15, atol=1e-17)
        field = kdv_direct.solve_kdv(data, eps=0.2, t_final=0.1)
        assert float(np.max(np.abs(field.u - ref.u))) <= 1e-12

    def test_underresolved_run_fails_fast(self):
        # m = 8 cannot hold this amplitude: the tail passes 1e-6 of the peak within a few steps
        n = 2**8
        x = -10.0 + 20.0 / n * np.arange(n)
        t0 = time.perf_counter()
        with pytest.raises(ResolutionError, match="spectral tail"):
            kdv_direct.solve_kdv(
                None, eps=1.0, t_final=1.0, big_p=10.0, m=8, u0_values=1e3 * np.exp(-x**2)
            )
        assert time.perf_counter() - t0 < 1.0

    def test_blowup_reaches_step_floor(self):
        n = 2**8
        x = -10.0 + 20.0 / n * np.arange(n)
        # every trial overflows, so the step shrinks down to the floor
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            StabilityError, match="step budget"
        ):
            kdv_direct.solve_kdv(
                None, eps=1.0, t_final=1.0, big_p=10.0, m=8, u0_values=1e150 * np.exp(-x**2)
            )

    def test_negative_time_rejected_before_sampling(self):
        def u0(x):
            raise AssertionError("u0 sampled")

        bad = hopf.InitialData(u0, u0, u0, u0, u0, u0, x_M=0.0, domain_halfwidth=15.0)
        with pytest.raises(DomainError, match="t_final"):
            kdv_direct.solve_kdv(bad, eps=0.2, t_final=-1.0)

    def test_rtol_below_machine_epsilon_rejected_before_sampling(self):
        def u0(x):
            raise AssertionError("u0 sampled")

        bad = hopf.InitialData(u0, u0, u0, u0, u0, u0, x_M=0.0, domain_halfwidth=15.0)
        with pytest.raises(DomainError, match="rtol .* machine epsilon"):
            kdv_direct.solve_kdv(bad, eps=0.2, t_final=0.1, rtol=1e-16)

    def test_mass_exact_and_rerun_bitwise(self, data):
        a = kdv_direct.solve_kdv(data, eps=0.2, t_final=0.1)
        b = kdv_direct.solve_kdv(data, eps=0.2, t_final=0.1)
        assert a.mass_drift == 0.0
        assert np.array_equal(a.u, b.u)
        assert (a.n_steps, a.err_est) == (b.n_steps, b.err_est)

    def test_resolution_guard(self, data):
        with pytest.raises(ResolutionError):
            kdv_direct.solve_kdv(data, eps=0.1, t_final=0.1, m=8)

    def test_desk_scale_guard(self, data):
        with pytest.raises(ResolutionError):
            kdv_direct.solve_kdv(data, eps=0.002, t_final=0.01)

    def test_wrap_decay_guard(self):
        bad = hopf.InitialData(
            u0=lambda x: -1.0 / np.cosh(np.asarray(x) / 8.0) ** 2,
            u0_prime=lambda x: np.tanh(np.asarray(x) / 8.0) / (4.0 * np.cosh(np.asarray(x) / 8.0) ** 2),
            f_L=lambda u: u,
            f_L_prime=lambda u: 1.0,
            f_L_second=lambda u: 0.0,
            f_L_third=lambda u: 0.0,
            x_M=0.0,
            domain_halfwidth=15.0,
        )
        with pytest.raises(DomainError):
            kdv_direct.solve_kdv(bad, eps=0.2, t_final=0.05, big_p=15.0)


class TestPhi:
    @pytest.mark.parametrize("y", [1e-6, 0.3, 0.99, 1.0, 1.5, 10.0, 1e3])
    def test_against_mpmath(self, y):
        with mpmath.workdps(40):
            z = mpmath.mpc(0, y)
            ref = [(mpmath.exp(z) - 1) / z]
            for k in (2, 3):
                ref.append((ref[-1] - 1 / mpmath.factorial(k - 1)) / z)
            ref = [complex(r) for r in ref]
        got = kdv_direct._phi(np.array([1j * y]))
        for g, r in zip(got, ref):
            assert abs(complex(g[0]) - r) <= 1e-15 * abs(r)


class TestProbe:
    def test_gridpoint_values(self, data):
        field = kdv_direct.solve_kdv(data, eps=0.2, t_final=0.05)
        for i in (0, 17, 512):
            assert kdv_direct.probe(field, float(field.x[i])) == pytest.approx(
                float(field.u[i]), abs=1e-11
            )

    def test_constant_field(self):
        n = 2**8
        field = kdv_direct.KdVField(
            x=-10.0 + 20.0 / n * np.arange(n),
            u=np.full(n, 0.7),
            eps=1.0,
            t=0.0,
            P=10.0,
            mass_drift=0.0,
            l2_drift=0.0,
            n_steps=0,
        )
        assert kdv_direct.probe(field, 3.21) == pytest.approx(0.7, abs=1e-13)

    def test_single_mode_interpolation(self):
        P = 10.0
        n = 2**8
        x = -P + 2 * P / n * np.arange(n)
        field = kdv_direct.KdVField(
            x=x, u=np.cos(math.pi * x / P), eps=1.0, t=0.0, P=P,
            mass_drift=0.0, l2_drift=0.0, n_steps=0,
        )
        x_mid = float(x[40]) + P / n  # half-cell offset
        assert kdv_direct.probe(field, x_mid) == pytest.approx(
            math.cos(math.pi * x_mid / P), abs=1e-12
        )

    def test_outside_domain_rejected(self, data):
        field = kdv_direct.solve_kdv(data, eps=0.2, t_final=0.01)
        with pytest.raises(DomainError):
            kdv_direct.probe(field, 99.0)
