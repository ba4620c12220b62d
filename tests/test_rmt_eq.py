import math

import numpy as np
import pytest

from kdvrmt import rmt_eq
from kdvrmt.errors import DomainError, NotOneCutError

from oracles import log_potential_oracle, onecut_scan_starts

X_STAR = rmt_eq.X_STAR


class TestField:
    def test_gaussian_line(self):
        f = rmt_eq.QuarticField(0.0, 0.0)
        v, vp, vpp = rmt_eq.field_eval(f, 1.7)
        assert v == pytest.approx(1.7**2 / 2.0, rel=1e-15)
        assert vp == pytest.approx(1.7, rel=1e-15)
        assert vpp == pytest.approx(1.0, rel=1e-15)

    def test_t9_symmetry_point(self):
        f = rmt_eq.QuarticField(0.3, 9.0)
        _, vp, _ = rmt_eq.field_eval(f, 4.0 / 3.0)
        assert abs(vp) < 1e-13
        c3 = np.polynomial.polynomial.polyder(rmt_eq.field_coeffs(f), 3)
        v3 = np.polynomial.polynomial.polyval(4.0 / 3.0, c3)
        assert abs(v3) < 1e-13

    @pytest.mark.parametrize("x,t", [(0.0, 1.0), (0.3, 9.0), (-1.2, 0.5)])
    def test_values_are_numpy_polynomial_bit_for_bit(self, x, t):
        f = rmt_eq.QuarticField(x, t)
        c = rmt_eq.field_coeffs(f)
        poly = np.polynomial.polynomial
        rng = np.random.default_rng(4)
        for s in (1.7, rng.uniform(-3.0, 3.0, 16), rng.uniform(-3.0, 3.0, (65, 65, 16))):
            ref = (poly.polyval(s, c), poly.polyval(s, poly.polyder(c)), poly.polyval(s, poly.polyder(c, 2)))
            for val, want in zip(rmt_eq.field_eval(f, s), ref):
                assert type(val) is type(want) and np.shape(val) == np.shape(want)
                assert np.all(val == want)

    def test_finite_value(self):
        f = rmt_eq.QuarticField(0.0, 1.0)
        v, _, _ = rmt_eq.field_eval(f, 2.0)
        expected = 2.0**4 / 20.0 - 4.0 * 8.0 / 15.0 + 4.0 / 5.0 + 16.0 / 5.0
        assert v == pytest.approx(expected, rel=1e-14)


class TestExplicitMeasures:
    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
    def test_gaussian_mass(self, x):
        assert rmt_eq.measure_gaussian(x).mass() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_support_and_density(self):
        mu = rmt_eq.measure_gaussian(0.0)
        assert mu.support == (-2.0, 2.0)
        s = 0.7
        assert mu.density(s) == pytest.approx(math.sqrt(4.0 - s * s) / (2 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_line_t_mass(self, t):
        assert rmt_eq.measure_line_t(t).mass() == pytest.approx(1.0, abs=1e-12)

    def test_line_t_quintic_vanishing_at_one(self):
        mu = rmt_eq.measure_line_t(1.0)
        # density ~ (2-s)^{5/2} at the right endpoint: h itself vanishes
        assert float(mu.h(2.0)) == pytest.approx(0.0, abs=1e-14)
        assert float(mu.h(0.0)) > 0.0

    def test_line_t_positive_at_right_end_for_small_t(self):
        mu = rmt_eq.measure_line_t(0.5)
        assert float(mu.h(2.0)) > 0.0

    def test_line_t_domain(self):
        with pytest.raises(DomainError):
            rmt_eq.measure_line_t(1.5)

    def test_t9_constants_at_xstar(self):
        assert rmt_eq.t9_halfwidth(X_STAR) == pytest.approx(2.0 / 3.0 * math.sqrt(35.0), abs=1e-10)
        assert rmt_eq.t9_offset(X_STAR) == pytest.approx(0.0, abs=1e-10)
        assert X_STAR == pytest.approx(-math.log(245.0 / 9.0), abs=1e-15)

    @pytest.mark.parametrize("dx", [0.0, 1.0, 2.0])
    def test_t9_mass(self, dx):
        assert rmt_eq.measure_t9(X_STAR - dx).mass() == pytest.approx(1.0, abs=1e-12)

    def test_t9_positive_inside_for_x_below_xstar(self):
        mu = rmt_eq.measure_t9(X_STAR - 1.0)
        a, b = mu.support
        assert rmt_eq.t9_offset(X_STAR - 1.0) > 0.0
        dense = np.linspace(a + 1e-6, b - 1e-6, 500)
        assert np.min(mu.density(dense)) > 0.0

    def test_t9_out_of_regime(self):
        with pytest.raises(DomainError):
            rmt_eq.measure_t9(X_STAR + 0.5)


class TestVariational:
    def test_semicircle_constancy(self):
        mu = rmt_eq.measure_gaussian(0.0)
        eq, _ = rmt_eq.variational_residual(mu, rmt_eq.QuarticField(0.0, 0.0))
        assert eq < 1e-8

    def test_semicircle_constant_value(self):
        # classical Lagrange constant of the radius-2 semicircle
        mu = rmt_eq.measure_gaussian(0.0)
        v0 = float(rmt_eq.field_eval(rmt_eq.QuarticField(0.0, 0.0), 0.0)[0])
        assert 2.0 * rmt_eq.log_potential(mu, 0.0) - v0 == pytest.approx(-1.0, abs=1e-9)

    def test_log_potential_against_oracle(self):
        mu = rmt_eq.measure_line_t(0.5)
        points = (-1.3, 0.2, 2.8)
        for s in points:
            assert rmt_eq.log_potential(mu, s) == pytest.approx(
                log_potential_oracle(mu, s), abs=1e-9
            )
        # an array of points gives the pointwise values
        many = rmt_eq.log_potential(mu, np.array(points))
        assert many == pytest.approx([rmt_eq.log_potential(mu, s) for s in points], abs=1e-15)

    def test_wrong_measure_detected(self):
        eq, _ = rmt_eq.variational_residual(
            rmt_eq.measure_gaussian(0.0), rmt_eq.QuarticField(0.0, 1.0)
        )
        assert eq > 1e-2

    def test_exterior_margin_nonnegative(self):
        mu = rmt_eq.measure_t9(X_STAR)
        _, margin = rmt_eq.variational_residual(mu, rmt_eq.QuarticField(X_STAR, 9.0))
        assert margin >= 0.0

    @pytest.mark.parametrize(
        "mu,f",
        [
            (rmt_eq.measure_gaussian(1.0), rmt_eq.QuarticField(1.0, 0.0)),
            (rmt_eq.measure_line_t(0.25), rmt_eq.QuarticField(0.0, 0.25)),
            (rmt_eq.measure_t9(X_STAR - 1.0), rmt_eq.QuarticField(X_STAR - 1.0, 9.0)),
        ],
    )
    def test_families_satisfy_conditions(self, mu, f):
        eq, margin = rmt_eq.variational_residual(mu, f)
        assert eq < 1e-6
        assert margin > -1e-8


class TestEndpoints:
    def test_gaussian(self):
        a, b = rmt_eq.solve_onecut_endpoints(rmt_eq.QuarticField(0.0, 0.0))
        assert a == pytest.approx(-2.0, abs=1e-10)
        assert b == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("dx", [0.0, 1.0, 2.0])
    def test_t9_matches_closed_form(self, dx):
        x = X_STAR - dx
        a, b = rmt_eq.solve_onecut_endpoints(rmt_eq.QuarticField(x, 9.0))
        bh = rmt_eq.t9_halfwidth(x)
        assert a == pytest.approx(4.0 / 3.0 - bh, abs=1e-8)
        assert b == pytest.approx(4.0 / 3.0 + bh, abs=1e-8)

    def test_residual_replay(self):
        f = rmt_eq.QuarticField(-0.5, 0.5)
        a, b = rmt_eq.solve_onecut_endpoints(f)
        res = rmt_eq._endpoint_conditions(f, 0.5 * (a + b), 0.5 * (b - a))
        assert np.max(np.abs(res)) < 1e-10

    def test_two_cut_side_rejected(self):
        with pytest.raises(NotOneCutError):
            rmt_eq.solve_onecut_endpoints(rmt_eq.QuarticField(X_STAR + 1.0, 9.0))

    @pytest.mark.parametrize(
        "x,t",
        [
            (X_STAR - 1.0, 9.0),
            (0.0, 1.0),
            (0.0, 0.0),
            (-1.02, 1.0),
            (-0.98, 0.51),
            (-1.0, 0.5),
            (0.25, 1.0),
            (0.0, 9.0),
            (-2.0, 9.0),
            (X_STAR + 1.0, 9.0),
            (0.0, 8.95),  # near-symmetric two-well field
        ],
    )
    def test_scan_starts_match_scalar_loop(self, x, t):
        f = rmt_eq.QuarticField(x, t)
        assert rmt_eq._scan_starts(f) == onecut_scan_starts(f)

    def test_rebuilt_measure_consistent(self):
        f = rmt_eq.QuarticField(X_STAR - 1.0, 9.0)
        mu = rmt_eq.make_onecut_measure(f)
        ref = rmt_eq.measure_t9(X_STAR - 1.0)
        assert mu.mass() == pytest.approx(1.0, abs=1e-10)
        s = np.linspace(mu.support[0] + 0.1, mu.support[1] - 0.1, 40)
        assert np.max(np.abs(mu.density(s) - ref.density(s))) < 1e-8


class TestClassify:
    def test_edge_type_at_0_1(self):
        rep = rmt_eq.classify(rmt_eq.measure_line_t(1.0), rmt_eq.QuarticField(0.0, 1.0))
        assert rep.kind == "edge_III"
        assert rep.location == pytest.approx(2.0, abs=1e-6)

    def test_interior_type_at_xstar(self):
        rep = rmt_eq.classify(rmt_eq.measure_t9(X_STAR), rmt_eq.QuarticField(X_STAR, 9.0))
        assert rep.kind == "interior_II"
        assert rep.location == pytest.approx(4.0 / 3.0, abs=1e-4)

    def test_regular_case(self):
        rep = rmt_eq.classify(
            rmt_eq.measure_t9(X_STAR - 1.0), rmt_eq.QuarticField(X_STAR - 1.0, 9.0)
        )
        assert rep.kind == "none"
        assert rep.margin > 1e-3


class TestPhaseDiagram:
    def test_sweep_and_breaking_margin(self):
        rows = rmt_eq.rmt_phase_diagram([X_STAR - 1.0, X_STAR - 0.3, X_STAR + 0.7], [9.0])
        by_x = {round(r["x"] - X_STAR, 1): r for r in rows}
        assert by_x[-1.0]["class"] == "none"
        assert by_x[-1.0]["margin"] > 0.0
        # past x* the one-cut solve must fail (presumed two-cut regime)
        assert by_x[0.7]["class"] == "failed"

    def test_cell_0_1_is_edge_singular(self):
        rows = rmt_eq.rmt_phase_diagram([0.0], [1.0])
        assert rows[0]["class"] == "edge_III"

    def test_failed_seed_falls_back_to_scan(self):
        # seeded from (0, 1), Newton at (0.25, 1) fails; the cell must
        # then match a cold solve instead of coming back failed
        row = rmt_eq.rmt_phase_diagram([0.0, 0.25], [1.0])[1]
        f = rmt_eq.QuarticField(0.25, 1.0)
        rep = rmt_eq.classify(rmt_eq.make_onecut_measure(f), f)
        assert row["class"] == rep.kind == "none"
        assert row["margin"] == pytest.approx(min(rep.margins.values()), abs=1e-10)

    def test_cold_solve_lands_in_the_exterior_valid_well(self):
        # the first scan start at (1.25, 2) converges to a one-cut measure
        # in the right well (support near [2.57, 3.97], exterior margin
        # about -23.6); the cold solve must pass it over for the measure
        # the sweep from x = 1 reaches
        row = rmt_eq.rmt_phase_diagram([1.0, 1.25], [2.0])[1]
        f = rmt_eq.QuarticField(1.25, 2.0)
        rep = rmt_eq.classify(rmt_eq.make_onecut_measure(f), f)
        assert row["class"] == rep.kind == "none"
        assert rep.margins["exterior_I"] > 0.0
        assert row["margin"] == pytest.approx(min(rep.margins.values()), abs=1e-10)
        assert row["margin"] == pytest.approx(0.157, abs=1e-3)
        # a seed from a cell without a valid one-cut measure (x = 0, t = 5)
        # must not carry the sweep into the wrong well either
        rows = rmt_eq.rmt_phase_diagram([0.0, 1.0], [5.0])
        assert rows[0]["class"] == "exterior_I"
        assert rows[1]["class"] == "none" and rows[1]["margin"] > 0.0

    def test_failures_do_not_abort(self):
        rows = rmt_eq.rmt_phase_diagram([X_STAR + 1.0, X_STAR - 1.0], [9.0])
        assert len(rows) == 2
        classes = {r["class"] for r in rows}
        assert "failed" in classes and "none" in classes
