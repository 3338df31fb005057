import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.integrate import quad

from drumspec.analytic_spectra import disk_spectrum, rectangle_spectrum
from drumspec.errors import EmptySpectrumError, NumericError
from drumspec.geometry import (
    make_disk,
    make_ellipse,
    make_lshape,
    make_regular_polygon,
    make_sector,
    make_square,
    make_square_with_square_hole,
)
from drumspec.heat_trace import (
    corner_term,
    corner_term_with_turn,
    evaluate_trace,
    read_trace,
    theoretical_coefficients,
    wedge_trace,
    write_trace,
)

PI = math.pi

# Frozen from the independent oracle: direct summation of the unit square's
# double series sum(exp(-pi^2 (m^2+n^2) t)) to machine tail.
H_SQUARE_T01 = 0.15377617729914048
H_SQUARE_T005 = 0.5799831778300211

# Frozen arithmetic of the finite-wedge trace formula at
# theta=pi/2, |W|=1, |dW|=2, t=0.01.
WEDGE_VALUE = 6.609773195725376


def h_square_oracle(t):
    terms = []
    m = 1
    while PI ** 2 * (m * m + 1) * t <= 745:
        n = 1
        while True:
            lam = PI ** 2 * (m * m + n * n)
            if lam * t > 745:
                break
            terms.append(math.exp(-lam * t))
            n += 1
        m += 1
    return math.fsum(sorted(terms))


class TestCornerTerm:
    def test_right_angle(self):
        assert_allclose(corner_term(PI / 2), 1.0 / 16.0, rtol=1e-15)

    def test_straight_boundary_contributes_nothing(self):
        assert corner_term(PI) == 0.0

    def test_reflex_is_negative(self):
        assert_allclose(corner_term(3 * PI / 2), -5.0 / 144.0, rtol=1e-15)

    def test_sign_pattern_and_monotonicity(self):
        thetas = np.linspace(0.05, 2 * PI - 0.05, 400)
        vals = np.array([corner_term(t) for t in thetas])
        assert np.all(vals[thetas < PI - 1e-9] > 0)
        assert np.all(vals[thetas > PI + 1e-9] < 0)
        assert np.all(np.diff(vals) < 0)

    def test_per_corner_identity(self):
        # theta/(12 pi) + corner defect == (pi^2 + theta^2)/(24 pi theta)
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0.01, 2 * PI - 0.01, size=100):
            lhs = theta / (12 * PI) + corner_term(theta)
            assert_allclose(lhs, corner_term_with_turn(theta), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, -1.0, 2 * PI, 7.0])
    def test_rejects_cusps_and_slits(self, theta):
        with pytest.raises(ValueError):
            corner_term(theta)


class TestTheoreticalCoefficients:
    def test_unit_square(self):
        coeffs = theoretical_coefficients(make_square())
        assert_allclose(coeffs.a_minus1, 1.0 / (4 * PI), rtol=1e-14)
        assert_allclose(coeffs.a_minus_half, -1.0 / (2 * math.sqrt(PI)), rtol=1e-14)
        assert_allclose(coeffs.a0, 0.25, rtol=1e-13)

    def test_unit_disk_is_chi_over_six(self):
        assert_allclose(theoretical_coefficients(make_disk()).a0, 1.0 / 6.0,
                        rtol=1e-12)

    def test_lshape(self):
        assert_allclose(theoretical_coefficients(make_lshape()).a0, 5.0 / 18.0,
                        rtol=1e-13)

    def test_square_with_hole(self):
        # chi = 0, four pi/2 corners outside and four reflex 3*pi/2 corners
        # at the hole; Eq. route gives 1/9 (and stays above chi/6 = 0).
        coeffs = theoretical_coefficients(make_square_with_square_hole())
        assert coeffs.chi == 0
        assert coeffs.n_corners == 8
        assert_allclose(coeffs.a0, 1.0 / 9.0, rtol=1e-13)

    def test_quarter_disk(self):
        coeffs = theoretical_coefficients(make_sector(PI / 2))
        assert_allclose(coeffs.curvature_term, 1.0 / 24.0, rtol=1e-13)
        assert_allclose(coeffs.a0, 11.0 / 48.0, rtol=1e-13)

    def test_half_disk(self):
        assert_allclose(theoretical_coefficients(make_sector(PI)).a0,
                        5.0 / 24.0, rtol=1e-13)

    def test_regular_polygon_sequence_decreases_to_smooth_limit(self):
        # Closed form (n-1)/(6(n-2)): 1/3, 1/4, 5/24, ... down to 1/6.
        values = []
        for n in range(3, 16):
            a0 = theoretical_coefficients(make_regular_polygon(n)).a0
            assert_allclose(a0, (n - 1) / (6.0 * (n - 2)), rtol=1e-12)
            values.append(a0)
        assert np.all(np.diff(values) < 0)
        assert values[0] == pytest.approx(1.0 / 3.0)
        assert values[1] == pytest.approx(1.0 / 4.0)
        assert values[3] == pytest.approx(5.0 / 24.0)
        assert all(v > 1.0 / 6.0 for v in values)

    def test_smooth_parametric_domain(self):
        assert_allclose(theoretical_coefficients(make_ellipse()).a0, 1.0 / 6.0,
                        rtol=1e-9)


class TestEvaluateTrace:
    def test_unit_square_against_series_oracle(self):
        spec = rectangle_spectrum(1.0, 1.0, 2000.0)
        samples = evaluate_trace(spec, [0.05, 0.1])
        assert_allclose(samples.values[1], H_SQUARE_T01, rtol=1e-10)
        assert_allclose(samples.values[0], H_SQUARE_T005, rtol=1e-10)
        assert_allclose(samples.values[1], h_square_oracle(0.1), rtol=1e-10)

    def test_decreasing_and_positive(self):
        spec = rectangle_spectrum(1.0, 1.0, 5000.0)
        samples = evaluate_trace(spec, np.geomspace(1e-3, 1.0, 40))
        assert np.all(samples.values > 0)
        assert np.all(np.diff(samples.values) < 0)
        assert np.all(samples.tail_bounds > 0)
        assert np.all(np.diff(samples.tail_bounds) <= 0)
        above_floor = samples.tail_bounds > 1e-300
        assert np.all(np.diff(samples.tail_bounds[above_floor]) < 0)

    def test_large_t_dominated_by_ground_state(self):
        spec = rectangle_spectrum(1.0, 1.0, 5000.0)
        t = np.array([0.5, 1.0])
        samples = evaluate_trace(spec, t)
        ratios = samples.values / np.exp(-spec.eigenvalues[0] * t)
        assert_allclose(ratios, 1.0, rtol=1e-3)

    def test_dilation_consistency(self):
        spec1 = rectangle_spectrum(1.0, 1.0, 8000.0)
        spec2 = rectangle_spectrum(2.0, 2.0, 2000.0)
        t = np.array([0.02, 0.05])
        h_big = evaluate_trace(spec2, 4.0 * t).values
        h_unit = evaluate_trace(spec1, t).values
        assert_allclose(h_big, h_unit, rtol=1e-12)

    def test_truncation_honesty(self):
        from drumspec.asymptotic_fit import choose_window

        spec_lo = rectangle_spectrum(1.0, 1.0, 5.0e3)
        spec_hi = rectangle_spectrum(1.0, 1.0, 2.0e4)
        grid = choose_window(spec_lo)
        lo = evaluate_trace(spec_lo, grid)
        hi = evaluate_trace(spec_hi, grid)
        # A few ulps of slack: where the true tail underflows, the measured
        # difference is dominated by rounding of the partial sums themselves.
        slack = 8 * np.finfo(float).eps * hi.values
        assert np.all(np.abs(lo.values - hi.values) <= lo.tail_bounds + slack)

    def test_flagging_not_fatal(self):
        spec = rectangle_spectrum(1.0, 1.0, 200.0)
        samples = evaluate_trace(spec, [1e-4, 0.05])
        # A tail bound above 10% of the partial sum is reported, not raised.
        assert samples.tail_bounds[0] > 0.1 * samples.values[0]
        assert samples.tail_bounds[1] <= 0.1 * samples.values[1]

    def test_equals_columnwise_fsum_reference(self):
        # Reference: the full K x grid matrix of terms, each column summed
        # with fsum.  fsum is exact, so summing one grid point at a time
        # must give the same doubles.
        grid = np.geomspace(2e-4, 0.2, 60)
        for spec in (disk_spectrum(1.0, 2.0e4), rectangle_spectrum(1.3, 0.7, 2.0e4)):
            terms = np.exp(-np.outer(spec.eigenvalues, grid))
            expect = np.array([math.fsum(terms[:, j]) for j in range(grid.size)])
            assert np.array_equal(evaluate_trace(spec, grid).values, expect)

    def test_bad_grid_rejected(self):
        spec = rectangle_spectrum(1.0, 1.0, 200.0)
        with pytest.raises(ValueError):
            evaluate_trace(spec, [0.1, 0.05])
        with pytest.raises(ValueError):
            evaluate_trace(spec, [-0.1, 0.05])


class TestWedgeTrace:
    def test_frozen_arithmetic(self):
        assert_allclose(wedge_trace(1.0, 2.0, PI / 2, 0.01), WEDGE_VALUE,
                        rtol=1e-14)

    def test_straight_angle_has_no_corner_term(self):
        t = 0.03
        got = wedge_trace(2.0, 3.0, PI, t)
        assert_allclose(got, 2.0 / (4 * PI * t) - 3.0 / (8 * math.sqrt(PI * t)),
                        rtol=1e-15)

    def test_leading_term(self):
        t = 1e-9
        assert_allclose(wedge_trace(1.5, 2.0, 1.0, t) * 4 * PI * t, 1.5,
                        rtol=1e-3)

    def test_invalid_angle(self):
        with pytest.raises(ValueError):
            wedge_trace(1.0, 2.0, 2 * PI, 0.01)


def halfplane_boundary_correction(t, length):
    """Boundary term -L/(8 sqrt(pi t)) of the Dirichlet half-plane trace.

    Also re-derives the constant by quadrature of the image-charge diagonal
    -exp(-x^2/t)/(4 pi t) over x in (0, inf) per unit boundary length, and
    fails loudly if the two disagree: this is a structural self-test of the
    boundary-term normalization.
    """
    if t <= 0 or length <= 0:
        raise ValueError("t and length must be positive")
    closed_form = -length / (8.0 * math.sqrt(PI * t))
    per_unit, _ = quad(lambda x: -math.exp(-x * x / t) / (4.0 * PI * t),
                       0.0, np.inf, epsabs=1e-14, epsrel=1e-12)
    if abs(per_unit * length - closed_form) > 1e-8 * abs(closed_form):
        raise NumericError(
            f"half-plane boundary quadrature {per_unit * length!r} does not "
            f"match the closed form {closed_form!r}")
    return closed_form


class TestHalfplaneCorrection:
    def test_closed_form(self):
        assert_allclose(halfplane_boundary_correction(1.0, 1.0),
                        -1.0 / (8 * math.sqrt(PI)), rtol=1e-14)
        assert_allclose(halfplane_boundary_correction(1.0, 1.0),
                        -0.07052369794346953, rtol=1e-14)

    def test_linear_in_length(self):
        one = halfplane_boundary_correction(0.3, 1.0)
        two = halfplane_boundary_correction(0.3, 2.0)
        assert_allclose(two, 2 * one, rtol=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            halfplane_boundary_correction(0.0, 1.0)


class TestExpansionAccuracy:
    def test_square_remainder_is_controlled_by_sqrt_t(self):
        # |h(t) - (a_-1/t + a_-1/2/sqrt(t) + a0)| <= C sqrt(t) as t shrinks
        # 1e-2 -> 1e-4.  For the square the remainder is exponentially small,
        # so one modest constant covers the whole range (stability for free);
        # the absolute eps term accounts for rounding of the 1/t model term.
        spec = rectangle_spectrum(1.0, 1.0, 4.0e5)
        ts = np.array([1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4])
        samples = evaluate_trace(spec, ts[::-1])
        h = samples.values[::-1]
        model = 1 / (4 * PI * ts) - 1 / (2 * math.sqrt(PI) * np.sqrt(ts)) + 0.25
        err = np.abs(h - model)
        c_fixed = 1e-8
        slack = 16 * np.finfo(float).eps / ts
        assert np.all(err <= c_fixed * np.sqrt(ts) + slack)

    def test_sector_remainder_scale_is_stable(self):
        # The quarter disk has a genuine O(sqrt(t)) remainder; the fitted
        # scale C(t) = |remainder| / sqrt(t) must stay put as t halves.
        from drumspec.analytic_spectra import sector_spectrum
        from drumspec.heat_trace import theoretical_coefficients
        from drumspec.geometry import make_sector

        spec = sector_spectrum(PI / 2, 1.0, 5.0e4)
        coeffs = theoretical_coefficients(make_sector(PI / 2))
        ts = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        samples = evaluate_trace(spec, ts[::-1])
        h = samples.values[::-1]
        model = coeffs.a_minus1 / ts + coeffs.a_minus_half / np.sqrt(ts) + coeffs.a0
        c_of_t = np.abs(h - model) / np.sqrt(ts)
        assert c_of_t.max() <= 2.5 * max(c_of_t.min(), 1e-6)


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        spec = rectangle_spectrum(1.0, 1.0, 2000.0)
        samples = evaluate_trace(spec, np.geomspace(0.01, 0.1, 12))
        path = tmp_path / "trace.txt"
        write_trace(samples, path)
        back = read_trace(path)
        assert_allclose(back.grid, samples.grid, rtol=0)
        assert_allclose(back.values, samples.values, rtol=0)
        assert_allclose(back.tail_bounds, samples.tail_bounds, rtol=0)
        assert back.cutoff == samples.cutoff
