import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drumspec.analytic_spectra import Spectrum, disk_spectrum, rectangle_spectrum
from drumspec.asymptotic_fit import (
    BLIND_TERMS,
    choose_window,
    fit_expansion,
    fit_report,
    implied_area,
    implied_perimeter,
)
from drumspec.errors import FitError, InsufficientSpectrumError
from drumspec.heat_trace import TraceSamples, evaluate_trace, theoretical_coefficients
from drumspec.reporting import dump_report, parse_report

PI = math.pi


def synthetic_samples(coeffs, t_grid, noise=None, rng=None):
    """Exact-model trace samples: c[0]/t + c[1]/sqrt(t) + c[2] + c[3]*sqrt(t)."""
    t = np.asarray(t_grid, dtype=float)
    h = coeffs[0] / t + coeffs[1] / np.sqrt(t) + coeffs[2] + coeffs[3] * np.sqrt(t)
    if noise is not None:
        h = h * (1.0 + noise * rng.standard_normal(len(t)))
    return TraceSamples(grid=t, values=h, tail_bounds=np.full(len(t), 1e-30),
                        cutoff=math.inf)


class TestChooseWindow:
    def test_t_min_is_kappa_over_cutoff(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e5)
        t_min, _, _ = choose_window(spec)
        assert_allclose(t_min, 12.0 / 2.0e5, rtol=1e-15)

    def test_larger_cutoff_never_increases_t_min(self):
        t_prev = math.inf
        for cutoff in [2e4, 1e5, 5e5]:
            spec = rectangle_spectrum(1.0, 1.0, cutoff)
            t_min, _, _ = choose_window(spec)
            assert t_min <= t_prev
            t_prev = t_min

    def test_short_disk_spectrum_is_insufficient(self):
        spec = disk_spectrum(1.0, 50.0)  # ten eigenvalues
        assert len(spec) == 10
        with pytest.raises(InsufficientSpectrumError) as err:
            choose_window(spec)
        assert err.value.required_cutoff > spec.cutoff

    def test_fem_drift_floor_is_relaxed_to_a_third(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e4)
        fem = Spectrum(spec.eigenvalues, spec.cutoff, "fem",
                       area_hint=spec.area_hint, meta={"t_min_bias": 0.01})
        t_min, _, _ = choose_window(fem)
        assert_allclose(t_min, 0.01 / 3.0, rtol=1e-15)

    def test_binding_drift_floor_asks_for_a_finer_mesh(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e4)
        fem = Spectrum(spec.eigenvalues, spec.cutoff, "fem",
                       area_hint=spec.area_hint, meta={"t_min_bias": 0.05})
        with pytest.raises(InsufficientSpectrumError, match="refine") as err:
            choose_window(fem)
        assert err.value.required_cutoff == math.inf

    def test_grid_is_geometric_with_sixty_points(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e5)
        t_min, t_max, grid = choose_window(spec)
        assert len(grid) == 60
        assert_allclose(grid[0], t_min)
        assert_allclose(grid[-1], t_max)
        ratios = grid[1:] / grid[:-1]
        assert_allclose(ratios, ratios[0], rtol=1e-10)


class TestExactRecovery:
    def test_spec_example_model(self):
        coeffs = [0.0795775, -0.282095, 0.25, 0.1]
        samples = synthetic_samples(coeffs, np.geomspace(1e-4, 2e-2, 60))
        fit = fit_expansion(samples)
        got = [fit.coef[n] for n in BLIND_TERMS]
        assert_allclose(got, coeffs, rtol=1e-8)

    def test_random_coefficient_draws(self):
        # Coefficients drawn as if from real domains (area/perimeter driven)
        # so the synthetic trace stays positive over the window.
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            area = rng.uniform(0.2, 3.0)
            perim = rng.uniform(1.0, 1.6) * 2 * math.sqrt(PI * area)
            coeffs = [area / (4 * PI), -perim / (8 * math.sqrt(PI)),
                      rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
            t_max = 0.02 * area
            grid = np.geomspace(t_max / 150.0, t_max, 60)
            samples = synthetic_samples(coeffs, grid)
            assert np.all(samples.values > 0)
            fit = fit_expansion(samples)
            got = np.array([fit.coef[n] for n in BLIND_TERMS])
            rel = np.max(np.abs(got - coeffs) / np.maximum(np.abs(coeffs), 1e-3))
            worst = max(worst, rel)
        assert worst <= 1e-6

    def test_noise_stability_on_square_pipeline(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e5)
        _, _, grid = choose_window(spec)
        samples = evaluate_trace(spec, grid)
        fit0 = fit_expansion(samples)
        rng = np.random.default_rng(3)
        noisy = TraceSamples(
            grid=samples.grid,
            values=samples.values * (1 + 1e-6 * rng.standard_normal(len(samples))),
            tail_bounds=samples.tail_bounds, cutoff=samples.cutoff)
        fit1 = fit_expansion(noisy)
        assert abs(fit1.coef["a0"] - fit0.coef["a0"]) <= 1e-3


class TestAssistedMode:
    def test_pins_area_and_perimeter(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e5)
        _, _, grid = choose_window(spec)
        samples = evaluate_trace(spec, grid)
        fit = fit_expansion(samples, mode="assisted", area=1.0, perimeter=4.0)
        assert fit.mode == "assisted"
        assert_allclose(fit.coef["a_minus1"], 1.0 / (4 * PI), rtol=1e-15)
        assert_allclose(fit.coef["a_minus_half"], -0.5 / math.sqrt(PI),
                        rtol=1e-15)
        assert fit.sigma["a_minus1"] == 0.0
        assert abs(fit.coef["a0"] - 0.25) < 5e-4

    def test_assisted_needs_geometry(self):
        samples = synthetic_samples([0.1, -0.3, 0.25, 0.0],
                                    np.geomspace(1e-3, 1e-2, 20))
        with pytest.raises(FitError):
            fit_expansion(samples, mode="assisted")


class TestFitGuards:
    def test_too_few_samples(self):
        samples = synthetic_samples([0.1, -0.3, 0.25, 0.0],
                                    np.geomspace(1e-3, 1e-2, 5))
        with pytest.raises(FitError, match="at least"):
            fit_expansion(samples)

    def test_tail_bound_precondition(self):
        t = np.geomspace(1e-3, 1e-2, 20)
        samples = synthetic_samples([0.1, -0.3, 0.25, 0.0], t)
        bad = TraceSamples(grid=t, values=samples.values,
                           tail_bounds=0.02 * samples.values,
                           cutoff=1e4)
        with pytest.raises(FitError, match="tail"):
            fit_expansion(bad)

    def test_degenerate_window_is_ill_conditioned(self):
        t = np.linspace(1.0, 1.0 + 1e-9, 20)
        h = 0.1 / t + 0.25
        samples = TraceSamples(grid=t, values=h,
                               tail_bounds=np.full(len(t), 1e-30),
                               cutoff=math.inf)
        with pytest.raises(FitError, match="condition"):
            fit_expansion(samples)

    def test_unknown_mode(self):
        samples = synthetic_samples([0.1, -0.3, 0.25, 0.0],
                                    np.geomspace(1e-3, 1e-2, 20))
        with pytest.raises(FitError, match="mode"):
            fit_expansion(samples, mode="bayes")


class TestConsistencyChecks:
    def test_square_area_perimeter_from_fit(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e5)
        _, _, grid = choose_window(spec)
        fit = fit_expansion(evaluate_trace(spec, grid))
        assert abs(implied_area(fit) - 1.0) < 0.005
        assert abs(implied_perimeter(fit) - 4.0) < 0.04

    def test_window_drift_below_coefficient_tolerance(self):
        # Halving t_max moves a0 by well under the 0.01 recovery tolerance;
        # the classifier folds this drift into its operative uncertainty.
        spec = rectangle_spectrum(1.0, 1.0, 2.0e5)
        t_min, t_max, grid = choose_window(spec)
        fit = fit_expansion(evaluate_trace(spec, grid))
        fit_half = fit_expansion(
            evaluate_trace(spec, np.geomspace(t_min, t_max / 2, 48)))
        assert abs(fit_half.coef["a0"] - fit.coef["a0"]) <= 1e-3


class TestFitReport:
    def _square_fit(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e4)
        _, _, grid = choose_window(spec)
        return fit_expansion(evaluate_trace(spec, grid))

    def test_roundtrip_lossless(self):
        from drumspec.geometry import make_square

        fit = self._square_fit()
        report = fit_report(fit, theoretical=theoretical_coefficients(make_square()),
                            inputs={"spectrum_digest": "sha256:dummy"})
        text = dump_report(report)
        back = parse_report(text)
        assert back == report
        assert dump_report(back) == text

    def test_z_scores_present_with_theoretical(self):
        from drumspec.geometry import make_square

        fit = self._square_fit()
        report = fit_report(fit, theoretical=theoretical_coefficients(make_square()))
        assert "theoretical" in report
        assert abs(report["theoretical"]["z_a0"]) < 50

    def test_comparison_omitted_without_theoretical(self):
        report = fit_report(self._square_fit())
        assert "theoretical" not in report
        assert report["report_version"] == 1

    def test_square_fit_within_three_sigma_of_quarter(self):
        fit = self._square_fit()
        # coefficient tolerance judged against the operative scale: the
        # statistical sigma alone underestimates systematic window drift
        assert abs(fit.coef["a0"] - 0.25) <= max(3 * fit.sigma["a0"], 1e-3)
