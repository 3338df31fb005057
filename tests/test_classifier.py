import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drumspec.analytic_spectra import (
    Spectrum,
    disk_spectrum,
    equilateral_triangle_spectrum,
    rectangle_spectrum,
    sector_spectrum,
)
from drumspec.classifier import (
    SMOOTH_RESOLUTION,
    a0_simply_connected,
    classify,
    decide_from_estimate,
    f_corner,
    isospectral_compare,
)
from drumspec.errors import InsufficientSpectrumError
from drumspec.fem_solver import fem_spectrum
from drumspec.geometry import make_sector

PI = math.pi


def dilated(spec, s):
    """The exact spectrum of ``spec``'s domain dilated by s: eigenvalues and
    cutoff over s^2, area hint times s^2, perimeter hint times s.  A FEM
    spectrum is refused, because its meta holds times (t_min_bias) that
    would have to scale by s^2 as well."""
    if spec.source == "fem":
        raise ValueError("dilated takes exact spectra only")
    return Spectrum(spec.eigenvalues / s ** 2, spec.cutoff / s ** 2,
                    spec.source, domain_label=f"{spec.domain_label}-scaled-{s}",
                    area_hint=spec.area_hint * s ** 2,
                    perimeter_hint=spec.perimeter_hint * s,
                    meta=dict(spec.meta))


class TestFCorner:
    def test_all_ones_gives_two_n(self):
        for n in [1, 4, 9]:
            assert f_corner([1.0] * n) == pytest.approx(2 * n)

    def test_half(self):
        assert f_corner([0.5]) == pytest.approx(2.5)

    def test_equilateral_thirds(self):
        assert f_corner([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(10.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f_corner([0.5, 0.0])

    def test_strict_bound_away_from_ones(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(1, 10)
            x = rng.uniform(0.05, 1.95, size=n)
            if np.any(np.abs(x - 1.0) > 1e-9):
                assert f_corner(x) > 2 * n


class TestA0Identity:
    def test_square_angles(self):
        assert_allclose(a0_simply_connected([PI / 2] * 4), 0.25, rtol=1e-14)

    def test_equilateral_triangle(self):
        assert_allclose(a0_simply_connected([PI / 3] * 3), 1.0 / 3.0, rtol=1e-14)

    def test_excluded_point_consistency(self):
        # x_k = 1 for all k means f = 2n and the identity collapses to 1/6:
        # the smooth value, confirming angle pi is not a corner.
        assert_allclose(a0_simply_connected([PI] * 4), 1.0 / 6.0, rtol=1e-14)

    def test_identity_matches_geometry_route(self):
        from drumspec.geometry import make_lshape, make_regular_polygon
        from drumspec.heat_trace import theoretical_coefficients

        for dom in [make_lshape(), make_regular_polygon(5), make_regular_polygon(11)]:
            thetas = [c.theta for c in dom.corners]
            assert_allclose(a0_simply_connected(thetas),
                            theoretical_coefficients(dom).a0, rtol=1e-12)


class TestDecisionRule:
    def test_threshold_flip_is_monotone(self):
        sigma = 1e-3
        z = 3.0
        decisions = []
        # offsets avoid landing exactly on the z*sigma boundary
        deltas = (np.arange(33) - 16) * 0.51 * sigma
        for d in deltas:
            dec, _ = decide_from_estimate(1 / 6 + d, sigma, decision_z=z)
            decisions.append(dec)
        # has_corners exactly when delta > z*sigma; monotone in delta
        for d, dec in zip(deltas, decisions):
            if d > z * sigma * (1 + 1e-12):
                assert dec == "has_corners"
            else:
                assert dec != "has_corners"
        flips = [i for i in range(1, len(decisions))
                 if (decisions[i] == "has_corners") != (decisions[i - 1] == "has_corners")]
        assert len(flips) == 1

    def test_below_threshold_band_is_not_smooth(self):
        dec, margin = decide_from_estimate(1 / 6 - 0.05, 1e-3)
        assert margin < -3
        assert dec == "indeterminate"

    def test_smooth_needs_a_band_that_rules_out_a_right_angle(self):
        # A right angle adds (pi - pi/2)^2 / (24 pi * pi/2) = 1/48 to a0.
        assert SMOOTH_RESOLUTION == (PI / 2) ** 2 / (24 * PI * PI / 2)
        z = 3.0
        for scale, want in [(1 - 1e-9, "smooth"), (1 + 1e-9, "indeterminate")]:
            sigma = scale * SMOOTH_RESOLUTION / z
            assert decide_from_estimate(1 / 6, sigma, decision_z=z)[0] == want
            # The corner branch does not depend on the band width.
            assert decide_from_estimate(1 / 6 + 4 * sigma, sigma,
                                        decision_z=z)[0] == "has_corners"

    @pytest.mark.parametrize("z", [-1.0, 0.0, math.nan, math.inf])
    def test_z_must_be_finite_and_positive(self, z):
        # With z = -1 an a0 below 1/6 would otherwise count as has_corners.
        with pytest.raises(ValueError, match="decision_z"):
            decide_from_estimate(0.16, 1e-2, decision_z=z)
        with pytest.raises(ValueError, match="decision_z"):
            classify(rectangle_spectrum(1.0, 1.0, 5.0e3), decision_z=z)


class TestClassifyPipelines:
    def test_square_has_corners(self):
        verdict = classify(rectangle_spectrum(1.0, 1.0, 2.0e4))
        assert verdict.decision == "has_corners"
        assert verdict.margin > 3
        assert verdict.threshold == pytest.approx(1 / 6)

    def test_disk_is_never_has_corners(self):
        verdict = classify(disk_spectrum(1.0, 2.0e4))
        assert verdict.decision in ("smooth", "indeterminate")

    def test_quarter_disk_has_corners(self):
        verdict = classify(sector_spectrum(PI / 2, 1.0, 3.0e4))
        assert verdict.decision == "has_corners"
        assert verdict.a0_estimate == pytest.approx(11 / 48, abs=0.01)

    def test_triangle_has_corners(self):
        verdict = classify(equilateral_triangle_spectrum(1.0, 3.0e4))
        assert verdict.decision == "has_corners"

    def test_fem_270_degree_sector_is_not_smooth(self):
        # Three corners, but an a0 of 0.2026 +- 0.036: inside the +-z*u band
        # around 1/6, which is too wide to rule out a right angle.
        verdict = classify(fem_spectrum(make_sector(3 * PI / 2), 0.02, 300))
        assert verdict.decision != "smooth"
        assert verdict.decision_z * verdict.uncertainty > SMOOTH_RESOLUTION

    def test_insufficient_spectrum_propagates(self):
        with pytest.raises(InsufficientSpectrumError):
            classify(disk_spectrum(1.0, 50.0))

    def test_chi_validation(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e4)
        with pytest.raises(ValueError, match="chi"):
            classify(spec, chi=2)
        with pytest.raises(ValueError, match="integer"):
            classify(spec, chi=0.5)

    def test_scale_invariance(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e4)
        v1 = classify(spec)
        v2 = classify(dilated(spec, 2.0))
        assert v1.decision == v2.decision == "has_corners"
        assert abs(v1.a0_estimate - v2.a0_estimate) < 1e-12

    def test_verdict_serialization_fields(self):
        verdict = classify(rectangle_spectrum(1.0, 1.0, 2.0e4))
        d = verdict.to_dict()
        assert d["decision"] == "has_corners"
        assert set(d) == {"decision", "a0_estimate", "uncertainty", "threshold",
                          "margin", "chi", "decision_z", "u_sys"}


# The exact families: spectrum at a cutoff, and the corner angles that fix
# a0 = a0_simply_connected(angles).
EXACT_FAMILIES = {
    "square": (lambda c: rectangle_spectrum(1.0, 1.0, c), [PI / 2] * 4),
    "rectangle-2x1": (lambda c: rectangle_spectrum(2.0, 1.0, c), [PI / 2] * 4),
    "triangle": (lambda c: equilateral_triangle_spectrum(1.0, c), [PI / 3] * 3),
    "disk": (lambda c: disk_spectrum(1.0, c), []),
    "half-disk": (lambda c: sector_spectrum(PI, 1.0, c), [PI / 2] * 2),
    "quarter-disk": (lambda c: sector_spectrum(PI / 2, 1.0, c), [PI / 2] * 3),
    "sector-270": (lambda c: sector_spectrum(3 * PI / 2, 1.0, c),
                   [PI / 2, PI / 2, 3 * PI / 2]),
}
SWEEP = [(family, cutoff) for family in EXACT_FAMILIES
         for cutoff in (5e3, 2e4, 1e5, 4e5)]
DILATIONS = (0.5, 2.0)


@functools.lru_cache(maxsize=None)
def sweep_verdicts(family, cutoff):
    """classify at each dilation of one exact spectrum."""
    spec = EXACT_FAMILIES[family][0](cutoff)
    return [classify(dilated(spec, s)) for s in DILATIONS]


def sweep_id(case):
    return f"{case[0]}-{case[1]:.0e}"


class TestCutoffSweep:
    @pytest.mark.parametrize("case", SWEEP, ids=sweep_id)
    def test_verdict(self, case):
        family, cutoff = case
        if (family, cutoff) == ("triangle", 5e3):
            with pytest.raises(InsufficientSpectrumError):
                sweep_verdicts(family, cutoff)
            return
        expected = "has_corners" if EXACT_FAMILIES[family][1] else "smooth"
        assert [v.decision for v in sweep_verdicts(family, cutoff)] \
            == [expected] * len(DILATIONS)

    @pytest.mark.parametrize("case", [
        pytest.param(case, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1's truncated Weyl columns"))
        if case == ("quarter-disk", 5e3) else case
        for case in SWEEP if case != ("triangle", 5e3)], ids=sweep_id)
    def test_a0_error_within_three_uncertainties(self, case):
        a0 = a0_simply_connected(EXACT_FAMILIES[case[0]][1])
        for verdict in sweep_verdicts(*case):
            assert abs(verdict.a0_estimate - a0) <= 3 * verdict.uncertainty


class TestIsospectralCompare:
    def test_self_comparison(self):
        spec = disk_spectrum(1.0, 500.0)
        same, dev = isospectral_compare(spec, spec, count=20, rel_tol=1e-12)
        assert same and dev == 0.0

    def test_square_vs_disk_differ_at_k1(self):
        sq = rectangle_spectrum(1.0, 1.0, 500.0)
        dk = disk_spectrum(1.0, 500.0)
        same, dev = isospectral_compare(sq, dk, count=1, rel_tol=1e-2)
        assert not same
        assert dev > 0.5

    def test_mismatched_counts_error(self):
        sq = rectangle_spectrum(1.0, 1.0, 500.0)
        with pytest.raises(ValueError, match="eigenvalues"):
            isospectral_compare(sq, sq, count=10 ** 6, rel_tol=1e-2)
