import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import jv

import drumspec.analytic_spectra as analytic_spectra
from drumspec.analytic_spectra import (
    BESSEL_RTOL,
    MULTIPLICITY_RTOL,
    Spectrum,
    bessel_j_zeros,
    disk_spectrum,
    equilateral_triangle_spectrum,
    read_spectrum,
    rectangle_spectrum,
    sector_spectrum,
    spectrum_for_domain,
    weyl_ratio,
    write_spectrum,
)
from drumspec.errors import EmptySpectrumError, NumericError
from drumspec.geometry import (
    ArcSegment,
    DomainSpec,
    LineSegment,
    make_disk,
    make_equilateral_triangle,
    make_lshape,
    make_polygon,
    make_rectangle,
    make_sector,
    make_square,
)

PI = math.pi

# Squared Bessel zeros frozen from the bisection oracle below (mpmath
# ascending-series evaluation, 25 significant digits).
J01_SQ = 5.783185962946785
J11_SQ = 14.681970642123895
J21_SQ = 26.374616427163392
J3HALF1_SQ = 20.19072855642663


def bisection_bessel_zero(nu, k, dps=25):
    """Independent oracle: k-th positive zero of J_nu by interval bisection
    on mpmath's series evaluation (no asymptotic initial guesses)."""
    import mpmath as mp

    with mp.workdps(dps):
        f = lambda x: mp.besselj(mp.mpf(nu), x)
        step = mp.mpf("0.25")
        x = mp.mpf(max(nu, 0.1))
        found = 0
        prev_sign = mp.sign(f(x))
        while found < k:
            x_next = x + step
            s = mp.sign(f(x_next))
            if s != prev_sign and s != 0:
                found += 1
                if found == k:
                    a, b = x, x_next
                    for _ in range(60):
                        m = (a + b) / 2
                        if mp.sign(f(m)) == mp.sign(f(a)):
                            a = m
                        else:
                            b = m
                    return float((a + b) / 2)
            x, prev_sign = x_next, s
        raise AssertionError("unreachable")


def scan_brentq_zeros(nu, upper, j):
    """Reference finder, one order at a time: J_nu = j(nu, x) on the whole
    pi/4 scan grid, then one scalar brentq per sign change."""
    if upper <= nu:
        return np.array([])
    lo = max(nu + 1.5 * nu ** (1.0 / 3.0) - 1.0, 1e-3) if nu > 0 else 1.0
    step = math.pi / 4.0
    grid = np.arange(lo, upper + 2 * step, step)
    vals = j(nu, grid)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    zeros = [brentq(lambda x: float(j(nu, np.array([x]))[0]), grid[i],
                    grid[i + 1], xtol=1e-300, rtol=BESSEL_RTOL, maxiter=200)
             for i in sign_change]
    return np.array([z for z in zeros if z <= upper])


def zero_finder_cases():
    """Integer orders (disk) and sector orders m pi/theta, with uppers from
    below the first zero to the sqrt of a 1e4 cutoff, and a few orders, not
    in ascending order, up to the sqrt of 4e5; orders at or above upper
    contribute nothing."""
    cases = []
    for upper in [0.5, 2.4, 7.0, 31.0, math.sqrt(1.0e4)]:
        cases.append((list(range(int(upper) + 3)), upper))
        for theta in [PI / 2, PI, 2 * PI / 3, 1.3, 5.9]:
            m_max = int(upper * theta / PI) + 2
            cases.append(([m * PI / theta for m in range(1, m_max + 1)], upper))
    upper = math.sqrt(4.0e5)
    cases.append(([0, 1, 2, 0.25, 7 * PI / 1.3, 150.0, 402.5, 620.0, 630.0,
                   633.0], upper))
    return cases


class TestBesselZeros:
    def test_oracle_reproduces_frozen_values(self):
        assert_allclose(bisection_bessel_zero(0, 1) ** 2, J01_SQ, rtol=1e-12)
        assert_allclose(bisection_bessel_zero(1, 1) ** 2, J11_SQ, rtol=1e-12)
        assert_allclose(bisection_bessel_zero(2, 1) ** 2, J21_SQ, rtol=1e-12)
        assert_allclose(bisection_bessel_zero(1.5, 1) ** 2, J3HALF1_SQ, rtol=1e-12)

    def test_production_zeros_match_oracle(self):
        for nu in [0, 1, 2.0, 0.5, 1.5, 7.25, 40.0]:
            zeros = bessel_j_zeros([nu], 60.0)
            assert len(zeros) > 0
            for k in sorted({1, len(zeros)}):
                assert_allclose(zeros[k - 1], bisection_bessel_zero(nu, k),
                                rtol=1e-11)

    def test_interlacing(self):
        for nu in [0.0, 1.0, 3.5, 10.0]:
            z0 = bessel_j_zeros([nu], 80.0)
            z1 = bessel_j_zeros([nu + 1.0], 80.0)
            for k in range(len(z1) - 1):
                assert z0[k] < z1[k] < z0[k + 1]

    def test_empty_below_order(self):
        assert bessel_j_zeros([10.0], 5.0).size == 0
        assert bessel_j_zeros([10.0, 5.0], 5.0).size == 0
        assert bessel_j_zeros([], 5.0).size == 0

    def test_all_orders_equal_one_order_at_a_time(self):
        # Every lane of the scan and of the Newton refinement is elementwise,
        # so a zero does not depend on which other orders share the call.
        for orders, upper in zero_finder_cases():
            expect = np.concatenate([np.empty(0)] + [
                bessel_j_zeros([nu], upper) for nu in orders])
            assert np.array_equal(bessel_j_zeros(orders, upper), expect)

    def test_zeros_match_mpmath(self):
        # 120 zeros of integer and real orders up to 400: the Newton
        # correction -J_nu(z)/J_nu'(z), evaluated at 30 digits, moves each
        # zero z by at most 1e-14 relative.
        import mpmath as mp

        rng = np.random.default_rng(3)
        orders = np.concatenate([rng.integers(0, 401, 60).astype(float),
                                 rng.uniform(0.0, 400.0, 60)])
        sample = []
        for nu in orders.tolist():
            zeros = bessel_j_zeros([nu], 640.0)
            sample.append((nu, zeros[rng.integers(zeros.size)]))
        with mp.workdps(30):
            shift = [float(mp.besselj(nu, z) / mp.besselj(nu, z, derivative=1))
                     for nu, z in ((mp.mpf(n), mp.mpf(z)) for n, z in sample)]
        z = np.array([z for _, z in sample])
        assert np.max(np.abs(shift) / z) <= 1e-14

    def test_zeros_agree_with_scipy_jv_scan_and_brentq(self):
        for orders, upper in zero_finder_cases():
            for nu in orders:
                expect = scan_brentq_zeros(nu, upper, jv)
                got = bessel_j_zeros([nu], upper)
                assert got.size == expect.size
                assert_allclose(got, expect, rtol=BESSEL_RTOL, atol=0)

    def test_recurrence_matches_mpmath_in_the_turning_zone(self):
        # The scan's first node nu + 1.5 nu^(1/3) - 1 and up to four more
        # units, where J_nu is largest and the recurrence is least damped;
        # integer and real orders up to the largest of a 4e5 disk.
        import mpmath as mp

        rng = np.random.default_rng(1)
        nu = np.concatenate([rng.integers(2, 634, 300).astype(float),
                             rng.uniform(2.0, 633.0, 300)])
        x = nu + 1.5 * nu ** (1.0 / 3.0) - 1.0 + rng.uniform(0.0, 4.0, nu.size)
        with mp.workdps(30):
            ref = np.array([[float(mp.besselj(n, v, derivative=d)) for d in (0, 1)]
                            for n, v in zip(map(mp.mpf, nu.tolist()),
                                            map(mp.mpf, x.tolist()))])
        vals, deriv = analytic_spectra._jv(nu, x, x, x)
        assert np.abs(vals - ref[:, 0]).max() <= 1e-14
        assert np.abs(deriv - ref[:, 1]).max() <= 1e-14

    def test_recurrence_below_the_order_raises(self):
        nu = np.array([1.5, 7.0, 30.25])
        x = np.array([1.0, 8.0, 30.0])
        with pytest.raises(NumericError, match=r"J_30\.25 .*<= nu in \[29, 31\]"):
            analytic_spectra._jv(nu, x, x - 1.0, x + 1.0)
        # orders below 2 never recur, so any x goes
        assert np.isfinite(analytic_spectra._jv(nu[:1], x[:1], x[:1], x[:1])).all()

    def test_nan_from_jv_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.special, "jv",
                            lambda nu, x: np.full(np.shape(x), np.nan))
        with pytest.raises(NumericError, match="J_2"):
            bessel_j_zeros([2.0], 30.0)

    def test_nan_during_refinement_raises(self, monkeypatch):
        # The scan and the first Newton step succeed; the second fails.
        calls = []
        real_jv = analytic_spectra._jv

        def flaky(nu, x, lo, hi):
            calls.append(1)
            if len(calls) > 2:
                monkeypatch.setattr(scipy.special, "jv",
                                    lambda nu, x: np.full(np.shape(x), np.nan))
            return real_jv(nu, x, lo, hi)

        monkeypatch.setattr(analytic_spectra, "_jv", flaky)
        with pytest.raises(NumericError, match=r"J_2 .* in \["):
            bessel_j_zeros([2.0], 30.0)
        assert len(calls) == 3

    def test_refinement_without_convergence_raises(self, monkeypatch):
        # With J_nu' = 0 every Newton step is infinite and becomes a
        # bisection, which never reports a small Newton step.
        real_jv = analytic_spectra._jv

        def flat(nu, x, lo, hi):
            vals, _ = real_jv(nu, x, lo, hi)
            return vals, np.zeros_like(vals)

        monkeypatch.setattr(analytic_spectra, "_jv", flat)
        with pytest.raises(NumericError, match=r"nu=2 in \[.*100 iterations"):
            bessel_j_zeros([2.0], 30.0)


class TestRectangle:
    def test_unit_square_ground_state(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        assert_allclose(spec.eigenvalues[0], 2 * PI ** 2, rtol=1e-14)

    def test_symmetry_multiplicity(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        lam = spec.eigenvalues
        pair = lam[np.isclose(lam, 5 * PI ** 2)]
        assert len(pair) == 2

    def test_two_by_one(self):
        spec = rectangle_spectrum(2.0, 1.0, 100.0)
        assert_allclose(spec.eigenvalues[0], 5 * PI ** 2 / 4, rtol=1e-14)

    def test_completeness_against_brute_force(self):
        cutoff = 5000.0
        for a, b in [(1.0, 1.0), (1.3, 0.7)]:
            spec = rectangle_spectrum(a, b, cutoff)
            brute = []
            for m in range(1, 200):
                for n in range(1, 200):
                    lam = PI ** 2 * (m * m / a ** 2 + n * n / b ** 2)
                    if lam <= cutoff:
                        brute.append(lam)
            assert len(spec) == len(brute)
            assert_allclose(spec.eigenvalues, np.sort(brute), rtol=1e-13)

    def test_cutoff_below_ground_state(self):
        with pytest.raises(EmptySpectrumError):
            rectangle_spectrum(1.0, 1.0, 10.0)

    def test_domain_monotonicity_nested_rectangles(self):
        inner = rectangle_spectrum(1.0, 1.0, 2.0e4)
        outer = rectangle_spectrum(1.2, 1.1, 2.0e4)
        k = 200
        assert len(inner) >= k and len(outer) >= k
        assert np.all(outer.eigenvalues[:k] <= inner.eigenvalues[:k])


class TestDisk:
    def test_ground_state(self):
        spec = disk_spectrum(1.0, 50.0)
        assert_allclose(spec.eigenvalues[0], J01_SQ, rtol=1e-12)

    def test_first_excited_is_double(self):
        spec = disk_spectrum(1.0, 50.0)
        assert_allclose(spec.eigenvalues[1], J11_SQ, rtol=1e-12)
        assert_allclose(spec.eigenvalues[2], J11_SQ, rtol=1e-12)
        assert spec.eigenvalues[3] > spec.eigenvalues[2] * (1 + 1e-9)

    def test_scaling_law(self):
        s1 = disk_spectrum(1.0, 400.0)
        s2 = disk_spectrum(2.0, 100.0)
        assert len(s2) == len(s1)
        assert_allclose(s2.eigenvalues, s1.eigenvalues / 4.0, rtol=1e-11)


class TestSector:
    def test_quarter_disk(self):
        spec = sector_spectrum(PI / 2, 1.0, 100.0)
        assert_allclose(spec.eigenvalues[0], J21_SQ, rtol=1e-12)

    def test_half_disk(self):
        spec = sector_spectrum(PI, 1.0, 100.0)
        assert_allclose(spec.eigenvalues[0], J11_SQ, rtol=1e-12)

    def test_two_thirds_pi(self):
        spec = sector_spectrum(2 * PI / 3, 1.0, 100.0)
        assert_allclose(spec.eigenvalues[0], J3HALF1_SQ, rtol=1e-12)

    def test_invalid_angle(self):
        with pytest.raises(ValueError):
            sector_spectrum(2 * PI, 1.0, 100.0)


class TestEquilateralTriangle:
    def test_ground_state(self):
        spec = equilateral_triangle_spectrum(1.0, 500.0)
        assert_allclose(spec.eigenvalues[0], 16 * PI ** 2 / 3, rtol=1e-14)

    def test_second_level_is_double(self):
        spec = equilateral_triangle_spectrum(1.0, 500.0)
        lam2 = 16 * PI ** 2 / 9 * 7  # indices (1,2) and (2,1)
        assert_allclose(spec.eigenvalues[1], lam2, rtol=1e-14)
        assert_allclose(spec.eigenvalues[2], lam2, rtol=1e-14)

    def test_scaling_law(self):
        s1 = equilateral_triangle_spectrum(1.0, 2000.0)
        s2 = equilateral_triangle_spectrum(2.0, 500.0)
        assert len(s2) == len(s1)
        assert_allclose(s2.eigenvalues, s1.eigenvalues / 4.0, rtol=1e-13)

    def test_count_matches_weyl_density(self):
        # Ordered-pair indexing must reproduce the Weyl count asymptotically.
        spec = equilateral_triangle_spectrum(1.0, 3.0e5)
        area = math.sqrt(3) / 4
        expect = area * 3.0e5 / (4 * PI)
        assert abs(len(spec) - expect) / expect < 0.02


def rectangle_loop(a, b, cutoff):
    """Reference enumeration: for each m, the n up to the largest one that
    keeps lambda at or below the cutoff."""
    pi2 = math.pi ** 2
    m_max = int(math.floor(a * math.sqrt(cutoff) / math.pi))
    vals = []
    for m in range(1, m_max + 1):
        rem = cutoff - pi2 * m * m / (a * a)
        if rem < pi2 / (b * b):
            continue
        n_max = int(math.floor(b * math.sqrt(rem) / math.pi))
        lam_m = pi2 * m * m / (a * a) + pi2 * np.arange(1, n_max + 1) ** 2 / (b * b)
        vals.append(lam_m)
    flat = np.sort(np.concatenate(vals) if vals else np.array([]))
    return flat[flat <= cutoff]


def equilateral_loop(side, cutoff):
    """Reference enumeration: for each m, the n up to the largest one with
    m^2 + m n + n^2 <= cutoff / c."""
    c = 16.0 * math.pi ** 2 / (9.0 * side ** 2)
    q_max = cutoff / c
    vals = []
    m = 1
    while m * m + m + 1 <= q_max:
        disc = q_max - 0.75 * m * m
        n_max = int(math.floor(math.sqrt(disc) - 0.5 * m)) if disc > 0 else 0
        while m * m + m * n_max + n_max * n_max > q_max:
            n_max -= 1
        if n_max >= 1:
            n = np.arange(1, n_max + 1)
            vals.append(c * (m * m + m * n + n * n))
        m += 1
    flat = np.sort(np.concatenate(vals) if vals else np.array([]))
    return flat[flat <= cutoff]


LATTICE_SIDES = [0.37, 0.8, 1.0, 1.3, 3.1]
LATTICE_CUTOFFS = [400.0, 2.0e3, 2.0e4, 1.3e5]


class TestLatticeFamilies:
    """The lattice families equal the loops they replaced, bit for bit."""

    @pytest.mark.parametrize("a", LATTICE_SIDES)
    def test_rectangle_equals_loop(self, a):
        for b in LATTICE_SIDES:
            lam1 = PI ** 2 * (1 / a ** 2 + 1 / b ** 2)
            for cutoff in LATTICE_CUTOFFS + [lam1 * (1 + 1e-15), lam1 * 1.001]:
                if cutoff < lam1:
                    continue
                assert np.array_equal(rectangle_spectrum(a, b, cutoff).eigenvalues,
                                      rectangle_loop(a, b, cutoff)), (a, b, cutoff)

    @pytest.mark.parametrize("side", LATTICE_SIDES)
    def test_equilateral_equals_loop(self, side):
        lam1 = 16 * PI ** 2 / (3 * side ** 2)
        for cutoff in LATTICE_CUTOFFS + [lam1 * (1 + 1e-15), lam1 * 1.001, 3.0e5]:
            if cutoff < lam1:
                continue
            assert np.array_equal(
                equilateral_triangle_spectrum(side, cutoff).eigenvalues,
                equilateral_loop(side, cutoff)), (side, cutoff)


@pytest.mark.parametrize("cutoff", [math.inf, math.nan, 0.0, -5.0])
@pytest.mark.parametrize("family", [
    lambda c: rectangle_spectrum(1.0, 1.0, c),
    lambda c: disk_spectrum(1.0, c),
    lambda c: sector_spectrum(PI / 2, 1.0, c),
    lambda c: equilateral_triangle_spectrum(1.0, c),
], ids=["rectangle", "disk", "sector", "equilateral"])
def test_cutoff_must_be_finite_and_positive(family, cutoff):
    with pytest.raises(ValueError, match="cutoff must be finite and positive"):
        family(cutoff)


class TestWeylRatio:
    def test_unit_square_at_ten_thousand(self):
        spec = rectangle_spectrum(1.0, 1.0, 2.0e5)
        ratios = weyl_ratio(spec, 1.0)
        assert abs(ratios[10000 - 1] - 1.0) < 0.02

    def test_unit_disk_at_one_thousand(self):
        spec = disk_spectrum(1.0, 4.6e3)
        ratios = weyl_ratio(spec, PI)
        assert len(spec) >= 1000
        assert abs(ratios[1000 - 1] - 1.0) < 0.05

    def test_ratios_positive(self):
        spec = sector_spectrum(1.1, 1.0, 400.0)
        assert np.all(weyl_ratio(spec, 0.55) > 0)


class TestSpectrumType:
    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            Spectrum([2.0, 1.0], 10.0, "analytic")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Spectrum([0.0, 1.0], 10.0, "analytic")

    def test_multiplicity_hints(self):
        spec = Spectrum([1.0, 2.0, 2.0, 3.0], 10.0, "analytic")
        assert list(spec.multiplicity_hints()) == [1, 2, 2, 1]

    @pytest.mark.parametrize("spec", [
        disk_spectrum(1.0, 5e3),
        rectangle_spectrum(1.0, 1.0, 2e4),
        sector_spectrum(PI / 3, 1.0, 5e3),
        # a multiplicity-3 cluster, then a run of eigenvalues spaced just
        # under the tolerance, which splits into clusters of two
        Spectrum([1.0, 2.0, 2.0, 2.0, 3.0, 3.0 + 2.9e-9, 3.0 + 5.8e-9,
                  3.0 + 8.7e-9, 4.0], 10.0, "analytic"),
    ], ids=["disk", "square", "sector", "chained"])
    def test_multiplicity_hints_equal_cluster_loop(self, spec):
        hints = spec.multiplicity_hints()
        assert np.array_equal(hints, multiplicity_hints_loop(spec.eigenvalues))
        assert hints.dtype == np.int64

    def test_multiplicity_hints_at_the_tolerance(self):
        # gaps drawn around the tolerance, where lam[j] - lam[i] <= rtol *
        # lam[i] and lam[j] <= lam[i] * (1 + rtol) can disagree
        rng = np.random.default_rng(3)
        steps = rng.choice([0.0, 0.5, 1.0, 1.5], size=4000) * 1e-9
        lam = 10.0 * np.cumprod(1.0 + steps) * np.repeat(
            np.arange(1, 81), 50)
        lam = np.sort(lam)
        spec = Spectrum(lam, lam[-1], "analytic")
        assert np.array_equal(spec.multiplicity_hints(),
                              multiplicity_hints_loop(lam))


def multiplicity_hints_loop(lam):
    """Cluster sizes by one greedy pass: a cluster runs from its first
    eigenvalue lam[i] while lam[j] - lam[i] <= MULTIPLICITY_RTOL * lam[i]."""
    hints = np.ones(len(lam), dtype=int)
    i = 0
    while i < len(lam):
        j = i + 1
        while j < len(lam) and lam[j] - lam[i] <= MULTIPLICITY_RTOL * lam[i]:
            j += 1
        hints[i:j] = j - i
        i = j
    return hints


class TestSpectrumFiles:
    def test_roundtrip(self, tmp_path):
        spec = disk_spectrum(1.0, 200.0)
        path = tmp_path / "disk.spectrum"
        write_spectrum(spec, path)
        back = read_spectrum(path)
        assert_allclose(back.eigenvalues, spec.eigenvalues, rtol=0, atol=0)
        assert back.cutoff == spec.cutoff
        assert back.area_hint == spec.area_hint
        assert back.source == "analytic"

    def test_roundtrip_keeps_every_header_field(self, tmp_path):
        # FEM-style meta: an int, a float written with str(), a string.
        meta = {"slices": 6, "h": 0.07, "tool_version": "0.1.0"}
        spec = Spectrum([19.7392088, 49.3480220, 49.3480220], 60.0, "fem",
                        domain_label="unit square", area_hint=1.0,
                        perimeter_hint=4.0, meta=meta)
        path = tmp_path / "sq.spectrum"
        write_spectrum(spec, path)
        back = read_spectrum(path)
        assert_allclose(back.eigenvalues, spec.eigenvalues, rtol=0, atol=0)
        assert back.domain_label == "unit square"
        assert back.perimeter_hint == 4.0
        assert back.source == "fem"
        assert back.meta == {key: str(val) for key, val in meta.items()}
        again = tmp_path / "again.spectrum"
        write_spectrum(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = disk_spectrum(1.0, 2.0e3)
        path, again = tmp_path / "disk.spectrum", tmp_path / "again.spectrum"
        write_spectrum(spec, path)
        write_spectrum(read_spectrum(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_header_format(self, tmp_path):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        path = tmp_path / "sq.spectrum"
        write_spectrum(spec, path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# cutoff=100 area_hint=1")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.spectrum"
        path.write_text("index,eigenvalue,multiplicity_hint\n1,2.0,1\n")
        with pytest.raises(ValueError, match="cutoff"):
            read_spectrum(path)


class TestReferenceFamilyDetection:
    def test_square(self):
        spec = spectrum_for_domain(make_square(), 100.0)
        assert np.array_equal(spec.eigenvalues,
                              rectangle_spectrum(1.0, 1.0, 100.0).eigenvalues)

    def test_rotated_rectangle_still_matches(self, moved):
        ang = 0.3
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        spec = spectrum_for_domain(
            moved(make_rectangle(2.0, 1.0), rot, (0.5, 0.5)), 200.0)
        assert_allclose(spec.eigenvalues,
                        rectangle_spectrum(2.0, 1.0, 200.0).eigenvalues,
                        rtol=1e-12)

    def test_disk(self):
        spec = spectrum_for_domain(make_disk(1.5), 50.0)
        assert np.array_equal(spec.eigenvalues,
                              disk_spectrum(1.5, 50.0).eigenvalues)

    def test_sector(self):
        spec = spectrum_for_domain(make_sector(PI / 2), 200.0)
        assert_allclose(spec.eigenvalues,
                        sector_spectrum(PI / 2, 1.0, 200.0).eigenvalues,
                        rtol=1e-12)

    def test_equilateral(self):
        spec = spectrum_for_domain(make_equilateral_triangle(2.0), 200.0)
        assert_allclose(spec.eigenvalues,
                        equilateral_triangle_spectrum(2.0, 200.0).eigenvalues,
                        rtol=1e-12)

    def test_lshape_falls_through(self):
        assert spectrum_for_domain(make_lshape(), 100.0) is None

    def test_spectrum_for_domain(self):
        spec = spectrum_for_domain(make_square(), 100.0)
        assert_allclose(spec.eigenvalues[0], 2 * PI ** 2)
        assert spec.domain_label == "square-1.0"
        unlabelled = DomainSpec(make_disk(1.5).loops)
        assert spectrum_for_domain(unlabelled, 50.0).domain_label == "disk-1.5"

    # Dilated by ``scale``, then turned and shifted as the benchmark's seeds
    # move the exact families: each pair is the built domain and the exact
    # spectrum at cutoff 2e3 / scale^2.
    @pytest.mark.parametrize("build, exact", [
        (lambda s: make_rectangle(2.0 * s, s),
         lambda s, c: rectangle_spectrum(2.0 * s, s, c)),
        (lambda s: make_disk(s), lambda s, c: disk_spectrum(s, c)),
        (lambda s: make_sector(2 * PI / 3, s),
         lambda s, c: sector_spectrum(2 * PI / 3, s, c)),
        (lambda s: make_equilateral_triangle(s),
         lambda s, c: equilateral_triangle_spectrum(s, c)),
    ], ids=["rectangle", "disk", "sector", "equilateral"])
    @pytest.mark.parametrize("motion", range(3))
    def test_moved_and_dilated_family_matches(self, moved, build, exact, motion):
        rng = np.random.default_rng(motion)
        angle = rng.uniform(0.0, 2 * PI)
        shift = rng.uniform(-2.0, 2.0, size=2)
        scale = float(2.0 ** rng.uniform(-1.0, 1.0))
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        cutoff = 2.0e3 / scale ** 2
        spec = spectrum_for_domain(moved(build(scale), rot, shift), cutoff)
        assert spec is not None
        assert_allclose(spec.eigenvalues, exact(scale, cutoff).eigenvalues,
                        rtol=1e-12)

    def test_near_misses_fall_through(self):
        r, c = 1.0, math.sqrt(0.5)
        # one side of a unit square 1e-9 longer than its opposite side
        trapezoid = make_polygon([(0, 0), (1 + 1e-9, 0), (1, 1), (0, 1)])
        # one quarter arc of the unit circle about a centre 1e-9 away
        off = 1e-9 * np.array([c, -c])
        arcs = [ArcSegment(seg.start, seg.end, seg.center + (off if i == 0 else 0), r)
                for i, seg in enumerate(make_disk(r).loops[0].segments)]
        # a quarter disk whose two sides meet 1e-9 away from the arc centre
        quarter = make_sector(PI / 2).loops[0].segments
        apex = np.array([1e-9, 0.0])
        sector = [LineSegment(apex, quarter[0].end), quarter[1],
                  LineSegment(quarter[2].start, apex)]
        for domain in (trapezoid, DomainSpec([arcs]), DomainSpec([sector])):
            assert spectrum_for_domain(domain, 100.0) is None
