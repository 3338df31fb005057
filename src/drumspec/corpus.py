"""Bundled reference domains, truth values, and the verification corpus.

Every entry carries the exact constant heat-trace coefficient computed from
its corner angles and Euler characteristic, so pipeline outputs can be
judged against ground truth.  The isospectral pair below consists of seven
right isosceles triangles glued edge-to-edge (legs 1); the two gluing
schedules produce non-congruent polygons (their cyclic boundary signatures
differ) whose first 20 Dirichlet eigenvalues agree to a few parts in 1e5
under FEM cross-validation.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import analytic_spectra as spectra
from .errors import InvalidDomainError
from .geometry import (
    gauss_bonnet_check,
    make_disk,
    make_equilateral_triangle,
    make_lshape,
    make_polygon,
    make_rectangle,
    make_regular_polygon,
    make_sector,
    make_square,
    make_square_with_square_hole,
)

PI = math.pi

ISOSPECTRAL_PAIR = {
    "gww-a": [(-1.0, 0.0), (0.0, 0.0), (0.0, -1.0), (1.0, -1.0),
              (1.0, 2.0), (0.0, 1.0), (-1.0, 1.0)],
    "gww-b": [(-1.0, 0.0), (0.0, 0.0), (0.0, -1.0), (1.0, -1.0),
              (1.0, 0.0), (2.0, 1.0), (-1.0, 1.0)],
}


def isospectral_pair():
    return (make_polygon(ISOSPECTRAL_PAIR["gww-a"], label="gww-a"),
            make_polygon(ISOSPECTRAL_PAIR["gww-b"], label="gww-b"))


@dataclass
class ReferenceDomain:
    label: str
    build: object                 # () -> DomainSpec
    a0: float                     # exact constant trace coefficient
    chi: int = 1
    has_corners: bool = True
    cutoff: float = 1e5           # analytic spectrum cutoff for pipelines
    analytic: bool = True
    fem_h: float = 0.0            # used when analytic is False
    fem_count: int = 0


REFERENCE_DOMAINS = [
    ReferenceDomain("square", make_square, 1.0 / 4.0, cutoff=2.0e5),
    ReferenceDomain("rectangle-2x1", lambda: make_rectangle(2.0, 1.0),
                    1.0 / 4.0, cutoff=1.0e5),
    ReferenceDomain("equilateral-triangle", make_equilateral_triangle,
                    1.0 / 3.0, cutoff=3.0e5),
    ReferenceDomain("quarter-disk", lambda: make_sector(PI / 2), 11.0 / 48.0,
                    cutoff=1.0e5),
    ReferenceDomain("half-disk", lambda: make_sector(PI), 5.0 / 24.0,
                    cutoff=1.0e5),
    ReferenceDomain("disk", make_disk, 1.0 / 6.0, has_corners=False,
                    cutoff=1.0e5),
    ReferenceDomain("lshape", make_lshape, 5.0 / 18.0, analytic=False,
                    fem_h=0.01, fem_count=450),
]

EXACT_SEGMENT_DOMAINS = {ref.label: ref.build for ref in REFERENCE_DOMAINS} | {
    "two-thirds-sector": lambda: make_sector(2 * PI / 3),
    "square-with-hole": make_square_with_square_hole,
    "nonagon": lambda: make_regular_polygon(9),
}


# Vertex counts of the random star polygons.
STAR_MIN_SIDES, STAR_MAX_SIDES = 3, 12


def random_star_polygon(rng):
    """Random simple polygon, star-shaped about the origin.

    Convex and nonconvex vertices both occur (radii vary by up to 3x);
    angle gaps are kept away from zero so no junction degenerates toward a
    cusp or slit.
    """
    for _ in range(100):
        n = int(rng.integers(STAR_MIN_SIDES, STAR_MAX_SIDES + 1))
        angles = np.sort(rng.uniform(0.0, 2 * PI, size=n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * PI]]))
        if gaps.min() < 0.8 / n:
            continue
        radii = rng.uniform(0.4, 1.3, size=n)
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        try:
            return make_polygon(pts, label=f"random-{n}-gon")
        except InvalidDomainError:
            continue
    raise RuntimeError("failed to draw a valid random polygon")


def spectrum_for(ref, seed=0):
    """Spectrum for a reference domain: analytic family or FEM fallback."""
    dom = ref.build()
    if ref.analytic:
        spec = spectra.spectrum_for_domain(dom, ref.cutoff)
        if spec is None:
            raise RuntimeError(f"{ref.label}: expected an analytic family")
        return spec
    from .fem_solver import fem_spectrum

    return fem_spectrum(dom, ref.fem_h, ref.fem_count, seed=seed)


# ---------------------------------------------------------------------------
# Verification corpus: named checks with pass/fail results and timings.


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str = ""


def _check(name, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except AssertionError as exc:
        detail = str(exc)
        ok = False
    except Exception as exc:  # noqa: BLE001 - verify reports, never crashes
        detail = f"error: {exc}"
        ok = False
    return CheckResult(name, ok, time.perf_counter() - t0, detail or "")


def _assert(cond, msg):
    if not cond:
        raise AssertionError(msg)


def build_corpus(seed=0, fem=True):
    """The bundled checks, as (name, callable) pairs."""
    from .asymptotic_fit import fit_expansion, implied_area, implied_perimeter
    from .classifier import classify, f_corner
    from .heat_trace import theoretical_coefficients

    checks = []
    refs = {ref.label: ref for ref in REFERENCE_DOMAINS}
    spectra_by_label = {}
    verdicts_by_label = {}

    def reference_spectrum(ref):
        # Each reference spectrum is computed once per corpus run; the
        # L-shape FEM mesh and solve alone take about twenty seconds.
        if ref.label not in spectra_by_label:
            spectra_by_label[ref.label] = spectrum_for(ref, seed=seed)
        return spectra_by_label[ref.label]

    def reference_verdict(ref):
        # Likewise each verdict: for an exact spectrum its fit is the blind
        # fit the a0-recovery check judges, so both checks share it.
        if ref.label not in verdicts_by_label:
            verdicts_by_label[ref.label] = classify(reference_spectrum(ref),
                                                   chi=ref.chi)
        return verdicts_by_label[ref.label]

    def gauss_bonnet():
        worst = 0.0
        for label, build in EXACT_SEGMENT_DOMAINS.items():
            res = gauss_bonnet_check(build())
            worst = max(worst, res)
            _assert(res <= 1e-8, f"{label}: residual {res:.2e}")
        return f"max residual {worst:.2e} over {len(EXACT_SEGMENT_DOMAINS)} domains"

    checks.append(("geometry/gauss-bonnet", gauss_bonnet))

    def corner_angles():
        lsh = sorted(c.theta for c in make_lshape().corners)
        _assert(len(lsh) == 6 and abs(lsh[-1] - 3 * PI / 2) < 1e-12,
                "lshape corner angles wrong")
        _assert(make_disk().corners == [], "disk must have no corners")
        hole = make_square_with_square_hole().corners
        _assert(sum(1 for c in hole if c.theta > PI) == 4,
                "hole must contribute four reflex corners")
        return "square/lshape/disk/hole corner sets correct"

    checks.append(("geometry/corner-detection", corner_angles))

    def random_polygon_bound():
        rng = np.random.default_rng(seed)
        worst = math.inf
        for _ in range(500):
            dom = random_star_polygon(rng)
            coeffs = theoretical_coefficients(dom)
            _assert(coeffs.a0 > 1.0 / 6.0,
                    f"{dom.label}: a0 {coeffs.a0} not above 1/6")
            worst = min(worst, coeffs.a0)
            thetas = [c.theta for c in dom.corners]
            x = [t / PI for t in thetas]
            if any(abs(v - 1.0) > 1e-9 for v in x):
                _assert(f_corner(x) > 2 * len(x),
                        f"{dom.label}: f(x) bound violated")
        return f"500 polygons, min a0 {worst:.6f} > 1/6"

    checks.append(("theorem/random-polygon-a0", random_polygon_bound))

    def monotonicity():
        inner = reference_spectrum(refs["square"])
        outer = spectra.rectangle_spectrum(1.2, 1.1, 2.0e4)
        k = 200
        bad = int(np.sum(outer.eigenvalues[:k] > inner.eigenvalues[:k]))
        _assert(bad == 0, f"{bad} violations in first {k} modes")
        return f"lambda_k(1.2x1.1) <= lambda_k(1x1) for k <= {k}"

    checks.append(("spectra/domain-monotonicity", monotonicity))

    def weyl_tail():
        sq = reference_spectrum(refs["square"])
        r = spectra.weyl_ratio(sq, 1.0)
        _assert(abs(r[10**4 - 1] - 1) < 0.02, f"square ratio {r[10**4-1]:.4f}")
        dk = reference_spectrum(refs["disk"])
        rd = spectra.weyl_ratio(dk, PI)
        _assert(abs(rd[10**3 - 1] - 1) < 0.05, f"disk ratio {rd[10**3-1]:.4f}")
        return "counting ratios approach 1"

    checks.append(("spectra/weyl-ratio", weyl_tail))

    def a0_recovery():
        details = []
        for ref in REFERENCE_DOMAINS:
            if not ref.analytic:
                continue
            fit = reference_verdict(ref).fit
            err = abs(fit.coef["a0"] - ref.a0)
            _assert(err <= 0.01, f"{ref.label}: |a0 err| = {err:.4f}")
            area = implied_area(fit)
            perim = implied_perimeter(fit)
            dom = ref.build()
            _assert(abs(area - dom.area) / dom.area <= 0.005,
                    f"{ref.label}: area off {area:.4f}")
            _assert(abs(perim - dom.perimeter) / dom.perimeter <= 0.01,
                    f"{ref.label}: perimeter off {perim:.4f}")
            details.append(f"{ref.label} {err:.1e}")
        return "; ".join(details)

    checks.append(("fit/analytic-a0-recovery", a0_recovery))

    def classifier_corpus():
        wrong = []
        for ref in REFERENCE_DOMAINS:
            if not ref.analytic and not fem:
                continue
            decision = reference_verdict(ref).decision
            if (decision == "has_corners") != ref.has_corners:
                wrong.append(f"{ref.label}:{decision}")
        _assert(not wrong, "wrong verdicts: " + ", ".join(wrong))
        n = sum(1 for r in REFERENCE_DOMAINS if r.analytic or fem)
        return f"{n} domains decided correctly"

    checks.append(("classifier/corpus", classifier_corpus))

    if fem:
        def lshape_assisted():
            ref = refs["lshape"]
            # The assisted fit reuses the trace of the L-shape's verdict.
            dom = ref.build()
            fit = fit_expansion(reference_verdict(ref).samples,
                                area=dom.area, perimeter=dom.perimeter,
                                pollution_term=True)
            err = abs(fit.coef["a0"] - ref.a0)
            _assert(err <= 0.05, f"assisted a0 err {err:.4f}")
            return f"|a0 - 5/18| = {err:.4f}"

        checks.append(("fem/lshape-assisted-a0", lshape_assisted))

        def isospectral_drums():
            from .classifier import isospectral_compare
            from .fem_solver import fem_spectrum

            da, db = isospectral_pair()
            sa = fem_spectrum(da, 0.02, 20, seed=seed)
            sb = fem_spectrum(db, 0.02, 20, seed=seed)
            same, dev = isospectral_compare(sa, sb, count=20, rel_tol=1e-2)
            _assert(same, f"pair deviates by {dev:.2e}")
            return f"first 20 modes agree to {dev:.1e}"

        checks.append(("fem/isospectral-pair", isospectral_drums))

    return checks


def run_corpus(seed=0, name_filter="", fem=True):
    checks = build_corpus(seed=seed, fem=fem)
    results = []
    for name, fn in checks:
        if name_filter and name_filter not in name:
            continue
        results.append(_check(name, fn))
    return results
