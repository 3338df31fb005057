"""Exact Dirichlet spectra for reference domains.

Every generator returns the complete list of eigenvalues up to a cutoff,
with multiplicity, which is what heat-trace tails require.  Bessel zeros are
computed by bracketing sign changes of J_nu on a scan grid seeded from the
McMahon large-zero asymptotics and refining with Brent's method, rather than
relying on any library zero routine.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from .errors import EmptySpectrumError, NumericError

BESSEL_RTOL = 1e-12
MULTIPLICITY_RTOL = 1e-9


class Spectrum:
    """Finite ascending eigenvalue list, complete below ``cutoff``."""

    def __init__(self, eigenvalues, cutoff, source, domain_label="",
                 area_hint=None, perimeter_hint=None, meta=None):
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.size == 0:
            raise EmptySpectrumError(
                f"no eigenvalues at or below cutoff {cutoff:g}")
        if np.any(lam <= 0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be ascending")
        self.eigenvalues = lam
        self.cutoff = float(cutoff)
        self.source = str(source)
        self.domain_label = str(domain_label)
        self.area_hint = None if area_hint is None else float(area_hint)
        self.perimeter_hint = None if perimeter_hint is None else float(perimeter_hint)
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def lambda1(self):
        return float(self.eigenvalues[0])

    def scaled(self, s):
        """Spectrum of the domain dilated by factor s (eigenvalues / s^2)."""
        return Spectrum(self.eigenvalues / s ** 2, self.cutoff / s ** 2,
                        self.source, domain_label=f"{self.domain_label}-scaled-{s}",
                        area_hint=None if self.area_hint is None
                        else self.area_hint * s ** 2,
                        perimeter_hint=None if self.perimeter_hint is None
                        else self.perimeter_hint * s,
                        meta=dict(self.meta))

    def multiplicity_hints(self):
        """Sizes of clusters within MULTIPLICITY_RTOL of their first
        eigenvalue, one entry per eigenvalue."""
        lam = self.eigenvalues
        hints = np.ones(len(lam), dtype=int)
        i = 0
        while i < len(lam):
            j = i + 1
            while j < len(lam) and lam[j] - lam[i] <= MULTIPLICITY_RTOL * lam[i]:
                j += 1
            hints[i:j] = j - i
            i = j
        return hints


def _finish(values, cutoff, source, label, area=None, perimeter=None, meta=None):
    values = np.sort(np.asarray(values, dtype=float))
    values = values[values <= cutoff]
    if values.size == 0:
        raise EmptySpectrumError(
            f"{label}: cutoff {cutoff:g} lies below the first eigenvalue")
    return Spectrum(values, cutoff, source, domain_label=label,
                    area_hint=area, perimeter_hint=perimeter, meta=meta)


def rectangle_spectrum(a, b, cutoff):
    """All lambda = pi^2 (m^2/a^2 + n^2/b^2) <= cutoff, m, n >= 1."""
    if a <= 0 or b <= 0:
        raise ValueError("rectangle sides must be positive")
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
    flat = np.concatenate(vals) if vals else np.array([])
    return _finish(flat, cutoff, "analytic", f"rectangle-{a}x{b}",
                   area=a * b, perimeter=2 * (a + b))


def _mcmahon(nu, k):
    """McMahon asymptotic for the k-th positive zero of J_nu."""
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return (beta
            - (mu - 1) / (8 * beta)
            - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3))


def bessel_j_zeros(nu, upper):
    """All positive zeros of J_nu at or below ``upper``, to ~1e-12 relative.

    Sign changes are located on a scan grid whose spacing comes from the
    McMahon zero-spacing estimate (consecutive zeros are separated by at
    least ~pi for nu >= 1/2, slightly more below); each bracket is then
    refined with Brent's method on J_nu.
    """
    if nu < 0:
        raise ValueError("order must be nonnegative")
    if upper <= nu:
        return np.array([])
    # The first zero exceeds nu + 1.85 nu^(1/3); start scanning slightly below.
    lo = max(nu + 1.5 * nu ** (1.0 / 3.0) - 1.0, 1e-3) if nu > 0 else 1.0
    step = math.pi / 4.0
    grid = np.arange(lo, upper + 2 * step, step)
    vals = jv(nu, grid)
    if not np.all(np.isfinite(vals)):
        raise NumericError(f"J_{nu} evaluation returned non-finite values")
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    zeros = []
    for i in sign_change:
        a_br, b_br = grid[i], grid[i + 1]
        try:
            z = brentq(lambda x: jv(nu, x), a_br, b_br,
                       xtol=1e-300, rtol=BESSEL_RTOL, maxiter=200)
        except Exception as exc:
            raise NumericError(
                f"Bessel zero refinement failed for nu={nu} "
                f"in [{a_br:.6g}, {b_br:.6g}]: {exc}") from exc
        if z <= upper:
            zeros.append(z)
    zeros = np.array(zeros)
    # Gross-blunder check on spacing: consecutive zeros approach pi apart
    # away from the turning point and ~1.4 nu^(1/3) apart near it.
    gap_cap = 1.5 * math.pi + 1.6 * max(nu, 1.0) ** (1.0 / 3.0) + 1.0
    if len(zeros) >= 2 and np.any(np.diff(zeros) > gap_cap):
        raise NumericError(f"suspicious gap in J_{nu} zero sequence")
    if len(zeros) >= 1 and nu <= 2 and abs(zeros[-1] - _mcmahon(nu, len(zeros))) > 1.0:
        raise NumericError(f"J_{nu} zero count disagrees with McMahon estimate")
    return zeros


def disk_spectrum(radius, cutoff):
    """Dirichlet disk: lambda = (j_{nu,k}/R)^2, angular orders doubled."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    upper = radius * math.sqrt(cutoff)
    vals = []
    nu = 0
    while True:
        zeros = bessel_j_zeros(nu, upper)
        if zeros.size == 0:
            break
        lam = (zeros / radius) ** 2
        vals.append(lam)
        if nu > 0:
            vals.append(lam)  # sin and cos angular factors
        nu += 1
    flat = np.concatenate(vals) if vals else np.array([])
    return _finish(flat, cutoff, "analytic", f"disk-{radius}",
                   area=math.pi * radius ** 2, perimeter=2 * math.pi * radius)


def sector_spectrum(theta, radius, cutoff):
    """Dirichlet circular sector: lambda = (j_{m*pi/theta, k}/R)^2, m >= 1."""
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError("sector opening angle must lie in (0, 2*pi)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    upper = radius * math.sqrt(cutoff)
    vals = []
    m = 1
    while True:
        nu = m * math.pi / theta
        if nu > upper:  # first zero exceeds nu, so no contribution
            break
        zeros = bessel_j_zeros(nu, upper)
        if zeros.size == 0:
            break
        vals.append((zeros / radius) ** 2)
        m += 1
    flat = np.concatenate(vals) if vals else np.array([])
    area = 0.5 * theta * radius ** 2
    return _finish(flat, cutoff, "analytic", f"sector-{theta:.6g}-R{radius}",
                   area=area, perimeter=2 * radius + theta * radius)


def equilateral_triangle_spectrum(side, cutoff):
    """Dirichlet equilateral triangle: lambda = (16 pi^2 / 9 s^2)(m^2+mn+n^2).

    Ordered index pairs m, n >= 1 carry the multiplicities: (m, n) and
    (n, m) are distinct modes for m != n (one symmetric, one antisymmetric
    under the triangle's mirror), while m = n occurs once.  The convention
    is cross-validated against the finite element solver in the test suite.
    """
    if side <= 0:
        raise ValueError("side must be positive")
    c = 16.0 * math.pi ** 2 / (9.0 * side ** 2)
    q_max = cutoff / c
    vals = []
    m = 1
    while m * m + m + 1 <= q_max:
        # largest n with m^2 + m n + n^2 <= q_max
        disc = q_max - 0.75 * m * m
        n_max = int(math.floor(math.sqrt(disc) - 0.5 * m)) if disc > 0 else 0
        while m * m + m * n_max + n_max * n_max > q_max:
            n_max -= 1
        if n_max >= 1:
            n = np.arange(1, n_max + 1)
            vals.append(c * (m * m + m * n + n * n))
        m += 1
    flat = np.concatenate(vals) if vals else np.array([])
    return _finish(flat, cutoff, "analytic", f"equilateral-triangle-{side}",
                   area=math.sqrt(3) / 4 * side ** 2, perimeter=3 * side)


def weyl_ratio(spectrum, area):
    """|Omega| lambda_k / (4 pi k) for each k; tends to 1 for complete lists."""
    lam = spectrum.eigenvalues
    k = np.arange(1, len(lam) + 1, dtype=float)
    return area * lam / (4.0 * math.pi * k)


# ---------------------------------------------------------------------------
# Spectrum files: '# cutoff=... area_hint=...' header, then CSV rows
# index,eigenvalue,multiplicity_hint with 17 significant digits.


def write_spectrum(spectrum, path):
    hints = spectrum.multiplicity_hints()
    area = "nan" if spectrum.area_hint is None else f"{spectrum.area_hint:.17g}"
    lines = [f"# cutoff={spectrum.cutoff:.17g} area_hint={area}"]
    lines.append(f"# source={spectrum.source} domain_label={spectrum.domain_label}")
    if spectrum.perimeter_hint is not None:
        lines.append(f"# perimeter_hint={spectrum.perimeter_hint:.17g}")
    for key in sorted(spectrum.meta):
        lines.append(f"# {key}={spectrum.meta[key]}")
    lines.append("index,eigenvalue,multiplicity_hint")
    for i, (lam, mult) in enumerate(zip(spectrum.eigenvalues, hints), start=1):
        lines.append(f"{i},{lam:.17g},{mult}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_spectrum(path):
    cutoff = None
    area_hint = None
    perimeter_hint = None
    meta = {}
    source = "file"
    label = ""
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" not in token:
                        continue
                    key, _, val = token.partition("=")
                    if key == "cutoff":
                        cutoff = float(val)
                    elif key == "area_hint":
                        area_hint = None if val == "nan" else float(val)
                    elif key == "perimeter_hint":
                        perimeter_hint = float(val)
                    elif key == "source":
                        source = val
                    elif key == "domain_label":
                        label = val
                    else:
                        meta[key] = val
                continue
            if line.startswith("index,"):
                continue
            parts = line.split(",")
            values.append(float(parts[1]))
    if cutoff is None:
        raise ValueError(f"{path}: missing '# cutoff=' header")
    return Spectrum(values, cutoff, source, domain_label=label,
                    area_hint=area_hint, perimeter_hint=perimeter_hint, meta=meta)


# ---------------------------------------------------------------------------
# Conservative detection of reference families from a DomainSpec.


def match_reference_family(domain):
    """Map a DomainSpec onto an analytic family, or None.

    Returns one of ("rectangle", (a, b)), ("disk", r), ("sector",
    (theta, r)), ("equilateral", side).  Checks are exact up to 1e-12 on
    segment data; anything ambiguous falls through to None (FEM).
    """
    from .geometry import ArcSegment, LineSegment, detect_corners

    if len(domain.loops) != 1:
        return None
    segs = domain.loops[0].segments
    kinds = {s.kind for s in segs}
    tol = 1e-12 * max(domain.diameter(), 1.0)

    if kinds == {"line"}:
        corners = detect_corners(domain)
        if len(segs) == 4 and len(corners) == 4:
            lengths = [s.length() for s in segs]
            right = all(abs(c.theta - math.pi / 2) < 1e-12 for c in corners)
            if right and abs(lengths[0] - lengths[2]) < tol \
                    and abs(lengths[1] - lengths[3]) < tol:
                return ("rectangle", (lengths[0], lengths[1]))
        if len(segs) == 3 and len(corners) == 3:
            lengths = [s.length() for s in segs]
            if max(lengths) - min(lengths) < tol:
                return ("equilateral", lengths[0])
        return None

    if kinds == {"arc"}:
        centers = np.array([s.center for s in segs])
        radii = [s.radius for s in segs]
        if np.ptp(centers, axis=0).max() < tol and max(radii) - min(radii) < tol \
                and not detect_corners(domain):
            return ("disk", radii[0])
        return None

    if kinds == {"line", "arc"}:
        lines = [s for s in segs if s.kind == "line"]
        arcs = [s for s in segs if s.kind == "arc"]
        if len(lines) != 2:
            return None
        centers = np.array([a.center for a in arcs])
        radii = [a.radius for a in arcs]
        if np.ptp(centers, axis=0).max() > tol or max(radii) - min(radii) > tol:
            return None
        apex = centers[0]
        r = radii[0]
        for ln in lines:
            ends = sorted([np.linalg.norm(ln.start - apex), np.linalg.norm(ln.end - apex)])
            if abs(ends[0]) > tol or abs(ends[1] - r) > tol:
                return None
        sweep = sum(a.sweep for a in arcs)
        if not 0 < sweep < 2 * math.pi:
            return None
        return ("sector", (sweep, r))

    return None


def spectrum_for_domain(domain, cutoff):
    """Analytic spectrum for a recognized reference domain, else None."""
    family = match_reference_family(domain)
    if family is None:
        return None
    kind, params = family
    if kind == "rectangle":
        spec = rectangle_spectrum(params[0], params[1], cutoff)
    elif kind == "disk":
        spec = disk_spectrum(params, cutoff)
    elif kind == "sector":
        spec = sector_spectrum(params[0], params[1], cutoff)
    else:
        spec = equilateral_triangle_spectrum(params, cutoff)
    spec.domain_label = domain.label or spec.domain_label
    return spec
