"""Exact Dirichlet spectra for reference domains.

Every generator returns the complete list of eigenvalues up to a cutoff,
with multiplicity, which is what heat-trace tails require.  Bessel zeros are
computed for all orders of a spectrum at once, by bracketing sign changes of
J_nu on a uniform grid of step 3 pi/4 that starts just below the first zero
and refining every bracket with safeguarded Newton steps, rather than
relying on any library zero routine.  scipy evaluates J_nu only at orders
below 2; higher orders, and the derivative, come from forward recurrence in
the order, stable because the zero finder evaluates J_nu only at x > nu.
``scipy.special`` is imported inside ``_jv``, so only a process that finds
Bessel zeros pays for loading it.
"""

import math

import numpy as np

from .errors import EmptySpectrumError, NumericError
from .reporting import read_table, write_table

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
        if not np.all((lam > 0) & (lam < math.inf)):
            raise ValueError("eigenvalues must be finite and positive")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be ascending")
        for name, value in (("cutoff", cutoff), ("area_hint", area_hint),
                            ("perimeter_hint", perimeter_hint)):
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value!r}")
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

    @property
    def area_estimate(self):
        """The area hint, else the Weyl estimate 4 pi K / cutoff."""
        if self.area_hint is not None:
            return self.area_hint
        return 4.0 * math.pi * len(self) / self.cutoff

    def multiplicity_hints(self):
        """Sizes of clusters within MULTIPLICITY_RTOL of their first
        eigenvalue, one entry per eigenvalue."""
        lam = self.eigenvalues
        n = len(lam)
        tol = MULTIPLICITY_RTOL * lam
        # A cluster opens at i when lam[i - 1] is out of reach of lam[i]; no
        # smaller eigenvalue reaches it then either.  Clusters grow from all
        # such openings at once, one eigenvalue per pass.
        opens = np.concatenate([[True], lam[1:] - lam[:-1] > tol[:-1], [True]])
        starts = [np.flatnonzero(opens[:-1])]
        while len(starts[-1]):
            start = starts[-1]
            end = start + 1
            grow = end < n
            while grow.any():
                k = np.flatnonzero(grow)
                grow[k] = lam[end[k]] - lam[start[k]] <= tol[start[k]]
                end += grow
                grow &= end < n
            # A cluster that stops inside a run of close eigenvalues hands
            # the rest of the run to a cluster starting where it stopped.
            starts.append(end[~opens[end]])
        size = np.diff(np.sort(np.concatenate(starts + [[n]])))
        return np.repeat(size, size)


def _finish(values, cutoff, source, label, area=None, perimeter=None, meta=None):
    values = np.sort(np.asarray(values, dtype=float))
    values = values[values <= cutoff]
    if values.size == 0:
        raise EmptySpectrumError(
            f"{label}: cutoff {cutoff:g} lies below the first eigenvalue")
    return Spectrum(values, cutoff, source, domain_label=label,
                    area_hint=area, perimeter_hint=perimeter, meta=meta)


def _check_cutoff(cutoff):
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be finite and positive, got {cutoff!r}")


def _pairs(m_max, n_max):
    """Every index pair 1 <= m <= m_max, 1 <= n <= n_max, as two flat arrays."""
    m, n = np.meshgrid(np.arange(1, m_max + 1), np.arange(1, n_max + 1),
                       indexing="ij")
    return m.ravel(), n.ravel()


def rectangle_spectrum(a, b, cutoff):
    """All lambda = pi^2 (m^2/a^2 + n^2/b^2) <= cutoff, m, n >= 1."""
    if a <= 0 or b <= 0:
        raise ValueError("rectangle sides must be positive")
    _check_cutoff(cutoff)
    pi2 = math.pi ** 2
    # lambda exceeds pi^2 m^2 / a^2 and pi^2 n^2 / b^2
    m, n = _pairs(int(a * math.sqrt(cutoff) / math.pi),
                  int(b * math.sqrt(cutoff) / math.pi))
    flat = pi2 * m * m / (a * a) + pi2 * n ** 2 / (b * b)
    return _finish(flat, cutoff, "analytic", f"rectangle-{a}x{b}",
                   area=a * b, perimeter=2 * (a + b))


def _mcmahon(nu, k):
    """McMahon asymptotic for the k-th positive zero of J_nu."""
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return (beta
            - (mu - 1) / (8 * beta)
            - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3))


def _jv(nu, x, lo, hi):
    """J_nu(x) and J_nu'(x) elementwise.  With m = floor(nu), scipy's ``jv``
    gives J at the orders nu - m and nu - m + 1, both below 2, where it is
    cheap; the recurrence J_{k+1} = (2k/x) J_k - J_{k-1} climbs the other
    m - 1 rungs of every lane at once, with the lanes sorted by m so that
    those still climbing form a prefix.  The rung beside J_nu gives the
    derivative: J_nu' = J_{nu-1} - (nu/x) J_nu once the ladder has climbed
    (m >= 1), J_nu' = (nu/x) J_nu - J_{nu+1} at m = 0.  The recurrence is
    stable upward only while x > nu (Gautschi, SIAM Rev. 9, 1967): a lane
    with m >= 2 at x <= nu, like a non-finite value, raises NumericError
    naming the order and the bracket [lo, hi] it was evaluated for."""
    from scipy.special import jv
    m = np.floor(nu)
    below = (m >= 2) & (x <= nu)
    if below.any():
        i = int(np.argmax(below))
        raise NumericError(
            f"J_{nu[i]:g} recurrence asked for x={x[i]:.17g} <= nu "
            f"in [{lo[i]:.6g}, {hi[i]:.6g}]")
    perm = np.argsort(-m, kind="stable")
    rungs, xs = m[perm], x[perm]
    base = nu[perm] - rungs
    # J at the even rungs base + 2i in one array, at the odd ones in the
    # other: rung j + 1 overwrites rung j - 1.
    ladder = (jv(base, xs), jv(base + 1.0, xs))
    twice = 2.0 * base
    climbing = np.searchsorted(-rungs, -np.arange(1.0, rungs.max(initial=0.0)),
                               side="left")
    for j, n in enumerate(climbing.tolist(), start=1):
        older, newer = ladder[(j + 1) % 2], ladder[j % 2]
        older[:n] = (twice[:n] + 2 * j) / xs[:n] * newer[:n] - older[:n]
    even = rungs % 2 == 0
    vals, other = np.empty_like(xs), np.empty_like(xs)
    vals[perm] = np.where(even, *ladder)
    other[perm] = np.where(even, ladder[1], ladder[0])
    ratio = nu / x
    deriv = np.where(m >= 1, other - ratio * vals, ratio * vals - other)
    bad = ~(np.isfinite(vals) & np.isfinite(deriv))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"J_{nu[i]:g} evaluation returned {vals[i]}, {deriv[i]} at "
            f"x={x[i]:.17g} in [{lo[i]:.6g}, {hi[i]:.6g}]")
    return vals, deriv


def _newton_lanes(nu, lo, hi, flo):
    """Zeros of J_nu in the brackets [lo, hi], one lane per bracket, where
    J_nu(lo) = flo is nonzero and J_nu(hi) has the opposite sign.

    Every lane starts at its bracket's midpoint, and every evaluation
    narrows the bracket by the sign of J_nu there.  A Newton step that
    leaves the bracket becomes a bisection; so does a non-finite one where
    J_nu' = 0, since a bracket of 3 pi/4 may hold an extremum.  A lane
    stops once its Newton step is at most BESSEL_RTOL x and returns the
    Newton iterate, which is x itself where J_nu(x) = 0.  Each iteration
    makes one ``_jv`` call over the lanes still active.
    """
    root = np.empty(nu.size)
    live, neg, x = np.arange(nu.size), np.signbit(flo), 0.5 * (lo + hi)
    for _ in range(100):
        f, df = _jv(nu, x, lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        done = np.abs(newton - x) <= BESSEL_RTOL * x
        root[live[done]] = newton[done]
        left = np.signbit(f) == neg
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        x = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        live, nu, lo, hi, neg, x = (v[~done] for v in (live, nu, lo, hi, neg, x))
        if live.size == 0:
            return root
    raise NumericError(
        f"Bessel zero refinement failed for nu={nu[0]:g} in "
        f"[{lo[0]:.6g}, {hi[0]:.6g}]: no convergence in 100 iterations")


def bessel_j_zeros(orders, upper):
    """All positive zeros of J_nu at or below ``upper`` for every nu in
    ``orders``, to ~1e-12 relative, as one flat array: order by order, as
    given, and ascending within each order.

    J_nu is scanned on a uniform grid of spacing 3 pi/4 that starts just
    below its first zero (nu + 1.85 nu^(1/3)) and ends more than a step
    past ``upper``; the grids of all orders are concatenated.  Consecutive
    zeros are more than 3.11 apart for every nu >= 0 (slightly less than pi
    below nu = 1/2, e.g. j_{0,2} - j_{0,1} = 3.1153; more than pi above
    it), so a grid step holds at most one zero, and each sign change
    between neighbouring nodes of one order brackets exactly one.  All
    brackets of all orders are refined at once by safeguarded Newton steps.

    The scan and the refinement evaluate J_nu and J_nu' by ``_jv``'s
    forward recurrence from orders below 2, stable only for x > nu.  That
    holds: the grid starts at nu + 1.5 nu^(1/3) - 1 > nu for every nu >= 1
    (orders below 2 never recur), and every iterate lies inside its bracket.
    """
    orders = np.asarray(orders, dtype=float)
    if np.any(orders < 0):
        raise ValueError("order must be nonnegative")
    step = 0.75 * math.pi
    grids = []
    for nu in orders.tolist():
        if upper <= nu:
            grids.append(np.empty(0))
            continue
        # The first zero exceeds nu + 1.85 nu^(1/3); start scanning slightly
        # below.  Two steps of margin keep rounding from dropping the node
        # that brackets a zero just below upper.
        lo = max(nu + 1.5 * nu ** (1.0 / 3.0) - 1.0, 1e-3) if nu > 0 else 1.0
        grids.append(np.arange(lo, upper + 2 * step, step))
    sizes = np.array([g.size for g in grids], dtype=np.int64)
    x = np.concatenate([np.empty(0)] + grids)
    order = np.repeat(np.arange(orders.size), sizes)
    nu = orders[order]
    first = np.cumsum(sizes) - sizes
    f = _jv(nu, x, x[first[order]], x[first[order] + sizes[order] - 1])[0]
    left = np.flatnonzero((order[:-1] == order[1:])
                          & (np.sign(f[:-1]) * np.sign(f[1:]) < 0))
    zeros = _newton_lanes(nu[left], x[left], x[left + 1], f[left])
    inside = zeros <= upper
    zeros, lane_order = zeros[inside], order[left][inside]

    # Gross-blunder check on spacing: consecutive zeros approach pi apart
    # away from the turning point and ~1.4 nu^(1/3) apart near it.
    gap_cap = 1.5 * math.pi + 1.6 * np.maximum(orders, 1.0) ** (1.0 / 3.0) + 1.0
    same = lane_order[1:] == lane_order[:-1]
    gap = same & (np.diff(zeros) > gap_cap[lane_order[1:]])
    if gap.any():
        raise NumericError(
            f"suspicious gap in J_{orders[lane_order[1:][gap][0]]:g} zero sequence")
    counts = np.bincount(lane_order, minlength=orders.size)
    ends = np.cumsum(counts) - 1
    for i in np.flatnonzero((orders <= 2) & (counts > 0)):
        if abs(zeros[ends[i]] - _mcmahon(orders[i], counts[i])) > 1.0:
            raise NumericError(
                f"J_{orders[i]:g} zero count disagrees with McMahon estimate")
    return zeros


def disk_spectrum(radius, cutoff):
    """Dirichlet disk: lambda = (j_{nu,k}/R)^2, angular orders doubled."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    _check_cutoff(cutoff)
    upper = radius * math.sqrt(cutoff)
    # The first zero of J_nu exceeds nu, so orders from upper on add nothing.
    lam0 = (bessel_j_zeros([0], upper) / radius) ** 2
    lam = (bessel_j_zeros(range(1, math.ceil(upper)), upper) / radius) ** 2
    flat = np.concatenate([lam0, lam, lam])  # sin and cos angular factors
    return _finish(flat, cutoff, "analytic", f"disk-{radius}",
                   area=math.pi * radius ** 2, perimeter=2 * math.pi * radius)


def sector_spectrum(theta, radius, cutoff):
    """Dirichlet circular sector: lambda = (j_{m*pi/theta, k}/R)^2, m >= 1."""
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError("sector opening angle must lie in (0, 2*pi)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    _check_cutoff(cutoff)
    upper = radius * math.sqrt(cutoff)
    # The first zero of J_nu exceeds nu, so orders above upper add nothing.
    orders = np.arange(1, math.floor(upper * theta / math.pi) + 1) * math.pi / theta
    flat = (bessel_j_zeros(orders, upper) / radius) ** 2
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
    _check_cutoff(cutoff)
    c = 16.0 * math.pi ** 2 / (9.0 * side ** 2)
    # m^2 + m n + n^2 <= cutoff / c needs m, n < sqrt(cutoff / c)
    k = int(math.sqrt(cutoff / c))
    m, n = _pairs(k, k)
    flat = c * (m * m + m * n + n * n)
    return _finish(flat, cutoff, "analytic", f"equilateral-triangle-{side}",
                   area=math.sqrt(3) / 4 * side ** 2, perimeter=3 * side)


def weyl_ratio(spectrum, area):
    """|Omega| lambda_k / (4 pi k) for each k; tends to 1 for complete lists."""
    lam = spectrum.eigenvalues
    k = np.arange(1, len(lam) + 1, dtype=float)
    return area * lam / (4.0 * math.pi * k)


# ---------------------------------------------------------------------------
# Spectrum files: a reporting table (see ``reporting``) with the header
# lines 'cutoff area_hint', 'source domain_label', 'perimeter_hint' and one
# per meta key, and the rows index,eigenvalue,multiplicity_hint.

SPECTRUM_COLUMNS = ("index", "eigenvalue", "multiplicity_hint")


def write_spectrum(spectrum, path):
    area = "nan" if spectrum.area_hint is None else f"{spectrum.area_hint:.17g}"
    header = [{"cutoff": f"{spectrum.cutoff:.17g}", "area_hint": area},
              {"source": spectrum.source, "domain_label": spectrum.domain_label}]
    if spectrum.perimeter_hint is not None:
        header.append({"perimeter_hint": f"{spectrum.perimeter_hint:.17g}"})
    header += [{key: str(spectrum.meta[key])} for key in sorted(spectrum.meta)]
    lam = spectrum.eigenvalues
    rows = zip(range(1, len(lam) + 1), lam.tolist(),
               spectrum.multiplicity_hints().tolist())
    write_table(path, header, SPECTRUM_COLUMNS, "{},{:.17g},{}", rows)


def read_spectrum(path):
    meta, rows = read_table(path, SPECTRUM_COLUMNS)
    if "cutoff" not in meta:
        raise ValueError(f"{path}: missing '# cutoff=' header")
    cutoff = float(meta.pop("cutoff"))
    area = meta.pop("area_hint", "nan")
    perimeter = meta.pop("perimeter_hint", None)
    source = meta.pop("source", "file")
    label = meta.pop("domain_label", "")
    return Spectrum(rows[:, 1], cutoff, source, domain_label=label,
                    area_hint=None if area == "nan" else float(area),
                    perimeter_hint=None if perimeter is None else float(perimeter),
                    meta=meta)


# ---------------------------------------------------------------------------
# Conservative detection of reference families from a DomainSpec.


def spectrum_for_domain(domain, cutoff):
    """The exact spectrum of a domain that is a rectangle, a disk, a
    circular sector or an equilateral triangle, labelled by the domain;
    None for any other domain (FEM).

    Checks are exact up to 1e-12 on segment data, relative to the perimeter
    where they compare lengths; anything ambiguous falls through to None.
    """
    segs = domain.loops[0].segments
    lines = [s for s in segs if s.kind == "line"]
    arcs = [s for s in segs if s.kind == "arc"]
    if len(domain.loops) != 1 or len(lines) + len(arcs) < len(segs):
        return None
    tol = 1e-12 * max(domain.perimeter, 1.0)
    corners = domain.corners
    spec = None

    if not arcs:
        lengths = [s.length for s in segs]
        right = all(abs(c.theta - math.pi / 2) < 1e-12 for c in corners)
        if len(segs) == 4 and len(corners) == 4 and right \
                and abs(lengths[0] - lengths[2]) < tol \
                and abs(lengths[1] - lengths[3]) < tol:
            spec = rectangle_spectrum(lengths[0], lengths[1], cutoff)
        elif len(segs) == 3 and len(corners) == 3 \
                and max(lengths) - min(lengths) < tol:
            spec = equilateral_triangle_spectrum(lengths[0], cutoff)
    else:
        # A disk or a sector: all arcs lie on one circle.
        centers = np.array([a.center for a in arcs])
        radii = [a.radius for a in arcs]
        if np.ptp(centers, axis=0).max() > tol or max(radii) - min(radii) > tol:
            return None
        apex, r = centers[0], radii[0]
        if not lines and not corners:
            spec = disk_spectrum(r, cutoff)
        elif len(lines) == 2:
            for ln in lines:
                ends = sorted([np.linalg.norm(ln.start - apex), np.linalg.norm(ln.end - apex)])
                if abs(ends[0]) > tol or abs(ends[1] - r) > tol:
                    return None
            sweep = sum(a.sweep for a in arcs)
            if 0 < sweep < 2 * math.pi:
                spec = sector_spectrum(sweep, r, cutoff)

    if spec is not None:
        spec.domain_label = domain.label or spec.domain_label
    return spec
