"""Exact Dirichlet spectra for reference domains.

Every generator returns the complete list of eigenvalues up to a cutoff,
with multiplicity, which is what heat-trace tails require.  Bessel zeros are
computed for all orders of a spectrum at once, by bracketing sign changes of
J_nu on a uniform grid that starts just below the first zero and refining
every bracket with Brent's method, rather than relying on any library zero
routine.  scipy evaluates J_nu only at orders below 2; higher orders are
reached by forward recurrence in the order, stable because the zero finder
evaluates J_nu only at x > nu.
"""

import math

import numpy as np
from scipy.special import jv

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


def _jv(nu, x, lo, hi):
    """J_nu(x) elementwise.  With m = floor(nu), scipy's ``jv`` gives J at
    the orders nu - m and nu - m + 1, both below 2, where it is cheap; the
    recurrence J_{k+1} = (2k/x) J_k - J_{k-1} climbs the other m - 1 rungs
    of every lane at once, with the lanes sorted by m so that those still
    climbing form a prefix.  It is stable upward only while x > nu
    (Gautschi, SIAM Rev. 9, 1967): a lane with m >= 2 at x <= nu, like a
    non-finite value, raises NumericError naming the order and the bracket
    [lo, hi] it was evaluated for."""
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
    vals = np.empty_like(xs)
    vals[perm] = np.where(rungs % 2 == 0, *ladder)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"J_{nu[i]:g} evaluation returned {vals[i]} at x={x[i]:.17g} "
            f"in [{lo[i]:.6g}, {hi[i]:.6g}]")
    return vals


def _brentq_lanes(nu, a, b, fa, fb):
    """Zeros of J_nu in the brackets [a, b], one lane per bracket.

    A lane-parallel port of scipy's ``brentq.c`` with xtol=1e-300,
    rtol=BESSEL_RTOL and 200 iterations: every lane runs the same floating
    point operations in the same order as a scalar ``brentq`` call would,
    starting from the known end values (fa nonzero; fb of the opposite
    sign, or zero, which returns b), so the zeros are the same doubles.
    Each iteration makes one J_nu call over the lanes still active.
    """
    xtol, rtol = 1e-300, BESSEL_RTOL
    root = np.empty(a.size)
    live, lo, hi = np.arange(a.size), a, b
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = np.zeros(a.size)
    for _ in range(200):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        conv = (fcur == 0) | (np.abs(sbis) < delta)
        if conv.any():
            root[live[conv]] = xcur[conv]
            (live, nu, lo, hi, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
             delta, sbis) = (v[~conv] for v in (
                live, nu, lo, hi, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                delta, sbis))
        if live.size == 0:
            return root

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # interpolate (secant) where xpre == xblk, else extrapolate
            # (inverse quadratic)
            s_int = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            s_ext = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, s_int, s_ext)
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(good, scur, sbis)
        scur = np.where(good, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = _jv(nu, xcur, lo, hi)
    raise NumericError(
        f"Bessel zero refinement failed for nu={nu[0]:g} in "
        f"[{lo[0]:.6g}, {hi[0]:.6g}]: no convergence in 200 iterations")


def bessel_j_zeros(orders, upper):
    """All positive zeros of J_nu at or below ``upper`` for every nu in
    ``orders``, to ~1e-12 relative, as one flat array: order by order, as
    given, and ascending within each order.

    J_nu is scanned on a uniform grid of spacing pi/4 that starts just
    below its first zero (nu + 1.85 nu^(1/3)) and ends past ``upper``; the
    grids of all orders are concatenated.  Consecutive zeros are more than
    3.11 apart for every nu >= 0 (slightly less than pi below nu = 1/2,
    e.g. j_{0,2} - j_{0,1} = 3.1153; more than pi above it), so an interval
    of three grid steps (3 pi/4) holds at most one zero: J_nu is evaluated
    on every third node and on the last one, and each sign change is
    narrowed to its grid step with at most two more evaluations.  All
    brackets of all orders are refined at once by Brent's method.

    The scan, the narrowing and Brent's method all evaluate J_nu by
    ``_jv``'s forward recurrence from orders below 2, stable only for
    x > nu.  That holds: the grid starts at nu + 1.5 nu^(1/3) - 1 > nu for
    every nu >= 1 (orders below 2 never recur), and every bracket lies
    inside the grid.
    """
    orders = np.asarray(orders, dtype=float)
    if np.any(orders < 0):
        raise ValueError("order must be nonnegative")
    step = math.pi / 4.0
    grids = []
    for nu in orders.tolist():
        if upper <= nu:
            grids.append(np.empty(0))
            continue
        # The first zero exceeds nu + 1.85 nu^(1/3); start scanning slightly below.
        lo = max(nu + 1.5 * nu ** (1.0 / 3.0) - 1.0, 1e-3) if nu > 0 else 1.0
        grids.append(np.arange(lo, upper + 2 * step, step))
    sizes = np.array([g.size for g in grids], dtype=np.int64)
    x = np.concatenate([np.empty(0)] + grids)
    order = np.repeat(np.arange(orders.size), sizes)
    nu = orders[order]
    first = np.cumsum(sizes) - sizes
    last = first + sizes - 1
    node = np.arange(x.size) - first[order]
    coarse = np.flatnonzero((node % 3 == 0) | (node == sizes[order] - 1))

    # J_nu on the coarse nodes; a sign change between neighbours of one
    # order brackets exactly one zero.
    f = np.full(x.size, np.nan)
    f[coarse] = _jv(nu[coarse], x[coarse], x[first[order[coarse]]],
                    x[last[order[coarse]]])
    c0, c1 = coarse[:-1], coarse[1:]
    change = (order[c0] == order[c1]) & (np.sign(f[c0]) * np.sign(f[c1]) < 0)
    c0, c1 = c0[change], c1[change]

    # Narrow to the first grid step whose right end leaves the sign of f[c0].
    right = c0 + 1
    moving = right < c1
    while moving.any():
        r = right[moving]
        f[r] = _jv(nu[r], x[r], x[c0[moving]], x[c1[moving]])
        moving[moving] = np.sign(f[r]) == np.sign(f[c0[moving]])
        right[moving] += 1
        moving &= right < c1
    left = right - 1

    zeros = _brentq_lanes(nu[left], x[left], x[right], f[left], f[right])
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
    upper = radius * math.sqrt(cutoff)
    orders = []
    m = 1
    while m * math.pi / theta <= upper:  # first zero exceeds nu
        orders.append(m * math.pi / theta)
        m += 1
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


def match_reference_family(domain):
    """Map a DomainSpec onto an analytic family, or None.

    Returns one of ("rectangle", (a, b)), ("disk", r), ("sector",
    (theta, r)), ("equilateral", side).  Checks are exact up to 1e-12 on
    segment data; anything ambiguous falls through to None (FEM).
    """
    from .geometry import detect_corners

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
