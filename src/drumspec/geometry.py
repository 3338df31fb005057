"""Planar domains with piecewise-smooth Lipschitz boundary.

A domain is described by one outer loop (counterclockwise) and any number of
hole loops (clockwise), each loop a closed chain of segments.  Three segment
kinds exist: straight lines, circular arcs, and smooth parametric curves.
A domain is validated on sampled polylines: one sweep over all loops' edges
finds any crossing, then the containment routine places each hole.  The
invariants entering the heat-trace expansion (area, perimeter, curvature
integral, corner angles) are computed once, when a segment or domain is
built, and read as attributes: closed forms for lines and arcs, and one
quadrature pass, split at a spline's knots, for a curve.
"""

import math

import numpy as np

from .errors import DomainFileError, InvalidDomainError, NumericError

TWO_PI = 2.0 * math.pi

# Relative tolerance used by the adaptive quadrature on parametric segments.
QUAD_TOL = 1e-11

# Endpoint chaining tolerance, relative to the loop's scale.
CHAIN_TOL = 1e-9

# Junction turns within SLIT_TOL of +-pi are cusps/slits and are rejected.
SLIT_TOL = 1e-9

# Junctions whose turn is at most ANGLE_TOL are smooth, not corners.
ANGLE_TOL = 1e-6

# Most edge pairs one block of the crossing sweep expands.
CROSSING_BLOCK = 2 ** 20


def _as_point(p):
    a = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(a)):
        raise InvalidDomainError(f"non-finite coordinate {p!r}")
    return a


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _norm(v):
    return math.hypot(v[0], v[1])


def _unit(v):
    n = _norm(v)
    if n == 0.0:
        raise InvalidDomainError("zero tangent vector")
    return v / n


def _wrap_pi(angle):
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(angle + math.pi, TWO_PI)
    if a <= 0.0:
        a += TWO_PI
    return a - math.pi


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _adaptive_gauss(integrand, breaks):
    """Composite Gauss-Legendre over [breaks[0], breaks[-1]]: each interval
    between breaks is cut into m equal panels, at least 8 panels in all,
    and m doubles until two successive estimates of every row agree to
    QUAD_TOL.

    ``integrand`` maps a parameter array of shape (n,) to rows of shape
    (k, n); one pass integrates all k rows.  Breaks at a spline's knots give
    every panel a single polynomial piece, so the rule converges there as on
    a smooth integrand.
    """
    breaks = np.asarray(breaks, dtype=float)
    m = math.ceil(8 / (len(breaks) - 1))
    prev = None
    while m * (len(breaks) - 1) <= 65536:
        edges = breaks[:-1, None] \
            + np.diff(breaks)[:, None] * np.linspace(0.0, 1.0, m + 1)[None, :]
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:]).ravel()
        half = 0.5 * (edges[:, 1:] - edges[:, :-1]).ravel()
        u = (mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel()
        w = (half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel()
        val = integrand(u) @ w
        if prev is not None and np.all(
                np.abs(val - prev) <= QUAD_TOL * np.maximum(1.0, np.abs(val))):
            return val
        prev = val
        m *= 2
    raise NumericError("segment quadrature failed to converge")


class _Segment:
    """What the three segment kinds share.

    A kind sets ``start``, ``end``, ``length``, ``turning_integral`` (of
    the geodesic curvature) and ``area_integral`` (its share of
    (1/2) * integral(x dy - y dx)) in ``__init__``.  It supplies a
    vectorised ``point_at(u)`` for u in [0, 1] and ``tangent_in`` and
    ``tangent_out`` (unit, in traversal direction), and overrides
    ``step_cap``, ``param_at`` and ``to_dict`` where it needs more than a
    straight line.
    """

    def sample(self, n):
        """The n + 1 points at u = 0, 1/n, ..., 1."""
        return self.point_at(np.linspace(0.0, 1.0, n + 1))

    def step_cap(self, sagitta):
        """Longest walk step whose chord keeps within ``sagitta``."""
        return math.inf

    def param_at(self, s):
        """Parameters at arclengths s from the start (lines and arcs run at
        constant speed)."""
        return s / self.length

    def walk(self, step, sagitta):
        """The start point and the interior points that cut the segment into
        k pieces of equal arclength, k = ceil(length (1 - 1e-9) / min(step,
        ``step_cap``)), and their parameters; the segment end is left out
        (loop walks chain segment outputs).  Walking in arclength rather
        than in the parameter puts the points of one curve in the same
        places under any parametrization (a reloaded spline's, say).
        """
        k = math.ceil(self.length * (1.0 - 1e-9)
                      / min(step, self.step_cap(sagitta)))
        if k > 200000:
            raise InvalidDomainError("boundary walk failed to terminate")
        us = self.param_at(self.length * np.arange(k) / k)
        return self.point_at(us), us

    def to_dict(self):
        return {"kind": self.kind, "start": self.start.tolist(),
                "end": self.end.tolist()}


class LineSegment(_Segment):
    """Straight segment from ``start`` to ``end``."""

    kind = "line"

    def __init__(self, start, end):
        self.start = _as_point(start)
        self.end = _as_point(end)
        self.length = _norm(self.end - self.start)
        self.turning_integral = 0.0
        self.area_integral = 0.5 * _cross(self.start, self.end)

    def tangent_in(self):
        return _unit(self.end - self.start)

    def tangent_out(self):
        return self.tangent_in()

    def point_at(self, u):
        return self.start[None, :] + u[:, None] * (self.end - self.start)[None, :]


class ArcSegment(_Segment):
    """Circular arc; the sign of ``radius`` selects the sweep direction.

    Positive radius sweeps counterclockwise around ``center`` from ``start``
    to ``end``, negative sweeps clockwise.  A full circle must be split into
    at least two arcs (coincident endpoints are rejected as ambiguous).
    """

    kind = "arc"

    def __init__(self, start, end, center, radius):
        self.start = _as_point(start)
        self.end = _as_point(end)
        self.center = _as_point(center)
        if radius == 0.0:
            raise InvalidDomainError("arc radius must be nonzero")
        r = abs(float(radius))
        self.ccw = radius > 0
        r0 = _norm(self.start - self.center)
        r1 = _norm(self.end - self.center)
        if abs(r0 - r) > 1e-9 * max(r, 1.0) or abs(r1 - r) > 1e-9 * max(r, 1.0):
            raise InvalidDomainError(
                f"arc endpoints are not at distance |radius|={r} from the center "
                f"(got {r0}, {r1})"
            )
        self.radius = r
        a0 = math.atan2(self.start[1] - self.center[1], self.start[0] - self.center[0])
        a1 = math.atan2(self.end[1] - self.center[1], self.end[0] - self.center[0])
        if np.allclose(self.start, self.end):
            raise InvalidDomainError("arc endpoints coincide; split full circles")
        sweep = math.fmod(a1 - a0, TWO_PI)
        if self.ccw and sweep <= 0.0:
            sweep += TWO_PI
        elif not self.ccw and sweep >= 0.0:
            sweep -= TWO_PI
        self.angle0 = a0
        self.sweep = sweep  # signed, in (-2pi, 0) or (0, 2pi)
        self.length = r * abs(sweep)
        # Geodesic curvature k = +-1/R; integral over the arc is the signed sweep.
        self.turning_integral = sweep
        self.area_integral = 0.5 * (_cross(self.center, self.end - self.start)
                                    + r * r * sweep)

    def _tangent(self, alpha):
        t = np.array([-math.sin(alpha), math.cos(alpha)])
        return t if self.ccw else -t

    def tangent_in(self):
        return self._tangent(self.angle0)

    def tangent_out(self):
        return self._tangent(self.angle0 + self.sweep)

    def step_cap(self, sagitta):
        # Chord of length c on a circle of radius R has sagitta c^2/(8R).
        return 2.0 * math.sqrt(2.0 * self.radius * sagitta)

    def point_at(self, u):
        alpha = self.angle0 + self.sweep * u
        return self.center[None, :] + self.radius * np.stack(
            [np.cos(alpha), np.sin(alpha)], axis=1)

    def to_dict(self):
        return dict(super().to_dict(), center=self.center.tolist(),
                    radius=self.radius if self.ccw else -self.radius)


class CurveSegment(_Segment):
    """Smooth parametric segment gamma(u), u in [0, 1].

    ``fun``/``dfun``/``d2fun`` map a parameter array of shape (n,) to points
    of shape (n, 2).  First and second derivatives must be supplied so the
    geodesic curvature is available; segments loaded from files get them from
    a cubic spline through the stored sample points.  Length, turning and
    area come from one quadrature pass, split at the knots ``fun.x`` when
    ``fun`` is a spline.
    """

    kind = "curve"

    def __init__(self, fun, dfun, d2fun, points=None):
        self.fun = fun
        self.dfun = dfun
        self.d2fun = d2fun
        self._points = None if points is None else np.asarray(points, dtype=float)
        self._arclength = None
        self.start = _as_point(fun(np.array([0.0]))[0])
        self.end = _as_point(fun(np.array([1.0]))[0])

        def rows(u):
            p, d, dd = fun(u), dfun(u), d2fun(u)
            speed2 = d[:, 0] ** 2 + d[:, 1] ** 2
            return np.stack([np.sqrt(speed2),
                             (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / speed2,
                             0.5 * (p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0])])

        # A CubicSpline (a scipy PPoly) keeps its knots in ``x``.
        self.length, self.turning_integral, self.area_integral = map(
            float, _adaptive_gauss(rows, getattr(fun, "x", (0.0, 1.0))))

    @classmethod
    def from_points(cls, points):
        from scipy.interpolate import CubicSpline

        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
            raise InvalidDomainError("curve segments need at least 8 sample points")
        chord = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        if chord[-1] == 0.0:
            raise InvalidDomainError("degenerate curve segment (zero length)")
        u = chord / chord[-1]
        spline = CubicSpline(u, pts, axis=0)
        return cls(spline, spline.derivative(1), spline.derivative(2), points=pts)

    def tangent_in(self):
        return _unit(self.dfun(np.array([0.0]))[0])

    def tangent_out(self):
        return _unit(self.dfun(np.array([1.0]))[0])

    def step_cap(self, sagitta):
        # The largest curvature over 65 samples stands in for the maximum.
        u = np.linspace(0.0, 1.0, 65)
        d, dd = self.dfun(u), self.d2fun(u)
        speed2 = np.einsum("ij,ij->i", d, d)
        kmax = np.max(np.abs(d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0])
                      / np.maximum(speed2, 1e-30) ** 1.5)
        return 2.0 * math.sqrt(2.0 * sagitta / kmax) if kmax > 1e-12 else math.inf

    def param_at(self, s):
        # Inverts a trapezoid table of the arclength, scaled to the
        # quadrature length, on 1025 parameters.
        if self._arclength is None:
            u = np.linspace(0.0, 1.0, 1025)
            speed = np.linalg.norm(self.dfun(u), axis=1)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]))])
            self._arclength = (cum * (self.length / cum[-1]), u)
        return np.interp(s, *self._arclength)

    def point_at(self, u):
        return np.asarray(self.fun(u), dtype=float)

    def to_dict(self):
        pts = self._points if self._points is not None else self.sample(128)
        return {"kind": "curve", "points": pts.tolist()}


class Corner:
    """Boundary vertex with interior opening angle theta in (0, 2pi)."""

    def __init__(self, vertex, theta):
        self.vertex = _as_point(vertex)
        self.theta = float(theta)

    def __repr__(self):
        return (f"Corner(vertex=({self.vertex[0]:.6g}, {self.vertex[1]:.6g}), "
                f"theta={self.theta:.12g})")


class BoundaryLoop:
    """Closed chain of segments."""

    def __init__(self, segments):
        if len(segments) < 2:
            raise InvalidDomainError("a loop needs at least 2 segments")
        self.segments = list(segments)
        scale = max(max(_norm(s.start), _norm(s.end)) for s in self.segments)
        scale = max(scale, 1.0)
        for i, seg in enumerate(self.segments):
            if seg.length < 1e-12 * scale:
                raise InvalidDomainError(f"degenerate segment {i} (zero length)")
            nxt = self.segments[(i + 1) % len(self.segments)]
            gap = _norm(seg.end - nxt.start)
            if gap > CHAIN_TOL * scale:
                raise InvalidDomainError(
                    f"loop not closed: segment {i} ends {gap:g} away from the next start"
                )


def _polygon_contains(poly, points):
    """Crossing-number containment test of ``points`` against closed ``poly``.

    Edge (a, b) -> (c, d) crosses the horizontal line through a point at
    height y exactly when min(b, d) <= y < max(b, d), so once the points are
    sorted by y the points each edge crosses form one contiguous range.  The
    crossing abscissa is evaluated on those (edge, point) pairs only, and a
    point is inside when an odd number of crossings lie to its right.
    """
    pts = np.atleast_2d(points)
    order = np.argsort(pts[:, 1])
    a, b = poly[:, 0], poly[:, 1]
    c, d = np.roll(a, -1), np.roll(b, -1)
    ys = pts[order, 1]
    start = np.searchsorted(ys, np.minimum(b, d))
    n_cross = np.searchsorted(ys, np.maximum(b, d)) - start
    edge = np.repeat(np.arange(len(poly)), n_cross)
    first = np.cumsum(n_cross) - n_cross
    point = order[np.arange(len(edge)) - np.repeat(first - start, n_cross)]
    x, y = pts[point, 0], pts[point, 1]
    xint = a[edge] + (y - b[edge]) * (c[edge] - a[edge]) / (d[edge] - b[edge])
    return np.bincount(point[x < xint], minlength=len(pts)) % 2 == 1


def _loops_contain(polys, points):
    """Points inside the outer polygon ``polys[0]`` and outside every hole."""
    inside = _polygon_contains(polys[0], points)
    for hole in polys[1:]:
        inside &= ~_polygon_contains(hole, points)
    return inside


def _crossing_loops(polys):
    """The least loop pair (k, l), k <= l, in which an edge of closed
    polyline k crosses one of l, or None.  Two edges cross when each has its
    ends strictly on opposite sides of the other's line; a shared vertex
    lies exactly on both, and touching is not crossing.  With all edges
    sorted by their low end along one axis, an edge's candidates are the run
    after it that starts within its range on that axis.  The sweep takes the
    axis, x or y, with fewer candidate pairs, so that edges stacked over one
    x-range are not all paired, and expands them CROSSING_BLOCK pairs at a
    time so that many long edges over one range cannot allocate every pair."""
    n = len(polys)
    a = np.concatenate(polys).T
    b = np.concatenate([np.roll(p, -1, axis=0) for p in polys]).T
    low, high = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(low, axis=1)
    n_cand = [np.searchsorted(low[k, order[k]], high[k, order[k]], side="right")
              - np.arange(1, a.shape[1] + 1) for k in (0, 1)]
    k = int(n_cand[1].sum() < n_cand[0].sum())
    order, n_cand = order[k], n_cand[k]
    a, b = a[:, order], b[:, order]
    loop = np.repeat(np.arange(n), [len(p) for p in polys])[order]
    ends = np.cumsum(n_cand)
    least = n * n
    for lo in range(0, int(ends[-1]), CROSSING_BLOCK):
        pair = np.arange(lo, min(lo + CROSSING_BLOCK, int(ends[-1])))
        i = np.searchsorted(ends, pair, side="right")
        j = i + 1 + pair - (ends[i] - n_cand[i])
        e, f = b[:, i] - a[:, i], b[:, j] - a[:, j]
        hit = (_cross(e, a[:, j] - a[:, i]) * _cross(e, b[:, j] - a[:, i]) < 0) \
            & (_cross(f, a[:, i] - a[:, j]) * _cross(f, b[:, i] - a[:, j]) < 0)
        key = np.minimum(loop[i], loop[j]) * n + np.maximum(loop[i], loop[j])
        least = min(least, int(key[hit].min(initial=least)))
    return None if least == n * n else divmod(least, n)


class DomainSpec:
    """Validated planar domain: outer loop first, then hole loops.  No two
    edges of the loops' polylines cross (``_crossing_loops``), and each hole
    lies inside the outer loop and outside the others (``_loops_contain``).

    Its invariants are computed once, on construction, and read as plain
    attributes: ``corners`` (see ``detect_corners``), ``chi`` (1 minus the
    number of holes), ``area`` (the sum of the signed loop areas),
    ``perimeter`` and ``curvature_integral`` (of the geodesic curvature
    over the smooth part of the boundary).  The object is treated as
    immutable afterwards.
    """

    def __init__(self, loops, label=""):
        if not loops:
            raise InvalidDomainError("domain needs at least one loop")
        self.loops = [lp if isinstance(lp, BoundaryLoop) else BoundaryLoop(lp)
                      for lp in loops]
        self.label = str(label)

        areas = [sum(s.area_integral for s in lp.segments)
                 for lp in self.loops]
        if areas[0] <= 0:
            raise InvalidDomainError("outer loop must be counterclockwise")
        for i, a in enumerate(areas[1:], start=1):
            if a >= 0:
                raise InvalidDomainError(f"hole loop {i} must be clockwise")

        # Each loop as a closed polyline: line ends, 64 chords per arc or curve.
        polys = [np.concatenate([s.sample(1 if s.kind == "line" else 64)[:-1]
                                 for s in lp.segments]) for lp in self.loops]
        crossing = _crossing_loops(polys)
        if crossing is not None:
            k, l = crossing
            raise InvalidDomainError(
                f"loop {k} self-intersects" if k == l else
                f"hole loop {l} crosses the outer loop" if k == 0 else
                f"hole loops {k} and {l} overlap")
        for i in range(1, len(polys)):
            if not _loops_contain(polys[:i] + polys[i + 1:], polys[i]).all():
                raise InvalidDomainError(f"hole loop {i} is not inside the "
                                         "outer loop and outside the other holes")

        self.corners = detect_corners(self.loops)
        self.chi = 2 - len(self.loops)
        self.area = sum(areas)
        self.perimeter = sum(sum(s.length for s in lp.segments)
                             for lp in self.loops)
        self.curvature_integral = sum(
            sum(s.turning_integral for s in lp.segments) for lp in self.loops)
        self._polylines = polys


def detect_corners(loops):
    """The corners of boundary loops, from one pass over their junctions.

    Junction j of a loop sits between segment j and segment j+1 (mod n).
    Its signed exterior turn tau in (-pi, pi) is measured from the incoming
    to the outgoing tangent, and its interior opening angle is theta =
    pi - tau; with holes traversed clockwise the domain interior is on the
    left everywhere, so the same formula covers reflex corners on hole
    boundaries.  Turns within SLIT_TOL of +-pi (cusps and slits) are
    rejected: theta would hit 0 or 2pi, which breaks the Lipschitz
    hypothesis.  Junctions with |tau| <= ANGLE_TOL count as smooth.
    """
    corners = []
    for lp in loops:
        segs = lp.segments
        for j, seg in enumerate(segs):
            nxt = segs[(j + 1) % len(segs)]
            u, w = seg.tangent_out(), nxt.tangent_in()
            tau = _wrap_pi(math.atan2(w[1], w[0]) - math.atan2(u[1], u[0]))
            if abs(abs(tau) - math.pi) < SLIT_TOL:
                raise InvalidDomainError(
                    f"cusp or slit at junction {j} (interior angle 0 or 2pi)")
            if abs(tau) > ANGLE_TOL:
                corners.append(Corner(nxt.start, math.pi - tau))
    return corners


def gauss_bonnet_check(domain):
    """Residual of: integral of k over the smooth boundary part
    = sum of interior angles + pi*(2*chi - n)."""
    expected = sum(c.theta for c in domain.corners) \
        + math.pi * (2 * domain.chi - len(domain.corners))
    return abs(domain.curvature_integral - expected)


# ---------------------------------------------------------------------------
# Builders for reference domains


def make_polygon(vertices, label="polygon"):
    """Simple polygon from a vertex list; reversed if given clockwise."""
    pts = [np.asarray(v, dtype=float) for v in vertices]
    if len(pts) < 3:
        raise InvalidDomainError("polygon needs at least 3 vertices")
    area2 = sum(_cross(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))
    if area2 < 0:
        pts = pts[::-1]
    segs = [LineSegment(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    return DomainSpec([segs], label=label)


def make_rectangle(a, b, label=None):
    return make_polygon([(0, 0), (a, 0), (a, b), (0, b)],
                        label=label or f"rectangle-{a}x{b}")


def make_square(side=1.0):
    return make_rectangle(side, side, label=f"square-{side}")


def make_equilateral_triangle(side=1.0):
    h = side * math.sqrt(3) / 2
    return make_polygon([(0, 0), (side, 0), (side / 2, h)],
                        label=f"equilateral-triangle-{side}")


def make_lshape(size=1.0):
    """L-shaped hexagon: unit square minus its upper-right quadrant."""
    s, m = size, size / 2
    return make_polygon([(0, 0), (s, 0), (s, m), (m, m), (m, s), (0, s)],
                        label=f"lshape-{size}")


def make_regular_polygon(n, circumradius=1.0):
    ang = TWO_PI * np.arange(n) / n
    verts = circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return make_polygon(verts, label=f"regular-{n}-gon")


def _circle_arcs(center, radius):
    """A counterclockwise circle as four quarter arcs."""
    cx, cy = center
    ang = np.linspace(0.0, TWO_PI, 5)
    pts = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in ang]
    return [ArcSegment(pts[i], pts[i + 1], center, radius) for i in range(4)]


def make_disk(radius=1.0):
    return DomainSpec([_circle_arcs((0.0, 0.0), radius)], label=f"disk-{radius}")


def make_sector(theta, radius=1.0, label=None):
    """Circular sector with apex at the origin and opening angle theta."""
    if not 0.0 < theta < TWO_PI:
        raise InvalidDomainError("sector opening angle must lie in (0, 2*pi)")
    apex = (0.0, 0.0)
    p0 = (radius, 0.0)
    p1 = (radius * math.cos(theta), radius * math.sin(theta))
    segs = [LineSegment(apex, p0)]
    # Wide arcs are split so each piece stays below a half turn.
    n_arc = max(1, int(math.ceil(theta / (math.pi / 2))))
    for i in range(n_arc):
        a0 = theta * i / n_arc
        a1 = theta * (i + 1) / n_arc
        segs.append(ArcSegment((radius * math.cos(a0), radius * math.sin(a0)),
                               (radius * math.cos(a1), radius * math.sin(a1)),
                               apex, radius))
    segs.append(LineSegment(p1, apex))
    return DomainSpec([segs], label=label or f"sector-{theta:.6g}-R{radius}")


def make_square_with_square_hole(outer=1.0, inner=0.5):
    """Square with a centered square hole (chi = 0)."""
    o, c = outer, (outer - inner) / 2
    outer_segs = [LineSegment(*e) for e in [((0, 0), (o, 0)), ((o, 0), (o, o)),
                                            ((o, o), (0, o)), ((0, o), (0, 0))]]
    a, b = c, c + inner
    hole_pts = [(a, a), (a, b), (b, b), (b, a)]  # clockwise
    hole_segs = [LineSegment(hole_pts[i], hole_pts[(i + 1) % 4]) for i in range(4)]
    return DomainSpec([outer_segs, hole_segs], label="square-with-hole")


def make_ellipse(a=1.0, b=0.6, label=None):
    """Smooth domain bounded by two parametric half-ellipse segments."""

    def make_half(sign):
        def fun(u):
            ang = math.pi * (np.asarray(u) if sign > 0 else np.asarray(u) + 1.0)
            return np.stack([a * np.cos(ang), b * np.sin(ang)], axis=-1)

        def dfun(u):
            ang = math.pi * (np.asarray(u) if sign > 0 else np.asarray(u) + 1.0)
            return math.pi * np.stack([-a * np.sin(ang), b * np.cos(ang)], axis=-1)

        def d2fun(u):
            ang = math.pi * (np.asarray(u) if sign > 0 else np.asarray(u) + 1.0)
            return math.pi ** 2 * np.stack([-a * np.cos(ang), -b * np.sin(ang)], axis=-1)

        return CurveSegment(fun, dfun, d2fun)

    return DomainSpec([[make_half(+1), make_half(-1)]],
                      label=label or f"ellipse-{a}x{b}")


# ---------------------------------------------------------------------------
# Domain files (versioned key/value document with nested lists)

DOMAIN_SCHEMA = 1
_SEGMENT_KEYS = {
    "line": {"kind", "start", "end"},
    "arc": {"kind", "start", "end", "center", "radius"},
    "curve": {"kind", "points"},
}


def _segment_from_dict(d, where):
    if not isinstance(d, dict) or "kind" not in d:
        raise DomainFileError(f"{where}: segment entries need a 'kind' key")
    kind = d["kind"]
    if kind not in _SEGMENT_KEYS:
        raise DomainFileError(f"{where}: unknown segment kind {kind!r}")
    extra = set(d) - _SEGMENT_KEYS[kind]
    if extra:
        raise DomainFileError(f"{where}: unknown keys {sorted(extra)} for kind {kind!r}")
    missing = _SEGMENT_KEYS[kind] - set(d)
    if missing:
        raise DomainFileError(f"{where}: missing keys {sorted(missing)} for kind {kind!r}")
    try:
        if kind == "line":
            return LineSegment(d["start"], d["end"])
        if kind == "arc":
            return ArcSegment(d["start"], d["end"], d["center"], float(d["radius"]))
        return CurveSegment.from_points(d["points"])
    except InvalidDomainError as exc:
        raise DomainFileError(f"{where}: {exc}") from exc


def load_domain(path):
    """Parse a domain file; rejects unknown schema versions, kinds and keys."""
    import yaml

    from .reporting import SAFE_LOADER

    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=SAFE_LOADER)
    except OSError as exc:
        raise DomainFileError(f"{path}: not readable ({exc.strerror})") from exc
    except yaml.YAMLError as exc:
        raise DomainFileError(f"{path}: not parseable ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainFileError(f"{path}: expected a mapping at top level")
    extra = set(doc) - {"schema", "label", "loops"}
    if extra:
        raise DomainFileError(f"{path}: unknown top-level keys {sorted(extra)}")
    if doc.get("schema") != DOMAIN_SCHEMA:
        raise DomainFileError(f"{path}: unsupported schema {doc.get('schema')!r}")
    loops_doc = doc.get("loops")
    if not isinstance(loops_doc, list) or not loops_doc:
        raise DomainFileError(f"{path}: 'loops' must be a non-empty list")
    loops = []
    for li, loop_doc in enumerate(loops_doc):
        if not isinstance(loop_doc, dict) or set(loop_doc) != {"segments"}:
            raise DomainFileError(f"{path}: loop {li} must be a mapping with 'segments'")
        segs = [_segment_from_dict(sd, f"{path}: loop {li} segment {si}")
                for si, sd in enumerate(loop_doc["segments"])]
        try:
            loops.append(BoundaryLoop(segs))
        except InvalidDomainError as exc:
            raise DomainFileError(f"{path}: loop {li}: {exc}") from exc
    try:
        return DomainSpec(loops, label=doc.get("label", ""))
    except InvalidDomainError as exc:
        raise DomainFileError(f"{path}: {exc}") from exc


def save_domain(domain, path):
    import yaml

    doc = {
        "schema": DOMAIN_SCHEMA,
        "label": domain.label,
        "loops": [{"segments": [s.to_dict() for s in lp.segments]}
                  for lp in domain.loops],
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
