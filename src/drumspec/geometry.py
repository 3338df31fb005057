"""Planar domains with piecewise-smooth Lipschitz boundary.

A domain is described by one outer loop (counterclockwise) and any number of
hole loops (clockwise), each loop a closed chain of segments.  Three segment
kinds exist: straight lines, circular arcs, and smooth parametric curves.
All geometric invariants entering the heat-trace expansion (area, perimeter,
geodesic-curvature integral, corner angles) are computed here, exactly for
lines and arcs and by adaptive quadrature for parametric curves.
"""

import math

import numpy as np

from .errors import DomainFileError, InvalidDomainError, NumericError

TWO_PI = 2.0 * math.pi

# Relative tolerance used by the adaptive quadrature on parametric segments.
QUAD_TOL = 1e-11

# Endpoint chaining tolerance (relative to loop scale); chained endpoints are
# snapped to the exact shared coordinates after validation.
CHAIN_TOL = 1e-9

# Junction turns within SLIT_TOL of +-pi are cusps/slits and are rejected.
SLIT_TOL = 1e-9

DEFAULT_ANGLE_TOL = 1e-6


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


def _adaptive_gauss(vec_integrand):
    """Composite Gauss-Legendre on [0, 1], doubling panels until two
    estimates agree to QUAD_TOL.

    Handles piecewise-polynomial integrands (splines) without subdivision
    warnings; the integrand must accept a parameter array.
    """
    n = 8
    prev = None
    while n <= 65536:
        edges = np.linspace(0.0, 1.0, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        u = (mid[:, None] + half * _GAUSS_NODES[None, :]).ravel()
        w = np.tile(half * _GAUSS_WEIGHTS, n)
        val = float(vec_integrand(u) @ w)
        if prev is not None and abs(val - prev) <= QUAD_TOL * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise NumericError("segment quadrature failed to converge")


class LineSegment:
    """Straight segment from ``start`` to ``end``."""

    kind = "line"

    def __init__(self, start, end):
        self.start = _as_point(start)
        self.end = _as_point(end)

    def length(self):
        return _norm(self.end - self.start)

    def tangent_in(self):
        """Unit tangent at the start, in traversal direction."""
        return _unit(self.end - self.start)

    def tangent_out(self):
        """Unit tangent at the end, in traversal direction."""
        return self.tangent_in()

    def turning_integral(self):
        return 0.0

    def area_integral(self):
        """Contribution of this segment to (1/2) * integral(x dy - y dx)."""
        return 0.5 * _cross(self.start, self.end)

    def sample(self, n):
        u = np.linspace(0.0, 1.0, n + 1)
        return self.start[None, :] + u[:, None] * (self.end - self.start)[None, :]

    def walk(self, spacing_fn, sagitta):
        return _walk_by_spacing(self, spacing_fn)

    def point_at(self, u):
        return self.start + u * (self.end - self.start)

    def to_dict(self):
        return {
            "kind": "line",
            "start": [float(self.start[0]), float(self.start[1])],
            "end": [float(self.end[0]), float(self.end[1])],
        }


class ArcSegment:
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
        if self.ccw:
            sweep = math.fmod(a1 - a0, TWO_PI)
            if sweep <= 0.0:
                sweep += TWO_PI
        else:
            sweep = math.fmod(a1 - a0, TWO_PI)
            if sweep >= 0.0:
                sweep -= TWO_PI
        self.angle0 = a0
        self.sweep = sweep  # signed, in (-2pi, 0) or (0, 2pi)

    def length(self):
        return self.radius * abs(self.sweep)

    def _tangent(self, alpha):
        t = np.array([-math.sin(alpha), math.cos(alpha)])
        return t if self.ccw else -t

    def tangent_in(self):
        return self._tangent(self.angle0)

    def tangent_out(self):
        return self._tangent(self.angle0 + self.sweep)

    def turning_integral(self):
        # Geodesic curvature k = +-1/R; integral over the arc is the signed sweep.
        return self.sweep

    def area_integral(self):
        c, r = self.center, self.radius
        return 0.5 * (_cross(c, self.end - self.start) + r * r * self.sweep)

    def sample(self, n):
        alpha = self.angle0 + self.sweep * np.linspace(0.0, 1.0, n + 1)
        return self.center[None, :] + self.radius * np.stack(
            [np.cos(alpha), np.sin(alpha)], axis=1
        )

    def walk(self, spacing_fn, sagitta):
        # Chord of length c on a circle of radius R has sagitta c^2/(8R).
        cap = 2.0 * math.sqrt(2.0 * self.radius * sagitta)
        return _walk_by_spacing(self, spacing_fn, step_cap=cap)

    def point_at(self, u):
        alpha = self.angle0 + self.sweep * u
        return self.center + self.radius * np.array([math.cos(alpha), math.sin(alpha)])

    def to_dict(self):
        return {
            "kind": "arc",
            "start": [float(self.start[0]), float(self.start[1])],
            "end": [float(self.end[0]), float(self.end[1])],
            "center": [float(self.center[0]), float(self.center[1])],
            "radius": float(self.radius if self.ccw else -self.radius),
        }


class CurveSegment:
    """Smooth parametric segment gamma(u), u in [0, 1].

    ``fun``/``dfun``/``d2fun`` map a parameter array of shape (n,) to points
    of shape (n, 2).  First and second derivatives must be supplied so the
    geodesic curvature is available; segments loaded from files get them from
    a cubic spline through the stored sample points.
    """

    kind = "curve"

    def __init__(self, fun, dfun, d2fun, points=None):
        self.fun = fun
        self.dfun = dfun
        self.d2fun = d2fun
        self._points = None if points is None else np.asarray(points, dtype=float)
        self.start = _as_point(fun(np.array([0.0]))[0])
        self.end = _as_point(fun(np.array([1.0]))[0])

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

    def length(self):
        return _adaptive_gauss(
            lambda u: np.linalg.norm(self.dfun(u), axis=1))

    def tangent_in(self):
        return _unit(self.dfun(np.array([0.0]))[0])

    def tangent_out(self):
        return _unit(self.dfun(np.array([1.0]))[0])

    def turning_integral(self):
        def integrand(u):
            d = self.dfun(u)
            dd = self.d2fun(u)
            return (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) \
                / (d[:, 0] ** 2 + d[:, 1] ** 2)

        return _adaptive_gauss(integrand)

    def area_integral(self):
        def integrand(u):
            p = self.fun(u)
            d = self.dfun(u)
            return 0.5 * (p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0])

        return _adaptive_gauss(integrand)

    def sample(self, n):
        return np.asarray(self.fun(np.linspace(0.0, 1.0, n + 1)), dtype=float)

    def walk(self, spacing_fn, sagitta):
        u = np.linspace(0.0, 1.0, 65)
        d, dd = self.dfun(u), self.d2fun(u)
        speed2 = np.einsum("ij,ij->i", d, d)
        kmax = np.max(np.abs(d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0])
                      / np.maximum(speed2, 1e-30) ** 1.5)
        cap = 2.0 * math.sqrt(2.0 * sagitta / kmax) if kmax > 1e-12 else None
        return _walk_by_spacing(self, spacing_fn, step_cap=cap)

    def point_at(self, u):
        return np.asarray(self.fun(np.atleast_1d(u))[0], dtype=float)

    def to_dict(self):
        pts = self._points if self._points is not None else self.sample(128)
        return {"kind": "curve", "points": [[float(x), float(y)] for x, y in pts]}


def _walk_by_spacing(segment, spacing_fn, step_cap=None):
    """Points along a segment spaced by a local size function.

    Returns the start point and interior points, excluding the segment end
    (loop walks chain segment outputs).  Walks in parameter space with
    arclength steps given by the spacing function (optionally capped, e.g.
    to bound the chord sagitta on curved segments); the step that would pass
    u = 1 is recorded and all parameters are rescaled by 1/overshoot so the
    walk ends exactly at the segment end.
    """
    total = segment.length()
    us = [0.0]
    u = 0.0
    guard = 0
    while True:
        step = max(spacing_fn(segment.point_at(u)), 1e-12)
        if step_cap is not None:
            step = min(step, step_cap)
        u = u + step / total
        if u >= 1.0 - 1e-9:
            break
        us.append(u)
        guard += 1
        if guard > 200000:
            raise InvalidDomainError("boundary walk failed to terminate")
    us = np.array(us) / u
    return np.array([segment.point_at(v) for v in us])


class Corner:
    """Boundary vertex with interior opening angle theta in (0, 2pi)."""

    def __init__(self, vertex, theta, loop_index, segment_indices):
        self.vertex = _as_point(vertex)
        self.theta = float(theta)
        self.loop_index = int(loop_index)
        self.segment_indices = tuple(segment_indices)

    def __repr__(self):
        return (f"Corner(vertex=({self.vertex[0]:.6g}, {self.vertex[1]:.6g}), "
                f"theta={self.theta:.12g})")


class BoundaryLoop:
    """Closed chain of segments; orientation read off the signed area."""

    def __init__(self, segments):
        if len(segments) < 2:
            raise InvalidDomainError("a loop needs at least 2 segments")
        self.segments = list(segments)
        scale = max(max(_norm(s.start), _norm(s.end)) for s in self.segments)
        scale = max(scale, 1.0)
        for i, seg in enumerate(self.segments):
            if seg.length() < 1e-12 * scale:
                raise InvalidDomainError(f"degenerate segment {i} (zero length)")
            nxt = self.segments[(i + 1) % len(self.segments)]
            gap = _norm(seg.end - nxt.start)
            if gap > CHAIN_TOL * scale:
                raise InvalidDomainError(
                    f"loop not closed: segment {i} ends {gap:g} away from the next start"
                )

    def signed_area(self):
        return sum(s.area_integral() for s in self.segments)

    def length(self):
        return sum(s.length() for s in self.segments)

    def smooth_turning_integral(self):
        """Integral of geodesic curvature over segment interiors (no junctions)."""
        return sum(s.turning_integral() for s in self.segments)

    def junction_turns(self):
        """Signed exterior turn tau at each junction, tau in (-pi, pi).

        Junction j sits between segment j and segment j+1 (mod n); the turn
        is measured from the incoming to the outgoing tangent.  Turns within
        SLIT_TOL of +-pi (cusps and slits) are rejected: the interior angle
        pi - tau would hit 0 or 2pi, which breaks the Lipschitz hypothesis.
        """
        n = len(self.segments)
        turns = []
        for j in range(n):
            u = self.segments[j].tangent_out()
            w = self.segments[(j + 1) % n].tangent_in()
            tau = _wrap_pi(math.atan2(w[1], w[0]) - math.atan2(u[1], u[0]))
            if abs(abs(tau) - math.pi) < SLIT_TOL:
                raise InvalidDomainError(
                    f"cusp or slit at junction {j} (interior angle 0 or 2pi)"
                )
            turns.append(tau)
        return turns

    def junction_points(self):
        return [self.segments[(j + 1) % len(self.segments)].start
                for j in range(len(self.segments))]

    def polyline(self):
        """Closed polyline: line ends, and 64 chords per curved segment."""
        pieces = [s.sample(1 if s.kind == "line" else 64)[:-1]
                  for s in self.segments]
        return np.concatenate(pieces, axis=0)


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


def _edge_crosses(p1, p2, q1, q2):
    """Whether edge p1 -> p2 strictly crosses any edge q1[k] -> q2[k]: each
    edge's endpoints lie strictly on opposite sides of the other's line."""
    e, f = p2 - p1, q2 - q1
    d1 = e[0] * (q1[:, 1] - p1[1]) - e[1] * (q1[:, 0] - p1[0])
    d2 = e[0] * (q2[:, 1] - p1[1]) - e[1] * (q2[:, 0] - p1[0])
    d3 = f[:, 0] * (p1[1] - q1[:, 1]) - f[:, 1] * (p1[0] - q1[:, 0])
    d4 = f[:, 0] * (p2[1] - q1[:, 1]) - f[:, 1] * (p2[0] - q1[:, 0])
    return bool(np.any((d1 * d2 < 0) & (d3 * d4 < 0)))


def _polyline_self_intersects(pts):
    """Whether two non-adjacent edges of closed polyline ``pts`` cross."""
    n = len(pts)
    b = np.roll(pts, -1, axis=0)
    # Edge i meets edges i+1 and i-1 at shared vertices; skip those.
    return any(_edge_crosses(pts[i], b[i], pts[i + 2:n - (i == 0)],
                             b[i + 2:n - (i == 0)]) for i in range(n))


def _polylines_cross(pa, pb):
    """Whether an edge of closed polyline ``pa`` crosses one of ``pb``."""
    a2, b2 = np.roll(pa, -1, axis=0), np.roll(pb, -1, axis=0)
    return any(_edge_crosses(pa[i], a2[i], pb, b2) for i in range(len(pa)))


class DomainSpec:
    """Validated planar domain: outer loop first, then hole loops.

    All derived quantities are computed on construction and the object is
    treated as immutable afterwards; every operation on it is pure.
    """

    def __init__(self, loops, label=""):
        if not loops:
            raise InvalidDomainError("domain needs at least one loop")
        self.loops = [lp if isinstance(lp, BoundaryLoop) else BoundaryLoop(lp)
                      for lp in loops]
        self.label = str(label)

        areas = [lp.signed_area() for lp in self.loops]
        if areas[0] <= 0:
            raise InvalidDomainError("outer loop must be counterclockwise")
        for i, a in enumerate(areas[1:], start=1):
            if a >= 0:
                raise InvalidDomainError(f"hole loop {i} must be clockwise")

        # Simplicity and containment are checked on sampled polylines.
        polys = [lp.polyline() for lp in self.loops]
        for i, poly in enumerate(polys):
            if _polyline_self_intersects(poly):
                raise InvalidDomainError(f"loop {i} self-intersects")
        outer = polys[0]
        for i, poly in enumerate(polys[1:], start=1):
            if not np.all(_polygon_contains(outer, poly)):
                raise InvalidDomainError(f"hole loop {i} is not inside the outer loop")
            if _polylines_cross(outer, poly):
                raise InvalidDomainError(f"hole loop {i} crosses the outer loop")
        for i in range(1, len(polys)):
            for j in range(i + 1, len(polys)):
                if np.any(_polygon_contains(polys[i], polys[j])) or \
                        _polylines_cross(polys[i], polys[j]):
                    raise InvalidDomainError(f"hole loops {i} and {j} overlap")

        # Junction turns are validated eagerly (rejects cusps and slits).
        for lp in self.loops:
            lp.junction_turns()

        self._polylines = polys

    @property
    def chi(self):
        """Euler characteristic: 1 minus the number of holes."""
        return 1 - (len(self.loops) - 1)

    def area(self):
        return sum(lp.signed_area() for lp in self.loops)

    def perimeter(self):
        return sum(lp.length() for lp in self.loops)

    def curvature_integral(self):
        """Geodesic curvature integrated over the smooth part of the boundary."""
        return sum(lp.smooth_turning_integral() for lp in self.loops)

    def diameter(self):
        pts = self._polylines[0]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.linalg.norm(hi - lo))


def detect_corners(domain, angle_tol=DEFAULT_ANGLE_TOL):
    """Find every junction whose one-sided tangents differ from pi.

    The interior opening angle is theta = pi - tau where tau is the signed
    exterior turn; with holes traversed clockwise the domain interior is on
    the left everywhere, so the same formula covers reflex corners on hole
    boundaries.  Junctions with |theta - pi| <= angle_tol count as smooth.
    """
    if angle_tol <= 0:
        raise InvalidDomainError("angle_tol must be positive")
    corners = []
    for li, lp in enumerate(domain.loops):
        turns = lp.junction_turns()
        points = lp.junction_points()
        n = len(lp.segments)
        for j, (tau, pt) in enumerate(zip(turns, points)):
            if abs(tau) > angle_tol:
                corners.append(Corner(pt, math.pi - tau, li, (j, (j + 1) % n)))
    return corners


def gauss_bonnet_check(domain):
    """Residual of: integral of k over the smooth boundary part
    = sum of interior angles + pi*(2*chi - n)."""
    corners = detect_corners(domain)
    theta_sum = sum(c.theta for c in corners)
    n = len(corners)
    expected = theta_sum + math.pi * (2 * domain.chi - n)
    return abs(domain.curvature_integral() - expected)


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


def _circle_arcs(center, radius, n_arcs=4, reverse=False):
    cx, cy = center
    ang = np.linspace(0.0, TWO_PI, n_arcs + 1)
    pts = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in ang]
    segs = []
    for i in range(n_arcs):
        segs.append(ArcSegment(pts[i], pts[i + 1], center, radius))
    if reverse:
        segs = [ArcSegment(s.end, s.start, center, -radius) for s in reversed(segs)]
    return segs


def make_disk(radius=1.0, n_arcs=4):
    return DomainSpec([_circle_arcs((0.0, 0.0), radius, n_arcs=n_arcs)],
                      label=f"disk-{radius}")


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

    with open(path) as fh:
        try:
            doc = yaml.load(fh, Loader=SAFE_LOADER)
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
