import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drumspec.corpus import EXACT_SEGMENT_DOMAINS
from drumspec.errors import DomainFileError, InvalidDomainError
from drumspec.geometry import (
    ArcSegment,
    CurveSegment,
    DomainSpec,
    LineSegment,
    _crossing_loops,
    _loops_contain,
    _polygon_contains,
    gauss_bonnet_check,
    load_domain,
    make_disk,
    make_ellipse,
    make_equilateral_triangle,
    make_lshape,
    make_polygon,
    make_rectangle,
    make_regular_polygon,
    make_sector,
    make_square,
    make_square_with_square_hole,
    save_domain,
)

PI = math.pi


class TestCorners:
    def test_unit_square_has_four_right_angles(self):
        corners = make_square().corners
        assert len(corners) == 4
        assert_allclose([c.theta for c in corners], PI / 2, rtol=0, atol=1e-12)

    def test_circle_of_four_arcs_has_no_corners(self):
        assert make_disk().corners == []

    def test_lshape_angles(self):
        thetas = sorted(c.theta for c in make_lshape().corners)
        assert_allclose(thetas[:5], PI / 2, atol=1e-12)
        assert_allclose(thetas[5], 3 * PI / 2, atol=1e-12)

    def test_quarter_disk_angles(self):
        corners = make_sector(PI / 2).corners
        assert len(corners) == 3
        assert_allclose([c.theta for c in corners], PI / 2, atol=1e-12)

    def test_hole_corners_are_reflex(self):
        corners = make_square_with_square_hole().corners
        thetas = sorted(c.theta for c in corners)
        assert_allclose(thetas[:4], PI / 2, atol=1e-12)
        assert_allclose(thetas[4:], 3 * PI / 2, atol=1e-12)

    def test_near_straight_junction_is_smooth(self):
        # Vertex at (1, eps) bends the square's bottom edge by ~2e-8 rad.
        eps = 1e-8
        dom = make_polygon([(0, 0), (1, eps), (2, 0), (2, 2), (0, 2)])
        assert len(dom.corners) == 4

    def test_angles_inside_open_interval(self):
        for dom in [make_square(), make_lshape(), make_square_with_square_hole()]:
            for c in dom.corners:
                assert 0.0 < c.theta < 2 * PI
                assert abs(c.theta - PI) > 1e-6

    def test_rigid_motion_invariance(self, moved):
        ang = 0.7363
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        for dom in [make_lshape(), make_sector(2 * PI / 3)]:
            t0 = sorted(c.theta for c in dom.corners)
            t1 = sorted(c.theta for c in moved(dom, rot, (1.25, -3.5)).corners)
            assert_allclose(t0, t1, rtol=0, atol=1e-12)


class TestInvariantsComputedOnce:
    """A domain's corners are detected, and its segments integrated, once,
    when it is built; every consumer reads them from it."""

    def test_consumers_do_not_detect_corners_again(self, monkeypatch):
        from drumspec import geometry
        from drumspec.analytic_spectra import match_reference_family
        from drumspec.fem_solver import mesh_domain
        from drumspec.heat_trace import theoretical_coefficients

        domains = [make_lshape(), make_disk(), make_square(),
                   make_sector(3 * PI / 2), make_ellipse(1.0, 0.6),
                   make_square_with_square_hole()]

        def refuse(*args):
            raise AssertionError("computed again")

        monkeypatch.setattr(geometry, "detect_corners", refuse)
        monkeypatch.setattr(geometry, "_adaptive_gauss", refuse)
        for dom in domains:
            theoretical_coefficients(dom)
            match_reference_family(dom)
            assert gauss_bonnet_check(dom) <= 1e-8
        mesh_domain(domains[0], 0.1)
        mesh_domain(domains[4], 0.1)

    def test_a_curve_is_integrated_in_one_pass(self, tmp_path, monkeypatch):
        from drumspec import geometry

        calls = []

        def counting(integrand, breaks, original=geometry._adaptive_gauss):
            calls.append(len(breaks))
            return original(integrand, breaks)

        monkeypatch.setattr(geometry, "_adaptive_gauss", counting)
        path = tmp_path / "ellipse.yaml"
        save_domain(make_ellipse(), path)
        load_domain(path)
        # One pass per half; a reloaded half breaks at its 129 spline knots.
        assert calls == [2, 2, 129, 129]

    @pytest.mark.parametrize("seg, length, turning, area", [
        (LineSegment((1, 2), (4, 6)), 5.0, 0.0, 0.5 * (1 * 6 - 2 * 4)),
        (ArcSegment((1, 0), (0, 1), (0, 0), 1.0), PI / 2, PI / 2, PI / 4),
        (ArcSegment((2, 1), (1, 2), (1, 1), -1.0), 3 * PI / 2, -3 * PI / 2,
         0.5 * (1 * 1 - 1 * (-1)) - 0.75 * PI),
    ])
    def test_line_and_arc_invariants_are_closed_forms(self, seg, length,
                                                      turning, area):
        assert_allclose([seg.length, seg.turning_integral, seg.area_integral],
                        [length, turning, area], rtol=1e-15, atol=1e-15)

    def test_load_domain_detects_corners_once(self, tmp_path, monkeypatch):
        from drumspec import geometry

        path = tmp_path / "lshape.yaml"
        save_domain(make_lshape(), path)
        calls = []

        def counting(loops, original=geometry.detect_corners):
            calls.append(loops)
            return original(loops)

        monkeypatch.setattr(geometry, "detect_corners", counting)
        assert len(load_domain(path).corners) == 6
        assert len(calls) == 1


class TestMeasures:
    def test_square_area_perimeter(self):
        dom = make_square()
        assert_allclose(dom.area, 1.0, rtol=1e-14)
        assert_allclose(dom.perimeter, 4.0, rtol=1e-14)

    def test_disk_area_perimeter(self):
        dom = make_disk()
        assert_allclose(dom.area, PI, rtol=1e-13)
        assert_allclose(dom.perimeter, 2 * PI, rtol=1e-13)

    def test_square_with_hole_area(self):
        dom = make_square_with_square_hole()
        assert_allclose(dom.area, 0.75, rtol=1e-14)
        assert dom.chi == 0

    def test_removing_hole_increases_area_and_chi(self):
        holed = make_square_with_square_hole()
        solid = make_square()
        assert solid.area > holed.area
        assert solid.chi == holed.chi + 1

    def test_quarter_disk_perimeter(self):
        assert_allclose(make_sector(PI / 2).perimeter, 2 + PI / 2, rtol=1e-13)

    def test_positive_measures(self):
        for dom in [make_square(), make_disk(), make_lshape(),
                    make_equilateral_triangle(), make_square_with_square_hole()]:
            assert dom.area > 0
            assert dom.perimeter > 0


class TestCurvature:
    def test_disk_total_curvature(self):
        assert_allclose(make_disk().curvature_integral, 2 * PI, rtol=1e-13)

    def test_polygons_have_straight_edges(self):
        for dom in [make_square(), make_lshape(), make_regular_polygon(7)]:
            assert dom.curvature_integral == 0.0

    def test_quarter_disk_arc_turning(self):
        assert_allclose(make_sector(PI / 2).curvature_integral, PI / 2, rtol=1e-13)

    def test_hole_circle_turns_negative(self):
        # Annulus-like: disk of radius 1 with a clockwise circular hole.
        from drumspec.geometry import _circle_arcs

        outer = _circle_arcs((0, 0), 1.0)
        hole = [ArcSegment(s.end, s.start, (0, 0), -0.4)
                for s in reversed(_circle_arcs((0, 0), 0.4))]
        dom = DomainSpec([outer, hole], label="annulus")
        assert_allclose(dom.curvature_integral, 0.0, atol=1e-13)
        assert dom.chi == 0


class TestGaussBonnet:
    @pytest.mark.parametrize("builder", [
        make_square,
        make_disk,
        make_lshape,
        make_equilateral_triangle,
        make_square_with_square_hole,
        lambda: make_sector(PI / 2),
        lambda: make_sector(PI),
        lambda: make_sector(4.0),
        lambda: make_rectangle(2.0, 1.0),
        lambda: make_regular_polygon(9),
    ])
    def test_exact_segment_domains(self, builder):
        assert gauss_bonnet_check(builder()) <= 1e-8

    def test_parametric_ellipse(self):
        dom = make_ellipse(1.0, 0.6)
        assert gauss_bonnet_check(dom) <= 1e-9

    def test_reloaded_spline_ellipse(self, tmp_path):
        # Panels split at the spline's knots see one cubic piece each; panels
        # that straddle them left a residual of 4e-11.
        path = tmp_path / "ellipse.yaml"
        save_domain(make_ellipse(1.0, 0.7), path)
        assert gauss_bonnet_check(load_domain(path)) <= 1e-13


class TestParametric:
    def test_ellipse_measures(self):
        from scipy.special import ellipe

        a, b = 1.0, 0.6
        dom = make_ellipse(a, b)
        assert_allclose(dom.area, PI * a * b, rtol=1e-10)
        e2 = 1 - (b / a) ** 2
        assert_allclose(dom.perimeter, 4 * a * ellipe(e2), rtol=1e-10)
        assert dom.corners == []

    def test_spline_curve_roundtrip(self, tmp_path):
        dom = make_ellipse(1.0, 0.7)
        path = tmp_path / "ellipse.dom"
        save_domain(dom, path)
        loaded = load_domain(path)
        assert_allclose(loaded.area, dom.area, rtol=1e-5)
        assert_allclose(loaded.perimeter, dom.perimeter, rtol=1e-5)
        # The spline halves meet at kinks of a few 1e-5 rad, not at corners.
        assert_allclose([c.theta for c in loaded.corners], PI, rtol=0,
                        atol=1e-3)

    def test_walk_steps_in_arclength(self, tmp_path):
        # The upper half-ellipse runs at a speed proportional to
        # sqrt(sin^2 + 0.36 cos^2) in its parameter, the reloaded spline at
        # nearly constant speed; both walks space points by arclength.
        dom = make_ellipse(1.0, 0.6)
        save_domain(dom, tmp_path / "ellipse.yaml")
        loaded = load_domain(tmp_path / "ellipse.yaml")
        seg = dom.loops[0].segments[0]
        pts, u = seg.walk(0.1, sagitta=1.0)
        assert_allclose(seg.point_at(u), pts, rtol=0, atol=0)
        t = np.linspace(0.0, 1.0, 20001)
        speed = PI * np.hypot(np.sin(PI * t), 0.6 * np.cos(PI * t))
        s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]))
                            * (t[1] - t[0])])
        steps = np.diff(np.append(np.interp(u, t, s), s[-1]))
        assert_allclose(steps, steps.mean(), rtol=1e-4)
        again, _ = loaded.loops[0].segments[0].walk(0.1, sagitta=1.0)
        assert_allclose(again, pts, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("seg", [
        LineSegment((0, 0), (1, 0)),
        LineSegment((0.2, -0.3), (0.9, 0.4)),
        ArcSegment((1, 0), (0, 1), (0, 0), 1.0),
        make_ellipse(1.0, 0.6).loops[0].segments[0],
    ], ids=["unit-line", "slanted-line", "quarter-arc", "half-ellipse"])
    @pytest.mark.parametrize("step", [0.1, 0.07, 0.25, 1.0 / 3.0])
    def test_walk_matches_the_stepping_loop(self, seg, step):
        # Reference: step by min(step, step_cap) until the end is within
        # a relative 1e-9, then stretch the steps to end on the end.
        cap = min(step, seg.step_cap(0.01))
        ss, s = [0.0], cap
        while s < seg.length * (1.0 - 1e-9):
            ss.append(s)
            s += cap
        want = seg.param_at(np.array(ss) * (seg.length / s))
        pts, u = seg.walk(step, 0.01)
        assert len(u) == len(want)
        assert_allclose(u, want, rtol=0, atol=1e-12)
        assert_allclose(pts, seg.point_at(want), rtol=0, atol=1e-12)

    def test_runaway_walk_is_refused(self):
        # a million points: refused before any is made
        with pytest.raises(InvalidDomainError, match="failed to terminate"):
            LineSegment((0, 0), (1, 0)).walk(1e-6, 1.0)


class TestValidation:
    def test_degenerate_segment_rejected(self):
        with pytest.raises(InvalidDomainError, match="degenerate"):
            DomainSpec([[LineSegment((0, 0), (0, 0)),
                         LineSegment((0, 0), (1, 0)),
                         LineSegment((1, 0), (0, 0))]])

    def test_open_loop_rejected(self):
        with pytest.raises(InvalidDomainError, match="not closed"):
            DomainSpec([[LineSegment((0, 0), (1, 0)),
                         LineSegment((1, 0), (1, 1)),
                         LineSegment((1, 1), (0.5, 0.5))]])

    def test_self_intersection_rejected(self):
        # Pentagram: positive signed area but a crossing boundary.
        ang = [math.radians(90 + 144 * k) for k in range(5)]
        star = [(math.cos(a), math.sin(a)) for a in ang]
        with pytest.raises(InvalidDomainError, match="self-intersects"):
            make_polygon(star)

    def test_slit_rejected(self):
        with pytest.raises(InvalidDomainError, match="cusp or slit"):
            make_polygon([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (1, 2), (0, 2)])

    def test_hole_outside_rejected(self):
        outer = [LineSegment(a, b) for a, b in [((0, 0), (1, 0)), ((1, 0), (1, 1)),
                                                ((1, 1), (0, 1)), ((0, 1), (0, 0))]]
        far = [(5, 5), (5, 6), (6, 6), (6, 5)]
        hole = [LineSegment(far[i], far[(i + 1) % 4]) for i in range(4)]
        with pytest.raises(InvalidDomainError, match="inside"):
            DomainSpec([outer, hole])

    @staticmethod
    def loop(pts):
        return [LineSegment(pts[i], pts[(i + 1) % len(pts)])
                for i in range(len(pts))]

    def test_hole_crossing_outer_loop_rejected(self):
        # Every hole vertex lies inside the L, but one hole edge cuts
        # across the notch at the reflex corner.
        outer = self.loop([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        hole = self.loop([(0.3, 0.3), (0.5, 1.8), (1.8, 0.5)])
        with pytest.raises(InvalidDomainError, match="crosses the outer loop"):
            DomainSpec([outer, hole])

    def test_overlapping_holes_rejected(self):
        # A plus sign: neither bar has a vertex inside the other.
        outer = self.loop([(0, 0), (4, 0), (4, 4), (0, 4)])
        across = self.loop([(1, 1.8), (1, 2.2), (3, 2.2), (3, 1.8)])
        upright = self.loop([(1.8, 1), (1.8, 3), (2.2, 3), (2.2, 1)])
        with pytest.raises(InvalidDomainError, match="hole loops 1 and 2"):
            DomainSpec([outer, across, upright])

    @staticmethod
    def nested_holes():
        """A 4x4 square with a 2x2 hole at (1, 1) and, inside that hole, a
        0.5 hole at (1.5, 1.5): outer loop, big hole, small hole."""
        return [[(0, 0), (4, 0), (4, 4), (0, 4)],
                [(1, 1), (1, 3), (3, 3), (3, 1)],
                [(1.5, 1.5), (1.5, 2), (2, 2), (2, 1.5)]]

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)],
                             ids=["big-first", "small-first"])
    def test_nested_holes_rejected(self, order):
        # Small first used to pass, as a domain with chi -1 and area 11.75.
        loops = self.nested_holes()
        with pytest.raises(InvalidDomainError, match="is not inside"):
            DomainSpec([self.loop(loops[i]) for i in order])

    def test_outer_loop_must_be_ccw(self):
        pts = [(0, 0), (0, 1), (1, 1), (1, 0)]  # clockwise
        segs = [LineSegment(pts[i], pts[(i + 1) % 4]) for i in range(4)]
        with pytest.raises(InvalidDomainError, match="counterclockwise"):
            DomainSpec([segs])

    def test_arc_center_mismatch_rejected(self):
        with pytest.raises(InvalidDomainError, match="distance"):
            ArcSegment((1, 0), (0, 1), (0.2, 0), 1.0)

    def test_clockwise_polygon_input_is_normalized(self):
        dom = make_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert dom.area > 0


class TestDomainFiles:
    def test_roundtrip_mixed_segments(self, tmp_path):
        dom = make_sector(PI / 2)
        path = tmp_path / "sector.dom"
        save_domain(dom, path)
        loaded = load_domain(path)
        assert_allclose(loaded.area, dom.area, rtol=1e-12)
        assert_allclose(loaded.perimeter, dom.perimeter, rtol=1e-12)
        assert len(loaded.corners) == 3

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.dom"
        path.write_text(
            "schema: 1\nlabel: bad\nloops:\n- segments:\n"
            "  - {kind: bezier, start: [0, 0], end: [1, 1]}\n")
        with pytest.raises(DomainFileError, match="unknown segment kind"):
            load_domain(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.dom"
        path.write_text(
            "schema: 1\nlabel: bad\nloops:\n- segments:\n"
            "  - {kind: line, start: [0, 0], end: [1, 0], color: red}\n")
        with pytest.raises(DomainFileError, match="unknown keys"):
            load_domain(path)

    def test_unparseable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.dom"
        path.write_text("schema: 1\nloops: [\n")
        with pytest.raises(DomainFileError, match="not parseable"):
            load_domain(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.dom"
        path.write_text("schema: 2\nloops: []\n")
        with pytest.raises(DomainFileError, match="schema"):
            load_domain(path)

    def test_error_names_offending_loop(self, tmp_path):
        path = tmp_path / "bad.dom"
        path.write_text(
            "schema: 1\nlabel: open\nloops:\n- segments:\n"
            "  - {kind: line, start: [0, 0], end: [1, 0]}\n"
            "  - {kind: line, start: [1, 0], end: [1, 1]}\n"
            "  - {kind: line, start: [1, 1], end: [0.3, 0.7]}\n")
        with pytest.raises(DomainFileError, match="loop 0"):
            load_domain(path)

    def test_nested_holes_rejected(self, tmp_path):
        import yaml

        outer, big, small = TestValidation.nested_holes()
        path = tmp_path / "nested.dom"
        path.write_text(yaml.safe_dump({"schema": 1, "label": "nested", "loops": [
            {"segments": [s.to_dict() for s in TestValidation.loop(pts)]}
            for pts in (outer, small, big)]}))
        with pytest.raises(DomainFileError, match="hole loop 1 is not inside"):
            load_domain(path)


def polygon_contains_per_edge(poly, points):
    """Crossing-number test, one edge at a time: the reference that the
    vectorised _polygon_contains must match bit for bit."""
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(len(pts), dtype=bool)
    for a, b, c, d in zip(x1, y1, x2, y2):
        crosses = (b > y) != (d > y)
        if not crosses.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = a + (y - b) * (c - a) / (d - b)
        inside ^= crosses & (x < xint)
    return inside


def adversarial_points(poly, rng):
    """Vertices, points level with a vertex, and points on the edges
    (horizontal ones included)."""
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    nxt = np.roll(poly, -1, axis=0)
    level = np.column_stack([rng.uniform(lo[0], hi[0], len(poly)), poly[:, 1]])
    on_edges = [poly + t * (nxt - poly) for t in (0.25, 0.5, 1.0 / 3.0)]
    return np.concatenate([poly, level, *on_edges])


def polylines_cross_per_pair(pa, pb, self_check=False):
    """Strict crossing test, one pair of edges at a time: the reference that
    the crossing sweep must match.  With ``self_check`` pb is pa and edges
    that share a vertex are skipped."""
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    n, m = len(pa), len(pb)
    for i in range(n):
        p1, p2 = pa[i], pa[(i + 1) % n]
        for j in range(m):
            if self_check and (i - j) % n in (0, 1, n - 1):
                continue
            q1, q2 = pb[j], pb[(j + 1) % m]
            d1, d2 = cross(p2 - p1, q1 - p1), cross(p2 - p1, q2 - p1)
            d3, d4 = cross(q2 - q1, p1 - q1), cross(q2 - q1, p2 - q1)
            if d1 * d2 < 0 and d3 * d4 < 0:
                return True
    return False


def crossing_loops_per_pair(polys):
    """The least loop pair (k, l), k <= l, whose polylines cross by
    polylines_cross_per_pair, or None."""
    return next(((k, l) for k in range(len(polys))
                 for l in range(k, len(polys))
                 if polylines_cross_per_pair(polys[k], polys[l],
                                             self_check=k == l)), None)


def random_polylines(rng):
    """Three small random closed polylines, shifted apart by up to about
    their size."""
    return [rng.uniform(size=(rng.integers(3, 10), 2))
            + rng.uniform(-1.2, 1.2, size=2) for _ in range(3)]


class TestCrossing:
    def test_matches_per_pair_reference(self):
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(300):
            polys = random_polylines(rng)
            got = _crossing_loops(polys)
            assert got == crossing_loops_per_pair(polys)
            seen.add(got)
        assert {None, (0, 0), (0, 1), (1, 2)} <= seen

    def test_blocks_of_a_few_pairs_agree(self, monkeypatch):
        from drumspec import geometry

        rng = np.random.default_rng(10)
        cases = [random_polylines(rng) for _ in range(100)]
        whole = [_crossing_loops(polys) for polys in cases]
        monkeypatch.setattr(geometry, "CROSSING_BLOCK", 3)
        assert [_crossing_loops(polys) for polys in cases] == whole
        assert [crossing_loops_per_pair(polys) for polys in cases] == whole

    @pytest.mark.parametrize("transpose", [False, True])
    def test_stacked_edges_are_not_all_paired(self, transpose, monkeypatch):
        # A closed comb: 2,000 edges stacked on x = 0 and 2,000 on x = 1.
        # Swept along x every edge on a side pairs with every later one
        # there (4.0e6 pairs); along y each meets only its neighbours.
        from drumspec import geometry

        y = np.arange(2000) / 2000
        comb = np.concatenate([np.stack([np.zeros_like(y), y], axis=1),
                               np.stack([np.ones_like(y), 1 - y], axis=1)])
        bent = comb.copy()
        bent[1000] = (1.5, 0.5)  # its two edges cross the side on x = 1
        if transpose:
            comb, bent = comb[:, ::-1], bent[:, ::-1]
        pairs = []
        cross = geometry._cross

        def counting(u, v):
            pairs.append(np.size(u) // 2)
            return cross(u, v)

        monkeypatch.setattr(geometry, "_cross", counting)
        assert _crossing_loops([comb]) is None
        # Four cross products per block, each over all the block's pairs.
        assert sum(pairs) // 4 <= 2.0e4
        assert _crossing_loops([bent]) == (0, 0)

    def test_touching_is_not_crossing(self):
        poly = make_lshape()._polylines[0]
        assert _crossing_loops([poly]) is None
        assert _crossing_loops([poly, poly]) is None
        assert _crossing_loops([poly, poly[::-1]]) is None
        # A vertex on the interior of the other polyline's edge.
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        touching = np.array([[1, 0], [1.5, 1], [0.5, 1]], dtype=float)
        assert _crossing_loops([square, touching]) is None
        assert _crossing_loops([touching, square]) is None


class TestContainment:
    def test_contains_respects_holes(self):
        dom = make_square_with_square_hole()
        inside, in_hole, outside = (0.1, 0.1), (0.5, 0.5), (1.5, 0.5)
        got = _loops_contain(dom._polylines,
                             np.array([inside, in_hole, outside]))
        assert list(got) == [True, False, False]

    @pytest.mark.parametrize("label", sorted(EXACT_SEGMENT_DOMAINS))
    def test_matches_per_edge_reference(self, label):
        rng = np.random.default_rng(7)
        dom = EXACT_SEGMENT_DOMAINS[label]()
        for poly in dom._polylines:
            lo, hi = poly.min(axis=0), poly.max(axis=0)
            pad = 0.1 * (hi - lo)
            pts = np.concatenate([
                rng.uniform(lo - pad, hi + pad, size=(2000, 2)),
                adversarial_points(poly, rng)])
            assert np.array_equal(_polygon_contains(poly, pts),
                                  polygon_contains_per_edge(poly, pts))

    def test_matches_reference_with_hole(self):
        rng = np.random.default_rng(8)
        dom = make_square_with_square_hole()
        outer, hole = dom._polylines
        pts = np.concatenate([rng.uniform(-0.1, 1.1, size=(4000, 2)),
                              adversarial_points(outer, rng),
                              adversarial_points(hole, rng)])
        expected = polygon_contains_per_edge(outer, pts) \
            & ~polygon_contains_per_edge(hole, pts)
        assert expected.any() and not expected.all()
        assert np.array_equal(_loops_contain(dom._polylines, pts), expected)
