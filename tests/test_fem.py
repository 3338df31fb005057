import gc
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial
from numpy.testing import assert_allclose
from scipy.sparse.linalg import splu

from drumspec import fem_solver
from drumspec.analytic_spectra import (
    disk_spectrum,
    equilateral_triangle_spectrum,
    rectangle_spectrum,
    sector_spectrum,
)
from drumspec.classifier import isospectral_compare
from drumspec.corpus import EXACT_SEGMENT_DOMAINS, ISOSPECTRAL_PAIR
from drumspec.errors import AssemblyError, EigensolveError, MeshError
from drumspec.fem_solver import (
    SLICE_MODES,
    SPRING_SCALE,
    Mesh,
    _check_conformity,
    _factor_shifted,
    _min_angles_deg,
    assemble,
    complete_below,
    fem_spectrum,
    mesh_domain,
    solve_lowest,
)
from drumspec.geometry import (
    ArcSegment,
    DomainSpec,
    _circle_arcs,
    load_domain,
    make_disk,
    make_ellipse,
    make_equilateral_triangle,
    make_lshape,
    make_polygon,
    make_rectangle,
    make_sector,
    make_square,
    make_square_with_square_hole,
    save_domain,
)

PI = math.pi
J01_SQ = 5.783185962946785


def element_matrices(coords):
    """Exact P1 stiffness and mass matrices of one triangle, element by
    element: the reference that assemble's vectorised formulas must match."""
    x = coords[:, 0]
    y = coords[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]
    if area2 <= 0:
        raise AssemblyError("zero or negative triangle area")
    area = 0.5 * area2
    ke = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
    me = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return ke, me


def interior_min_angle_deg(mesh):
    """Smallest angle over triangles that avoid the boundary chords (those
    whose vertices are all interior)."""
    tri_all_int = ~np.any(mesh.is_boundary[mesh.triangles], axis=1)
    if not tri_all_int.any():
        return 60.0
    return float(_min_angles_deg(mesh.vertices, mesh.triangles[tri_all_int]).min())


@pytest.fixture(scope="module")
def square_mesh():
    return mesh_domain(make_square(), 0.05)


@pytest.fixture(scope="module")
def disk_mesh():
    return mesh_domain(make_disk(), 0.05)


@pytest.fixture(scope="module")
def lshape_mesh():
    return mesh_domain(make_lshape(), 0.02)


class TestElementMatrices:
    def test_reference_triangle_mass(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        _, me = element_matrices(coords)
        area = 0.5
        expected = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        assert_allclose(me, expected, rtol=1e-15)

    def test_stiffness_row_sums_vanish(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            coords = rng.uniform(-1, 1, size=(3, 2))
            e1, e2 = coords[1] - coords[0], coords[2] - coords[0]
            if e1[0] * e2[1] - e1[1] * e2[0] < 1e-3:
                continue
            ke, _ = element_matrices(coords)
            assert_allclose(ke.sum(axis=1), 0.0, atol=1e-12)

    def test_degenerate_element_rejected(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(AssemblyError):
            element_matrices(coords)

    def test_assemble_matches_element_sums(self):
        mesh = mesh_domain(make_lshape(), 0.1)
        nv = mesh.n_vertices
        K = np.zeros((nv, nv))
        M = np.zeros((nv, nv))
        for tri in mesh.triangles:
            ke, me = element_matrices(mesh.vertices[tri])
            K[np.ix_(tri, tri)] += ke
            M[np.ix_(tri, tri)] += me
        interior = np.nonzero(~mesh.is_boundary)[0]
        ops = assemble(mesh)
        assert ops.stiffness.shape == (len(interior), len(interior))
        assert_allclose(ops.stiffness.toarray(), K[np.ix_(interior, interior)],
                        rtol=0, atol=1e-12)
        assert_allclose(ops.mass.toarray(), M[np.ix_(interior, interior)],
                        rtol=0, atol=1e-15)


def annulus():
    hole = [ArcSegment(s.end, s.start, (0, 0), -0.3)
            for s in reversed(_circle_arcs((0, 0), 0.3))]
    return DomainSpec([_circle_arcs((0, 0), 1.0), hole])


def circle_sagittas(radii):
    """Sagittas of chords p -> q of circles about the origin, one radius
    per boundary loop."""
    return lambda p, q, loop: radii[loop] - np.linalg.norm(0.5 * (p + q), axis=1)


def ellipse_sagittas(a, b):
    """Largest distance from chord p -> q to the arc of the ellipse between
    them, over 65 points of the arc."""
    def sagittas(p, q, loop):
        t0 = np.arctan2(p[:, 1] / b, p[:, 0] / a)
        t1 = t0 + np.mod(np.arctan2(q[:, 1] / b, q[:, 0] / a) - t0, 2 * PI)
        t = t0[:, None] + np.linspace(0.0, 1.0, 65) * (t1 - t0)[:, None]
        arc = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
        d = q - p
        cross = d[:, None, 0] * (arc[..., 1] - p[:, None, 1]) \
            - d[:, None, 1] * (arc[..., 0] - p[:, None, 0])
        return np.max(np.abs(cross), axis=1) / np.linalg.norm(d, axis=1)
    return sagittas


# label: (builder, distance-like deviation of points from the curve,
#         sagittas of boundary chords)
CURVED = {
    "disk": (make_disk, lambda p: np.abs(np.linalg.norm(p, axis=1) - 1.0),
             circle_sagittas([1.0])),
    "ellipse-1x0.6": (
        lambda: make_ellipse(1.0, 0.6),
        lambda p: np.abs(np.hypot(p[:, 0] / 1.0, p[:, 1] / 0.6) - 1.0),
        ellipse_sagittas(1.0, 0.6)),
    "annulus-1-0.3": (
        annulus,
        lambda p: np.min(np.abs(np.linalg.norm(p, axis=1)[:, None]
                                - [1.0, 0.3]), axis=1),
        circle_sagittas([1.0, 0.3])),
}


class TestMeshing:
    def test_square_mesh_size_and_flags(self, square_mesh):
        # target size 0.05 on the unit square: on the order of a thousand
        # triangles, with a consistent boundary/interior split
        assert 800 <= square_mesh.n_triangles <= 1300
        assert square_mesh.is_boundary.sum() >= 4 / 0.05 * 0.9
        assert not square_mesh.is_boundary.all()

    def test_positive_areas_and_quality(self, square_mesh, disk_mesh, lshape_mesh):
        for mesh in [square_mesh, disk_mesh, lshape_mesh]:
            p = mesh.vertices[mesh.triangles]
            areas = 0.5 * np.abs(
                (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
            assert np.all(areas > 0)
            assert interior_min_angle_deg(mesh) >= 20.0

    def test_mesh_area_matches_domain(self, disk_mesh):
        p = disk_mesh.vertices[disk_mesh.triangles]
        areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                       - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
        # chordal polygon area is slightly below pi, by O(h^2)
        assert abs(areas.sum() - PI) < 0.01

    @pytest.mark.parametrize("label", sorted(CURVED))
    def test_boundary_on_curve_within_chord_tolerance(self, label):
        build, off_curve, sagittas = CURVED[label]
        dom = build()
        mesh = mesh_domain(dom, 0.05)
        # every boundary vertex, the subdivision's included, is on its curve
        assert np.max(off_curve(mesh.vertices[mesh.is_boundary])) <= 1e-9
        # chord_error is the largest sagitta of the mesh's boundary chords;
        # the coarse chords' is at most (n h / SPRING_SCALE)^2 / w, so the
        # fine chords' is below h^2 / w
        chords = np.concatenate([sagittas(mesh.vertices[loop],
                                          mesh.vertices[np.roll(loop, -1)], li)
                                 for li, loop in enumerate(mesh.boundary_loops)])
        assert mesh.chord_error == pytest.approx(chords.max(), rel=1e-2)
        assert mesh.chord_error <= 0.05 ** 2 / fem_solver._width(dom)

    def test_lshape_grading_refines_reentrant_corner(self, lshape_mesh):
        corner = np.array([0.5, 0.5])
        d = np.linalg.norm(lshape_mesh.vertices - corner, axis=1)
        near = d[d > 1e-12].min()
        h = lshape_mesh.h
        # the subdivision's remap pulls the nearest node to about
        # n h (1/n)^CORNER_REMAP = h / sqrt(n) of the corner
        assert near <= 3.0 * h * (h / lshape_mesh.domain_diameter
                                  if hasattr(lshape_mesh, "domain_diameter")
                                  else h / math.sqrt(2)) ** 0.5

    def test_reloaded_ellipse_is_not_graded(self, tmp_path):
        # The reloaded spline halves meet at kinks of theta = pi + 3.9e-5:
        # corners, but below the 1.01 pi grading threshold.
        dom = make_ellipse(1.0, 0.7)
        save_domain(dom, tmp_path / "ellipse.yaml")
        loaded = load_domain(tmp_path / "ellipse.yaml")
        assert [c.theta > PI for c in loaded.corners] == [True, True]
        built = mesh_domain(dom, 0.05).n_vertices
        assert abs(mesh_domain(loaded, 0.05).n_vertices - built) <= 0.01 * built

    def test_too_coarse_h_rejected(self):
        with pytest.raises(MeshError):
            mesh_domain(make_square(), 0.8)

    @pytest.mark.parametrize("h", [math.nan, 0.0, -0.1, math.inf])
    def test_h_not_finite_and_positive_rejected(self, h):
        with pytest.raises(MeshError, match="must be positive|too coarse"):
            mesh_domain(make_lshape(), h)

    def test_tiny_feature_rejected(self):
        dom = make_rectangle(1.0, 0.01)
        with pytest.raises(MeshError, match="loop|short|coarse"):
            mesh_domain(dom, 0.2)


def gww_a():
    return make_polygon(ISOSPECTRAL_PAIR["gww-a"], label="gww-a")


@pytest.fixture
def delaunay_calls(monkeypatch):
    """The point sets fem_solver hands to Delaunay, in call order."""
    calls = []
    real = scipy.spatial.Delaunay

    def counting(points):
        calls.append(points.copy())
        return real(points)

    monkeypatch.setattr(scipy.spatial, "Delaunay", counting)
    return calls


def coarse_vertex_count(mesh):
    """Vertices of the coarse mesh that ``mesh`` subdivides, from Euler's
    formula: n^2 fine triangles and n boundary edges per coarse one."""
    n = mesh.meta["subdivisions"]
    tris = mesh.n_triangles // n ** 2
    edges = (3 * tris + np.count_nonzero(mesh.is_boundary) // n) // 2
    return mesh.n_vertices - edges * (n - 1) - tris * (n - 1) * (n - 2) // 2


class TestRetriangulationTrigger:
    # Delaunay runs only in the spring mesher, on the coarse points.
    def test_fewer_delaunay_calls(self, delaunay_calls):
        mesh = mesh_domain(gww_a(), 0.07)
        # 40 relaxation iterations and the final triangulation were 41 calls;
        # a 0.1 local-size trigger made 21 of them
        assert 2 < len(delaunay_calls) <= 12
        assert mesh.meta["delaunay_calls"] == len(delaunay_calls)
        # the final call triangulates the relaxed coarse points, which are
        # vertices of the subdivided mesh
        final = delaunay_calls[-1]
        assert len(final) == coarse_vertex_count(mesh) < mesh.n_vertices
        assert {tuple(p) for p in final} <= {tuple(p) for p in mesh.vertices}
        assert mesh.meta["min_angle_deg"] >= 20.0

    def test_first_and_final_calls_always_happen(self, delaunay_calls,
                                                 monkeypatch):
        monkeypatch.setattr(fem_solver, "RETRI_MOVE", math.inf)
        mesh = mesh_domain(make_square(), 0.05)
        assert len(delaunay_calls) == mesh.meta["delaunay_calls"] == 2
        assert not np.array_equal(delaunay_calls[0], delaunay_calls[1])
        assert len(delaunay_calls[1]) == coarse_vertex_count(mesh)

    def test_unrelaxed_graded_mesh_is_refused(self, delaunay_calls,
                                              monkeypatch):
        # Relaxed, this quadrilateral meshes at h=0.1 with n = 2 and a
        # smallest angle of 29.1 deg.  Without retriangulation its coarse
        # mesh falls below the angle floor at n = 2 (14.2 deg) and at
        # n = 1, the spring mesher alone (7.5 deg), two calls each.
        quad = make_polygon([(-0.574, 0.685), (-0.685, -0.843),
                             (-0.306, -0.999), (0.523, -0.632)])
        assert mesh_domain(quad, 0.1).meta["subdivisions"] == 2
        delaunay_calls.clear()
        monkeypatch.setattr(fem_solver, "RETRI_MOVE", math.inf)
        with pytest.raises(MeshError, match="below the 20 deg floor"):
            mesh_domain(quad, 0.1)
        assert len(delaunay_calls) == 2 * 2


def all_angles_meet_the_floor(mesh):
    """Every angle of the mesh, boundary triangles included, is 20 degrees
    or more, and every triangle is counterclockwise."""
    p = mesh.vertices[mesh.triangles]
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    return bool(np.all(area2 > 0)
                and _min_angles_deg(mesh.vertices, mesh.triangles).min() >= 20.0)


MESH_SIZES = [0.1, 0.05, 0.02, 0.01]


class TestTwoLevelMesh:
    @pytest.mark.parametrize("h", MESH_SIZES)
    def test_holed_square_meets_the_angle_floor(self, h):
        # a square hole puts four reentrant corners close to one another
        for inner in (0.5, 0.3):
            mesh = mesh_domain(make_square_with_square_hole(1.0, inner), h)
            _check_conformity(mesh)
            assert all_angles_meet_the_floor(mesh), inner

    @pytest.mark.parametrize("label", sorted(EXACT_SEGMENT_DOMAINS))
    def test_every_reference_domain_meets_the_floor(self, label):
        for h in MESH_SIZES:
            mesh = mesh_domain(EXACT_SEGMENT_DOMAINS[label](), h)
            assert all_angles_meet_the_floor(mesh), h
            # n = ceil(0.1 w / h) is 1 only for the unit-width triangle at
            # h=0.1
            assert mesh.meta["subdivisions"] > 1 or h == 0.1

    def test_floor_failure_names_the_angle(self, monkeypatch):
        # no triangle other than an equilateral one has all angles >= 60
        monkeypatch.setattr(fem_solver, "MIN_ANGLE_DEG", 60.0)
        with pytest.raises(MeshError,
                           match=r"smallest angle [\d.]+ deg is below the "
                                 r"60 deg floor"):
            mesh_domain(make_square(), 0.1)

    def test_rejected_coarse_mesh_is_retried_one_level_finer(self,
                                                             monkeypatch):
        sizes = []
        spring_mesh = fem_solver._spring_mesh

        def first_fails(domain, h, width):
            sizes.append(h)
            if len(sizes) == 1:
                raise MeshError("rejected")
            return spring_mesh(domain, h, width)

        monkeypatch.setattr(fem_solver, "_spring_mesh", first_fails)
        mesh = mesh_domain(make_lshape(), 0.02)
        # n = ceil(0.1 * sqrt(2) / 0.02) = 8, then 7, each laid at the
        # spacing n h / SPRING_SCALE
        assert sizes == [8 * 0.02 / SPRING_SCALE, 7 * 0.02 / SPRING_SCALE]
        assert mesh.meta["subdivisions"] == 7
        assert mesh.n_triangles % 49 == 0

    def test_gww_b_retries_at_benchmark_size(self, monkeypatch):
        # the corner remap leaves an 18.1 deg angle at n = 5, n = 4 passes
        sizes = []
        spring_mesh = fem_solver._spring_mesh

        def recording(domain, h, width):
            sizes.append(h)
            return spring_mesh(domain, h, width)

        monkeypatch.setattr(fem_solver, "_spring_mesh", recording)
        mesh = mesh_domain(make_polygon(ISOSPECTRAL_PAIR["gww-b"]), 0.07)
        assert sizes == [5 * 0.07 / SPRING_SCALE, 4 * 0.07 / SPRING_SCALE]
        assert mesh.meta["subdivisions"] == 4
        assert all_angles_meet_the_floor(mesh)

    def test_coarse_size_does_not_turn_with_the_domain(self, moved):
        # the bounding box of a turned L-shape is wider than sqrt(2)
        turned = moved(make_lshape(), *rigid_motion(5))
        corners = np.array([seg.start for seg in turned.loops[0].segments])
        assert np.linalg.norm(np.ptp(corners, axis=0)) > 1.5
        assert mesh_domain(turned, 0.02).meta["subdivisions"] == 8

    def test_vertices_numbered_row_major(self, lshape_mesh):
        v = lshape_mesh.vertices
        assert np.array_equal(np.lexsort((v[:, 0], v[:, 1])),
                              np.arange(len(v)))

    def test_each_coarse_triangle_splits_into_congruent_ones(self,
                                                              square_mesh):
        # the square has no graded corner and no curve, so the n^2 pieces of
        # a coarse triangle have one area
        n = square_mesh.meta["subdivisions"]
        assert n > 1
        p = square_mesh.vertices[square_mesh.triangles]
        area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
        groups = np.sort(area2).reshape(-1, n * n)
        assert_allclose(groups, groups[:, :1] * np.ones(n * n), rtol=1e-9)


def assert_fills_domain(mesh, area):
    """Positive triangles that tile ``area``, interior angles of 20 degrees
    or more."""
    p = mesh.vertices[mesh.triangles]
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    assert np.all(area2 > 0)
    assert abs(0.5 * area2.sum() - area) < 1e-9
    assert interior_min_angle_deg(mesh) >= 20.0


class TestIsospectralPairMeshes:
    # the drums of the benchmark's gww-pair workload, at its mesh size
    @pytest.mark.parametrize("label", ["gww-a", "gww-b"])
    def test_gww_meshes_at_benchmark_size(self, label):
        dom = make_polygon(ISOSPECTRAL_PAIR[label], label=label)
        mesh = mesh_domain(dom, 0.07)
        _check_conformity(mesh)
        assert_fills_domain(mesh, dom.area)

    def test_gww_a_at_verify_size(self):
        # the size of verify's fem/isospectral-pair row, where a 0.1
        # local-size retriangulation trigger left an 18.8 deg interior angle
        dom = gww_a()
        assert_fills_domain(mesh_domain(dom, 0.02), dom.area)

    @pytest.mark.parametrize("h", [0.07, 0.08])
    def test_pair_keeps_a_margin_at_benchmark_sizes(self, h):
        # h=0.07 is the gww-pair workload's size and 0.08 its perfbench
        # fixture's; both gate the first 20 modes at 1e-2, and the pair
        # keeps half of that as margin (it reads 1.4e-3 and 2.9e-3)
        a, b = (fem_spectrum(make_polygon(ISOSPECTRAL_PAIR[label]), h, 20)
                for label in ("gww-a", "gww-b"))
        same, dev = isospectral_compare(a, b, count=20, rel_tol=5e-3)
        assert same, dev


def rigid_motion(index):
    """Motion ``index`` of twelve drawn from default_rng(12345): a rotation
    by U(0, 2 pi), then a shift by U(-2, 2)^2."""
    rng = np.random.default_rng(12345)
    for _ in range(index + 1):
        angle = rng.uniform(0.0, 2.0 * PI)
        shift = rng.uniform(-2.0, 2.0, size=2)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]]), shift


class TestRigidMotions:
    # Without the boundary sliver filter, each of these motions leaves flat
    # slivers that fail the degenerate-triangle or conformity checks.
    @pytest.mark.parametrize("domain, h, index", [
        (make_lshape, 0.02, 1),   # angle 4.2490
        (make_lshape, 0.02, 5),   # angle 5.5699
        (gww_a, 0.1, 2),          # angle 3.7593
    ])
    def test_moved_domain_meshes(self, moved, domain, h, index):
        dom = domain()
        mesh = mesh_domain(moved(dom, *rigid_motion(index)), h)
        assert_fills_domain(mesh, dom.area)

    def test_moved_lshape_modes_match(self, moved, lshape_mesh):
        lam = fem_spectrum(moved(make_lshape(), *rigid_motion(5)),
                           0.02, 40).eigenvalues
        ref = solve_lowest(assemble(lshape_mesh), 40).eigenvalues
        assert len(lam) == len(ref) == 40
        # the moved mesh is the unmoved mesh moved, so the modes agree to
        # rounding
        assert_allclose(lam, ref, rtol=1e-10)

    @pytest.mark.parametrize("domain, h", [(make_lshape, 0.05), (gww_a, 0.1)])
    def test_every_motion_gives_the_same_mesh_and_modes(self, moved, domain,
                                                        h):
        dom = domain()
        ref = mesh_domain(dom, h)
        lam = solve_lowest(assemble(ref), 20).eigenvalues
        for index in range(12):
            mesh = mesh_domain(moved(dom, *rigid_motion(index)), h)
            assert mesh.n_vertices == ref.n_vertices
            assert_allclose(solve_lowest(assemble(mesh), 20).eigenvalues,
                            lam, rtol=1e-10)


def hand_mesh(vertices, triangles, boundary_loops):
    vertices = np.asarray(vertices, dtype=float)
    is_boundary = np.zeros(len(vertices), dtype=bool)
    is_boundary[np.concatenate(boundary_loops)] = True
    return Mesh(vertices=vertices, triangles=np.asarray(triangles),
                is_boundary=is_boundary, h=1.0, chord_error=0.0,
                boundary_loops=[np.asarray(loop) for loop in boundary_loops])


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestConformity:
    def test_two_squares_conform(self):
        shifted = [(x + 2, y) for x, y in UNIT_SQUARE]
        _check_conformity(hand_mesh(
            UNIT_SQUARE + shifted, [(0, 1, 2), (0, 2, 3), (4, 5, 6), (4, 6, 7)],
            [[0, 1, 2, 3], [4, 5, 6, 7]]))

    def test_edge_in_three_triangles(self):
        mesh = hand_mesh([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)],
                         [(0, 1, 2), (1, 0, 3), (0, 1, 4)], [[0, 3, 1, 2]])
        with pytest.raises(MeshError) as err:
            _check_conformity(mesh)
        assert str(err.value) == \
            "non-conforming mesh: an edge is shared by >2 triangles"

    def test_boundary_edge_in_two_triangles(self):
        # the second loop starts along the square's diagonal 6-4
        shifted = [(x + 2, y) for x, y in UNIT_SQUARE]
        mesh = hand_mesh(
            UNIT_SQUARE + shifted, [(0, 1, 2), (0, 2, 3), (4, 5, 6), (4, 6, 7)],
            [[0, 1, 2, 3], [6, 4, 5]])
        with pytest.raises(MeshError) as err:
            _check_conformity(mesh)
        assert str(err.value) == \
            "boundary edge (4, 6) of loop 1 is in 2 triangles (expected 1)"

    def test_boundary_edge_in_no_triangle(self):
        mesh = hand_mesh(UNIT_SQUARE, [(0, 1, 2), (0, 2, 3)], [[0, 1, 3, 2]])
        with pytest.raises(MeshError) as err:
            _check_conformity(mesh)
        assert str(err.value) == \
            "boundary edge (1, 3) of loop 0 is in 0 triangles (expected 1)"

    def test_hanging_boundary_edge(self):
        # two triangles meeting at vertex 0; only the first is bounded
        mesh = hand_mesh([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
                         [(0, 1, 2), (0, 3, 4)], [[0, 1, 2]])
        with pytest.raises(MeshError) as err:
            _check_conformity(mesh)
        assert str(err.value) == "mesh has hanging boundary edges"


class TestEigenvalues:
    def test_square_ground_state_within_a_third_of_a_percent(self):
        spec = fem_spectrum(make_square(), 0.02, 10)
        lam1 = 2 * PI ** 2
        rel = (spec.eigenvalues[0] - lam1) / lam1
        assert 0.0 <= rel <= 0.003

    def test_disk_ground_state_within_one_percent(self):
        spec = fem_spectrum(make_disk(), 0.02, 5)
        rel = abs(spec.eigenvalues[0] - J01_SQ) / J01_SQ
        assert rel <= 0.01

    def test_conforming_upper_bounds(self):
        spec = fem_spectrum(make_square(), 0.04, 10)
        exact = rectangle_spectrum(1.0, 1.0, 1000.0)
        assert np.all(spec.eigenvalues[:10] >= exact.eigenvalues[:10] - 1e-9)

    def test_reentrant_sector_against_exact(self):
        # The chord polygon lies inside the 270-degree sector, so the P1
        # eigenvalues are upper bounds; they sit 2.1e-3 to 2.1e-2 above.
        spec = fem_spectrum(make_sector(3 * PI / 2), 0.05, 20)
        exact = sector_spectrum(3 * PI / 2, 1.0, 400.0).eigenvalues[:20]
        rel = spec.eigenvalues[:20] / exact - 1.0
        assert np.all(rel > 0.0)
        assert np.all(rel <= 3e-2)

    def test_rayleigh_quotient_dominates_ground_state(self, square_mesh):
        ops = assemble(square_mesh)
        rng = np.random.default_rng(9)
        lam1 = 2 * PI ** 2
        for _ in range(5):
            u = rng.standard_normal(ops.stiffness.shape[0])
            rq = (u @ (ops.stiffness @ u)) / (u @ (ops.mass @ u))
            assert rq >= lam1

    def test_refinement_decreases_eigenvalues(self):
        coarse = fem_spectrum(make_square(), 0.08, 5)
        fine = fem_spectrum(make_square(), 0.04, 5)
        assert np.all(fine.eigenvalues <= coarse.eigenvalues + 1e-9)

    def test_h_squared_convergence_rate(self):
        lam1 = 2 * PI ** 2
        errs = []
        for h in [0.08, 0.04, 0.02]:
            spec = fem_spectrum(make_square(), h, 3)
            errs.append(spec.eigenvalues[0] - lam1)
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 2.5 <= r1 <= 6.5
        assert 2.5 <= r2 <= 6.5

    def test_eigenvector_m_orthonormality(self):
        spec = fem_spectrum(make_square(), 0.05, 8)
        assert spec.meta["ortho_deviation"] <= 1e-8

    def test_residuals_within_contract(self):
        spec = fem_spectrum(make_disk(), 0.05, 8)
        assert spec.meta["max_residual"] <= 1e-8

    def test_annulus_solves(self):
        # The first slice, solved about its midpoint alone, leaves a
        # near-degenerate pair at 22.158 with residual 3.6e-7; its halves
        # pass the gate.
        hole = [ArcSegment(s.end, s.start, (0, 0), -0.3)
                for s in reversed(_circle_arcs((0, 0), 0.3))]
        annulus = DomainSpec([_circle_arcs((0, 0), 1.0), hole])
        spec = fem_spectrum(annulus, 0.02, 300)
        assert spec.meta["max_residual"] <= 1e-8
        assert spec.meta["inertia_count"] >= 300

    def test_discrete_domain_monotonicity(self):
        inner = fem_spectrum(make_square(), 0.04, 20)
        outer = fem_spectrum(make_rectangle(1.2, 1.1), 0.04, 20)
        # ordering holds within the h^2 discretization slack
        assert np.all(outer.eigenvalues[:20]
                      <= inner.eigenvalues[:20] * (1 + 5e-3))

    def test_count_out_of_range(self, square_mesh):
        ops = assemble(square_mesh)
        with pytest.raises(EigensolveError):
            solve_lowest(ops, 10 ** 6)

    def test_deterministic_given_seed(self, square_mesh):
        ops = assemble(square_mesh)
        s1 = solve_lowest(ops, 6, seed=3)
        s2 = solve_lowest(ops, 6, seed=3)
        assert_allclose(s1.eigenvalues, s2.eigenvalues, rtol=0, atol=0)


class TestTriangleConventionCrossCheck:
    def test_analytic_triangle_matches_fem_first_twenty(self):
        # Guards the ordered-pair multiplicity bookkeeping of the analytic
        # triangle spectrum against an independent discretization.
        analytic = equilateral_triangle_spectrum(1.0, 1.2e3)
        fem = fem_spectrum(make_equilateral_triangle(), 0.015, 20)
        n = min(20, len(fem))
        rel = np.abs(fem.eigenvalues[:n] - analytic.eigenvalues[:n]) \
            / analytic.eigenvalues[:n]
        assert np.all(fem.eigenvalues[:n] >= analytic.eigenvalues[:n] - 1e-9)
        assert rel.max() <= 0.02


class TestPollutionRule:
    def test_clean_spectrum_fully_trusted(self):
        exact = rectangle_spectrum(1.0, 1.0, 4000.0)
        n_ok = complete_below(exact.eigenvalues, 1.0, 4.0)
        assert n_ok == len(exact)

    def test_drifting_tail_is_cut(self):
        exact = rectangle_spectrum(1.0, 1.0, 4000.0)
        lam = exact.eigenvalues.copy()
        k0 = len(lam) // 2
        lam[k0:] *= 1.12  # simulate strong discrete pollution
        lam = np.sort(lam)
        n_ok = complete_below(lam, 1.0, 4.0)
        assert n_ok < len(lam)
        assert n_ok >= k0 // 2

    def test_fem_spectrum_reports_trust_metadata(self):
        spec = fem_spectrum(make_square(), 0.05, 30)
        assert spec.meta["trusted_modes"] <= spec.meta["computed_modes"]
        assert spec.cutoff == spec.eigenvalues[-1]
        assert "t_min_bias" in spec.meta


def dense_eigenvalues(ops):
    return scipy.linalg.eigh(ops.stiffness.toarray(), ops.mass.toarray(),
                             eigvals_only=True)


def planned_slices(count):
    return math.ceil(count / SLICE_MODES)


@pytest.fixture(scope="module")
def small_lshape_ops():
    return assemble(mesh_domain(make_lshape(), 0.04))


@pytest.fixture
def trust_all_modes(monkeypatch):
    # Compare the whole solve, not only the prefix the pollution rule keeps
    # on these coarse meshes.
    monkeypatch.setattr(fem_solver, "complete_below",
                        lambda lam, area, perimeter: len(lam))


class TestSpectrumSlicing:
    def test_inertia_count_matches_dense(self, small_lshape_ops):
        ops = small_lshape_ops
        dense = dense_eigenvalues(ops)
        # arbitrary shifts plus one squeezed between the closest pair
        tight = int(np.argmin(np.diff(dense[:200])))
        shifts = [10.0, 50.0, 500.0, 2000.0, 8000.0,
                  0.5 * (dense[tight] + dense[tight + 1])]
        for sigma in shifts:
            _, below = _factor_shifted(ops.stiffness, ops.mass, sigma)
            assert below == int(np.count_nonzero(dense < sigma)), sigma

    def test_lshape_matches_dense(self, small_lshape_ops, trust_all_modes):
        dense = dense_eigenvalues(small_lshape_ops)
        count = SLICE_MODES + 20
        spec = solve_lowest(small_lshape_ops, count)
        assert len(spec) == count
        assert_allclose(spec.eigenvalues, dense[:count], rtol=1e-10, atol=0)
        assert spec.meta["slices"] >= 2
        assert spec.meta["slices"] <= planned_slices(count) + 1
        assert spec.meta["inertia_count"] >= count
        assert spec.meta["inertia_count"] == int(
            np.count_nonzero(dense < spec.meta["inertia_shift"]))

    def test_count_ending_on_a_slice_boundary(self, small_lshape_ops,
                                              trust_all_modes):
        dense = dense_eigenvalues(small_lshape_ops)
        count = 222
        spec = solve_lowest(small_lshape_ops, count)
        assert_allclose(spec.eigenvalues, dense[:count], rtol=1e-10, atol=0)
        assert spec.meta["slices"] <= planned_slices(count) + 1
        # On this mesh the last shift, that of a slice added beyond the
        # planned ones, counts exactly ``count`` modes below it.
        assert spec.meta["inertia_count"] == count
        assert dense[count - 1] < spec.meta["inertia_shift"] < dense[count]

    def test_square_near_degenerate_pairs(self, square_mesh, trust_all_modes):
        ops = assemble(square_mesh)
        dense = dense_eigenvalues(ops)
        count = 2 * SLICE_MODES
        # the square's symmetric pairs survive the mesh as close pairs
        assert np.min(np.diff(dense[:count]) / dense[1:count]) < 1e-3
        spec = solve_lowest(ops, count)
        assert_allclose(spec.eigenvalues, dense[:count], rtol=1e-10, atol=0)
        assert spec.meta["slices"] <= planned_slices(count) + 1

    def test_slice_missing_a_mode_is_an_error(self, small_lshape_ops,
                                              monkeypatch):
        # Inertia counts that miss half the modes: more Ritz values lie in
        # the first slice than it holds by inertia, which Cauchy interlacing
        # rules out for a correct count.
        factor = fem_solver._factor_shifted

        def undercounting(K, M, sigma):
            lu, below = factor(K, M, sigma)
            return lu, below // 2

        monkeypatch.setattr(fem_solver, "_factor_shifted", undercounting)
        with pytest.raises(EigensolveError,
                           match="by inertia, but .* Ritz values lie in it"):
            solve_lowest(small_lshape_ops, 20)

    @staticmethod
    def spoil(monkeypatch, calls_spoiled):
        """Record each _solve_slice call's slice; perturb the vectors the
        calls numbered in ``calls_spoiled`` return."""
        original = fem_solver._solve_slice
        calls = []

        def spoiling(K, M, lo, hi, modes, v0, solves):
            x, below_mid = original(K, M, lo, hi, modes, v0, solves)
            calls.append((lo, hi))
            if len(calls) in calls_spoiled:
                x = x + 1e-3 * np.random.default_rng(1).standard_normal(x.shape)
            return x, below_mid

        monkeypatch.setattr(fem_solver, "_solve_slice", spoiling)
        return calls

    def test_failing_slice_is_split_once(self, small_lshape_ops,
                                         trust_all_modes, monkeypatch):
        dense = dense_eigenvalues(small_lshape_ops)
        calls = self.spoil(monkeypatch, {1})
        factor = fem_solver._factor_shifted
        shifts = []

        def counting(K, M, sigma):
            shifts.append(sigma)
            return factor(K, M, sigma)

        monkeypatch.setattr(fem_solver, "_factor_shifted", counting)
        count = SLICE_MODES + 20
        spec = solve_lowest(small_lshape_ops, count)
        assert_allclose(spec.eigenvalues, dense[:count], rtol=1e-10, atol=0)
        assert spec.meta["max_residual"] <= 1e-8
        lo, hi = calls[0]
        mid = 0.5 * (lo + hi)
        assert calls[1:3] == [(lo, mid), (mid, hi)]
        # Each slice's top and midpoint, and the two halves' midpoints: the
        # split reads the count below ``mid`` from the slice's own solve.
        assert len(shifts) == 2 * spec.meta["slices"] + 2
        assert shifts.count(mid) == 1

    def test_failing_half_is_an_error(self, small_lshape_ops, monkeypatch):
        self.spoil(monkeypatch, {1, 2})
        with pytest.raises(EigensolveError, match="residual .* exceeds 1e-08"):
            solve_lowest(small_lshape_ops, 20)

    def test_lanczos_basis_cap_is_an_eigensolve_error(self, small_lshape_ops,
                                                      monkeypatch):
        # No Ritz pair meets a negative residual bound, so the Lanczos run
        # stops at its basis cap of 4 modes + 40 steps, short of the dofs.
        monkeypatch.setattr(fem_solver, "RESIDUAL_TOL", -1.0)
        with pytest.raises(EigensolveError) as info:
            solve_lowest(small_lshape_ops, 20)
        modes, steps = map(int, re.search(
            r"holds (\d+) eigenvalues .* 0 have converged after (\d+) of at most "
            r"\d+ Lanczos steps", str(info.value)).groups())
        assert steps == 4 * modes + 40 < small_lshape_ops.stiffness.shape[0]

    def test_programming_error_propagates(self, small_lshape_ops, monkeypatch):
        error = TypeError("solve() got an unexpected keyword argument")
        factor = fem_solver._factor_shifted

        class BrokenLU:
            def solve(self, rhs):
                raise error

        monkeypatch.setattr(fem_solver, "_factor_shifted", lambda K, M, sigma:
                            (BrokenLU(), factor(K, M, sigma)[1]))
        with pytest.raises(TypeError) as info:
            solve_lowest(small_lshape_ops, 20)
        assert info.value is error

    def test_exhausted_krylov_space(self, trust_all_modes, monkeypatch):
        """On 25 dofs the first slice's Lanczos run spans the whole space,
        and its next Lanczos vector is rounding noise."""
        ops = assemble(mesh_domain(make_square(), 0.2))
        n = ops.stiffness.shape[0]
        assert n < 50
        original = fem_solver._solve_slice
        solves = []

        def recording(*args):
            result = original(*args)
            solves.append(args[-1][-1])
            return result

        monkeypatch.setattr(fem_solver, "_solve_slice", recording)
        with np.errstate(divide="raise", invalid="raise"):
            try:
                spec = solve_lowest(ops, n - 1)
            except EigensolveError:
                return
        # n Lanczos steps after the start vector's solve
        assert solves[0] == n + 1
        assert np.all(np.isfinite(spec.eigenvalues))
        assert_allclose(spec.eigenvalues, dense_eigenvalues(ops)[:n - 1],
                        rtol=1e-10, atol=0)


@pytest.fixture
def slice_vectors(monkeypatch):
    """The vectors each slice's Lanczos run returns, in slice order."""
    recorded = []
    original = fem_solver._solve_slice

    def recording(*args):
        x, below_mid = original(*args)
        recorded.append(x.copy())
        return x, below_mid

    monkeypatch.setattr(fem_solver, "_solve_slice", recording)
    return recorded


def global_rayleigh_ritz(ops, slices, count):
    """Reference: one Rayleigh-Ritz step on the lowest ``count`` slice
    vectors together, with residuals in the exact M^-1 norm from an LU of M
    and the full M-Gram matrix."""
    K, M = ops.stiffness, ops.mass
    lowest = []
    for x in slices:
        rq = np.einsum("ij,ij->j", x, K @ x) / np.einsum("ij,ij->j", x, M @ x)
        lowest.append(x[:, np.argsort(rq)])
    vecs = np.concatenate(lowest, axis=1)[:, :count]
    vals, s = scipy.linalg.eigh(vecs.T @ (K @ vecs), vecs.T @ (M @ vecs))
    vecs = vecs @ s
    mx = M @ vecs
    r = K @ vecs - mx * vals[None, :]
    res = np.sqrt(np.einsum("ij,ij->j", r, splu(M.tocsc()).solve(r)))
    xnorm = np.sqrt(np.einsum("ij,ij->j", vecs, mx))
    rel = res / (np.maximum(vals, 1.0) * xnorm)
    gram = vecs.T @ mx
    return vals, rel, float(np.max(np.abs(gram - np.eye(count))))


class TestSliceFinishing:
    COUNT = 150

    def test_multi_slice_matches_global_rayleigh_ritz(
            self, small_lshape_ops, trust_all_modes, slice_vectors):
        spec = solve_lowest(small_lshape_ops, self.COUNT)
        assert spec.meta["slices"] >= 3
        vals, rel, ortho = global_rayleigh_ritz(small_lshape_ops,
                                                slice_vectors, self.COUNT)
        assert rel.max() <= 1e-8 and ortho <= 1e-8
        assert_allclose(spec.eigenvalues, vals, rtol=1e-12, atol=0)
        assert spec.meta["max_residual"] <= 1e-8
        assert spec.meta["ortho_deviation"] <= 1e-8

    def test_residual_bound_brackets_exact_norm(
            self, small_lshape_ops, trust_all_modes, slice_vectors):
        ops = small_lshape_ops
        K, M = ops.stiffness, ops.mass
        spec = solve_lowest(ops, self.COUNT)
        lu_m = splu(M.tocsc())
        dinv = 1.0 / M.diagonal()
        rel = []
        for x in slice_vectors:
            theta, s = scipy.linalg.eigh(x.T @ (K @ x), x.T @ (M @ x))
            x = x @ s
            mx = M @ x
            r = K @ x - mx * theta[None, :]
            exact = np.sqrt(np.einsum("ij,ij->j", r, lu_m.solve(r)))
            bound = np.sqrt(2.0 * (dinv @ (r * r)))
            assert np.all(exact <= bound) and np.all(bound <= 2.0 * exact)
            xnorm = np.sqrt(np.einsum("ij,ij->j", x, mx))
            rel.append(bound / (np.maximum(theta, 1.0) * xnorm))
        rel = np.concatenate(rel)[:self.COUNT]
        assert_allclose(spec.meta["max_residual"], rel.max(), rtol=1e-6)

    @pytest.mark.parametrize("domain, h", [
        (make_square, 0.1), (make_disk, 0.1), (make_lshape, 0.05),
        (make_square_with_square_hole, 0.05)])
    def test_diagonally_scaled_mass_spectrum(self, domain, h):
        # Wathen (1987): for P1 triangles the eigenvalues of diag(M)^-1 M
        # lie in [1/2, 2], the interval the residual bound rests on.
        mass = assemble(mesh_domain(domain(), h)).mass.toarray()
        d = 1.0 / np.sqrt(np.diag(mass))
        ev = np.linalg.eigvalsh(d[:, None] * mass * d[None, :])
        assert 0.5 - 1e-12 <= ev[0] and ev[-1] <= 2.0 + 1e-12


def garbage_after(call):
    """``call()`` run with the cyclic collector off, and the number of
    objects a full collection then finds unreachable: what only a cyclic
    collection would have freed."""
    gc.collect()
    gc.disable()
    try:
        result = call()
        return gc.collect(), result
    finally:
        gc.enable()


class TestSolveLeavesNoCycles:
    """A solve frees what it allocates when it returns, without waiting
    for the cyclic collector."""

    def test_multi_slice_solve(self, small_lshape_ops):
        garbage, spec = garbage_after(lambda: solve_lowest(small_lshape_ops, 150))
        assert garbage == 0
        assert spec.meta["slices"] >= 3

    def test_split_slice(self, small_lshape_ops, monkeypatch):
        calls = TestSpectrumSlicing.spoil(monkeypatch, {1})
        garbage, _ = garbage_after(
            lambda: solve_lowest(small_lshape_ops, SLICE_MODES + 20))
        assert garbage == 0
        lo, hi = calls[0]
        assert calls[1:3] == [(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)]

    def test_fem_spectrum(self):
        garbage, _ = garbage_after(lambda: fem_spectrum(make_lshape(), 0.04, 150))
        assert garbage == 0
