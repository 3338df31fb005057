"""Graded-mesh P1 finite elements for Dirichlet eigenvalues.

Meshing is two-level: the spring mesher meshes the domain once, uniformly,
with springs that rest at the coarse size n h, and every coarse triangle is
then split into n^2 similar ones whose nodes are shared along the coarse
edges.  n = ceil(COARSE_SIZE w / h), with COARSE_SIZE = 0.1 and w the
largest distance between two points of the outer loop.  This gives n = 15
on the L-shape at h=0.01 (11,461 dofs) and n = 5 on the GWW drums at
h=0.07, where gww-b's subdivided mesh has an 18.1 deg angle and is remade
at n = 4.

The spring mesher is a force-equilibrium Delaunay scheme at one spacing,
n h / SPRING_SCALE: boundary points are walked at it and held fixed,
interior points start on a hex lattice of that spacing and relax under
repulsion-only edge springs of rest length SPRING_SCALE times it, n h.
Points laid at n h instead give fine edges of about h (a median of
0.96-1.03 h), 9,226 vertices on the L-shape at h=0.01 against 11,941, and
a GWW pair at h=0.08 whose first 20 modes disagree by 1.1e-2 against
2.9e-3.  The lattice is laid in the domain's own frame, with its origin at
the start of the outer loop's first segment and its x-axis along that
segment's chord, and every other length is the spacing or w; so a moved
domain gets the moved mesh, and its modes agree to rounding.  The springs
follow the edges of the last Delaunay triangulation, which is redone only
once some interior point has moved RETRI_MOVE = 0.3 spacings from where it
saw the point (Persson & Strang 2004), and once more at the end.  Stale
springs still repel, so the relaxation needs no fresh connectivity at
every step.  Flat slivers along the boundary are dropped from the final
triangles.

The spring mesher's angles depend on when it happens to retriangulate, and
a coarse mesh of a few dozen points is fragile.  So a coarse mesh is kept
only if it conforms and every angle is at least MIN_ANGLE_DEG = 20 deg;
otherwise the coarse step is redone with n - 1, n - 2, ..., down to n = 1,
the spring mesher alone.  The subdivided mesh must pass the same floor,
and mesh_domain raises MeshError, naming the angle, rather than return a
mesh below it.

Subdivision keeps the coarse angles except at graded corners and curves,
and it is the only grading.  A corner is graded when its angle theta
exceeds 1.01 pi, where its leading singular exponent pi/theta is below
0.99: the kinks of a few 1e-5 rad that a reloaded spline curve keeps at
its junctions are corners, but not graded.  In each coarse triangle that
touches a graded corner the sub-nodes are pulled towards it: rho = 1 minus
the corner's barycentric weight becomes rho^CORNER_REMAP, with
CORNER_REMAP = 3/2.  A new boundary node is ``point_at`` of its
interpolated segment parameter, so it lies on its curve, and the sub-nodes
of a coarse triangle along a curve follow the curve's offset from the
coarse chord, fading to zero at the opposite vertex.  Coarse chords keep
their sagitta below (n h / SPRING_SCALE)^2 / w, so the fine chords' is
below h^2/w; ``chord_error`` is measured on the fine chords.  The fine
vertices are numbered row-major (by y, then x) before assembly.  Numbered
as the subdivision makes them (coarse vertices, then coarse edges, then
coarse triangles), the sparse LU of K - sigma M on the L-shape at h=0.01
took 176 ms instead of 55 ms to factor and 2.9 ms instead of 1.2 ms per
solve (medians on a 2-core machine), at a similar fill (0.68 million
nonzeros in L and U against 0.73 million).

Assembly uses the exact per-triangle linear-element formulas; the Dirichlet
condition is imposed by eliminating boundary rows and columns.  The lowest
modes of the generalized pencil (K, M) come from spectrum slicing (Ericsson
& Ruhe 1980; Grimes, Lewis & Simon 1994): the eigenvalue axis is cut into
slices of a few dozen modes, each solved by ARPACK in shift-invert mode
about its midpoint, and the inertia of K - sigma M at every slice boundary
counts the eigenvalues below it exactly (Sylvester's law of inertia).  Each
slice must yield exactly its counted modes, so the spectrum is proven
complete below the last shift.  Each slice is finished as soon as it is
solved, by a Rayleigh-Ritz step on its own vectors and a residual check, so
no basis wider than one slice is kept; a slice that fails the check is
split once at its midpoint, and each half is solved and checked again.
That step is the module-level ``_finish_slice``, not a closure in
solve_lowest: a closure that calls itself is a reference cycle, which kept
the last slice's vectors alive after the solve until a full collection.
The residual gate needs no factorisation of M: for P1 triangles
diag(M)^-1 M has its eigenvalues in [1/2, 2] (Wathen 1987), so sqrt(2)
times the residual in the diag(M)^-1 norm bounds it in the M^-1 norm.

scipy's sparse, spatial and linalg packages are imported inside the
functions that call them: every drumspec command imports this module, and
one that never meshes or solves should not pay for loading them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic_spectra import Spectrum
from .errors import AssemblyError, EigensolveError, MeshError
from .geometry import _loops_contain

PI = math.pi

RELAX_ITERS = 40
RELAX_STEP = 0.2
# Retriangulate once a point moves this many spacings.  Against 0.1, 0.3
# cut the Delaunay calls per mesh from 7.8 to 3.5 on average (L-shape, GWW
# drums and holed squares at h = 0.1 to 0.01), at the same smallest angles.
RETRI_MOVE = 0.3
# The coarse springs rest at n h, with n = ceil(COARSE_SIZE * width / h).
COARSE_SIZE = 0.1
# Every angle of a returned mesh is at least this.
MIN_ANGLE_DEG = 20.0
# Sub-nodes next to a graded corner sit at rho^CORNER_REMAP of their
# barycentric distance rho from it.
CORNER_REMAP = 1.5
SPRING_SCALE = 1.2
POLLUTION_DEV = 0.05
POLLUTION_KMIN = 30
RESIDUAL_TOL = 1e-8
SLICE_MODES = 75   # modes per spectrum slice
SLICE_PAD = 0.05   # slice boundaries sit at Weyl estimates for 5% more modes
SLICE_EXTRA = 2    # Lanczos asks for this many modes beyond a slice's count


@dataclass
class Mesh:
    vertices: np.ndarray          # (N, 2)
    triangles: np.ndarray         # (M, 3) CCW
    is_boundary: np.ndarray       # (N,) bool
    h: float
    chord_error: float
    domain_label: str = ""
    area: float = 0.0             # of the continuous domain
    perimeter: float = 0.0
    boundary_loops: list = field(default_factory=list)  # vertex index arrays
    # mesh_domain records min_angle_deg (of this mesh, as the benchmark's
    # tracer reads it), subdivisions (n), and two figures of the coarse
    # spring mesh it subdivides: delaunay_calls and last_max_move_h, the
    # largest interior move of its last relaxation iteration over its
    # spacing.
    meta: dict = field(default_factory=dict)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)


@dataclass
class DiscreteOperatorPair:
    """Stiffness and mass over interior vertices (Dirichlet eliminated)."""

    stiffness: object  # scipy.sparse.csr_matrix
    mass: object  # scipy.sparse.csr_matrix
    mesh: Mesh


def _hex_lattice(bbox_lo, bbox_hi, spacing):
    dy = spacing * math.sqrt(3) / 2.0
    ys = np.arange(bbox_lo[1] + 0.5 * dy, bbox_hi[1], dy)
    rows = []
    for i, y in enumerate(ys):
        x0 = bbox_lo[0] + (0.25 + 0.5 * (i % 2)) * spacing
        xs = np.arange(x0, bbox_hi[0], spacing)
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
    if not rows:
        return np.empty((0, 2))
    return np.concatenate(rows, axis=0)


def mesh_domain(domain, h):
    """Triangulate a DomainSpec with target size h, graded towards reentrant
    corners: the spring mesher with springs resting at the coarse size n h,
    then every coarse triangle split into n^2, those at a graded corner
    remapped (see the module docstring).

    Raises MeshError when the requested size cannot resolve the geometry
    (e.g. a segment shorter than a couple of steps), naming the offender,
    and when no n down to 1 gives a mesh whose every angle reaches
    MIN_ANGLE_DEG.
    """
    if h <= 0:
        raise MeshError("target size h must be positive")
    width = _width(domain)
    if h > width / 4.0:
        raise MeshError(f"h={h:g} too coarse for a domain of width {width:g}")
    # The grading rule of the module docstring (theta > 1.01 pi).
    reentrant = [c for c in domain.corners if c.theta > 1.01 * PI]
    for n in range(math.ceil(COARSE_SIZE * width / h), 0, -1):
        try:
            coarse, params = _spring_mesh(domain, n * h / SPRING_SCALE, width)
            _check_min_angle(coarse)
            mesh = _subdivide(coarse, params, domain, n, h, reentrant)
            _check_min_angle(mesh)
            return mesh
        except MeshError as exc:
            failure = exc
    raise failure


def _width(domain):
    """The largest distance between two points of the outer loop's polyline
    (segment ends, and 64 chords per arc or curve).  Unlike
    ``domain.diameter``, the diagonal of the bounding box, it does not
    change when the domain turns."""
    from scipy.spatial import ConvexHull
    pts = domain._polylines[0]
    hull = pts[ConvexHull(pts).vertices]
    return float(np.sqrt(np.max(np.sum((hull[:, None] - hull[None]) ** 2, axis=-1))))


def _check_min_angle(mesh):
    angle = mesh.meta["min_angle_deg"]
    if angle < MIN_ANGLE_DEG:
        raise MeshError(f"smallest angle {angle:.3g} deg is below the "
                        f"{MIN_ANGLE_DEG:g} deg floor")


def _spring_mesh(domain, h, width):
    """The spring mesher at the spacing h, for a domain of width ``width``:
    the Mesh, and for each of its boundary loops the flat segment index and
    the segment parameter of every loop vertex."""
    sagitta = h * h / width

    boundary_loops = []
    boundary_pts = []
    params = []
    offset = flat = 0
    for li, loop in enumerate(domain.loops):
        pieces, segs, us = [], [], []
        for si, seg in enumerate(loop.segments):
            pts, u = seg.walk(h, sagitta=sagitta)
            if seg.length < 2.0 * h / 3.0:
                raise MeshError(
                    f"segment {si} of loop {li} (length {seg.length:g}) is "
                    f"too short for the coarse spacing {h:g}")
            pieces.append(pts)
            segs.append(np.full(len(u), flat + si))
            us.append(u)
        flat += len(loop.segments)
        loop_pts = np.concatenate(pieces, axis=0)
        boundary_pts.append(loop_pts)
        boundary_loops.append(np.arange(offset, offset + len(loop_pts)))
        params.append((np.concatenate(segs), np.concatenate(us)))
        offset += len(loop_pts)
    boundary = np.concatenate(boundary_pts, axis=0)
    n_bdry = len(boundary)
    poly_loops = boundary_pts  # discrete polygons used for containment

    # Interior seeds: a hex lattice in the frame of the outer loop's first
    # segment (origin at its start, x-axis along its chord), so that a
    # moved domain gets the moved mesh, keeping the lattice points inside
    # the domain and over 0.55 h from its boundary.
    first = domain.loops[0].segments[0]
    ex = (first.end - first.start) / np.linalg.norm(first.end - first.start)
    frame = np.array([ex, [-ex[1], ex[0]]])
    local = (boundary - first.start) @ frame.T
    lattice = first.start + _hex_lattice(local.min(axis=0), local.max(axis=0),
                                         h) @ frame
    interior = lattice[_loops_contain(poly_loops, lattice)]
    from scipy.spatial import cKDTree
    interior = interior[cKDTree(boundary).query(interior)[0] > 0.55 * h]

    points = np.concatenate([boundary, interior], axis=0)
    if len(points) < 6:
        raise MeshError("too few points; decrease h")

    # Force-equilibrium relaxation of interior points.  The edge list is
    # rebuilt only once a free point has moved RETRI_MOVE h away from where
    # the last triangulation saw it (Persson & Strang 2004).
    free = np.zeros(len(points), dtype=bool)
    free[n_bdry:] = True
    anchor = None
    retriangulations = 0
    for _ in range(RELAX_ITERS):
        if anchor is None or np.any(np.linalg.norm(
                points[free] - anchor, axis=1) > RETRI_MOVE * h):
            simplices = _triangulate(points, poly_loops)
            retriangulations += 1
            e0, e1 = np.divmod(np.unique(_edge_keys(
                simplices, np.roll(simplices, -1, axis=1), len(points))),
                len(points))
            anchor = points[free]
        vec = points[e1] - points[e0]
        length = np.linalg.norm(vec, axis=1)
        fmag = np.maximum(SPRING_SCALE * h - length, 0.0) \
            / np.maximum(length, 1e-30)
        ends = np.concatenate([e0, e1])
        pull = np.concatenate([-fmag[:, None] * vec, fmag[:, None] * vec])
        force = np.column_stack([np.bincount(ends, pull[:, k], len(points))
                                 for k in range(2)])
        prev = points.copy()
        points[free] += RELAX_STEP * force[free]
        escaped = np.nonzero(free)[0][~_loops_contain(poly_loops, points[free])]
        points[escaped] = prev[escaped]
    # Every mesh runs all RELAX_ITERS: the largest move of the last one is
    # still 0.0009-0.012 spacings on the square, disk, L-shape and GWW drums.
    max_move = np.max(np.linalg.norm(points[free] - prev[free], axis=1)) \
        if free.any() else 0.0

    simplices = _triangulate(points, poly_loops)
    area2 = _area2(points[simplices])
    # Once a rigid motion breaks the exact collinearity of the points along
    # a straight edge, Qhull leaves flat slivers there that the centroid
    # test can keep: drop them.
    keep = ~(np.all(simplices < n_bdry, axis=1)
             & (np.abs(area2) <= 1e-10 * h * h))
    simplices, area2 = simplices[keep], area2[keep]
    if len(simplices) == 0:
        raise MeshError("triangulation collapsed; decrease h")

    # Drop points not referenced by any kept triangle and reindex.
    used = np.unique(simplices)
    remap = -np.ones(len(points), dtype=int)
    remap[used] = np.arange(len(used))
    vertices = points[used]
    triangles = remap[simplices]
    is_boundary = np.zeros(len(used), dtype=bool)
    is_boundary[remap[np.arange(n_bdry)]] = True
    loops_idx = [remap[ix] for ix in boundary_loops]
    if np.any([np.any(ix < 0) for ix in loops_idx]):
        raise MeshError("a boundary point was orphaned; decrease h")

    # Enforce CCW orientation and positive areas.
    flip = area2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    if np.any(np.abs(area2) <= 1e-14 * h * h):
        raise MeshError("degenerate triangle produced; decrease h")

    mesh = Mesh(vertices=vertices, triangles=triangles, is_boundary=is_boundary,
                h=h, chord_error=sagitta,
                domain_label=domain.label, area=domain.area,
                perimeter=domain.perimeter, boundary_loops=loops_idx,
                meta={"min_angle_deg": _min_angles_deg(vertices, triangles).min(),
                      "delaunay_calls": retriangulations + 1,
                      "last_max_move_h": max_move / h})
    _check_conformity(mesh)
    return mesh, params


def _subdivide(coarse, params, domain, n, h, reentrant):
    """Split every triangle of ``coarse`` into n^2 similar ones whose nodes
    are shared along the coarse edges.

    Sub-nodes of a triangle with a graded corner are pulled towards it by
    the radial remap rho -> rho^CORNER_REMAP of rho = 1 - the corner's
    barycentric weight.  A new boundary node is ``point_at`` of its
    interpolated parameter, and the sub-nodes of a coarse triangle with a
    boundary edge follow that edge's offset from its chord, scaled down to
    zero at the opposite vertex.  The fine vertices are numbered row-major.
    """
    P, T = coarse.vertices, coarse.triangles
    nv, nt = len(P), len(T)
    segments = [seg for loop in domain.loops for seg in loop.segments]
    corner = np.zeros(nv, dtype=bool)
    for c in reentrant:
        corner[np.argmin(np.linalg.norm(P - c.vertex, axis=1))] = True
    graded = corner[T]
    if n > 1 and np.any(graded.sum(axis=1) > 1):
        raise MeshError("a coarse triangle touches two graded corners")

    # Local node (i, j) has the barycentric weights (n - i - j, i, j) / n.
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    i, j = i[i + j <= n], j[i + j <= n]
    loc = np.zeros((n + 1, n + 1), dtype=np.int64)
    loc[i, j] = np.arange(len(i))
    up, dn = (i + j < n), (i + j < n - 1)
    local_tris = np.concatenate([
        np.column_stack([loc[i[up], j[up]], loc[i[up] + 1, j[up]],
                         loc[i[up], j[up] + 1]]),
        np.column_stack([loc[i[dn] + 1, j[dn]], loc[i[dn] + 1, j[dn] + 1],
                         loc[i[dn], j[dn] + 1]])])

    # side[k]: the local nodes of edge k, from vertex k to vertex k + 1.
    r = np.arange(n + 1)
    side = np.stack([loc[r, 0 * r], loc[n - r, r], loc[0 * r, n - r]])

    # Global numbers: coarse vertices, then n - 1 nodes per coarse edge
    # (walked from its lower-numbered end), then each triangle's inner nodes.
    keys = _edge_keys(T, np.roll(T, -1, axis=1), nv)
    edge_keys, edge_of = np.unique(keys, return_inverse=True)
    edge_of = edge_of.reshape(nt, 3)
    t = np.arange(1, n)
    glob = np.empty((nt, len(i)), dtype=np.int64)
    glob[:, side[:, 0]] = T
    for k in range(3):
        slot = np.where((T[:, k] < T[:, (k + 1) % 3])[:, None], t - 1, n - 1 - t)
        glob[:, side[k, 1:-1]] = nv + edge_of[:, [k]] * (n - 1) + slot
    inner = (i > 0) & (j > 0) & (i + j < n)
    n_inner = np.count_nonzero(inner)
    glob[:, inner] = nv + len(edge_keys) * (n - 1) \
        + np.arange(nt)[:, None] * n_inner + np.arange(n_inner)

    w = np.broadcast_to(np.column_stack([n - i - j, i, j]) / n,
                        (nt, len(i), 3)).copy()
    for k in range(3):
        rows = graded[:, k]
        rho = 1.0 - w[rows, :, k]
        w[rows] *= (rho ** (CORNER_REMAP - 1.0))[..., None]
        w[rows, :, k] = 1.0 - rho ** CORNER_REMAP
    x = np.einsum("tlk,tkd->tld", w, P[T])

    # Coarse boundary edges a -> b in loop order, each with its segment and
    # its parameters u0 at a and u1 at b (1 where b starts the next segment).
    loops = coarse.boundary_loops
    a, b = np.concatenate(loops), np.concatenate([np.roll(lp, -1) for lp in loops])
    seg = np.concatenate([sg for sg, _ in params])
    u0 = np.concatenate([u for _, u in params])
    u1 = np.concatenate([np.where(np.roll(sg, -1) == sg, np.roll(u, -1), 1.0)
                         for sg, u in params])

    # The sub-nodes of the triangle along boundary edge a -> b (the domain
    # is on the left of both, so they run the same way) move by sigma times
    # the segment's offset from the chord at the node's fraction between a
    # and b, sigma being its weight on a and b.  That puts the nodes of the
    # edge itself on the segment.
    bnd = np.full(len(edge_keys), -1)
    bnd[np.searchsorted(edge_keys, _edge_keys(a, b, nv))] = np.arange(len(a))
    tri, k = np.nonzero(bnd[edge_of] >= 0)
    e = bnd[edge_of[tri, k]]
    sigma = w[tri, :, k] + w[tri, :, (k + 1) % 3]
    along = w[tri, :, (k + 1) % 3] / np.where(sigma > 0, sigma, 1.0)
    offset = -(P[a[e], None] + along[..., None] * (P[b[e]] - P[a[e]])[:, None])
    u = u0[e, None] + along * (u1 - u0)[e, None]
    for sid in np.unique(seg[e]):
        rows = seg[e] == sid
        offset[rows] += segments[sid].point_at(u[rows].ravel()).reshape(
            -1, len(i), 2)
    np.add.at(x, tri, sigma[..., None] * offset)
    vertices = np.empty((nv + len(edge_keys) * (n - 1) + nt * n_inner, 2))
    vertices[glob] = x

    # The nodes and parameters of each boundary edge, a to b, in loop order;
    # each fine chord's sagitta is measured at its middle parameter (zero
    # on straight segments).
    by_edge = np.argsort(e)
    ends = side[k[by_edge]]
    nodes = np.take_along_axis(glob[tri[by_edge]], ends, axis=1)
    u = np.take_along_axis(u[by_edge], ends, axis=1)
    chords = vertices[nodes]
    sagitta = 0.0
    for sid in np.unique(seg):
        rows, curve = seg == sid, segments[sid]
        if curve.kind != "line":
            mid = curve.point_at(0.5 * (u[rows, :-1] + u[rows, 1:]).ravel())
            sagitta = max(sagitta, float(np.max(np.linalg.norm(
                mid - 0.5 * (chords[rows, :-1] + chords[rows, 1:]).reshape(-1, 2),
                axis=1))))

    # Row-major numbering (y, then x) keeps the bandwidth of the operators
    # near sqrt(dofs), which the sparse factorisations depend on.
    order = np.lexsort((vertices[:, 0], vertices[:, 1]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    vertices = vertices[order]
    triangles = rank[glob[:, local_tris].reshape(-1, 3)]
    offsets = np.cumsum([0] + [len(lp) for lp in loops])
    boundary_loops = [rank[nodes[lo:hi, :-1].ravel()]
                      for lo, hi in zip(offsets[:-1], offsets[1:])]
    is_boundary = np.zeros(len(vertices), dtype=bool)
    is_boundary[np.concatenate(boundary_loops)] = True

    if np.any(_area2(vertices[triangles]) <= 1e-14 * h * h):
        raise MeshError(f"subdivision into {n}^2 left a degenerate or "
                        f"inverted triangle")
    mesh = Mesh(vertices=vertices, triangles=triangles, is_boundary=is_boundary,
                h=h, chord_error=sagitta, domain_label=domain.label,
                area=domain.area, perimeter=domain.perimeter,
                boundary_loops=boundary_loops,
                meta={"min_angle_deg": _min_angles_deg(vertices, triangles).min(),
                      "delaunay_calls": coarse.meta["delaunay_calls"],
                      "last_max_move_h": coarse.meta["last_max_move_h"],
                      "subdivisions": n})
    _check_conformity(mesh)
    return mesh


def _triangulate(points, poly_loops):
    """Delaunay triangles of points whose centroids lie in the domain."""
    from scipy.spatial import Delaunay
    simplices = Delaunay(points).simplices
    return simplices[_loops_contain(poly_loops, points[simplices].mean(axis=1))]


def _area2(p):
    """Twice the signed areas of the triangles p, of shape (M, 3, 2)."""
    return (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])


def _min_angles_deg(vertices, triangles):
    p = vertices[triangles]
    angles = np.empty((len(triangles), 3))
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles[:, i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return angles.min(axis=1)


def _edge_keys(a, b, n):
    """Undirected edges {a, b} of an n-vertex mesh as int64 keys
    min * n + max, which sort like the (min, max) pairs."""
    return np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)


def _check_conformity(mesh):
    n = mesh.n_vertices
    tris = mesh.triangles
    uniq, counts = np.unique(_edge_keys(tris, np.roll(tris, -1, axis=1), n),
                             return_counts=True)
    if np.any(counts > 2):
        raise MeshError("non-conforming mesh: an edge is shared by >2 triangles")
    loops = mesh.boundary_loops
    keys = _edge_keys(np.concatenate(loops),
                      np.concatenate([np.roll(loop, -1) for loop in loops]), n)
    pos = np.minimum(np.searchsorted(uniq, keys), len(uniq) - 1)
    in_tris = np.where(uniq[pos] == keys, counts[pos], 0)
    bad = np.nonzero(in_tris != 1)[0]
    if len(bad):
        i = int(bad[0])
        li = int(np.searchsorted(np.cumsum([len(loop) for loop in loops]), i,
                                 side="right"))
        raise MeshError(
            f"boundary edge {divmod(int(keys[i]), n)} of loop {li} is in "
            f"{int(in_tris[i])} triangles (expected 1)")
    if np.count_nonzero(counts == 2) + len(keys) != len(uniq):
        raise MeshError("mesh has hanging boundary edges")


def assemble(mesh):
    """P1 stiffness/mass over interior vertices (Dirichlet eliminated)."""
    nv = mesh.n_vertices
    tris = mesh.triangles
    p = mesh.vertices[tris]  # (M, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    if np.any(area2 <= 0):
        raise AssemblyError("zero or negative triangle area in assembly")
    area = 0.5 * area2
    ke = (np.einsum("ti,tj->tij", b, b) + np.einsum("ti,tj->tij", c, c)) \
        / (4.0 * area)[:, None, None]
    me = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / 12.0)[:, None, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    from scipy.sparse import coo_matrix
    K = coo_matrix((ke.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    M = coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    interior = np.nonzero(~mesh.is_boundary)[0]
    if len(interior) == 0:
        raise AssemblyError("no interior vertices; decrease h")
    Ki = K[np.ix_(interior, interior)].tocsr()
    Mi = M[np.ix_(interior, interior)].tocsr()
    return DiscreteOperatorPair(stiffness=Ki, mass=Mi, mesh=mesh)


def _weyl_lambda_estimate(k, area, perimeter):
    """Eigenvalue k from the two-term Weyl counting function."""
    root = (perimeter + np.sqrt(perimeter ** 2 + 16.0 * PI * area * k)) / (2.0 * area)
    return root ** 2


def complete_below(eigenvalues, area, perimeter):
    """Largest prefix of a discrete spectrum trusted as complete.

    Discrete eigenvalues drift systematically *above* the truth as the mode
    number grows; the prefix ends where a running median of the deviation
    from the two-term Weyl prediction exceeds POLLUTION_DEV, and the first
    POLLUTION_KMIN modes are always kept.  The median makes the test blind
    to the O(one mode) number-theoretic fluctuations of the counting
    function, which reach several percent at low k and are not pollution;
    likewise negative deviations never truncate.
    """
    lam = np.asarray(eigenvalues)
    k = np.arange(1, len(lam) + 1, dtype=float)
    est = _weyl_lambda_estimate(k, area, perimeter)
    d = lam / est - 1.0
    half = 10
    med = np.array([np.median(d[max(0, i - half):i + half + 1])
                    for i in range(len(d))])
    bad = med > POLLUTION_DEV
    bad[:min(POLLUTION_KMIN, len(lam))] = False
    idx = np.nonzero(bad)[0]
    n_ok = len(lam) if len(idx) == 0 else int(idx[0])
    if n_ok == 0:
        raise EigensolveError("entire discrete spectrum is polluted")
    return n_ok


def _factor_shifted(K, M, sigma):
    """LU factors of K - sigma M and the number of eigenvalues below sigma.

    The ordering is symmetric and every pivot stays on the diagonal, so the
    factorisation is an LDL^T in disguise: diag(U) is D, and by Sylvester's
    law of inertia its negative entries count the eigenvalues of (K, M)
    below sigma.  One factorisation serves both that count and the
    shift-invert solves.
    """
    from scipy.sparse.linalg import splu
    try:
        lu = splu((K - sigma * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise EigensolveError(
            f"factorisation of K - {sigma:g} M failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolveError(
            f"factorisation of K - {sigma:g} M pivoted off the diagonal, "
            f"so it gives no inertia count")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def _solve_slice(K, M, lo, hi, modes, v0):
    """The eigenvectors of the ``modes`` eigenvalues that the inertia counts
    place in [lo, hi), by shift-invert Lanczos about the slice midpoint."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
    mid = 0.5 * (lo + hi)
    lu, _ = _factor_shifted(K, M, mid)
    op_inv = LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    try:
        vals, vecs = eigsh(K, k=min(modes + SLICE_EXTRA, K.shape[0] - 1), M=M,
                           sigma=mid, v0=v0, OPinv=op_inv, maxiter=2000)
    except ArpackError as exc:
        raise EigensolveError(f"eigensolver failed: {exc}") from exc
    inside = np.nonzero((vals >= lo) & (vals < hi))[0]
    if len(inside) != modes:
        raise EigensolveError(
            f"slice [{lo:g}, {hi:g}) holds {modes} eigenvalues by inertia, "
            f"but the eigensolver found {len(inside)}")
    return vecs[:, inside]


def _finish_slice(K, M, dinv, lo, hi, below_lo, below_hi, count, v0,
                  may_split):
    """Solve slice [lo, hi), which holds modes below_lo to below_hi - 1 by
    inertia, and gate the residuals of those below ``count``.  Returns the
    finished pieces in eigenvalue order as (first mode, theta, relative
    residuals, x, M x): none, one, or, if the gate fails and ``may_split``,
    those of the slice's two halves."""
    from scipy.linalg import eigh as dense_eigh
    take = min(below_hi, count) - below_lo
    if take <= 0:
        return []
    x = _solve_slice(K, M, lo, hi, below_hi - below_lo, v0)
    # ARPACK residuals in the original pencil grow like lambda * eps
    # after shift-invert; a Rayleigh-Ritz step on the slice's own
    # vectors restores them to projection level.
    theta, s = dense_eigh(x.T @ (K @ x), x.T @ (M @ x))
    x, theta = x @ s[:, :take], theta[:take]
    mx = M @ x
    r = K @ x - mx * theta[None, :]
    # Gate per mode relative to lambda: |r|_{M^-1} bounds the absolute
    # eigenvalue error, and double-precision Lanczos cannot push it
    # below ~lambda^2*eps.  sqrt(2) |r|_{diag(M)^-1} bounds |r|_{M^-1}
    # (Wathen 1987).
    res = np.sqrt(2.0 * (dinv @ (r * r)))
    xnorm = np.sqrt(np.einsum("ij,ij->j", x, mx))
    rel_x = res / (np.maximum(theta, 1.0) * xnorm)
    if rel_x.max() <= RESIDUAL_TOL:
        return [(below_lo, theta, rel_x, x, mx)]
    if not may_split:
        raise EigensolveError(
            f"eigensolver residual {rel_x.max():.3g} exceeds "
            f"{RESIDUAL_TOL:g} after {count} modes")
    mid = 0.5 * (lo + hi)
    below_mid = _factor_shifted(K, M, mid)[1]
    return (_finish_slice(K, M, dinv, lo, mid, below_lo, below_mid, count,
                          v0, False)
            + _finish_slice(K, M, dinv, mid, hi, below_mid, below_hi, count,
                            v0, False))


def solve_lowest(ops, count, seed=0):
    """The ``count`` smallest eigenvalues of (K, M), proven complete and
    residual-checked.

    Spectrum slicing: the axis from zero (K is positive definite after
    elimination) is cut into slices [lo, hi) of about SLICE_MODES modes,
    with boundaries at padded two-term Weyl estimates.  The inertia of
    K - hi M counts the eigenvalues below each boundary exactly, and each
    slice is solved by shift-invert Lanczos about its midpoint; a slice
    whose mode count differs from its inertia difference is an error.  If
    the last boundary still counts fewer than ``count`` modes, further
    slices are sized from the mode density counted below it.  So no
    eigenvalue below the last shift is missing: the meta records the number
    of ``slices``, the last shift ``inertia_shift`` and the
    ``inertia_count`` below it.

    Each slice is finished where it is solved (``_finish_slice``): a
    Rayleigh-Ritz step on the slice alone, then per-mode residuals
    r = K x - lambda M x.  Through the next slice's solve only the previous
    slice's vectors are held, for the adjacent-slice orthogonality check,
    and nothing the solve allocates outlives it.  ``max_residual`` is the
    largest certified bound sqrt(2) |r|_{diag(M)^-1} / (max(lambda, 1)
    |x|_M) on the lambda-relative residual in the M^-1 norm; it holds
    because diag(M)^-1 M has its eigenvalues in [1/2, 2] for P1 triangles
    (Wathen, IMA J. Numer. Anal. 7, 1987), and it must not exceed
    RESIDUAL_TOL.  A slice that exceeds it is split once at its midpoint,
    and a half that still exceeds it raises.  ``ortho_deviation`` is the
    largest deviation of the M-Gram matrix from the identity over pairs of
    modes within one slice or in adjacent slices.  The returned Spectrum is
    truncated and its cutoff set by the Weyl pollution rule, so downstream
    heat-trace tails only see trusted modes.
    """
    K, M = ops.stiffness, ops.mass
    mesh = ops.mesh
    n = K.shape[0]
    if not 1 <= count < n:
        raise EigensolveError(f"count={count} out of range for {n} dofs")
    rng = np.random.default_rng(seed)
    n_planned = math.ceil(count / SLICE_MODES)
    targets = count * np.arange(1, n_planned + 1) / n_planned
    bounds = list(_weyl_lambda_estimate(targets * (1.0 + SLICE_PAD),
                                        mesh.area, mesh.perimeter))
    dinv = 1.0 / M.diagonal()
    vals = np.empty(count)
    rel = np.empty(count)
    ortho_dev, prev = 0.0, None

    lo, below_lo, slices = 0.0, 0, 0
    while below_lo < count:
        if slices < len(bounds):
            hi = float(bounds[slices])
        else:
            # The Weyl estimates fell short of ``count``: at the mode
            # density the inertia counts have measured below ``lo``, size
            # one more slice to reach the padded ``count``.
            hi = lo * count * (1.0 + SLICE_PAD) / max(below_lo, 1)
        # Only the count is kept.  Holding this factorisation through the
        # slice's solve, next to the midpoint's, raised the peak of an
        # L-shape h=0.01, 450-mode solve (fresh process, 2 cores) from
        # 150-152 to 211-214 MB, resident memory climbing over 3 slices.
        below_hi = _factor_shifted(K, M, hi)[1]
        for start, theta, rel_x, x, mx in _finish_slice(
                K, M, dinv, lo, hi, below_lo, below_hi, count,
                rng.standard_normal(n), True):
            take = len(theta)
            vals[start:start + take] = theta
            rel[start:start + take] = rel_x
            ortho_dev = max(ortho_dev, np.max(np.abs(x.T @ mx - np.eye(take))))
            if prev is not None:
                ortho_dev = max(ortho_dev, np.max(np.abs(prev.T @ mx)))
            prev = x
            # Held through the next slice's solve, M x raised that peak
            # (above) by 6-14 MB.
            del mx
        lo, below_lo, slices = hi, below_hi, slices + 1
    if np.any(vals <= 0):
        raise EigensolveError("nonpositive discrete eigenvalue; broken operators")

    n_ok = complete_below(vals, mesh.area, mesh.perimeter)
    trusted = vals[:n_ok]

    # Discrete eigenvalues drift above the truth like c * lambda^2 * h^2;
    # the drift rate is read off the Weyl deviation of the trusted prefix
    # and turned into a lower usable edge for heat-trace fit windows: below
    # it the accumulated trace bias ~ c h^2 |Omega| / (2 pi t^2) swamps the
    # constant coefficient.
    k = np.arange(1, n_ok + 1, dtype=float)
    d = trusted / _weyl_lambda_estimate(k, mesh.area, mesh.perimeter) - 1.0
    upper = slice(n_ok // 2, n_ok)
    drift_c = float(np.median(d[upper] / (trusted[upper] * mesh.h ** 2)))
    drift_c = max(drift_c, 0.0)
    bias_budget = 0.1 / 6.0  # one tenth of the smooth constant chi/6
    t_min_bias = math.sqrt(drift_c * mesh.h ** 2 * mesh.area
                           / (2.0 * PI * bias_budget)) if drift_c > 0 else 0.0

    return Spectrum(
        trusted, cutoff=float(trusted[-1]), source="fem",
        domain_label=mesh.domain_label,
        area_hint=mesh.area, perimeter_hint=mesh.perimeter,
        meta={"h": mesh.h, "chord_error": mesh.chord_error,
              "computed_modes": count, "trusted_modes": n_ok,
              "slices": slices, "inertia_shift": lo, "inertia_count": below_lo,
              "max_residual": float(rel.max()),
              "ortho_deviation": float(ortho_dev),
              "drift_rate": drift_c,
              "t_min_bias": t_min_bias})


def fem_spectrum(domain, h, count, seed=0):
    """Convenience pipeline: mesh, assemble, solve."""
    mesh = mesh_domain(domain, h)
    ops = assemble(mesh)
    return solve_lowest(ops, count, seed=seed)
