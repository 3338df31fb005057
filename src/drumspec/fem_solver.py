"""Graded-mesh P1 finite elements for Dirichlet eigenvalues.

Meshing is a force-equilibrium Delaunay scheme: boundary points are walked
at the local target size and held fixed, interior points start on a hex
lattice (plus radial fans inside reentrant-corner grading zones, where the
target size falls like r^GRADING towards the corner) and relax
under repulsion-only edge springs.  The springs follow the edges of the
last Delaunay triangulation, which is redone only once some interior point
has moved RETRI_MOVE = 0.3 local target sizes from where it saw the point
(Persson & Strang 2004), and once more at the end.  Stale springs still
repel, so the relaxation needs no fresh connectivity at every step: against
a 0.1 trigger, 0.3 cuts the Delaunay calls per mesh from 19-22 to 8-9 on
the L-shape at h=0.01 and the GWW drums at h=0.07 and keeps every minimum
angle within 0.5 deg (gww-a at h=0.02 rises from 18.8 to 23.6 deg).  Flat
slivers along the boundary are dropped from the final triangles.  Curved
segments are resolved by chords whose sagitta stays below h^2/diam.

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
no basis wider than one slice is kept.  The residual gate needs no
factorisation of M: for P1 triangles diag(M)^-1 M has its eigenvalues in
[1/2, 2] (Wathen 1987), so sqrt(2) times the residual in the diag(M)^-1
norm bounds it in the M^-1 norm.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh as dense_eigh
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.spatial import Delaunay, cKDTree

from .analytic_spectra import Spectrum
from .errors import AssemblyError, EigensolveError, MeshError
from .geometry import _loops_contain, detect_corners

PI = math.pi

# Exponent of the target size h * (r/R0)^GRADING near reentrant corners.
GRADING = 0.5
RELAX_ITERS = 40
RELAX_STEP = 0.2
# Retriangulate once a point moves this many local sizes.  0.3 rather
# than 0.1 halves the Qhull calls and raised the 1st-percentile angle of
# every non-convex test domain; 0.5 let a moved L-shape fall to 20.5 deg.
RETRI_MOVE = 0.3
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
    # mesh_domain records min_angle_deg, delaunay_calls, and last_max_move_h:
    # the largest interior move of the last relaxation iteration over h.
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

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    mesh: Mesh


def _size_function(h, diam, reentrant_vertices):
    """Target edge length field: h away from reentrant corners, graded like
    h * (r/R0)^GRADING inside a zone of radius R0 = diam/4 around each."""
    zone = diam / 4.0
    floor_ratio = h / diam
    verts = np.asarray(reentrant_vertices, dtype=float).reshape(-1, 2)

    def size(points):
        pts = np.atleast_2d(points)
        s = np.full(len(pts), h)
        for v in verts:
            r = np.linalg.norm(pts - v[None, :], axis=1)
            ratio = np.clip(r / zone, floor_ratio, 1.0)
            s = np.minimum(s, h * ratio ** GRADING)
        return s

    return size


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


def _corner_fans(domain, corners, size_fn, h, diam):
    """Deterministic graded point fans inside reentrant-corner zones."""
    zone = diam / 4.0
    size_min = h * (h / diam) ** GRADING
    fans = []
    for c in corners:
        if c.theta <= PI:
            continue
        loop = domain.loops[c.loop_index]
        w = loop.segments[c.segment_indices[1]].tangent_in()
        phi0 = math.atan2(w[1], w[0])
        r = 1.6 * size_min
        while r < zone:
            s = float(size_fn(c.vertex + r * np.array([math.cos(phi0), math.sin(phi0)]))[0])
            n_phi = max(1, int(math.floor(c.theta * r / s)))
            pad = 0.6 * s / r
            phis = phi0 + pad + (c.theta - 2 * pad) * (np.arange(n_phi) + 0.5) / n_phi
            ring = c.vertex[None, :] + r * np.column_stack([np.cos(phis), np.sin(phis)])
            fans.append(ring)
            r += s
    if not fans:
        return np.empty((0, 2))
    return np.concatenate(fans, axis=0)


def mesh_domain(domain, h):
    """Triangulate a DomainSpec with target size h, graded towards reentrant
    corners.

    Raises MeshError when the requested size cannot resolve the geometry
    (e.g. a segment shorter than a couple of steps), naming the offender.
    """
    if h <= 0:
        raise MeshError("target size h must be positive")
    diam = domain.diameter()
    if h > diam / 4.0:
        raise MeshError(f"h={h:g} too coarse for a domain of diameter {diam:g}")
    corners = detect_corners(domain)
    reentrant = [c.vertex for c in corners if c.theta > PI]
    size_fn = _size_function(h, diam, reentrant)
    sagitta = h * h / diam

    def spacing_scalar(p):
        return float(size_fn(p)[0])

    boundary_loops = []
    boundary_pts = []
    offset = 0
    for li, loop in enumerate(domain.loops):
        pieces = []
        for si, seg in enumerate(loop.segments):
            pts = seg.walk(spacing_scalar, sagitta=sagitta)
            if seg.length() < 2.0 * spacing_scalar(seg.start) / 3.0:
                raise MeshError(
                    f"segment {si} of loop {li} (length {seg.length():g}) is "
                    f"too short for h={h:g}")
            pieces.append(pts)
        loop_pts = np.concatenate(pieces, axis=0)
        boundary_pts.append(loop_pts)
        boundary_loops.append(np.arange(offset, offset + len(loop_pts)))
        offset += len(loop_pts)
    boundary = np.concatenate(boundary_pts, axis=0)
    n_bdry = len(boundary)
    poly_loops = boundary_pts  # discrete polygons used for containment

    # Interior seeding: hex lattice where the size field is flat, radial
    # fans inside grading zones.
    lo = boundary.min(axis=0)
    hi = boundary.max(axis=0)
    lattice = _hex_lattice(lo, hi, h)
    fans = _corner_fans(domain, corners, size_fn, h, diam)
    tree = cKDTree(boundary)

    def _filter_seeds(pts):
        """The seeds inside the domain and over 0.55 local sizes from its
        boundary."""
        if not len(pts):
            return np.empty((0, 2))
        pts = pts[_loops_contain(poly_loops, pts)]
        if not len(pts):
            return np.empty((0, 2))
        d_bnd, _ = tree.query(pts)
        return pts[d_bnd > 0.55 * size_fn(pts)]

    # Lattice points inside grading zones are dropped: the fans own them.
    if len(lattice):
        lattice = lattice[size_fn(lattice) > 0.95 * h]
    interior = np.concatenate([_filter_seeds(lattice), _filter_seeds(fans)], axis=0)

    points = np.concatenate([boundary, interior], axis=0)
    if len(points) < 6:
        raise MeshError("too few points; decrease h")

    # Force-equilibrium relaxation of interior points.  The edge list is
    # rebuilt only once a free point has moved RETRI_MOVE local sizes away
    # from where the last triangulation saw it (Persson & Strang 2004).
    free = np.zeros(len(points), dtype=bool)
    free[n_bdry:] = True
    anchor = None
    retriangulations = 0
    for _ in range(RELAX_ITERS):
        if anchor is None or np.any(np.linalg.norm(
                points[free] - anchor, axis=1) > anchor_move):
            simplices = _triangulate(points, poly_loops)
            retriangulations += 1
            e0, e1 = np.divmod(np.unique(_edge_keys(
                simplices, np.roll(simplices, -1, axis=1), len(points))),
                len(points))
            anchor = points[free]
            anchor_move = RETRI_MOVE * size_fn(anchor)
        vec = points[e1] - points[e0]
        length = np.linalg.norm(vec, axis=1)
        mid = 0.5 * (points[e0] + points[e1])
        L0 = SPRING_SCALE * size_fn(mid)
        fmag = np.maximum(L0 - length, 0.0) / np.maximum(length, 1e-30)
        ends = np.concatenate([e0, e1])
        pull = np.concatenate([-fmag[:, None] * vec, fmag[:, None] * vec])
        force = np.column_stack([np.bincount(ends, pull[:, k], len(points))
                                 for k in range(2)])
        prev = points.copy()
        points[free] += RELAX_STEP * force[free]
        escaped = np.nonzero(free)[0][~_loops_contain(poly_loops, points[free])]
        points[escaped] = prev[escaped]
    # Every mesh runs all RELAX_ITERS: the largest move of the last one is
    # still 0.0066-0.044 h on the square, disk, L-shape and GWW drums.
    max_move = np.max(np.linalg.norm(points[free] - prev[free], axis=1)) \
        if free.any() else 0.0

    simplices = _triangulate(points, poly_loops)
    p = points[simplices]
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
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
                domain_label=domain.label, area=domain.area(),
                perimeter=domain.perimeter(), boundary_loops=loops_idx,
                meta={"min_angle_deg": _min_angles_deg(vertices, triangles).min(),
                      "delaunay_calls": retriangulations + 1,
                      "last_max_move_h": max_move / h})
    _check_conformity(mesh)
    return mesh


def _triangulate(points, poly_loops):
    """Delaunay triangles of points whose centroids lie in the domain."""
    simplices = Delaunay(points).simplices
    return simplices[_loops_contain(poly_loops, points[simplices].mean(axis=1))]


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
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    M = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
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
    mid = 0.5 * (lo + hi)
    lu, _ = _factor_shifted(K, M, mid)
    op_inv = LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    try:
        vals, vecs = eigsh(K, k=min(modes + SLICE_EXTRA, K.shape[0] - 1), M=M,
                           sigma=mid, v0=v0, OPinv=op_inv, maxiter=2000)
    except Exception as exc:
        raise EigensolveError(f"eigensolver failed: {exc}") from exc
    inside = np.nonzero((vals >= lo) & (vals < hi))[0]
    if len(inside) != modes:
        raise EigensolveError(
            f"slice [{lo:g}, {hi:g}) holds {modes} eigenvalues by inertia, "
            f"but the eigensolver found {len(inside)}")
    return vecs[:, inside]


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

    Each slice is finished where it is solved, and its vectors are dropped
    before the next slice: a Rayleigh-Ritz step on the slice alone, then
    per-mode residuals r = K x - lambda M x.  ``max_residual`` is the
    largest certified bound sqrt(2) |r|_{diag(M)^-1} / (max(lambda, 1)
    |x|_M) on the lambda-relative residual in the M^-1 norm; it holds
    because diag(M)^-1 M has its eigenvalues in [1/2, 2] for P1 triangles
    (Wathen, IMA J. Numer. Anal. 7, 1987), and it must not exceed
    RESIDUAL_TOL.  ``ortho_deviation`` is the largest deviation of the
    M-Gram matrix from the identity over pairs of modes within one slice
    or in adjacent slices.  The returned Spectrum is truncated and its
    cutoff set by the Weyl pollution rule, so downstream heat-trace tails
    only see trusted modes.
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
        # Only the count is kept: a factorisation held through the slice's
        # solve makes resident memory climb from slice to slice.
        below_hi = _factor_shifted(K, M, hi)[1]
        v0 = rng.standard_normal(n)
        if below_hi > below_lo:
            x = _solve_slice(K, M, lo, hi, below_hi - below_lo, v0)
            take = min(below_hi, count) - below_lo
            # ARPACK residuals in the original pencil grow like lambda * eps
            # after shift-invert; a Rayleigh-Ritz step on the slice's own
            # vectors restores them to projection level.
            theta, s = dense_eigh(x.T @ (K @ x), x.T @ (M @ x))
            x, theta = x @ s[:, :take], theta[:take]
            mx = M @ x
            r = K @ x - mx * theta[None, :]
            # Gate per mode relative to lambda: |r|_{M^-1} bounds the
            # absolute eigenvalue error, and double-precision Lanczos cannot
            # push it below ~lambda^2*eps.  sqrt(2) |r|_{diag(M)^-1} bounds
            # |r|_{M^-1} (Wathen 1987).
            res = np.sqrt(2.0 * (dinv @ (r * r)))
            xnorm = np.sqrt(np.einsum("ij,ij->j", x, mx))
            vals[below_lo:below_lo + take] = theta
            rel[below_lo:below_lo + take] = \
                res / (np.maximum(theta, 1.0) * xnorm)
            ortho_dev = max(ortho_dev, np.max(np.abs(x.T @ mx - np.eye(take))))
            if prev is not None:
                ortho_dev = max(ortho_dev, np.max(np.abs(prev.T @ mx)))
            prev = x
        lo, below_lo, slices = hi, below_hi, slices + 1
    if np.any(vals <= 0):
        raise EigensolveError("nonpositive discrete eigenvalue; broken operators")
    if np.any(rel > RESIDUAL_TOL):
        raise EigensolveError(
            f"eigensolver residual {rel.max():.3g} exceeds {RESIDUAL_TOL:g} "
            f"after {count} modes")

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
        meta={"h": mesh.h, "grading": GRADING,
              "chord_error": mesh.chord_error,
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
