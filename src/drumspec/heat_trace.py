"""Heat-trace evaluation and the theoretical coefficients of its expansion.

The trace h(t) = sum(exp(-lambda_k t)) is evaluated from a finite spectrum
with an explicit truncation tail bound.  The constant coefficient of the
short-time expansion is computed from the Euler characteristic and the
corner angles.  Summing the curvature integral and the per-corner defects
instead gives the same value exactly when the domain satisfies
Gauss-Bonnet, so its residual is checked once; a violation signals a bug in
the geometry layer, not a numerical tolerance issue.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, EmptySpectrumError
from .geometry import gauss_bonnet_check
from .reporting import read_table, write_table

PI = math.pi

DEFAULT_TAIL_SAFETY = 2.0

# Largest a0 shift a Gauss-Bonnet residual may cause: the curvature route to
# a0 exceeds the Euler route by exactly the residual / (12 pi).
A0_ROUTE_TOL = 1e-10


def corner_term(theta):
    """Purely local trace contribution of a corner with opening angle theta.

    Positive for convex corners (theta < pi), zero at a straight junction,
    negative for reflex corners.
    """
    if not 0.0 < theta < 2.0 * PI:
        raise ValueError(
            f"corner angle {theta!r} outside (0, 2*pi): cusps and slits "
            "are unsupported")
    return (PI ** 2 - theta ** 2) / (24.0 * PI * theta)


def corner_term_with_turn(theta):
    """(pi^2 + theta^2) / (24 pi theta): corner defect plus the turn
    theta/(12 pi) it removes from the curvature integral."""
    if not 0.0 < theta < 2.0 * PI:
        raise ValueError(f"corner angle {theta!r} outside (0, 2*pi)")
    return (PI ** 2 + theta ** 2) / (24.0 * PI * theta)


@dataclass
class TheoreticalCoefficients:
    """Expansion coefficients computed directly from geometry."""

    a_minus1: float
    a_minus_half: float
    a0: float
    corner_thetas: list = field(default_factory=list)
    chi: int = 1

    @property
    def n_corners(self):
        return len(self.corner_thetas)


def theoretical_coefficients(domain):
    """a_{-1}, a_{-1/2} from area and perimeter; a0 from the Euler
    characteristic and the corner angles.

    The curvature route -- the integral of the geodesic curvature of the
    smooth boundary over 12 pi plus each corner's local defect -- differs
    from this a0 by exactly the Gauss-Bonnet residual (integral of k minus
    sum(theta_j) - pi (2 chi - n)) over 12 pi, so that residual is the one
    check, and a violation raises ConsistencyError.
    """
    residual = gauss_bonnet_check(domain)
    if residual > 12.0 * PI * A0_ROUTE_TOL:
        raise ConsistencyError(
            f"Gauss-Bonnet residual {residual!r} moves a0 by more than "
            f"{A0_ROUTE_TOL:g} (domain {domain.label!r}); geometry invariants "
            "are broken")
    thetas = [c.theta for c in domain.corners]
    return TheoreticalCoefficients(
        a_minus1=domain.area / (4.0 * PI),
        a_minus_half=-domain.perimeter / (8.0 * math.sqrt(PI)),
        a0=domain.chi / 6.0 + sum(corner_term_with_turn(t) - 1.0 / 12.0
                                  for t in thetas),
        corner_thetas=thetas,
        chi=domain.chi,
    )


@dataclass
class TraceSamples:
    """Partial heat-trace sums on a t-grid with truncation tail bounds."""

    grid: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray
    cutoff: float

    def __len__(self):
        return len(self.grid)


def evaluate_trace(spectrum, grid):
    """Partial sums sum(exp(-lambda t)) over the spectrum, per grid point.

    The truncation tail is estimated from the Weyl eigenvalue density:
    integral over (cutoff, inf) of exp(-lambda t) |Omega|/(4 pi) d lambda
    = |Omega| exp(-cutoff t) / (4 pi t), inflated by DEFAULT_TAIL_SAFETY
    because the density estimate is asymptotic, not rigorous.  The area
    is ``Spectrum.area_estimate``.  The bound is reported however large it
    is; no grid point is rejected.

    Each grid point's terms are summed exactly (fsum), so the results do
    not depend on the order or chunking of the summation.
    """
    t = np.asarray(grid, dtype=float)
    if t.size == 0 or np.any(t <= 0):
        raise ValueError("grid must be non-empty and positive")
    if np.any(np.diff(t) <= 0):
        raise ValueError("grid must be strictly ascending")
    lam = spectrum.eigenvalues
    if lam.size == 0:
        raise EmptySpectrumError("cannot evaluate the trace of an empty spectrum")

    # A memoryview spares fsum (correctly rounded whatever it iterates) a list.
    values = np.array([math.fsum(memoryview(np.exp(-(tj * lam)))) for tj in t])
    area = spectrum.area_estimate
    tails = DEFAULT_TAIL_SAFETY * area * np.exp(-spectrum.cutoff * t) / (4.0 * PI * t)
    # Positive by definition; keep it so when exp underflows at huge cutoff*t.
    tails = np.maximum(tails, np.finfo(float).tiny)
    return TraceSamples(grid=t, values=values, tail_bounds=tails,
                        cutoff=spectrum.cutoff)


def wedge_trace(area, side_length, theta, t):
    """Heat trace of a finite wedge of opening angle theta.

    area and side_length are the wedge's area and the total length of its
    two straight sides.  The exponentially small remainder O(e^{-c/t}) is
    omitted; callers needing an error bar may use the conservative bound
    exp(-diam^2 / (16 t)) with diam the wedge diameter.
    """
    if not 0.0 < theta < 2.0 * PI:
        raise ValueError(f"wedge opening angle {theta!r} outside (0, 2*pi)")
    if t <= 0:
        raise ValueError("t must be positive")
    return (area / (4.0 * PI * t)
            - side_length / (8.0 * math.sqrt(PI * t))
            + corner_term(theta))


# ---------------------------------------------------------------------------
# Trace sample files: a reporting table (see ``reporting``) with the header
# line 'cutoff safety_factor' and the rows t,h,tail_bound.

TRACE_COLUMNS = ("t", "h", "tail_bound")


def write_trace(samples, path):
    header = [{"cutoff": f"{samples.cutoff:.17g}",
               "safety_factor": f"{DEFAULT_TAIL_SAFETY:.17g}"}]
    rows = zip(samples.grid.tolist(), samples.values.tolist(),
               samples.tail_bounds.tolist())
    write_table(path, header, TRACE_COLUMNS, "{:.17g},{:.17g},{:.17g}", rows)


def read_trace(path):
    header, rows = read_table(path, TRACE_COLUMNS)
    if "cutoff" not in header or not len(rows):
        raise ValueError(f"{path}: not a trace sample file")
    return TraceSamples(grid=rows[:, 0], values=rows[:, 1],
                        tail_bounds=rows[:, 2], cutoff=float(header["cutoff"]))
