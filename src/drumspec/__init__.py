"""Dirichlet spectra of planar domains, heat-trace asymptotics, and
spectral corner detection."""

__version__ = "0.1.0"

from .geometry import (
    ArcSegment,
    BoundaryLoop,
    Corner,
    CurveSegment,
    DomainSpec,
    LineSegment,
    gauss_bonnet_check,
    load_domain,
    save_domain,
)
from .analytic_spectra import (
    Spectrum,
    bessel_j_zeros,
    disk_spectrum,
    equilateral_triangle_spectrum,
    read_spectrum,
    rectangle_spectrum,
    sector_spectrum,
    weyl_ratio,
    write_spectrum,
)
from .heat_trace import (
    TheoreticalCoefficients,
    TraceSamples,
    corner_term,
    evaluate_trace,
    theoretical_coefficients,
    wedge_trace,
)
from .asymptotic_fit import AsymptoticFit, choose_window, fit_expansion, fit_report
from .classifier import (
    Verdict,
    a0_simply_connected,
    classify,
    f_corner,
    isospectral_compare,
)
from .fem_solver import Mesh, assemble, mesh_domain, solve_lowest
