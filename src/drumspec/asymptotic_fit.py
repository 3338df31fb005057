"""Windowed weighted least squares for the heat-trace expansion.

The model is h(t) ~ a_{-1}/t + a_{-1/2}/sqrt(t) + a_0 + a_{1/2} sqrt(t);
the sqrt(t) column is a nuisance term soaking up the leading remainder of
the expansion so that a_0 stays unbiased.  Samples are weighted by 1/h(t)^2
(relative error): h spans several orders of magnitude across a useful
window and an unweighted fit would see only the smallest t.

``TERMS`` is the one place the basis is defined: the fit's columns, the
report's coefficients and the plotted model curve (``model``) all come
from it, and so does ``NEXT_TERM``, the column whose addition measures
u_sys: the part of a0's error that the statistical sigma misses.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InsufficientSpectrumError

PI = math.pi

DEFAULT_KAPPA = 12.0
DEFAULT_GRID_POINTS = 60
MIN_FIT_POINTS = 10
CONDITION_LIMIT = 1e12

# Minimum t_max / t_min span for a usable window.
MIN_WINDOW_SPAN = 4.0

# Fraction of a FEM spectrum's t_min_bias kept as the window floor.
FEM_FLOOR_SCALE = 1.0 / 3.0

# The expansion's basis in report order: term name -> column as a function
# of t.  The blind fit uses BLIND_TERMS; a_pollution (1/t^2) models the
# eigenvalue drift of discrete (FEM) spectra; NEXT_TERM only widens the
# basis for u_sys and is never reported.
TERMS = {
    "a_minus1": lambda t: 1.0 / t,
    "a_minus_half": lambda t: 1.0 / np.sqrt(t),
    "a0": np.ones_like,
    "a_half": np.sqrt,
    "a_one": lambda t: t,
    "a_pollution": lambda t: 1.0 / t ** 2,
}
BLIND_TERMS = ("a_minus1", "a_minus_half", "a0", "a_half")
NEXT_TERM = "a_one"


def model(coef, t):
    """The expansion sum(c * TERMS[name](t)) over ``coef``'s terms."""
    return sum(c * TERMS[name](t) for name, c in coef.items())


def choose_window(spectrum):
    """The fit window's geometric grid from t_min = kappa/cutoff to t_max.

    t_min = kappa/cutoff, kappa = DEFAULT_KAPPA, keeps the truncation tail
    below ~e^-kappa of h.
    t_max = min(0.5/lambda_1, 0.05 * |Omega|_est) stops before the trace is
    reduced to a couple of decaying modes, with |Omega|_est = 4 pi K / cutoff
    unless the spectrum carries an exact area hint; it is floored so the
    constant term is at least ~1e-3 of h(t_max).  Both bounds scale like
    length^2, so dilating the domain rescales the window and leaves every
    dimensionless fit output unchanged.  The grid has DEFAULT_GRID_POINTS
    points; its ends are t_min and t_max.

    Discrete (FEM) spectra carry a usable-window floor ``t_min_bias`` below
    which their systematic eigenvalue drift dominates the trace (see
    fem_solver).  Every fit of a FEM spectrum carries the 1/t^2 pollution
    column that models that drift, so the floor is relaxed to
    FEM_FLOOR_SCALE * t_min_bias here, the one place the policy lives.
    When that floor leaves no window, no higher cutoff helps: the error
    carries required_cutoff = inf and asks for a finer mesh instead.
    """
    lam1 = spectrum.lambda1
    cutoff = spectrum.cutoff
    area_est = spectrum.area_hint
    if area_est is None:
        area_est = 4.0 * PI * len(spectrum) / cutoff
    drift_floor = FEM_FLOOR_SCALE * float(spectrum.meta.get("t_min_bias", 0.0))
    t_min = max(DEFAULT_KAPPA / cutoff, drift_floor)
    t_max = min(0.5 / lam1, 0.05 * area_est)
    # Keep the a0 term (nominal size 1/6) above 1e-3 * h(t_max) ~ 1e-3 * A/(4 pi t).
    t_floor = area_est * 6.0e-3 / (4.0 * PI)
    t_max = max(t_max, t_floor)
    if t_max < MIN_WINDOW_SPAN * t_min:
        if drift_floor > DEFAULT_KAPPA / cutoff:
            raise InsufficientSpectrumError(
                f"the discretisation drift floor sets t_min={t_min:g} "
                f"(t_min_bias/3), which leaves no window below "
                f"t_max={t_max:g}; refine the mesh size h",
                required_cutoff=math.inf)
        required = MIN_WINDOW_SPAN * DEFAULT_KAPPA / t_max
        raise InsufficientSpectrumError(
            f"spectrum cutoff {cutoff:g} gives t_min={t_min:g} but the window "
            f"must end by t_max={t_max:g}; extend the spectrum (need cutoff "
            f">= {required:g})",
            required_cutoff=required)
    return np.geomspace(t_min, t_max, DEFAULT_GRID_POINTS)


@dataclass
class AsymptoticFit:
    """Fitted coefficients and their statistical uncertainties, keyed by
    term name in TERMS order (pinned terms have sigma 0), with the window
    statistics.  ``u_sys`` = |a0 fitted with NEXT_TERM added - a0|, on the
    same samples."""

    coef: dict
    sigma: dict
    u_sys: float
    t_min: float
    t_max: float
    n_points: int
    max_rel_residual: float
    condition: float
    mode: str


def _weighted_lstsq(columns, target, weights):
    """Column-scaled weighted least squares.

    Returns coefficients, their standard errors (residual-scaled covariance
    of the normal equations), the max weighted residual, and the condition
    number of the scaled normal equations.
    """
    A = np.column_stack(columns) * weights[:, None]
    y = target * weights
    scale = np.linalg.norm(A, axis=0)
    if np.any(scale == 0):
        raise FitError("degenerate basis column in fit window")
    As = A / scale[None, :]
    cond = np.linalg.cond(As) ** 2
    if cond > CONDITION_LIMIT:
        raise FitError(
            f"normal equations condition {cond:.3g} exceeds {CONDITION_LIMIT:g}; "
            "widen the fit window")
    coef_s, _, _, _ = np.linalg.lstsq(As, y, rcond=None)
    resid = As @ coef_s - y
    dof = max(len(y) - len(coef_s), 1)
    s2 = float(resid @ resid) / dof
    cov_s = np.linalg.inv(As.T @ As) * s2
    coef = coef_s / scale
    sig = np.sqrt(np.diag(cov_s)) / scale
    return coef, sig, float(np.max(np.abs(resid))), cond


def fit_expansion(samples, area=None, perimeter=None, pollution_term=False):
    """Extract expansion coefficients from trace samples.

    The columns are TERMS' functions of the sample grid.  Without geometry
    the fit is blind (the classifier's case: the spectrum is the only input)
    and fits all of BLIND_TERMS.  Given the exact ``area`` and ``perimeter``
    it is assisted: a_{-1} and a_{-1/2} are pinned to them and only the
    constant and sqrt(t) terms are fitted, for validation against known
    geometry; one of the two alone is an error.  Either mode needs at least
    MIN_FIT_POINTS samples.

    ``pollution_term`` adds the a_pollution (1/t^2) column modelling the
    systematic upward eigenvalue drift of discrete (finite element)
    spectra, whose leading trace contamination is exactly of that shape;
    callers enable it for source == "fem", whose window floor choose_window
    relaxes on that understanding.  Exact spectra leave its coefficient at
    noise level.

    Both modes refit the same samples with NEXT_TERM added, for ``u_sys``.
    """
    t = samples.grid
    h = samples.values
    if len(t) < MIN_FIT_POINTS:
        raise FitError(f"need at least {MIN_FIT_POINTS} samples, got {len(t)}")
    if np.any(samples.tail_bounds > 0.01 * h):
        worst = float(np.max(samples.tail_bounds / h))
        raise FitError(
            f"truncation tail reaches {worst:.2g} of h inside the window; "
            "raise the spectrum cutoff or shrink t_min")
    weights = 1.0 / h

    if (area is None) != (perimeter is None):
        raise FitError("an assisted fit needs both area and perimeter")
    target, pinned, mode = h, {}, "blind"
    if area is not None:
        mode = "assisted"
        pinned_m1 = area / (4.0 * PI)
        pinned_mh = -perimeter / (8.0 * math.sqrt(PI))
        target = h - pinned_m1 / t - pinned_mh / np.sqrt(t)
        pinned = {"a_minus1": pinned_m1, "a_minus_half": pinned_mh}
    names = [n for n in BLIND_TERMS if n not in pinned]
    if pollution_term:
        names.append("a_pollution")
    columns = [TERMS[n](t) for n in names]
    values, sigmas, max_res, cond = _weighted_lstsq(columns, target, weights)
    wider, _, _, _ = _weighted_lstsq(columns + [TERMS[NEXT_TERM](t)], target,
                                     weights)
    k = names.index("a0")
    # The pinned terms lead BLIND_TERMS, so both dicts are in TERMS order.
    return AsymptoticFit(
        coef={**pinned, **dict(zip(names, values))},
        sigma={**dict.fromkeys(pinned, 0.0), **dict(zip(names, sigmas))},
        u_sys=float(abs(wider[k] - values[k])),
        t_min=float(t[0]), t_max=float(t[-1]), n_points=len(t),
        max_rel_residual=max_res, condition=cond, mode=mode)


def implied_area(fit):
    """Area implied by the fitted leading coefficient."""
    return 4.0 * PI * fit.coef["a_minus1"]


def implied_perimeter(fit):
    """Perimeter implied by the fitted boundary coefficient."""
    return -8.0 * math.sqrt(PI) * fit.coef["a_minus_half"]


def fit_report(fit, theoretical=None, inputs=None, verdict=None):
    """Structured report: fitted vs theoretical values with z-scores.

    Returns a plain nested dict; serialize with reporting.dump_report.
    The uncertainties are statistical (residual-scaled normal equations)
    and exclude truncation bias, which is stated in the report itself.
    """
    doc = {"mode": fit.mode, "t_min": fit.t_min, "t_max": fit.t_max,
           "n_points": fit.n_points}

    def add_terms(names):
        for name in names:
            doc[name] = fit.coef[name]
            doc[f"{name}_sigma"] = fit.sigma[name]

    add_terms(BLIND_TERMS)
    doc.update(max_rel_residual=fit.max_rel_residual,
               condition=fit.condition,
               implied_area=implied_area(fit),
               implied_perimeter=implied_perimeter(fit),
               uncertainty_note="statistical, excludes truncation bias")
    add_terms([n for n in fit.coef if n not in BLIND_TERMS])
    report = {"report_version": 1, "fit": doc}
    if inputs:
        report["inputs"] = dict(inputs)
    if theoretical is not None:
        comp = {key: getattr(theoretical, key) for key in
                ("a_minus1", "a_minus_half", "a0", "chi", "n_corners")}
        for key in ("a_minus1", "a_minus_half", "a0"):
            sig = fit.sigma[key]
            comp[f"z_{key}"] = (doc[key] - comp[key]) / sig if sig > 0 else 0.0
        report["theoretical"] = comp
    if verdict is not None:
        report["verdict"] = verdict
    return report
