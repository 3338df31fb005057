"""Windowed weighted least squares for the heat-trace expansion.

The model is h(t) ~ a_{-1}/t + a_{-1/2}/sqrt(t) + a_0 + a_{1/2} sqrt(t);
the sqrt(t) column is a nuisance term soaking up the leading remainder of
the expansion so that a_0 stays unbiased.  Samples are weighted by 1/h(t)^2
(relative error): h spans several orders of magnitude across a useful
window and an unweighted fit would see only the smallest t.
"""

import math
from dataclasses import dataclass, field

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


def choose_window(spectrum, kappa=DEFAULT_KAPPA):
    """Fit window [kappa/cutoff, t_max] with a geometric grid.

    t_min = kappa/cutoff keeps the truncation tail below ~e^-kappa of h.
    t_max = min(0.5/lambda_1, 0.05 * |Omega|_est) stops before the trace is
    reduced to a couple of decaying modes, with |Omega|_est = 4 pi K / cutoff
    unless the spectrum carries an exact area hint; it is floored so the
    constant term is at least ~1e-3 of h(t_max).  Both bounds scale like
    length^2, so dilating the domain rescales the window and leaves every
    dimensionless fit output unchanged.  The grid has DEFAULT_GRID_POINTS
    points.

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
    t_min = max(kappa / cutoff, drift_floor)
    t_max = min(0.5 / lam1, 0.05 * area_est)
    # Keep the a0 term (nominal size 1/6) above 1e-3 * h(t_max) ~ 1e-3 * A/(4 pi t).
    t_floor = area_est * 6.0e-3 / (4.0 * PI)
    t_max = max(t_max, t_floor)
    if t_max < MIN_WINDOW_SPAN * t_min:
        if drift_floor > kappa / cutoff:
            raise InsufficientSpectrumError(
                f"the discretisation drift floor sets t_min={t_min:g} "
                f"(t_min_bias/3), which leaves no window below "
                f"t_max={t_max:g}; refine the mesh size h",
                required_cutoff=math.inf)
        required = MIN_WINDOW_SPAN * kappa / t_max
        raise InsufficientSpectrumError(
            f"spectrum cutoff {cutoff:g} gives t_min={t_min:g} but the window "
            f"must end by t_max={t_max:g}; extend the spectrum (need cutoff "
            f">= {required:g})",
            required_cutoff=required)
    grid = np.geomspace(t_min, t_max, DEFAULT_GRID_POINTS)
    return t_min, t_max, grid


@dataclass
class AsymptoticFit:
    """Fitted expansion coefficients with statistical uncertainties."""

    a_minus1: float
    a_minus_half: float
    a0: float
    a_half: float
    sigma_a_minus1: float
    sigma_a_minus_half: float
    sigma_a0: float
    sigma_a_half: float
    t_min: float
    t_max: float
    n_points: int
    max_rel_residual: float
    condition: float
    mode: str = "blind"
    a1: float = 0.0
    sigma_a1: float = 0.0
    a_pollution: float = 0.0
    sigma_a_pollution: float = 0.0
    pollution_term: bool = False

    def coefficients(self):
        return {"a_minus1": self.a_minus1, "a_minus_half": self.a_minus_half,
                "a0": self.a0, "a_half": self.a_half}

    def sigmas(self):
        return {"a_minus1": self.sigma_a_minus1,
                "a_minus_half": self.sigma_a_minus_half,
                "a0": self.sigma_a0, "a_half": self.sigma_a_half}


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


def fit_expansion(samples, mode="blind", area=None, perimeter=None,
                  include_t_term=False, pollution_term=False):
    """Extract expansion coefficients from trace samples.

    Blind mode (the classifier default: the spectrum is the only input) fits
    all four basis terms.  Assisted mode pins a_{-1} and a_{-1/2} to the
    supplied exact area and perimeter and fits only the constant and sqrt(t)
    terms; it exists for validation against known geometry.  Either mode
    needs at least MIN_FIT_POINTS samples.

    Two documented extra columns:
      * ``include_t_term`` adds a t column for sensitivity studies; off by
        default because it destabilizes a0 at realistic cutoffs.
      * ``pollution_term`` adds a 1/t^2 column modelling the systematic
        upward eigenvalue drift of discrete (finite element) spectra, whose
        leading trace contamination is exactly of that shape; callers
        enable it for source == "fem", whose window floor choose_window
        relaxes on that understanding.  Exact spectra leave its coefficient
        at noise level.
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

    if mode == "assisted":
        if area is None or perimeter is None:
            raise FitError("assisted mode needs area and perimeter")
        pinned_m1 = area / (4.0 * PI)
        pinned_mh = -perimeter / (8.0 * math.sqrt(PI))
        target = h - pinned_m1 / t - pinned_mh / np.sqrt(t)
        columns = [np.ones_like(t), np.sqrt(t)]
    elif mode == "blind":
        target = h
        columns = [1.0 / t, 1.0 / np.sqrt(t), np.ones_like(t), np.sqrt(t)]
    else:
        raise FitError(f"unknown fit mode {mode!r}")
    n_base = len(columns)
    if include_t_term:
        columns.append(t)
    if pollution_term:
        columns.append(1.0 / t ** 2)
    coef, sig, max_res, cond = _weighted_lstsq(columns, target, weights)

    idx_t = n_base if include_t_term else None
    idx_p = n_base + int(include_t_term) if pollution_term else None
    a1 = coef[idx_t] if idx_t is not None else 0.0
    s1 = sig[idx_t] if idx_t is not None else 0.0
    ap = coef[idx_p] if idx_p is not None else 0.0
    sp = sig[idx_p] if idx_p is not None else 0.0
    common = dict(t_min=float(t[0]), t_max=float(t[-1]), n_points=len(t),
                  max_rel_residual=max_res, condition=cond,
                  a1=a1, sigma_a1=s1, a_pollution=ap, sigma_a_pollution=sp,
                  pollution_term=pollution_term)
    if mode == "assisted":
        return AsymptoticFit(
            a_minus1=pinned_m1, a_minus_half=pinned_mh,
            a0=coef[0], a_half=coef[1],
            sigma_a_minus1=0.0, sigma_a_minus_half=0.0,
            sigma_a0=sig[0], sigma_a_half=sig[1], mode="assisted", **common)
    return AsymptoticFit(
        a_minus1=coef[0], a_minus_half=coef[1], a0=coef[2], a_half=coef[3],
        sigma_a_minus1=sig[0], sigma_a_minus_half=sig[1],
        sigma_a0=sig[2], sigma_a_half=sig[3], mode="blind", **common)


def implied_area(fit):
    """Area implied by the fitted leading coefficient."""
    return 4.0 * PI * fit.a_minus1


def implied_perimeter(fit):
    """Perimeter implied by the fitted boundary coefficient."""
    return -8.0 * math.sqrt(PI) * fit.a_minus_half


def fit_report(fit, theoretical=None, inputs=None, verdict=None):
    """Structured report: fitted vs theoretical values with z-scores.

    Returns a plain nested dict; serialize with reporting.dump_report.
    The uncertainties are statistical (residual-scaled normal equations)
    and exclude truncation bias, which is stated in the report itself.
    """
    report = {
        "report_version": 1,
        "fit": {
            "mode": fit.mode,
            "t_min": fit.t_min,
            "t_max": fit.t_max,
            "n_points": fit.n_points,
            "a_minus1": fit.a_minus1,
            "a_minus1_sigma": fit.sigma_a_minus1,
            "a_minus_half": fit.a_minus_half,
            "a_minus_half_sigma": fit.sigma_a_minus_half,
            "a0": fit.a0,
            "a0_sigma": fit.sigma_a0,
            "a_half": fit.a_half,
            "a_half_sigma": fit.sigma_a_half,
            "max_rel_residual": fit.max_rel_residual,
            "condition": fit.condition,
            "implied_area": implied_area(fit),
            "implied_perimeter": implied_perimeter(fit),
            "uncertainty_note": "statistical, excludes truncation bias",
        },
    }
    if fit.pollution_term:
        report["fit"]["a_pollution"] = fit.a_pollution
        report["fit"]["a_pollution_sigma"] = fit.sigma_a_pollution
    if inputs:
        report["inputs"] = dict(inputs)
    if theoretical is not None:
        comp = {
            "a_minus1": theoretical.a_minus1,
            "a_minus_half": theoretical.a_minus_half,
            "a0": theoretical.a0,
            "chi": theoretical.chi,
            "n_corners": theoretical.n_corners,
        }
        for key, sig in [("a_minus1", fit.sigma_a_minus1),
                         ("a_minus_half", fit.sigma_a_minus_half),
                         ("a0", fit.sigma_a0)]:
            fitted = report["fit"][key]
            comp[f"z_{key}"] = (fitted - comp[key]) / sig if sig > 0 else 0.0
        report["theoretical"] = comp
    if verdict is not None:
        report["verdict"] = verdict
    return report
