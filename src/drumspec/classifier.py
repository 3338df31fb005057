"""Corner detection from the spectrum alone.

For a planar domain of Euler characteristic chi, the constant heat-trace
coefficient satisfies a0 = chi/6 exactly when the boundary is smooth and
a0 > chi/6 strictly when corners exist: a convex corner contributes a
positive defect and a reflex corner's negative defect is more than repaid
by the turning it removes from the curvature integral.  The classifier runs
the blind fit and compares the estimated a0 against chi/6.

Because the fitted uncertainty is statistical only, the decision uses an
operative uncertainty inflated by a window-robustness probe (refit with
t_max halved): systematic drift between windows is evidence the estimate is
not converged, and it widens the error bar instead of being ignored.
"""

import math
from dataclasses import dataclass

import numpy as np

from .asymptotic_fit import DEFAULT_KAPPA, choose_window, fit_expansion
from .errors import FitError, InsufficientSpectrumError
from .heat_trace import evaluate_trace

DEFAULT_DECISION_Z = 3.0


def f_corner(x):
    """sum(1/x_k + x_k) over corner angle fractions x_k = theta_k / pi.

    Strictly exceeds 2n unless every x_k equals 1, which would mean a
    straight junction at every "corner" -- impossible for actual corners.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return 0.0
    if np.any(arr <= 0):
        raise ValueError("corner angle fractions must be positive")
    return float(np.sum(1.0 / arr + arr))


def a0_simply_connected(thetas):
    """a0 of a simply connected domain from its corner angles alone:
    f(x)/24 - n/12 + 1/6 with x_k = theta_k / pi."""
    thetas = np.asarray(thetas, dtype=float)
    x = thetas / math.pi
    return f_corner(x) / 24.0 - len(x) / 12.0 + 1.0 / 6.0


def decide_from_estimate(a0, sigma, chi=1, decision_z=DEFAULT_DECISION_Z,
                         robust=True):
    """Decision rule on a bare (a0, sigma) estimate.

    Shared by classify and by threshold tests: has_corners above
    chi/6 + z*sigma, smooth inside the +-z*sigma band when window-robust,
    indeterminate otherwise (including estimates significantly below chi/6,
    which are consistent with neither branch of the dichotomy).
    """
    if sigma <= 0:
        sigma = np.finfo(float).tiny
    margin = (a0 - chi / 6.0) / sigma
    if margin > decision_z:
        return "has_corners", margin
    if abs(margin) <= decision_z and robust:
        return "smooth", margin
    return "indeterminate", margin


@dataclass
class Verdict:
    """Decision with its margin; uncertainty is the operative one
    (max of fit sigma and the window-robustness shift).  ``samples`` are
    the trace samples the fit was made from."""

    decision: str  # has_corners | smooth | indeterminate
    a0_estimate: float
    uncertainty: float
    threshold: float
    margin: float
    chi: int
    decision_z: float
    robustness_shift: float
    fit: object = None
    samples: object = None

    def to_dict(self):
        return {
            "decision": self.decision,
            "a0_estimate": self.a0_estimate,
            "uncertainty": self.uncertainty,
            "threshold": self.threshold,
            "margin": self.margin,
            "chi": self.chi,
            "decision_z": self.decision_z,
            "robustness_shift": self.robustness_shift,
        }


def classify(spectrum, chi=1, decision_z=DEFAULT_DECISION_Z,
             kappa=DEFAULT_KAPPA):
    """Blind pipeline: window, trace, fit, one-sided decision.

    has_corners requires margin = (a0_hat - chi/6) / uncertainty > decision_z.
    smooth requires |a0_hat - chi/6| <= decision_z * uncertainty AND a
    window-robust estimate.  Everything else is indeterminate: the corner
    bound is one-sided and finite spectra cannot certify smoothness beyond
    their noise level.
    """
    if not isinstance(chi, (int, np.integer)):
        raise ValueError("chi must be an integer")
    if chi > 1:
        raise ValueError(f"chi={chi} is invalid: planar domains have chi <= 1")
    # Discrete spectra get the 1/t^2 column that models their systematic
    # eigenvalue drift; exact spectra do not need it.
    pollution = spectrum.source == "fem"
    t_min, t_max, grid = choose_window(spectrum, kappa=kappa)
    samples = evaluate_trace(spectrum, grid)
    fit = fit_expansion(samples, mode="blind", pollution_term=pollution)
    a0, sigma = fit.coef["a0"], fit.sigma["a0"]

    # Robustness probe: refit on [t_min, t_max/2].
    threshold = chi / 6.0
    try:
        n_half = max(10, int(round(len(grid) * 0.8)))
        grid_half = np.geomspace(t_min, t_max / 2.0, n_half)
        samples_half = evaluate_trace(spectrum, grid_half)
        fit_half = fit_expansion(samples_half, mode="blind",
                                 pollution_term=pollution)
        a0_half, sigma_half = fit_half.coef["a0"], fit_half.sigma["a0"]
        shift = abs(a0_half - a0)
        # Robust if the windows agree to within noise, or the halved window
        # independently lands on the smooth value within its own resolution.
        robust = (shift <= sigma) or (
            abs(a0_half - threshold) <= decision_z * max(sigma_half, shift))
    except (InsufficientSpectrumError, FitError):
        shift = math.inf
        robust = False

    sigma_eff = max(sigma, shift if math.isfinite(shift) else sigma)
    if sigma_eff == 0.0:
        sigma_eff = np.finfo(float).tiny
    decision, margin = decide_from_estimate(a0, sigma_eff, chi=chi,
                                            decision_z=decision_z, robust=robust)
    return Verdict(decision=decision, a0_estimate=a0, uncertainty=sigma_eff,
                   threshold=threshold, margin=margin, chi=int(chi),
                   decision_z=decision_z, robustness_shift=shift,
                   fit=fit, samples=samples)


def isospectral_compare(spec_a, spec_b, count, rel_tol):
    """True iff the first ``count`` eigenvalues agree to rel_tol.

    Both spectra must reach ``count`` eigenvalues; comparing shorter lists
    would silently pass on missing modes.
    """
    if len(spec_a) < count or len(spec_b) < count:
        raise ValueError(
            f"need {count} eigenvalues on both sides, got "
            f"{len(spec_a)} and {len(spec_b)}")
    la = spec_a.eigenvalues[:count]
    lb = spec_b.eigenvalues[:count]
    dev = float(np.max(np.abs(la - lb) / la))
    return dev <= rel_tol, dev
