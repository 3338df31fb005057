"""Corner detection from the spectrum alone.

For a planar domain of Euler characteristic chi, the constant heat-trace
coefficient satisfies a0 = chi/6 exactly when the boundary is smooth and
a0 > chi/6 strictly when corners exist: a convex corner contributes a
positive defect and a reflex corner's negative defect is more than repaid
by the turning it removes from the curvature integral.  The classifier
evaluates the trace on one window, runs the blind fit once and compares the
estimated a0 against chi/6.

The fit's sigma is statistical only.  The decision uses u = max(sigma,
u_sys), where u_sys is how far a0 moves when the fit refits the same
samples with one more column (asymptotic_fit.NEXT_TERM): a basis too small
for the window shows up there and widens the error bar instead of biasing
the verdict.
"""

import math
from dataclasses import dataclass

import numpy as np

from .asymptotic_fit import choose_window, fit_expansion
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


def decide_from_estimate(a0, sigma, chi=1, decision_z=DEFAULT_DECISION_Z):
    """Decision rule on a bare (a0, sigma) estimate.

    Shared by classify and by threshold tests: has_corners above
    chi/6 + z*sigma, smooth inside the +-z*sigma band, indeterminate
    otherwise (estimates significantly below chi/6, which are consistent
    with neither branch of the dichotomy).  A zero sigma counts as the
    smallest positive float.
    """
    if sigma <= 0:
        sigma = np.finfo(float).tiny
    margin = (a0 - chi / 6.0) / sigma
    if margin > decision_z:
        return "has_corners", margin
    if abs(margin) <= decision_z:
        return "smooth", margin
    return "indeterminate", margin


@dataclass
class Verdict:
    """Decision with its margin; uncertainty is max(fit sigma, u_sys),
    with u_sys the fit's nested-basis shift of a0.  ``samples`` are the
    trace samples the fit was made from."""

    decision: str  # has_corners | smooth | indeterminate
    a0_estimate: float
    uncertainty: float
    threshold: float
    margin: float
    chi: int
    decision_z: float
    u_sys: float
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
            "u_sys": self.u_sys,
        }


def classify(spectrum, chi=1, decision_z=DEFAULT_DECISION_Z):
    """Blind pipeline: one window, one trace, one fit, one-sided decision.

    has_corners requires margin = (a0_hat - chi/6) / u > decision_z, with
    u = max(sigma, u_sys).  smooth requires |margin| <= decision_z.
    Everything else is indeterminate: the corner bound is one-sided.
    """
    if not isinstance(chi, (int, np.integer)):
        raise ValueError("chi must be an integer")
    if chi > 1:
        raise ValueError(f"chi={chi} is invalid: planar domains have chi <= 1")
    samples = evaluate_trace(spectrum, choose_window(spectrum))
    # Discrete spectra get the 1/t^2 column that models their systematic
    # eigenvalue drift; exact spectra do not need it.
    fit = fit_expansion(samples, pollution_term=spectrum.source == "fem")
    a0 = fit.coef["a0"]
    uncertainty = max(fit.sigma["a0"], fit.u_sys)
    decision, margin = decide_from_estimate(a0, uncertainty, chi=chi,
                                            decision_z=decision_z)
    return Verdict(decision=decision, a0_estimate=a0, uncertainty=uncertainty,
                   threshold=chi / 6.0, margin=margin, chi=int(chi),
                   decision_z=decision_z, u_sys=fit.u_sys, fit=fit,
                   samples=samples)


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
