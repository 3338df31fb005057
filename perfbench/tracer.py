"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` wraps every public function defined in a layer module
and puts the wrapper wherever the original is looked up: in its own module
and in every other ``drumspec`` module that bound it by name at import
(``classifier`` binds ``evaluate_trace``, ``fem_solver`` binds
``detect_corners``, ...).  The CLI imports lazily, so it finds the wrapper
in the module's namespace at call time.  Methods are not wrapped.

A span is ``[layer, function, start, end, parent index, counters]``.  Its
self time is its duration minus its direct child spans.  Probes read size
counters (vertices, dofs, bytes, ...) off the arguments and results of
selected calls.
"""

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("cli", "geometry", "analytic_spectra", "fem_solver", "heat_trace",
          "asymptotic_fit", "classifier", "reporting")


def import_layers():
    """Import every layer module of the program (part of set-up)."""
    return [importlib.import_module(f"drumspec.{layer}") for layer in LAYERS]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _bytes(pos, name):
    return lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, pos, name))}


PROBES = {
    "fem_solver.mesh_domain": lambda a, k, r: {
        "vertices": r.n_vertices, "triangles": r.n_triangles,
        "min_angle_deg": float(r.meta["min_angle_deg"])},
    "fem_solver.assemble": lambda a, k, r: {
        "dofs": r.stiffness.shape[0], "nnz": r.stiffness.nnz},
    "fem_solver.solve_lowest": lambda a, k, r: {
        "requested": int(_arg(a, k, 1, "count")), "trusted": len(r),
        "max_residual": float(r.meta["max_residual"])},
    "analytic_spectra.spectrum_for_domain": lambda a, k, r: {
        "eigenvalues": 0 if r is None else len(r)},
    "analytic_spectra.bessel_j_zeros": lambda a, k, r: {"zeros": len(r)},
    "analytic_spectra.write_spectrum": _bytes(1, "path"),
    "reporting.write_report": _bytes(1, "path"),
    "heat_trace.write_trace": _bytes(1, "path"),
    "heat_trace.evaluate_trace": lambda a, k, r: {
        "terms": len(_arg(a, k, 0, "spectrum")) * len(_arg(a, k, 1, "grid"))},
    "asymptotic_fit.fit_expansion": lambda a, k, r: {
        "condition": float(r.condition)},
}
# A probe that no longer fits the program's return types records the error
# instead of failing the run; the summary lists it.
PROBE_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError,
                OSError)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, layer, name, fn):
        probe = PROBES.get(f"{layer}.{name}")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1,
                    None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                try:
                    span[5] = probe(args, kwargs, result)
                except PROBE_ERRORS as exc:
                    span[5] = {"probe_error": f"{type(exc).__name__}: {exc}"}
            return result
        return wrapper

    def install(self):
        originals = {}
        for layer, mod in zip(LAYERS, import_layers()):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "drumspec" and not modname.startswith("drumspec."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()


def per_span_cost(n=20000):
    """Seconds one wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("bench", "noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    t1 = clock()
    for _ in range(n):
        wrapped()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def layer_metrics(spans):
    """Per-layer metrics from closed spans; absent work reads as zero."""
    child = [0.0] * len(spans)
    for layer, name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, secs, self_s, counters = {}, {}, {}, {}
    for i, (layer, name, start, end, parent, cnt) in enumerate(spans):
        key = f"{layer}.{name}"
        calls[key] = calls.get(key, 0) + 1
        secs[key] = secs.get(key, 0.0) + (end - start)
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
        for ck, cv in (cnt or {}).items():
            counters.setdefault(f"{key}.{ck}", []).append(cv)

    def t(key):
        return secs.get(key, 0.0)

    def total(key):
        return sum(counters.get(key, []))

    def peak(key, fn=max):
        vals = counters.get(key, [])
        return fn(vals) if vals else 0.0

    requested = total("fem_solver.solve_lowest.requested")
    trusted = total("fem_solver.solve_lowest.trusted")
    eval_s = t("heat_trace.evaluate_trace")
    terms = total("heat_trace.evaluate_trace.terms")
    m = {
        "fem_solver.mesh_s": t("fem_solver.mesh_domain"),
        "fem_solver.mesh_vertices": total("fem_solver.mesh_domain.vertices"),
        "fem_solver.mesh_triangles": total("fem_solver.mesh_domain.triangles"),
        "fem_solver.mesh_min_angle_deg":
            peak("fem_solver.mesh_domain.min_angle_deg", min),
        "fem_solver.assemble_s": t("fem_solver.assemble"),
        "fem_solver.dofs": total("fem_solver.assemble.dofs"),
        "fem_solver.nnz": total("fem_solver.assemble.nnz"),
        "fem_solver.solve_s": t("fem_solver.solve_lowest"),
        "fem_solver.modes_requested": requested,
        "fem_solver.modes_trusted": trusted,
        "fem_solver.trusted_ratio": trusted / requested if requested else 0.0,
        "fem_solver.max_residual":
            peak("fem_solver.solve_lowest.max_residual"),
        "analytic_spectra.spectrum_s":
            t("analytic_spectra.spectrum_for_domain"),
        "analytic_spectra.eigenvalues":
            total("analytic_spectra.spectrum_for_domain.eigenvalues"),
        "analytic_spectra.bessel_s": t("analytic_spectra.bessel_j_zeros"),
        "analytic_spectra.bessel_calls":
            calls.get("analytic_spectra.bessel_j_zeros", 0),
        "analytic_spectra.bessel_zeros":
            total("analytic_spectra.bessel_j_zeros.zeros"),
        "analytic_spectra.write_s": t("analytic_spectra.write_spectrum"),
        "analytic_spectra.read_s": t("analytic_spectra.read_spectrum"),
        "analytic_spectra.bytes_written":
            total("analytic_spectra.write_spectrum.bytes"),
        "reporting.write_s": t("reporting.write_report"),
        "reporting.bytes_written": total("reporting.write_report.bytes"),
        "heat_trace.evaluate_s": eval_s,
        "heat_trace.calls": calls.get("heat_trace.evaluate_trace", 0),
        "heat_trace.terms": terms,
        "heat_trace.terms_per_s": terms / eval_s if eval_s > 0 else 0.0,
        "heat_trace.write_s": t("heat_trace.write_trace"),
        "heat_trace.bytes_written": total("heat_trace.write_trace.bytes"),
        "asymptotic_fit.window_s": t("asymptotic_fit.choose_window"),
        "asymptotic_fit.fit_s": t("asymptotic_fit.fit_expansion"),
        "asymptotic_fit.fit_calls": calls.get("asymptotic_fit.fit_expansion", 0),
        "asymptotic_fit.condition_max":
            peak("asymptotic_fit.fit_expansion.condition"),
        "classifier.classify_s": t("classifier.classify"),
        "geometry.load_s": t("geometry.load_domain"),
        "geometry.detect_corners_s": t("geometry.detect_corners"),
        "geometry.detect_corners_calls":
            calls.get("geometry.detect_corners", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    errors = sorted({str(c["probe_error"]) for _, _, _, _, _, c in spans
                     if c and "probe_error" in c})
    return m, errors
