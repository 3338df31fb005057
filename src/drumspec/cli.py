"""Command-line front end.

Subcommands: spectrum (domain -> eigenvalue file), classify (spectrum or
domain -> corner verdict), verify (bundled corpus), plotdata (tables for
external plotting).  Exit codes are part of the interface so shell
pipelines can branch on them:

    0   success; for classify: smooth boundary
    2   invalid domain file
    3   insufficient spectrum for the requested fit
    4   missing input artifacts (plotdata)
    10  classify: has corners
    20  classify: indeterminate
    1   any other failure, including verify corpus failures and usage
        errors (unknown options, bad option values)

Outputs embed the tool version and input digests; nothing in a report
depends on wall-clock time, so identical configurations reproduce
byte-identical files on one machine at one BLAS thread count.
"""

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__
from .classifier import DEFAULT_DECISION_Z
from .errors import (
    DomainFileError,
    DrumspecError,
    InsufficientSpectrumError,
    InvalidDomainError,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID_DOMAIN = 2
EXIT_INSUFFICIENT_SPECTRUM = 3
EXIT_MISSING_ARTIFACTS = 4
EXIT_HAS_CORNERS = 10
EXIT_INDETERMINATE = 20

VERDICT_EXIT = {"smooth": EXIT_OK, "has_corners": EXIT_HAS_CORNERS,
                "indeterminate": EXIT_INDETERMINATE}


def _outdir(cfg):
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _file_stem(label):
    """``label`` as an output file stem: every path separator becomes '_',
    so the file lands in --out whatever the domain is called."""
    for sep in {"/", os.sep, os.altsep} - {None}:
        label = label.replace(sep, "_")
    return label


def _bounded(kind, lo=-math.inf, hi=math.inf):
    """An argparse type: a finite ``kind`` (int or float) in (lo, hi]."""
    def parse(text):
        value = kind(text)  # argparse reports a ValueError as a bad value
        if not (math.isfinite(value) and lo < value <= hi):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} in ({lo:g}, {hi:g}], "
                f"got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_FAILURE, since 2
    means an invalid domain file here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAILURE, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="drumspec",
        description="Dirichlet spectra, heat-trace asymptotics, and "
                    "spectral corner detection for planar domains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Options of every subcommand that may compute a spectrum.
    job = argparse.ArgumentParser(add_help=False)
    job.add_argument("--cutoff", type=_bounded(float, lo=0), default=1.0e5,
                     help="eigenvalue cutoff for analytic families")
    job.add_argument("--count", type=_bounded(int, lo=0), default=200,
                     help="mode count for the FEM fallback")
    job.add_argument("--h", type=_bounded(float, lo=0), default=0.02,
                     help="FEM target size")
    job.add_argument("--out", default=".")
    job.add_argument("--seed", type=_bounded(int, lo=-1), default=0)

    sp = sub.add_parser("spectrum", parents=[job],
                        help="compute a Dirichlet spectrum")
    sp.add_argument("--domain", required=True, help="domain file (schema 1)")

    cl = sub.add_parser("classify", parents=[job],
                        help="decide corners from the spectrum")
    cl.add_argument("--spectrum", default="", help="spectrum file")
    cl.add_argument("--domain", default="", help="domain file (computed if "
                    "no spectrum is given)")
    cl.add_argument("--chi", type=_bounded(int, hi=1), default=1,
                    help="assumed Euler characteristic")
    cl.add_argument("--decision-z", type=_bounded(float, lo=0),
                    default=DEFAULT_DECISION_Z)

    vf = sub.add_parser("verify", help="run the bundled verification corpus")
    vf.add_argument("--filter", dest="name_filter", default="",
                    help="run only checks whose name contains this string")
    vf.add_argument("--seed", type=_bounded(int, lo=-1), default=0)
    vf.add_argument("--out", default=".")
    vf.add_argument("--skip-fem", action="store_true",
                    help="skip the slow finite-element rows")

    pd = sub.add_parser("plotdata", help="emit plotting tables")
    pd.add_argument("--report", default="", help="fit/verdict report file")
    pd.add_argument("--trace", default="", help="trace samples file")
    pd.add_argument("--out", default=".")

    return parser


def _domain_and_spectrum(cfg):
    from .analytic_spectra import spectrum_for_domain
    from .fem_solver import fem_spectrum
    from .geometry import load_domain

    domain = load_domain(cfg.domain)
    spec = spectrum_for_domain(domain, cfg.cutoff)
    if spec is None:
        spec = fem_spectrum(domain, cfg.h, cfg.count, seed=cfg.seed)
    return domain, spec


def cmd_spectrum(cfg):
    from .analytic_spectra import write_spectrum
    from .reporting import digest_file

    domain, spec = _domain_and_spectrum(cfg)
    spec.meta.setdefault("tool_version", __version__)
    spec.meta.setdefault("domain_digest", digest_file(cfg.domain))
    label = domain.label or Path(cfg.domain).stem
    out = _outdir(cfg) / f"{_file_stem(label)}.spectrum"
    write_spectrum(spec, out)
    print(f"wrote {out} ({len(spec)} eigenvalues <= {spec.cutoff:g}, "
          f"source={spec.source})")
    return EXIT_OK


def cmd_classify(cfg):
    from .analytic_spectra import read_spectrum
    from .asymptotic_fit import fit_report
    from .classifier import classify
    from .heat_trace import theoretical_coefficients, write_trace
    from .reporting import digest_array, digest_file, write_report

    inputs = {"tool_version": __version__}
    if cfg.spectrum:
        try:
            spec = read_spectrum(cfg.spectrum)
        except (OSError, ValueError) as exc:
            print(f"unreadable spectrum: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        inputs["spectrum_path"] = cfg.spectrum
        inputs["spectrum_digest"] = digest_file(cfg.spectrum)
        label = spec.domain_label or Path(cfg.spectrum).stem
        theoretical = None
    elif cfg.domain:
        domain, spec = _domain_and_spectrum(cfg)
        inputs["domain_path"] = cfg.domain
        inputs["domain_digest"] = digest_file(cfg.domain)
        label = domain.label or Path(cfg.domain).stem
        theoretical = theoretical_coefficients(domain)
    else:
        print("classify needs --spectrum or --domain", file=sys.stderr)
        return EXIT_FAILURE
    inputs["eigenvalue_digest"] = digest_array(spec.eigenvalues)

    verdict = classify(spec, chi=cfg.chi, decision_z=cfg.decision_z)
    report = fit_report(verdict.fit, theoretical=theoretical, inputs=inputs,
                        verdict=verdict.to_dict())
    out, stem = _outdir(cfg), _file_stem(label)
    report_path = out / f"{stem}_report.txt"
    trace_path = out / f"{stem}_trace.txt"
    write_report(report, report_path)
    write_trace(verdict.samples, trace_path)
    print(f"{label}: {verdict.decision} (a0 = {verdict.a0_estimate:.6f} "
          f"+- {verdict.uncertainty:.2g}, threshold {verdict.threshold:.6f}, "
          f"margin {verdict.margin:.2f})")
    print(f"wrote {report_path} and {trace_path}")
    return VERDICT_EXIT[verdict.decision]


def cmd_verify(cfg):
    from .corpus import run_corpus
    from .reporting import write_report

    results = run_corpus(seed=cfg.seed, name_filter=cfg.name_filter,
                         fem=not cfg.skip_fem)
    if not results:
        print(f"no checks match filter {cfg.name_filter!r}", file=sys.stderr)
        return EXIT_FAILURE
    width = max(len(r.name) for r in results)
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.seconds:8.2f}s  {r.detail}")
        if not r.passed:
            failures.append({"name": r.name, "detail": r.detail})
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    if failures:
        out = _outdir(cfg) / "verify_failures.txt"
        write_report({"verify_version": 1, "failures": failures}, out)
        print(f"wrote {out}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_plotdata(cfg):
    import yaml

    from .asymptotic_fit import BLIND_TERMS, TERMS, model
    from .geometry import make_regular_polygon
    from .heat_trace import read_trace, theoretical_coefficients
    from .reporting import read_report, write_table

    out = _outdir(cfg)
    wrote = []
    if cfg.report or cfg.trace:
        if not (cfg.report and cfg.trace):
            print("plotdata needs both --report and --trace", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        try:
            report = read_report(cfg.report)
            samples = read_trace(cfg.trace)
        except (OSError, ValueError, yaml.YAMLError) as exc:
            print(f"missing or unreadable artifacts: {exc}", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        fit = report.get("fit") if isinstance(report, dict) else None
        if not isinstance(fit, dict):
            print(f"{cfg.report}: not a report with a fit", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        missing = [name for name in BLIND_TERMS if name not in fit]
        if missing:
            print(f"report lacks fit coefficients {missing}", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        coef = {name: fit[name] for name in TERMS if name in fit}
        bad = [name for name, c in coef.items()
               if isinstance(c, bool) or not isinstance(c, (int, float))]
        if bad:
            print(f"report has fit coefficients {bad} that are not real "
                  f"numbers", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        t = samples.grid
        curve = model(coef, t)
        resid = samples.values - curve
        path = out / "fit_curve.txt"
        write_table(path, [], ("t", "h", "model", "residual"),
                    "{:.17g},{:.17g},{:.17g},{:.17g}",
                    zip(t.tolist(), samples.values.tolist(), curve.tolist(),
                        resid.tolist()))
        wrote.append(path)

    path = out / "polygon_a0.txt"
    write_table(path, [], ("n", "a0"), "{},{:.17g}",
                ((n, theoretical_coefficients(make_regular_polygon(n)).a0)
                 for n in range(3, 25)))
    wrote.append(path)
    print("wrote " + ", ".join(str(p) for p in wrote))
    return EXIT_OK


def main(argv=None):
    cfg = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    handlers = {"spectrum": cmd_spectrum, "classify": cmd_classify,
                "verify": cmd_verify, "plotdata": cmd_plotdata}
    try:
        return handlers[cfg.command](cfg)
    except (DomainFileError, InvalidDomainError) as exc:
        print(f"invalid domain: {exc}", file=sys.stderr)
        return EXIT_INVALID_DOMAIN
    except InsufficientSpectrumError as exc:
        print(f"insufficient spectrum: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_SPECTRUM
    except DrumspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
