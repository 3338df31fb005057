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
    1   any other failure (including verify corpus failures)

Outputs embed the tool version and input digests; nothing in a report
depends on wall-clock time, so identical configurations reproduce
byte-identical files.
"""

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
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


@dataclass
class JobConfig:
    command: str
    domain: str = ""
    spectrum: str = ""
    cutoff: float = 1.0e5
    count: int = 200
    h: float = 0.02
    grading: float = 0.5
    kappa: float = 12.0
    chi: int = 1
    decision_z: float = 3.0
    out: str = "."
    seed: int = 0
    name_filter: str = ""
    inject_a0_bias: float = 0.0
    report: str = ""
    trace: str = ""
    skip_fem: bool = False

    def outdir(self):
        path = Path(self.out)
        path.mkdir(parents=True, exist_ok=True)
        return path


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="drumspec",
        description="Dirichlet spectra, heat-trace asymptotics, and "
                    "spectral corner detection for planar domains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="compute a Dirichlet spectrum")
    sp.add_argument("--domain", required=True, help="domain file (schema 1)")
    sp.add_argument("--cutoff", type=float, default=1.0e5,
                    help="eigenvalue cutoff for analytic families")
    sp.add_argument("--count", type=int, default=200,
                    help="mode count for the FEM fallback")
    sp.add_argument("--h", type=float, default=0.02, help="FEM target size")
    sp.add_argument("--grading", type=float, default=0.5,
                    help="mesh grading exponent at reentrant corners")
    sp.add_argument("--out", default=".")
    sp.add_argument("--seed", type=int, default=0)

    cl = sub.add_parser("classify", help="decide corners from the spectrum")
    cl.add_argument("--spectrum", default="", help="spectrum file")
    cl.add_argument("--domain", default="", help="domain file (computed if "
                    "no spectrum is given)")
    cl.add_argument("--cutoff", type=float, default=1.0e5)
    cl.add_argument("--count", type=int, default=200)
    cl.add_argument("--h", type=float, default=0.02)
    cl.add_argument("--grading", type=float, default=0.5)
    cl.add_argument("--kappa", type=float, default=12.0,
                    help="t_min = kappa / cutoff")
    cl.add_argument("--chi", type=int, default=1,
                    help="assumed Euler characteristic")
    cl.add_argument("--decision-z", type=float, default=3.0)
    cl.add_argument("--out", default=".")
    cl.add_argument("--seed", type=int, default=0)

    vf = sub.add_parser("verify", help="run the bundled verification corpus")
    vf.add_argument("--filter", dest="name_filter", default="",
                    help="run only checks whose name contains this string")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--out", default=".")
    vf.add_argument("--skip-fem", action="store_true",
                    help="skip the slow finite-element rows")
    vf.add_argument("--inject-a0-bias", type=float, default=0.0,
                    help="fault injection: shift classifier a0 estimates")

    pd = sub.add_parser("plotdata", help="emit plotting tables")
    pd.add_argument("--report", default="", help="fit/verdict report file")
    pd.add_argument("--trace", default="", help="trace samples file")
    pd.add_argument("--out", default=".")

    return parser


def parse_args(argv):
    ns = _build_parser().parse_args(argv)
    return JobConfig(**vars(ns))


def _load_domain(cfg):
    from .geometry import load_domain

    return load_domain(cfg.domain)


def _spectrum_from_domain(cfg, domain):
    from .analytic_spectra import spectrum_for_domain
    from .fem_solver import fem_spectrum

    spec = spectrum_for_domain(domain, cfg.cutoff)
    if spec is None:
        spec = fem_spectrum(domain, cfg.h, cfg.count,
                            grading=cfg.grading, seed=cfg.seed)
    return spec


def cmd_spectrum(cfg):
    from .analytic_spectra import write_spectrum
    from .reporting import digest_file

    domain = _load_domain(cfg)
    spec = _spectrum_from_domain(cfg, domain)
    spec.meta.setdefault("tool_version", __version__)
    spec.meta.setdefault("domain_digest", digest_file(cfg.domain))
    label = domain.label or Path(cfg.domain).stem
    out = cfg.outdir() / f"{label}.spectrum"
    write_spectrum(spec, out)
    print(f"wrote {out} ({len(spec)} eigenvalues <= {spec.cutoff:g}, "
          f"source={spec.source})")
    return EXIT_OK


def cmd_classify(cfg):
    from .analytic_spectra import read_spectrum
    from .asymptotic_fit import fit_report
    from .classifier import classify
    from .heat_trace import write_trace
    from .reporting import digest_array, digest_file, write_report

    inputs = {"tool_version": __version__}
    if cfg.spectrum:
        spec = read_spectrum(cfg.spectrum)
        inputs["spectrum_path"] = cfg.spectrum
        inputs["spectrum_digest"] = digest_file(cfg.spectrum)
        label = spec.domain_label or Path(cfg.spectrum).stem
        theoretical = None
    elif cfg.domain:
        domain = _load_domain(cfg)
        spec = _spectrum_from_domain(cfg, domain)
        inputs["domain_path"] = cfg.domain
        inputs["domain_digest"] = digest_file(cfg.domain)
        label = domain.label or Path(cfg.domain).stem
        from .heat_trace import theoretical_coefficients

        theoretical = theoretical_coefficients(domain)
    else:
        print("classify needs --spectrum or --domain", file=sys.stderr)
        return EXIT_FAILURE
    inputs["eigenvalue_digest"] = digest_array(spec.eigenvalues)

    verdict = classify(spec, chi=cfg.chi, decision_z=cfg.decision_z,
                       kappa=cfg.kappa)
    report = fit_report(verdict.fit, theoretical=theoretical, inputs=inputs,
                        verdict=verdict.to_dict())
    out = cfg.outdir()
    report_path = out / f"{label}_report.txt"
    trace_path = out / f"{label}_trace.txt"
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
                         inject_a0_bias=cfg.inject_a0_bias,
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
        out = cfg.outdir() / "verify_failures.txt"
        write_report({"verify_version": 1, "failures": failures}, out)
        print(f"wrote {out}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_plotdata(cfg):
    import numpy as np

    from .geometry import make_regular_polygon
    from .heat_trace import read_trace, theoretical_coefficients
    from .reporting import read_report

    out = cfg.outdir()
    wrote = []
    if cfg.report or cfg.trace:
        if not (cfg.report and cfg.trace):
            print("plotdata needs both --report and --trace", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        try:
            report = read_report(cfg.report)
            samples = read_trace(cfg.trace)
        except (OSError, ValueError) as exc:
            print(f"missing or unreadable artifacts: {exc}", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        fit = report.get("fit", {})
        try:
            t = samples.grid
            model = (fit["a_minus1"] / t + fit["a_minus_half"] / np.sqrt(t)
                     + fit["a0"] + fit["a_half"] * np.sqrt(t))
            if "a_pollution" in fit:
                model = model + fit["a_pollution"] / t ** 2
        except KeyError as exc:
            print(f"report lacks fit coefficients: {exc}", file=sys.stderr)
            return EXIT_MISSING_ARTIFACTS
        resid = samples.values - model
        path = out / "fit_curve.txt"
        with open(path, "w") as fh:
            fh.write("t,h,model,residual\n")
            for row in zip(t, samples.values, model, resid):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        wrote.append(path)

    path = out / "polygon_a0.txt"
    with open(path, "w") as fh:
        fh.write("n,a0\n")
        for n in range(3, 25):
            a0 = theoretical_coefficients(make_regular_polygon(n)).a0
            fh.write(f"{n},{a0:.17g}\n")
    wrote.append(path)
    print("wrote " + ", ".join(str(p) for p in wrote))
    return EXIT_OK


def main(argv=None):
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
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
