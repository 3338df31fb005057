"""Benchmark workloads: seeded inputs, the jobs that run on them, and the
gates that decide whether each job's outputs are correct.

The program only ever sees the domain files written here (schema 1 YAML)
and the command lines built here, so the benchmark depends on the CLI and
its file formats, not on the package's internal builders.  The two
library calls it makes (``classify`` on a FEM spectrum and
``isospectral_compare``) are public names exported by ``drumspec``.

Seed 0 is the identity transform: its domains are bit-identical to the
package's reference builders, so its counts match the ROADMAP Baseline.
Any other seed moves every domain.  The exact families get a rotation, a
shift and a dilation s, with the cutoff rescaled to c / s^2 so that each
spectrum keeps its mode count.  The FEM domains are only shifted: the
mesher fails on most rotations today (a boundary edge shared by two
triangles, or "degenerate triangle produced"), on the L-shape at h=0.01
for three of the first four seeds.
"""

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

PI = math.pi

# Exact constant heat-trace coefficients a0 (closed forms from corner angles
# and Euler characteristic), kept here so the oracle is independent of the
# package under test.
EXACT_A0 = {
    "square": 1.0 / 4.0,
    "rectangle-2x1": 1.0 / 4.0,
    "equilateral-triangle": 1.0 / 3.0,
    "quarter-disk": 11.0 / 48.0,
    "half-disk": 5.0 / 24.0,
    "disk": 1.0 / 6.0,
    "lshape": 5.0 / 18.0,
}
SMOOTH = {"disk"}

# First Dirichlet eigenvalue of the unit-square-minus-quadrant L-shape: four
# times the classical value for the three-unit-square L.
LSHAPE_LAMBDA1 = 4.0 * 9.6397238440219

ANALYTIC_DOMAINS = ("square", "rectangle-2x1", "equilateral-triangle",
                    "quarter-disk", "half-disk", "disk")
# Cutoff 5e3 is left out: equilateral-triangle has too short a spectrum
# there for the fit window, so classify exits 3.  Cutoffs up to 4e5 make a
# pass of about 25 s, too long to repeat within one run; up to 5e4 a pass
# takes 3-6 s, so a run holds several and reports medians.
ANALYTIC_CUTOFFS = (1.0e4, 2.0e4, 5.0e4)

LSHAPE_H, LSHAPE_COUNT = 0.01, 450
# The verify corpus meshes the pair at h=0.02 (about 30 s per drum), too
# long to repeat within one run.  At h=0.07 (about 1.9k vertices per drum)
# a pass takes 2-4 s, so a run holds several; the mesher still takes over
# 90% of it and the eigensolver still runs at low k.
GWW_H, GWW_COUNT, GWW_REL_TOL = 0.07, 20, 1.0e-2
GWW_VERTICES = {
    "gww-a": [(-1.0, 0.0), (0.0, 0.0), (0.0, -1.0), (1.0, -1.0),
              (1.0, 2.0), (0.0, 1.0), (-1.0, 1.0)],
    "gww-b": [(-1.0, 0.0), (0.0, 0.0), (0.0, -1.0), (1.0, -1.0),
              (1.0, 0.0), (2.0, 1.0), (-1.0, 1.0)],
}

MAX_RESIDUAL = 1.0e-8
CORNERED_EXIT = {10}
SMOOTH_EXIT = {0, 20}
DECISION_EXIT = {"smooth": 0, "has_corners": 10, "indeterminate": 20}

WORKLOADS = {
    "analytic-sweep": (
        "Exact families at cutoffs 1e4-5e4: Bessel zeros, traces over up to "
        "1.3e4 eigenvalues, the fit and spectrum file I/O; never reaches "
        "fem_solver. Shows the a0 bias on curved boundaries."),
    "lshape-k450": (
        "L-shape FEM at h=0.01 with 450 modes: the eigensolver dominates, "
        "so spectrum slicing must show its gain here."),
    "gww-pair": (
        "GWW isospectral drums at low k: the mesher dominates, so mesher "
        "work must show here and solver changes tuned for k=450 must not "
        "lose here."),
}


class GateFailure(Exception):
    """A job produced output that the benchmark's oracle rejects."""


# ---------------------------------------------------------------------------
# Seeded inputs


def _polygon(vertices):
    """Line segments of a polygon, turned counterclockwise if needed."""
    pts = [tuple(map(float, v)) for v in vertices]
    area2 = sum(pts[i][0] * pts[(i + 1) % len(pts)][1]
                - pts[(i + 1) % len(pts)][0] * pts[i][1]
                for i in range(len(pts)))
    if area2 < 0:
        pts = pts[::-1]
    return [{"kind": "line", "start": pts[i], "end": pts[(i + 1) % len(pts)]}
            for i in range(len(pts))]


def _arc(start, end, center, radius):
    return {"kind": "arc", "start": start, "end": end, "center": center,
            "radius": radius}


def _sector(theta, r):
    """Apex at the origin; arcs split into pieces below a half turn."""
    n_arc = max(1, int(math.ceil(theta / (PI / 2))))
    segs = [{"kind": "line", "start": (0.0, 0.0), "end": (r, 0.0)}]
    for i in range(n_arc):
        a0, a1 = theta * i / n_arc, theta * (i + 1) / n_arc
        segs.append(_arc((r * math.cos(a0), r * math.sin(a0)),
                         (r * math.cos(a1), r * math.sin(a1)), (0.0, 0.0), r))
    segs.append({"kind": "line", "start": (r * math.cos(theta),
                                           r * math.sin(theta)),
                 "end": (0.0, 0.0)})
    return segs


def _disk(r, n_arcs=4):
    ang = [2.0 * PI * i / n_arcs for i in range(n_arcs + 1)]
    pts = [(r * math.cos(a), r * math.sin(a)) for a in ang]
    return [_arc(pts[i], pts[i + 1], (0.0, 0.0), r) for i in range(n_arcs)]


def domain_segments(name, s=1.0):
    """Boundary of a named benchmark domain, dilated by s."""
    if name == "square":
        return _polygon([(0, 0), (s, 0), (s, s), (0, s)])
    if name == "rectangle-2x1":
        return _polygon([(0, 0), (2 * s, 0), (2 * s, s), (0, s)])
    if name == "equilateral-triangle":
        return _polygon([(0, 0), (s, 0), (s / 2, s * math.sqrt(3) / 2)])
    if name == "quarter-disk":
        return _sector(PI / 2, s)
    if name == "half-disk":
        return _sector(PI, s)
    if name == "disk":
        return _disk(s)
    if name == "lshape":
        m = s / 2
        return _polygon([(0, 0), (s, 0), (s, m), (m, m), (m, s), (0, s)])
    if name in GWW_VERTICES:
        return _polygon([(s * x, s * y) for x, y in GWW_VERTICES[name]])
    raise KeyError(name)


@dataclass
class Motion:
    """Dilation by ``scale``, then rotation by ``angle``, then ``shift``."""

    angle: float = 0.0
    shift: tuple = (0.0, 0.0)
    scale: float = 1.0

    def apply(self, p):
        # The identity is exact, so seed 0 stays bit-identical (no -0.0 + 0.0).
        if self.angle == 0.0 and self.shift == (0.0, 0.0):
            return [float(p[0]), float(p[1])]
        c, s = math.cos(self.angle), math.sin(self.angle)
        return [c * p[0] - s * p[1] + self.shift[0],
                s * p[0] + c * p[1] + self.shift[1]]


def motions(seed, names, exact):
    """One Motion per name; the same seed always gives the same motions.

    ``exact`` domains (analytic families) are rotated, shifted and dilated;
    the others are only shifted (see the module docstring)."""
    if seed == 0:
        return {n: Motion() for n in names}
    import numpy as np

    rng = np.random.default_rng(seed)
    out = {}
    for n in names:
        angle = float(rng.uniform(0.0, 2.0 * PI))
        shift = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        scale = float(2.0 ** rng.uniform(-1.0, 1.0))
        out[n] = Motion(angle, shift, scale) if exact else Motion(shift=shift)
    return out


def write_domain(path, label, motion):
    import yaml

    segs = []
    for seg in domain_segments(label, motion.scale):
        out = dict(seg)
        for key in ("start", "end", "center"):
            if key in out:
                out[key] = motion.apply(out[key])
        segs.append(out)
    doc = {"schema": 1, "label": label, "loops": [{"segments": segs}]}
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


# ---------------------------------------------------------------------------
# Jobs


def sha256_file(path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()


def read_spectrum_header(path):
    """Header keys and row count of a spectrum file, parsed by the bench."""
    header, rows, first = {}, 0, None
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, val = token.partition("=")
                    header[key] = val
            elif line.startswith("index,") or not line.strip():
                continue
            else:
                rows += 1
                if first is None:
                    first = float(line.split(",")[1])
    return header, rows, first


@dataclass
class Job:
    """One unit of work, timed as a whole, then checked untimed.

    ``run`` drives the program and returns facts (exit codes, verdicts);
    it looks every program function up through the ``drumspec`` package at
    call time, which is where the tracer wraps them.  ``check`` reads the
    job's output files, raises GateFailure on a wrong output and returns
    more facts.  ``artifacts`` are the files whose digests are recorded.
    """

    name: str
    run: object
    check: object
    artifacts: list = field(default_factory=list)


def _cli(argv, expected):
    from drumspec import cli

    code = cli.main(list(argv))
    if code not in expected:
        raise GateFailure(f"drumspec {' '.join(argv)} exited {code}, "
                          f"expected {sorted(expected)}")
    return code


def _check_spectrum(path, source, min_rows=1):
    header, rows, first = read_spectrum_header(path)
    if header.get("source") != source:
        raise GateFailure(f"{path}: source={header.get('source')}, "
                          f"expected {source}")
    if rows < min_rows:
        raise GateFailure(f"{path}: {rows} eigenvalues, need {min_rows}")
    facts = {"modes": rows, "lambda1": first}
    if source == "fem":
        res = float(header["max_residual"])
        if not res <= MAX_RESIDUAL:
            raise GateFailure(f"{path}: max_residual {res:.3g} exceeds "
                              f"{MAX_RESIDUAL:g}")
        facts["max_residual"] = res
    return facts


def _check_verdict(label, decision):
    """The rule of the verify check classifier/corpus: cornered domains
    must come out has_corners, smooth ones anything but has_corners."""
    ok = decision != "has_corners" if label in SMOOTH \
        else decision == "has_corners"
    if not ok:
        raise GateFailure(f"{label}: verdict {decision} is wrong")


def _analytic_job(label, cutoff, motion):
    out = f"{label}-{cutoff:g}"
    spec = f"{out}/{label}.spectrum"
    report = f"{out}/{label}_report.txt"
    expected = SMOOTH_EXIT if label in SMOOTH else CORNERED_EXIT

    def run():
        _cli(["spectrum", "--domain", f"{label}.yaml",
              "--cutoff", repr(cutoff / motion.scale ** 2), "--out", out], {0})
        return {"exit": _cli(["classify", "--spectrum", spec, "--out", out],
                             expected)}

    def check(facts):
        import yaml

        with open(report) as fh:
            doc = yaml.safe_load(fh)
        decision = doc["verdict"]["decision"]
        if DECISION_EXIT[decision] != facts["exit"]:
            raise GateFailure(f"{report}: decision {decision} disagrees with "
                              f"exit code {facts['exit']}")
        _check_verdict(label, decision)
        a0 = float(doc["fit"]["a0"])
        return dict(_check_spectrum(spec, "analytic"), decision=decision,
                    a0=a0, a0_err=a0 - EXACT_A0[label], label=label,
                    cutoff=cutoff)

    return Job(f"{label}@{cutoff:g}", run, check,
               [spec, report, f"{out}/{label}_trace.txt"])


def _lshape_job(seed):
    spec = "lshape/lshape.spectrum"

    def run():
        import drumspec

        _cli(["spectrum", "--domain", "lshape.yaml", "--h", repr(LSHAPE_H),
              "--count", str(LSHAPE_COUNT), "--seed", str(seed),
              "--out", "lshape"], {0})
        # `drumspec classify` on a FEM spectrum exits 3 today: after the
        # verdict, the CLI recomputes the window without the FEM floor
        # scale and finds it empty (ROADMAP item 5).  The verdict comes
        # from the library entry that `drumspec verify` uses.
        verdict = drumspec.classify(drumspec.read_spectrum(spec))
        return {"decision": verdict.decision, "a0": verdict.a0_estimate}

    def check(facts):
        _check_verdict("lshape", facts["decision"])
        out = _check_spectrum(spec, "fem")
        out["a0_err"] = facts["a0"] - EXACT_A0["lshape"]
        out["lambda1_rel_err"] = abs(out["lambda1"] / LSHAPE_LAMBDA1 - 1.0)
        out["label"] = "lshape"
        return out

    return Job("lshape", run, check, [spec])


def _gww_jobs(seed):
    jobs = []
    for label in GWW_VERTICES:
        spec = f"gww/{label}.spectrum"

        def run(label=label):
            _cli(["spectrum", "--domain", f"{label}.yaml", "--h", repr(GWW_H),
                  "--count", str(GWW_COUNT), "--seed", str(seed),
                  "--out", "gww"], {0})
            return {}

        def check(facts, spec=spec):
            return _check_spectrum(spec, "fem", min_rows=GWW_COUNT)

        jobs.append(Job(label, run, check, [spec]))

    def compare():
        import drumspec

        a, b = (drumspec.read_spectrum(f"gww/{label}.spectrum")
                for label in GWW_VERTICES)
        same, dev = drumspec.isospectral_compare(a, b, count=GWW_COUNT,
                                                 rel_tol=GWW_REL_TOL)
        return {"same": bool(same), "iso_dev": float(dev)}

    def check_compare(facts):
        if not facts["same"]:
            raise GateFailure(f"gww pair deviates by {facts['iso_dev']:.3g}")
        return {}

    jobs.append(Job("compare", compare, check_compare))
    return jobs


def prepare(workload, seed, workdir):
    """Write the workload's domain files into ``workdir``; return its jobs."""
    workdir = Path(workdir)
    if workload == "analytic-sweep":
        moves = motions(seed, ANALYTIC_DOMAINS, exact=True)
        jobs = []
        for label in ANALYTIC_DOMAINS:
            write_domain(workdir / f"{label}.yaml", label, moves[label])
            jobs += [_analytic_job(label, c, moves[label])
                     for c in ANALYTIC_CUTOFFS]
        return jobs
    if workload == "lshape-k450":
        write_domain(workdir / "lshape.yaml", "lshape",
                     motions(seed, ["lshape"], exact=False)["lshape"])
        return [_lshape_job(seed)]
    if workload == "gww-pair":
        moves = motions(seed, list(GWW_VERTICES), exact=False)
        for label in GWW_VERTICES:
            write_domain(workdir / f"{label}.yaml", label, moves[label])
        return _gww_jobs(seed)
    raise KeyError(workload)
