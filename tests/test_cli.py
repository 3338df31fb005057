"""Exit codes of the command-line interface, run in-process on cheap inputs."""

import argparse
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drumspec.analytic_spectra import (
    Spectrum,
    read_spectrum,
    rectangle_spectrum,
    write_spectrum,
)
from drumspec import classifier
from drumspec.cli import _build_parser, main
from drumspec.geometry import (
    make_disk,
    make_equilateral_triangle,
    make_lshape,
    make_polygon,
    make_square,
    save_domain,
)
from drumspec.heat_trace import read_trace
from drumspec.reporting import read_report


@pytest.fixture
def domain_file(tmp_path):
    def write(domain, name):
        path = tmp_path / f"{name}.yaml"
        save_domain(domain, path)
        return str(path)

    return write


def fem_square_spectrum(tmp_path, t_min_bias, drift=0.0):
    """Exact unit-square spectrum at cutoff 2e4, labelled as a FEM spectrum
    with the given drift floor.  A nonzero ``drift`` raises each eigenvalue
    to lambda * (1 + drift * lambda), the leading form of a discretisation's
    upward drift, and keeps those still below the cutoff."""
    exact = rectangle_spectrum(1.0, 1.0, 2.0e4)
    lam = exact.eigenvalues * (1.0 + drift * exact.eigenvalues)
    spec = Spectrum(lam[lam <= exact.cutoff], exact.cutoff, "fem",
                    domain_label="fem-square", area_hint=exact.area_hint,
                    perimeter_hint=exact.perimeter_hint,
                    meta={"t_min_bias": t_min_bias})
    path = tmp_path / "fem-square.spectrum"
    write_spectrum(spec, path)
    return str(path)


def test_smooth_exits_0(tmp_path, domain_file):
    disk = domain_file(make_disk(), "disk")
    for cutoff in ("5e3", "2e4"):
        assert main(["classify", "--domain", disk, "--cutoff", cutoff,
                     "--out", str(tmp_path)]) == 0


def test_has_corners_exits_10(tmp_path, domain_file):
    square = domain_file(make_square(), "square")
    assert main(["classify", "--domain", square, "--cutoff", "5e3",
                 "--out", str(tmp_path)]) == 10


def test_indeterminate_exits_20(tmp_path, domain_file):
    # The disk's a0 sits 1.03 uncertainties below 1/6 here: outside a
    # +-0.5 u band, and not above it.
    disk = domain_file(make_disk(), "disk")
    assert main(["classify", "--domain", disk, "--cutoff", "2e4",
                 "--decision-z", "0.5", "--out", str(tmp_path)]) == 20


def test_insufficient_spectrum_exits_3_with_cutoff_hint(tmp_path, domain_file,
                                                        capsys):
    tri = domain_file(make_equilateral_triangle(), "triangle")
    assert main(["classify", "--domain", tri, "--cutoff", "5e3",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "need cutoff >=" in err
    assert err.count("cutoff >=") == 1


def test_malformed_domain_exits_2(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: 1\nloops: [{segments: [{kind: spiral}]}]\n")
    assert main(["classify", "--domain", str(path),
                 "--out", str(tmp_path)]) == 2


def test_unparseable_domain_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: 1\nloops: [\n")
    assert main(["classify", "--domain", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "not parseable" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "classify"])
def test_label_with_a_slash_names_a_file_in_out(tmp_path, domain_file,
                                                command):
    domain = make_square()
    domain.label = "a/b"
    path = domain_file(domain, "slashed")
    out = tmp_path / "out"
    assert main([command, "--domain", path, "--cutoff", "5e3",
                 "--out", str(out)]) == (0 if command == "spectrum" else 10)
    names = {"spectrum": ["a_b.spectrum"],
             "classify": ["a_b_report.txt", "a_b_trace.txt"]}[command]
    assert sorted(p.name for p in out.iterdir()) == names
    if command == "spectrum":
        assert read_spectrum(out / "a_b.spectrum").domain_label == "a/b"


def test_classify_spectrum_with_a_slash_in_its_label(tmp_path):
    spec = rectangle_spectrum(1.0, 1.0, 5.0e3)
    spec.domain_label = "a/b"
    path = tmp_path / "slashed.spectrum"
    write_spectrum(spec, path)
    out = tmp_path / "out"
    assert main(["classify", "--spectrum", str(path), "--out", str(out)]) == 10
    assert sorted(p.name for p in out.iterdir()) == ["a_b_report.txt",
                                                      "a_b_trace.txt"]
    assert read_trace(out / "a_b_trace.txt").cutoff == 5.0e3


def test_plotdata_without_trace_exits_4(tmp_path):
    report = tmp_path / "x_report.txt"
    report.write_text("report_version: 1\n")
    assert main(["plotdata", "--report", str(report),
                 "--out", str(tmp_path)]) == 4


@pytest.fixture
def classified_square(tmp_path):
    """Report and trace of a classified exact square spectrum."""
    exact = rectangle_spectrum(1.0, 1.0, 2.0e4)
    spec, label = tmp_path / "square.spectrum", exact.domain_label
    write_spectrum(exact, spec)
    out = tmp_path / "out"
    assert main(["classify", "--spectrum", str(spec), "--out", str(out)]) == 10
    report, trace = out / f"{label}_report.txt", out / f"{label}_trace.txt"
    assert plotdata(report, trace, out) == 0
    return report, trace


def plotdata(report, trace, out):
    return main(["plotdata", "--report", str(report), "--trace", str(trace),
                 "--out", str(out)])


@pytest.mark.parametrize("text", [
    "", "fit: [1, 2]\n", "report_version: 1\n", "fit: [\n",
    "# cutoff=100\nindex,eigenvalue,multiplicity_hint\n1,19.7,1\n",
    "fit: {a_minus1: x, a_minus_half: 1, a0: 1, a_half: 1}\n",
], ids=["empty", "fit-not-a-mapping", "no-fit", "not-yaml", "spectrum-file",
        "coefficient-not-a-number"])
def test_plotdata_on_a_report_without_a_fit_exits_4(tmp_path, classified_square,
                                                      text):
    report = tmp_path / "bad_report.txt"
    report.write_text(text)
    assert plotdata(report, classified_square[1], tmp_path) == 4


@pytest.mark.parametrize("table", [
    "t,h,tail_bound\n1,2\n3,4\n", "t,h,tail_bound\n1,2,3\n4,5\n",
    "t,h\n1,2\n3,4\n",
], ids=["two-values-a-row", "ragged", "two-columns"])
def test_plotdata_on_a_malformed_trace_exits_4(tmp_path, classified_square,
                                               table):
    trace = tmp_path / "bad_trace.txt"
    trace.write_text("# cutoff=20000 safety_factor=2\n" + table)
    assert plotdata(classified_square[0], trace, tmp_path) == 4


def test_classify_without_input_exits_1(tmp_path):
    assert main(["classify", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["spectrum", "classify"])
def test_missing_domain_file_exits_2(tmp_path, command, capsys):
    assert main([command, "--domain", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path)]) == 2
    assert "not readable" in capsys.readouterr().err


SLIVER = [(0, 0), (1, 0), (1, 0.01), (0.5, 0.012), (0, 0.01)]


@pytest.mark.parametrize("build, count, message", [
    (lambda: make_polygon(SLIVER, label="sliver"), "200",
     "segment 1 of loop 0 (length 0.01) is too short for the coarse "
     "spacing 0.166667"),
    (make_lshape, "500", "count=500 out of range for 16 dofs"),
], ids=["mesh", "solve"])
def test_mesh_and_solve_failures_exit_1(tmp_path, domain_file, build, count,
                                        message, capsys):
    # a sliver pentagon too thin for the coarse spacing, and more modes
    # than the L-shape has dofs at h=0.2
    domain = domain_file(build(), "domain")
    assert main(["spectrum", "--domain", domain, "--h", "0.2",
                 "--count", count, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [None, "# cutoff=100\nindex,eigenvalue\n"],
                         ids=["missing", "malformed"])
def test_unreadable_spectrum_file_exits_1(tmp_path, text, capsys):
    path = tmp_path / "x.spectrum"
    if text is not None:
        path.write_text(text)
    assert main(["classify", "--spectrum", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "unreadable spectrum" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("4,78.956835208714864,1", "4,nan,1"),
    ("cutoff=5000", "cutoff=nan"),
    ("cutoff=5000", "cutoff=-5"),
    ("cutoff=5000", "cutoff=0"),
    ("cutoff=5000", "cutoff=inf"),
    ("area_hint=1", "area_hint=0"),
    ("area_hint=1", "area_hint=-1"),
    ("perimeter_hint=4", "perimeter_hint=inf"),
], ids=["nan-eigenvalue", "cutoff-nan", "cutoff-negative", "cutoff-zero",
        "cutoff-inf", "area-zero", "area-negative", "perimeter-inf"])
def test_spectrum_file_with_a_bad_value_exits_1(tmp_path, old, new, capsys):
    path = tmp_path / "bad.spectrum"
    write_spectrum(rectangle_spectrum(1.0, 1.0, 5.0e3), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    assert main(["classify", "--spectrum", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "unreadable spectrum" in capsys.readouterr().err


def test_fem_spectrum_gets_the_library_verdict(tmp_path):
    spec = fem_square_spectrum(tmp_path, t_min_bias=0.01)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["classify", "--spectrum", spec, "--out", str(out)]) == 10
        report = out / "fem-square_report.txt"
        trace = out / "fem-square_trace.txt"
        t_min = read_report(report)["fit"]["t_min"]
        assert float(read_trace(trace).grid[0]) == float(t_min)
        outputs.append((report.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_binding_fem_floor_exits_3_without_cutoff_hint(tmp_path, capsys):
    spec = fem_square_spectrum(tmp_path, t_min_bias=0.05)
    assert main(["classify", "--spectrum", spec, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "refine the mesh size h" in err
    assert "need cutoff" not in err


@pytest.mark.parametrize("source", ["exact", "fem"])
def test_plotdata_draws_the_reported_fit(tmp_path, source):
    if source == "exact":
        exact = rectangle_spectrum(1.0, 1.0, 2.0e4)
        spec, label = str(tmp_path / "square.spectrum"), exact.domain_label
        write_spectrum(exact, spec)
    else:
        spec = fem_square_spectrum(tmp_path, t_min_bias=0.01, drift=1e-6)
        label = "fem-square"
    out = tmp_path / "out"
    assert main(["classify", "--spectrum", spec, "--out", str(out)]) == 10
    report, trace = out / f"{label}_report.txt", out / f"{label}_trace.txt"
    assert main(["plotdata", "--report", str(report), "--trace", str(trace),
                 "--out", str(out)]) == 0
    fit = read_report(report)["fit"]
    # FEM fits carry the 1/t^2 drift term; here it moves the curve by far
    # more than the fit's residual, so a curve without it fails below.
    assert ("a_pollution" in fit) == (source == "fem")
    t, h, curve, resid = np.loadtxt(out / "fit_curve.txt", delimiter=",",
                                    skiprows=1).T
    samples = read_trace(trace)
    assert_array_equal(t, samples.grid)
    assert_array_equal(h, samples.values)
    assert_allclose(resid, h - curve, rtol=0, atol=1e-13 * h.max())
    # max_rel_residual comes from the column-scaled system; re-evaluating
    # the model from the report adds rounding of order 1e-15 relative.
    assert np.all(np.abs(resid) <= (fit["max_rel_residual"] + 1e-12) * h)


def test_injected_a0_bias_fails_exactly_the_classifier_row(tmp_path,
                                                           monkeypatch):
    # Each verdict's a0 is shifted by 0.1 and decided again, so verify must
    # fail exactly its classifier row, on the smooth disk.
    classify = classifier.classify

    def biased(spectrum, chi=1):
        verdict = classify(spectrum, chi=chi)
        a0 = verdict.a0_estimate + 0.1
        decision, margin = classifier.decide_from_estimate(
            a0, verdict.uncertainty, chi=verdict.chi,
            decision_z=verdict.decision_z)
        return dataclasses.replace(verdict, decision=decision, a0_estimate=a0,
                                   margin=margin)

    monkeypatch.setattr(classifier, "classify", biased)
    assert main(["verify", "--skip-fem", "--out", str(tmp_path)]) == 1
    failures = read_report(tmp_path / "verify_failures.txt")["failures"]
    assert [f["name"] for f in failures] == ["classifier/corpus"]
    assert failures[0]["detail"].endswith("wrong verdicts: disk:has_corners")


@pytest.mark.parametrize("argv", [
    ["classify", "--bogus"],
    ["classify", "--kappa", "12"],
    ["spectrum", "--domain", "d.yaml", "--grading", "0.5"],
    ["verify", "--inject-a0-bias", "0.1"],
    ["classify", "--decision-z", "abc"],
    ["frobnicate"],
], ids=["unknown-option", "removed-kappa", "removed-grading",
        "removed-inject-a0-bias", "bad-value", "unknown-command"])
def test_usage_errors_exit_1(argv, capsys):
    # 2 would read as "invalid domain file"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


BAD_VALUES = [
    ("classify", "--cutoff", "-5"), ("classify", "--cutoff", "nan"),
    ("classify", "--cutoff", "inf"), ("classify", "--h", "0"),
    ("classify", "--h", "nan"), ("classify", "--decision-z", "-1"),
    ("classify", "--decision-z", "nan"), ("classify", "--count", "0"),
    ("classify", "--chi", "2"), ("spectrum", "--seed", "-1"),
    ("verify", "--seed", "-1"),
]


@pytest.mark.parametrize("command, option, value", BAD_VALUES, ids=[
    f"{o}-{v}" if c == "classify" else f"{c}-{o}-{v}" for c, o, v in BAD_VALUES])
def test_bad_option_values_are_usage_errors(tmp_path, domain_file, command,
                                            option, value, capsys):
    # Each used to end in a traceback, for --decision-z -1 in the smooth
    # disk's has_corners verdict (exit 10), and for verify --seed -1 in a
    # failed corpus row.
    source = ["--skip-fem"] if command == "verify" \
        else ["--domain", domain_file(make_disk(), "disk")]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, option, value, "--out", str(tmp_path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {option}: expected a finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["classify", "--help"]],
                         ids=["help", "version", "classify-help"])
def test_help_and_version_exit_0(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_options_of_each_subcommand():
    # Adding or removing an option is an interface change: edit this list.
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(opt for action in sp._actions
                            for opt in action.option_strings)
               for name, sp in sub.choices.items()}
    job = ["--count", "--cutoff", "--h", "--out", "--seed"]
    assert options == {
        "spectrum": sorted(["-h", "--help", "--domain"] + job),
        "classify": sorted(["-h", "--help", "--spectrum", "--domain", "--chi",
                            "--decision-z"] + job),
        "verify": sorted(["-h", "--help", "--filter", "--seed", "--out",
                          "--skip-fem"]),
        "plotdata": sorted(["-h", "--help", "--report", "--trace", "--out"]),
    }
