"""Exit codes of the command-line interface, run in-process on cheap inputs."""

import pytest

from drumspec.analytic_spectra import Spectrum, rectangle_spectrum, write_spectrum
from drumspec.cli import main
from drumspec.geometry import (
    make_disk,
    make_equilateral_triangle,
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


def fem_square_spectrum(tmp_path, t_min_bias):
    """Exact unit-square spectrum at cutoff 2e4, labelled as a FEM spectrum
    with the given drift floor."""
    exact = rectangle_spectrum(1.0, 1.0, 2.0e4)
    spec = Spectrum(exact.eigenvalues, exact.cutoff, "fem",
                    domain_label="fem-square", area_hint=exact.area_hint,
                    perimeter_hint=exact.perimeter_hint,
                    meta={"t_min_bias": t_min_bias})
    path = tmp_path / "fem-square.spectrum"
    write_spectrum(spec, path)
    return str(path)


def test_smooth_exits_0(tmp_path, domain_file):
    disk = domain_file(make_disk(), "disk")
    assert main(["classify", "--domain", disk, "--cutoff", "2e4",
                 "--out", str(tmp_path)]) == 0


def test_has_corners_exits_10(tmp_path, domain_file):
    square = domain_file(make_square(), "square")
    assert main(["classify", "--domain", square, "--cutoff", "5e3",
                 "--out", str(tmp_path)]) == 10


def test_indeterminate_exits_20(tmp_path, domain_file):
    disk = domain_file(make_disk(), "disk")
    assert main(["classify", "--domain", disk, "--cutoff", "5e3",
                 "--out", str(tmp_path)]) == 20


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


def test_plotdata_without_trace_exits_4(tmp_path):
    report = tmp_path / "x_report.txt"
    report.write_text("report_version: 1\n")
    assert main(["plotdata", "--report", str(report),
                 "--out", str(tmp_path)]) == 4


def test_classify_without_input_exits_1(tmp_path):
    assert main(["classify", "--out", str(tmp_path)]) == 1


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
