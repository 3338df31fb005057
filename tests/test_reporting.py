"""The table format of ``reporting``, and that no other module writes files
but the domain writer in ``geometry``."""

import ast
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_array_equal

from drumspec import __version__, reporting
from drumspec.asymptotic_fit import fit_report
from drumspec.classifier import classify
from drumspec.corpus import REFERENCE_DOMAINS, spectrum_for
from drumspec.heat_trace import theoretical_coefficients
from drumspec.reporting import read_table, write_table

SRC = Path(__file__).resolve().parents[1] / "src" / "drumspec"

# Modules allowed to open files for writing: reporting writes reports and
# tables, geometry writes domain files (YAML).
WRITERS = {"reporting.py", "geometry.py"}


class TestTables:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.txt"
        rows = [(1, 0.1, 1 / 3), (2, 1e-300, -2.5e17)]
        write_table(path, [{"cutoff": "100", "label": "unit square"},
                           {"h": "0.07"}],
                    ("n", "x", "y"), "{},{:.17g},{:.17g}", rows)
        assert path.read_text().splitlines()[:3] == [
            "# cutoff=100 label=unit square", "# h=0.07", "n,x,y"]
        header, back = read_table(path, ("n", "x", "y"))
        assert header == {"cutoff": "100", "label": "unit square", "h": "0.07"}
        assert_array_equal(back, np.array(rows))

    def test_no_header_no_rows(self, tmp_path):
        path = tmp_path / "t.txt"
        write_table(path, [], ("a", "b"), "{},{}", [])
        assert path.read_text() == "a,b\n"
        header, rows = read_table(path, ("a", "b"))
        assert header == {}
        assert rows.shape == (0, 2)

    def test_single_row_is_two_dimensional(self, tmp_path):
        path = tmp_path / "t.txt"
        write_table(path, [], ("a", "b"), "{},{}", [(1, 2)])
        assert read_table(path, ("a", "b"))[1].shape == (1, 2)

    def test_missing_column_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# cutoff=1\nt,h\n1,2\n")
        with pytest.raises(ValueError, match="no column line"):
            read_table(path, ("t", "h", "tail_bound"))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("t,h,tail_bound\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="2 columns"):
            read_table(path, ("t", "h", "tail_bound"))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("t,h,tail_bound\n1,2,3\n4,5\n")
        with pytest.raises(ValueError):
            read_table(path, ("t", "h", "tail_bound"))


def file_writes(path):
    """Lines of ``path`` that call open() with a mode that writes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None)
        if mode is None:
            continue
        # A mode that is not a literal may write; count it.
        if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
            lines.append(f"{path.name}:{node.lineno}")
    return lines


def test_only_reporting_and_geometry_write_files():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in WRITERS)
    assert modules
    assert [line for path in modules for line in file_writes(path)] == []


def test_writer_check_sees_the_writers():
    assert file_writes(SRC / "reporting.py")
    assert file_writes(SRC / "geometry.py")


class PurePythonDumper(yaml.SafeDumper):
    pass


PurePythonDumper.add_representer(float, reporting._float_representer)


def test_reports_dump_as_the_pure_python_dumper_does():
    """The classify reports of the verification corpus's analytic domains
    come out byte for byte as PyYAML's pure-Python SafeDumper writes them."""
    assert issubclass(reporting._Dumper,
                      getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    refs = [ref for ref in REFERENCE_DOMAINS if ref.analytic]
    assert refs
    for ref in refs:
        spec = spectrum_for(ref)
        verdict = classify(spec, chi=ref.chi)
        report = fit_report(
            verdict.fit, theoretical=theoretical_coefficients(ref.build()),
            inputs={"tool_version": __version__, "domain_path": f"{ref.label}.yaml",
                    "eigenvalue_digest": reporting.digest_array(spec.eigenvalues)},
            verdict=verdict.to_dict())
        expected = yaml.dump(reporting._sanitize(report), Dumper=PurePythonDumper,
                             sort_keys=False, default_flow_style=False)
        assert reporting.dump_report(report).encode() == expected.encode(), ref.label
