"""Tests of the benchmark itself: determinism and the tracer's neutrality.

Run with ``python3 -m pytest perfbench`` (about two minutes).  Most tests
run the real workload jobs at reduced sizes (one cutoff, coarse meshes).
The L-shape job runs at full size: its blind fit needs the h=0.01 spectrum,
and coarser meshes make ``classify`` raise InsufficientSpectrumError.
"""

import os
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SMALL_WORKLOADS = ("analytic-sweep", "gww-pair")


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "ANALYTIC_CUTOFFS", (2.0e4,))
    monkeypatch.setattr(workloads, "GWW_H", 0.08)


def run_once(workload, seed, workdir, traced=False):
    workdir.mkdir()
    jobs = workloads.prepare(workload, seed, workdir)
    tr = tracer.Tracer() if traced else None
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if tr:
            tr.install()
        results = run.run_pass(jobs, {})
    finally:
        if tr:
            tr.uninstall()
        os.chdir(cwd)
    failed = [(r["name"], r["error"]) for r in results if not r["ok"]]
    assert not failed
    return results, tr


def fingerprint(results):
    return [(r["name"], r["digests"], r["facts"].get("modes")) for r in results]


@pytest.mark.usefixtures("small_sizes")
@pytest.mark.parametrize("workload", SMALL_WORKLOADS)
def test_same_seed_gives_identical_digests_and_counts(workload, tmp_path):
    first, _ = run_once(workload, 7, tmp_path / "a")
    second, _ = run_once(workload, 7, tmp_path / "b")
    assert fingerprint(first) == fingerprint(second)
    assert all(r["digests"] for r in first if r["name"] != "compare")


@pytest.mark.usefixtures("small_sizes")
@pytest.mark.parametrize("workload", SMALL_WORKLOADS)
def test_traced_run_changes_no_digest(workload, tmp_path):
    plain, _ = run_once(workload, 3, tmp_path / "plain")
    traced, tr = run_once(workload, 3, tmp_path / "traced", traced=True)
    assert fingerprint(plain) == fingerprint(traced)
    assert tr.spans
    layers, errors = tracer.layer_metrics(tr.spans)
    assert not errors
    if workload == "analytic-sweep":
        assert layers["fem_solver.mesh_s"] == 0.0
        assert layers["analytic_spectra.bessel_calls"] > 0
    else:
        assert layers["fem_solver.mesh_vertices"] > 0


def test_lshape_repeats_under_tracing(tmp_path):
    plain, _ = run_once("lshape-k450", 2, tmp_path / "plain")
    traced, tr = run_once("lshape-k450", 2, tmp_path / "traced", traced=True)
    assert fingerprint(plain) == fingerprint(traced)
    assert plain[0]["facts"] == traced[0]["facts"]
    layers, errors = tracer.layer_metrics(tr.spans)
    assert not errors
    assert layers["fem_solver.modes_requested"] == workloads.LSHAPE_COUNT


@pytest.mark.usefixtures("small_sizes")
def test_seed_changes_inputs_not_mode_counts(tmp_path):
    base, _ = run_once("analytic-sweep", 0, tmp_path / "s0")
    moved, _ = run_once("analytic-sweep", 5, tmp_path / "s5")
    assert [r["facts"]["modes"] for r in base] == \
        [r["facts"]["modes"] for r in moved]
    assert [r["digests"] for r in base] != [r["digests"] for r in moved]


def test_seed_zero_matches_reference_builders(tmp_path):
    from drumspec import corpus, geometry

    builders = {
        "square": geometry.make_square,
        "rectangle-2x1": lambda: geometry.make_rectangle(2.0, 1.0),
        "equilateral-triangle": geometry.make_equilateral_triangle,
        "quarter-disk": lambda: geometry.make_sector(workloads.PI / 2),
        "half-disk": lambda: geometry.make_sector(workloads.PI),
        "disk": geometry.make_disk,
        "lshape": geometry.make_lshape,
    }
    builders.update({label: (lambda v=v: geometry.make_polygon(v))
                     for label, v in corpus.ISOSPECTRAL_PAIR.items()})
    for label, build in builders.items():
        path = tmp_path / f"{label}.yaml"
        workloads.write_domain(path, label, workloads.Motion())
        got = [s.to_dict() for s in geometry.load_domain(path).loops[0].segments]
        want = [s.to_dict() for s in build().loops[0].segments]
        assert got == want, label


def test_tracer_uninstall_restores_bindings():
    from drumspec import classifier, heat_trace

    original = heat_trace.evaluate_trace
    tr = tracer.Tracer()
    tr.install()
    try:
        assert classifier.evaluate_trace is heat_trace.evaluate_trace
        assert heat_trace.evaluate_trace is not original
    finally:
        tr.uninstall()
    assert heat_trace.evaluate_trace is original
    assert classifier.evaluate_trace is original
