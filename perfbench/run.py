"""drumspec benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload analytic-sweep --seed 0 --seconds 25 --trace 0

Jobs run one after another in this single process (a closed loop with one
client), driving the program through ``drumspec.cli.main`` from the
package sources in ``src/``.  The job list is repeated while another pass
fits in ``--seconds`` (at least once); each repeat is a pass.  Each job's
time is its median over passes, so a slow spell of the machine during one
pass moves no metric.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same passes with spans around every call into the
program's layers and prints the per-layer metrics.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  A full record (environment, per-job timings, facts and sha256
digests of every output file, spans) goes to ``.perfbench/results/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Neither module imports numpy or the program at import time, so thread
# caps set in main still reach the BLAS pools.
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
SETUP_CODE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracer, workloads
tracer.import_layers()
workloads.prepare({workload!r}, {seed!r}, ".")
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_s_max": ("s", "lower"),
    "modes_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# job_s_max rests on a single job (on lshape-k450, one sample of 25-58 s), so
# across runs it spreads up to 0.34 of its median on the shared machine, past
# the largest bound allowed.  It is printed and recorded, not in the JSON line.
NOT_IN_JSON = ("job_s_max",)
# Printed and recorded, not in the JSON line: each exists on only some
# workloads, and the FEM ones move with the mesh, which the seed changes.
ACCURACY = {
    "a0_err_max": ("1", "lower"),
    "a0_consistency": ("1", "lower"),
    "lambda1_rel_err": ("1", "lower"),
    "iso_dev": ("1", "lower"),
    "failed_frac": ("1", "lower"),
}


def cap_threads(nproc):
    """Let no BLAS or OpenMP pool start more threads than there are cores.

    Runs before numpy is imported, which is when the pools read these."""
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = 0
        if not 1 <= n <= nproc:
            os.environ[var] = str(nproc)


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_setup(workload, seed, workdir):
    """Median wall time of a fresh interpreter importing the program and
    writing the workload's inputs, over SETUP_REPEATS runs."""
    code = SETUP_CODE.format(bench=str(BENCH), src=str(SRC),
                             workload=workload, seed=seed)
    samples = []
    for i in range(SETUP_REPEATS):
        d = workdir / f"setup{i}"
        d.mkdir()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=d,
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        shutil.rmtree(d)
    return statistics.median(samples), samples


def run_pass(jobs, reference):
    """Run every job once; time ``run``, then check outputs untimed."""
    results = []
    for job in jobs:
        rec = {"name": job.name, "ok": False, "error": None, "facts": {},
               "digests": {}}
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                facts = job.run()
            rec["seconds"] = time.perf_counter() - t0
            facts.update(job.check(facts))
            rec["facts"] = facts
            rec["digests"] = {a: workloads.sha256_file(a)
                              for a in job.artifacts}
            ref = reference.get(job.name)
            if ref is not None and ref != rec["digests"]:
                raise workloads.GateFailure("outputs differ from pass 1")
            rec["ok"] = True
        except workloads.GateFailure as exc:
            rec["error"] = str(exc)
        except Exception:  # a job that raises is counted failed, not fatal
            rec["error"] = traceback.format_exc(limit=3)
        rec.setdefault("seconds", time.perf_counter() - t0)
        rec["output"] = out.getvalue()
        results.append(rec)
    return results


def accuracy(passes):
    first = passes[0]
    facts = [r["facts"] for r in first if r["ok"]]
    out = {}
    a0 = [abs(f["a0_err"]) for f in facts if "a0_err" in f]
    if a0:
        out["a0_err_max"] = max(a0)
    by_label = {}
    for f in facts:
        if "cutoff" in f:
            by_label.setdefault(f["label"], {})[f["cutoff"]] = abs(f["a0_err"])
    ratios = [e[max(e)] / e[min(e)] for e in by_label.values()
              if len(e) > 1 and e[min(e)] > 0]
    if ratios:
        out["a0_consistency"] = max(ratios)
    for key in ("lambda1_rel_err", "iso_dev"):
        vals = [f[key] for f in facts if key in f]
        if vals:
            out[key] = max(vals)
    attempted = sum(len(p) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p)
    out["failed_frac"] = failed / attempted
    return out, attempted, failed


def job_medians(passes):
    """Each job's median time over passes, in job order."""
    return [statistics.median(p[i]["seconds"] for p in passes)
            for i in range(len(passes[0]))]


def end_to_end(passes, setup_s):
    jobs = job_medians(passes)
    wall = sum(jobs)
    # Every pass writes the same files (a gate), so the first counts modes.
    modes = sum(r["facts"].get("modes", 0) for r in passes[0])
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "job_s_max": max(jobs),
        "modes_per_s": modes / wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(passes, pass_spans):
    per_pass = [tracer.layer_metrics(s) for s in pass_spans]
    errors = sorted({e for _, errs in per_pass for e in errs})
    m = {k: statistics.median(p[0][k] for p in per_pass)
         for k in per_pass[0][0]}
    m["trace.wall_s"] = sum(job_medians(passes))
    m["trace.spans"] = statistics.median(len(s) for s in pass_spans)
    m["trace.overhead_s"] = m["trace.spans"] * tracer.per_span_cost()
    m["trace.overhead_frac"] = m["trace.overhead_s"] / m["trace.wall_s"]
    return m, errors


def per_layer_units(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("_deg"):
        return "deg"
    if name.endswith(("_ratio", "_frac", "max_residual", "condition_max")):
        return "1"
    return "count"


def measure(args, workdir):
    """Set up, then run passes until the deadline; return what was seen."""
    setup_s, setup_samples = time_setup(args.workload, args.seed, workdir)
    tracer.import_layers()
    import drumspec

    if Path(drumspec.__file__).resolve().parent != SRC / "drumspec":
        raise RuntimeError(f"imported drumspec from {drumspec.__file__}")
    jobs = workloads.prepare(args.workload, args.seed, workdir)
    os.chdir(workdir)
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    passes, pass_spans, reference = [], [], {}
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    try:
        while not passes or time.perf_counter() + longest < deadline:
            t0 = time.perf_counter()
            passes.append(run_pass(jobs, reference))
            longest = max(longest, time.perf_counter() - t0)
            for r in passes[-1]:
                if r["ok"]:
                    reference.setdefault(r["name"], r["digests"])
            if tr:
                pass_spans.append(list(tr.spans))
                tr.spans.clear()
    finally:
        if tr:
            tr.uninstall()
    return setup_s, setup_samples, passes, pass_spans


def write_record(record, pass_spans):
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / (f"{record['workload']}-seed{record['seed']}"
                              f"-trace{record['trace']}")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if pass_spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for i, spans in enumerate(pass_spans):
                t0 = spans[0][2] if spans else 0.0
                for layer, name, start, end, parent, cnt in spans:
                    fh.write(json.dumps({
                        "pass": i, "layer": layer, "fn": name,
                        "start_s": start - t0, "dur_s": end - start,
                        "parent": parent, "counters": cnt}) + "\n")
    return stem.with_suffix(".json").relative_to(ROOT)


def print_summary(record, attempted, failed, path):
    env, passes = record["environment"], record["passes"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {len(passes)}")
    print("  why: " + record["why"])
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()
                                if k != "threads")
          + " " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for r, secs in zip(passes[0], job_medians(passes)):
        status = "ok" if r["ok"] else "FAILED: " + r["error"].strip()
        print(f"  job {r['name']:<28} {secs:9.3f} s  {status}")
    print(f"  jobs attempted {attempted}, failed {failed}")
    print(f"  end-to-end ({len(passes)} pass(es), medians):")
    for k, v in record["end_to_end"].items():
        unit, better = END_TO_END[k]
        print(f"    {k:<34} {v:14.6g} {unit:<6} {better} is better")
    print("  accuracy (first pass):")
    for k, (unit, better) in ACCURACY.items():
        acc = record["accuracy"]
        v = f"{acc[k]:14.6g}" if k in acc else f"{'n/a':>14}"
        print(f"    {k:<34} {v} {unit:<6} {better} is better")
    if record["trace"]:
        print("  per-layer (traced passes, medians):")
        for k, v in record["per_layer"].items():
            print(f"    {k:<34} {v:14.6g} {per_layer_units(k)}")
        for e in record["probe_errors"]:
            print(f"  probe error: {e}")
    print(f"  record: {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drumspec" / "__init__.py").is_file():
        print(f"no drumspec sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s, setup_samples, passes, pass_spans = measure(args, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    acc, attempted, failed = accuracy(passes)
    layers, probe_errors = per_layer(passes, pass_spans) if args.trace \
        else ({}, [])
    record = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(nproc), "setup_samples_s": setup_samples,
        "end_to_end": end_to_end(passes, setup_s), "accuracy": acc,
        "per_layer": layers, "probe_errors": probe_errors, "passes": passes,
    }
    path = write_record(record, pass_spans)
    print_summary(record, attempted, failed, path)

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_units(k)}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in record["end_to_end"].items()
                   if k not in NOT_IN_JSON}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
