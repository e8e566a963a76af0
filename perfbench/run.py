"""Benchmark of the ``rectify`` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload bundled|pair-so3|holo --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process makes every CLI call in-process through
``haarrect.cli.main``, with BLAS and OpenMP pinned to one thread.  Every
call starts cold: the package's in-process memos are cleared first, as in a
fresh ``rectify`` process.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run whose samples alternate with untraced ones.  Every call's
output is checked; the exit code is 1 if any check failed, 2 if the
checkout has no package to measure.  See perfbench/README.md.
"""

import os

BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these when numpy loads, so they are set before it is imported.
for _var in THREAD_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from summary import median, p75, tail  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Tally,
    artifact_digest,
    build_jobs,
    remove_artifacts,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 5         # sample on past the window until there are this many
MAX_WALL_S = 150        # but stop here whatever the count
# After each sample, fresh-interpreter imports are timed until they have
# taken this share of the measuring time so far: one or two per sample,
# spread over the whole window.
IMPORT_SHARE = 0.2
DEFAULT_SEED = 1        # re-check claims on the held-out seed 2

# The end-to-end metrics of the JSON result.  On a shared host the share of
# fast time in a run drifts from run to run; the upper quartile of a run's
# samples or imports varies less between runs than their median or minimum
# (see README.md).  Medians and tails stay in the printed report.
CONTRACT = ("setup_s", "latency_s.p75", "import_s.p75", "peak_rss_mb")

# Per-layer time metrics: total time per sample inside each named call ...
FUNCTION_METRICS = (
    "groups.normalize_algebra_norm",
    "groups.estimate_bch_constants",
    "groupoids.build_pair_groupoid",
    "groupoids.build_core",
    "groupoids.attach_haar_density",
    "groupoids.validate_groupoid",
    "groupoids.build_action_groupoid",
    "holo.real_slice_consistency",
    "rectifier.iterate",
    "rectifier.verify_core_morphism",
    "rectifier.verify_core_morphism_full",
    "holo.build_complexified_model",
    "holo.core_average_function",
    "holo.cr_residual",
    "holo.cr_convergence_order",
    "holo.real_restriction_check",
    "harness.generate_exact_morphism",
    "harness.perturb_morphism",
)
# ... and these per call.
PER_CALL_METRICS = ("rectifier.average_correction", "rectifier.defect")

IMPORT_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import haarrect.cli\n"
    "print(time.perf_counter() - t)\n"
    "print(sys.modules['haarrect'].__file__)\n"
)


class Sample(NamedTuple):
    """One pass over a workload's jobs."""

    trace_id: int
    traced: bool
    calls: list             # [(job, exit code, stdout)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reset_memos(modules):
    """Clear module-level memo dicts and functools caches of the package."""
    cleared = 0
    for mod in modules.values():
        for name, obj in vars(mod).items():
            if isinstance(obj, dict) and any(w in name.upper()
                                             for w in ("CACHE", "MEMO")):
                obj.clear()
                cleared += 1
            elif callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
                cleared += 1
    return cleared


def time_import():
    """Seconds a fresh interpreter spends in ``import haarrect.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    seconds, path = out.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"child imported haarrect from {path}")
    return float(seconds)


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def run_sample(jobs, modules, rec, tally, full):
    """Make every call of a sample, cold, then check each call's result."""
    remove_artifacts(jobs)
    gc.collect()
    trace_id = rec.begin_trace()
    calls = []
    main = modules["cli"].main

    def sequence():
        for job in jobs:
            reset_memos(modules)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = rec.call("cli.main", main, list(job.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:   # a traceback is a failed call, not a crash
                    code = traceback.format_exc(limit=3)
            calls.append((job, code, out.getvalue()))

    undo = spans.install(rec, modules, full)
    try:
        rec.call("bench.sample", sequence)
    finally:
        spans.uninstall(undo)
    for job, code, stdout in calls:
        for p in tally.record(job, code, stdout,
                              artifact_digest(job.artifacts)):
            print(f"FAILED {job.label}: {p}", file=sys.stderr)
    return Sample(trace_id, full, calls)


def sample_timings(sample, trace_spans):
    """End-to-end timings of one sample from its spans."""
    START, END = spans.START, spans.END
    by_name = {}
    for s in trace_spans:
        by_name.setdefault(s[spans.NAME], []).append(s)
    root = by_name["bench.sample"][0]
    cli = sorted(by_name["cli.main"], key=lambda s: s[START])
    out = {"latency_s": root[END] - root[START], "setup_s": 0.0,
           "run_s": 0.0, "validate_s": 0.0, "holo_s": 0.0, "iterate_s": 0.0,
           "iterations": 0, "pair_evals": 0}
    for (job, code, stdout), c in zip(sample.calls, cli):
        out[f"{job.kind}_s"] += c[END] - c[START]
        inside = lambda name: [s for s in by_name.get(name, ())
                               if c[START] <= s[START] <= c[END]]
        if job.kind == "run":
            its = inside("rectifier.iterate")
            out["setup_s"] += (its[0][START] if its else c[END]) - c[START]
            out["iterate_s"] += sum(s[END] - s[START] for s in its)
            try:
                steps = int(json.loads(stdout)["iterations"])
            except (ValueError, KeyError, TypeError):
                steps = 0
            out["iterations"] += steps
            out["pair_evals"] += steps * job.core_pairs
        elif job.kind == "holo":
            models = inside("holo.build_complexified_model")
            out["setup_s"] += (models[0][END] if models else c[END]) - c[START]
    return out


def end_to_end(timings, imports, peak_rss_mb, tally):
    """End-to-end metrics of the untraced samples: name -> (value, unit).

    The CONTRACT ones go into the JSON result; the rest, the medians, tails
    and the same samples broken down by command, go to the printed report.
    """
    col = lambda key: [t[key] for t in timings]
    metrics = {
        "setup_s": (median(col("setup_s")), "s"),
        "latency_s": (median(col("latency_s")), "s"),
        "latency_s.tail": (tail(col("latency_s"))[0], "s"),
        "latency_s.p75": (p75(col("latency_s")), "s"),
        "import_s": (median(imports), "s"),
        "import_s.p75": (p75(imports), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for key in ("run_s", "validate_s", "holo_s"):
        if any(col(key)):
            metrics[key] = (median(col(key)), "s")
            metrics[f"{key}.tail"] = (tail(col(key))[0], "s")
    if any(col("iterate_s")):
        metrics["pair_evals_per_s"] = (
            sum(col("pair_evals")) / sum(col("iterate_s")), "1/s")
        metrics["iterations"] = (timings[0]["iterations"], "count")
    metrics["failed_fraction"] = (tally.failed_fraction, "ratio")
    return metrics


def layer_metrics(samples, traces, counts):
    """Per-layer metrics of the traced samples: name -> (value, unit).

    Function times are totals per sample (median over samples), except the
    per-call ones; a layer's self time is the sum of its spans' self times.
    Also returns whether the work counts repeated exactly.
    """
    START, END, NAME = spans.START, spans.END, spans.NAME
    rows = []
    per_call = {name: [0.0, 0] for name in PER_CALL_METRICS}
    for smp in samples:
        trace = traces[smp.trace_id]
        own = spans.self_times(trace)
        row = {f"{name}.s": 0.0 for name in FUNCTION_METRICS}
        row.update({f"{layer}.self_s": 0.0
                    for layer in spans.LAYERS + ("bench",)})
        for s in trace:
            if f"{s[NAME]}.s" in row:
                row[f"{s[NAME]}.s"] += s[END] - s[START]
            if s[NAME] in per_call:
                per_call[s[NAME]][0] += s[END] - s[START]
                per_call[s[NAME]][1] += 1
            row[f"{spans.layer_of(s[NAME])}.self_s"] += own[s[spans.SPAN]]
        rows.append(row)
    out = {k: (median([r[k] for r in rows]), "s") for k in rows[0]}
    for name, (total, calls) in per_call.items():
        out[f"{name}.s"] = (total / calls if calls else 0.0, "s")
    out["trace.spans"] = (median([len(traces[s.trace_id]) for s in samples]),
                          "count")
    work = [{k: counts[s.trace_id].get(k, 0) for k in spans.COUNT_NAMES}
            for s in samples]
    out.update({k: (v, "count") for k, v in work[0].items()})
    return out, all(w == work[0] for w in work)


def measure(args, jobs, modules, rec, tally):
    """Warm up once, then sample until the window closes.

    Each sample is followed by import timings (see IMPORT_SHARE).  Returns
    the samples, the import times and the measured seconds.
    """
    run_sample(jobs, modules, rec, tally, full=False)
    samples, imports = [], []
    in_imports_s = 0.0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed > MAX_WALL_S or (
                elapsed >= args.seconds and len(samples) >= MIN_SAMPLES):
            break
        traced = bool(args.trace) and len(samples) % 2 == 1
        samples.append(run_sample(jobs, modules, rec, tally, traced))
        while not imports or (
                in_imports_s < IMPORT_SHARE * (time.perf_counter() - started)):
            start = time.perf_counter()
            imports.append(time_import())
            in_imports_s += time.perf_counter() - start
    return samples, imports, time.perf_counter() - started


def write_spans(path, recorded):
    """Spans as rows of ids, a name index and nanoseconds from the first."""
    names = sorted({s[spans.NAME] for s in recorded})
    index = {n: i for i, n in enumerate(names)}
    t0 = min(s[spans.START] for s in recorded)
    ns = lambda t: round((t - t0) * 1e9)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names,
                   "fields": ["trace", "span", "parent", "name", "start_ns",
                              "end_ns"],
                   "spans": [[t, sid, parent, index[name], ns(a), ns(b)]
                             for t, sid, parent, name, a, b in recorded]}, fh)


def print_report(args, env, e2e, n, imports, measured_s, memos, tally):
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} untraced_samples={n} imports={len(imports)} "
          f"measured={measured_s:.1f}s memos_cleared={memos}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    tail_p = tail(range(n))[1]
    for name, (value, unit) in e2e.items():
        note = ""
        count = len(imports) if name.startswith("import_s") else n
        if name.endswith(".tail"):
            note = f"  (p{tail_p:.1f} of {n} samples)"
        elif name.endswith(".p75"):
            note = f"  (upper quartile of {count})"
        elif unit == "s":
            note = f"  (median of {count})"
        print(f"{name:<22} {value:.6g} {unit}{note}")
    print(f"calls: attempted {tally.attempted}, failed {tally.failed}")
    for problem in tally.problems:
        print(f"FAILED {problem}")


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "haarrect", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print(f"error: no haarrect sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    modules = {layer: importlib.import_module(f"haarrect.{layer}")
               for layer in spans.LAYERS}
    pkg = sys.modules["haarrect"].__file__
    if not os.path.abspath(pkg).startswith(SRC + os.sep):
        print(f"error: haarrect imported from {pkg}, not {SRC}",
              file=sys.stderr)
        return 2

    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(HERE, ".work", "results")
    work_dir = os.path.join(HERE, ".work", f"{stem}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    rec = spans.Recorder()
    tally = Tally()
    try:
        jobs = build_jobs(args.workload, args.seed, ROOT, work_dir)
        memos = reset_memos(modules)
        samples, imports, measured_s = measure(args, jobs, modules, rec, tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    traces = {}
    for s in rec.spans:
        traces.setdefault(s[spans.TRACE], []).append(s)
    timings = {s.trace_id: sample_timings(s, traces[s.trace_id])
               for s in samples}
    plain = [timings[s.trace_id] for s in samples if not s.traced]
    e2e = end_to_end(plain, imports, peak_rss_mb, tally)
    print_report(args, env, e2e, len(plain), imports, measured_s, memos, tally)

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env,
              "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "sample_timings": plain, "import_s": imports,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems}
    metrics = {k: e2e[k] for k in CONTRACT}
    if args.trace:
        traced = [s for s in samples if s.traced]
        metrics, steady = layer_metrics(traced, traces, rec.counts)
        # each traced sample follows an untraced one
        pairs = [(timings[b.trace_id]["latency_s"],
                  timings[a.trace_id]["latency_s"])
                 for a, b in zip(samples, samples[1:]) if b.traced]
        overhead = median([t - u for t, u in pairs])
        metrics["trace.overhead_s"] = (overhead, "s")
        own = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        untraced = e2e["latency_s"][0]
        print(f"traced samples {len(traced)}: layer and bench self times sum "
              f"to {own:.4g} s (traced wall {median([t for t, _ in pairs]):.4g}"
              f" s); untraced wall {untraced:.4g} s + tracing overhead "
              f"{overhead:.4g} s = {untraced + overhead:.4g} s")
        for name, (value, unit) in metrics.items():
            shown = f"{value:.6g}" if unit == "s" else f"{value:.0f}"
            print(f"{name:<40} {shown} {unit}")
        if not steady:
            print("warning: work counts differ between traced samples")
        result["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        result["counts_repeat"] = steady
        write_spans(os.path.join(results_dir, stem + "-spans.json"), rec.spans)

    with open(os.path.join(results_dir, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
