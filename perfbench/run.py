#!/usr/bin/env python3
"""monoplane benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload sonar-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Run from the root of a monoplane checkout; the library is imported from
``src/``. Each operation starts after the previous one ends. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates traced and untraced rounds and reports the
per-layer metrics, including the tracing overhead against the untraced
rounds. Every operation's output is checked. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. Each run
also appends a full record (environment, every metric, timing percentiles,
failures) to ``.perfbench/results.jsonl``; ``--compare`` reads two such files.
"""

from __future__ import annotations

import os

# Cap BLAS threads at the CPU count before numpy is first imported; child
# processes inherit the cap.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class HostSpeed:
    """How slow the host ran during a run, relative to the reference host.

    Shared hosts drift in speed by tens of percent between runs, which
    would swamp a code change. A fixed kernel that does not touch monoplane
    (an annealing-like step on a 208 x 61 matrix: matvec, tanh, update) is
    timed in short slices, ``BRACKET`` of them between each two operations
    and never while one runs, so nothing the program does inside an
    operation is divided away. A slice's time over its time on the
    reference host is a sample of the host factor, and the run's factor is
    the median of all its samples. The host's speed also changes within
    seconds, faster than samples outside an operation can follow, so no
    single operation is corrected; the run's factor removes the drift
    between runs.
    """

    ITERATIONS = 25
    REFERENCE_S = 0.5e-3    # one slice on the reference host (2 CPUs, quiet)
    BRACKET = 9

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20090603)
        self.np = np
        self.x = rng.standard_normal((208, 61))
        self.tau = np.sign(rng.standard_normal(208))
        self.samples = []

    def _slice(self):
        np, x, tau = self.np, self.x, self.tau
        w = np.ones(x.shape[1])
        t0 = time.perf_counter()
        for _ in range(self.ITERATIONS):
            g = tau * (x @ w) / np.linalg.norm(w)
            w = w + 0.01 * (((1.0 - np.tanh(g) ** 2) * tau) @ x)
        return (time.perf_counter() - t0) / self.REFERENCE_S

    def between(self):
        """Take the samples between two operations."""
        self.samples.extend(self._slice() for _ in range(self.BRACKET))

    def factor(self):
        return statistics.median(self.samples)


class Clock:
    """Untraced timed region of one operation."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def import_library():
    if not (ROOT / "src" / "monoplane").is_dir():
        raise SystemExit(f"error: no monoplane sources under {ROOT / 'src'}; "
                         "run from the root of a monoplane checkout")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import monoplane  # noqa: F401  (timed: import is part of set-up)
    import_s = time.perf_counter() - t0
    import workloads
    return workloads, import_s


# ---------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """Highest listed percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, s[rank - 1]
    return None, None


def timing_summary(values):
    p, v = tail(values)
    return {"median_s": median(values), "tail_percentile": p, "tail_s": v,
            "n": len(values)}


def spread(values):
    """Interquartile distance as a share of the median, or None below 2 runs."""
    if len(values) < 2 or not median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def by_kind(ops, kinds):
    return {k: [op for op in ops if op.kind == k] for k in kinds}


def work_rate(ops, kinds):
    """Work per wall second over one round: the per-kind median work
    summed, over the per-kind median time summed. Independent of where a
    run stops in its round."""
    groups = by_kind(ops, kinds)
    if not all(groups.values()):
        return None
    work = sum(median([op.work for op in g]) for g in groups.values())
    secs = sum(median([op.seconds for op in g]) for g in groups.values())
    return work / secs


def reached_ratio(ops, kinds):
    groups = by_kind(ops, kinds)
    if not all(groups.values()):
        return None
    return statistics.fmean(sum(op.reached for op in g) / len(g) for g in groups.values())


# ---------------------------------------------------------------------------
# environment


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workloads, seed):
    import numpy as np
    from monoplane import perceptron
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        blas_name = blas_version = None
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "seed": seed,
        "epochs_per_certification": workloads.schedule_length(perceptron.SEPARATION_CONFIG),
        "epochs_per_grow_unit": workloads.schedule_length(perceptron.TrainingConfig()),
    }


# ---------------------------------------------------------------------------
# set-up


def setup_only(name, seed):
    """Child-process body for set-up timing: import, then build the inputs."""
    workloads, import_s = import_library()
    with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT_DIR) as scratch:
        workloads.WORKLOADS[name](ROOT, seed, Path(scratch))
    print(json.dumps({"import_s": import_s}))


def measure_setup(name, seed):
    """Wall times, over fresh processes, from start to inputs built."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


# ---------------------------------------------------------------------------
# the closed loop


def run_ops(workload, seconds, tracer, host):
    """Run operations in round order until the next one would end past
    ``seconds``. At least one whole round always runs; with a tracer, rounds
    alternate traced and untraced, starting traced, and at least one
    untraced operation runs too."""
    from workloads import OpResult
    kinds = workload.kinds
    ops, last = [], {}
    start = time.perf_counter()
    index = 0
    host.between()
    while True:
        kind = kinds[index % len(kinds)]
        traced = tracer is not None and (index // len(kinds)) % 2 == 0
        minimum_done = index >= len(kinds) and (
            tracer is None or any(not op.traced for op in ops))
        if minimum_done and time.perf_counter() - start + last[kind] > seconds:
            break
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        clock = tracer.op_span() if traced else Clock()
        t0 = time.perf_counter()
        try:
            res = workload.op(kind, index, clock)
        except Exception as exc:  # an operation that raises counts as failed
            res = OpResult(kind, getattr(clock, "seconds", time.perf_counter() - t0),
                           failure=f"{type(exc).__name__}: {exc}")
        host.between()
        res.traced = traced
        if traced:
            res.layer_seconds = clock.layer_seconds
        last[kind] = time.perf_counter() - t0
        ops.append(res)
        index += 1
    if tracer is not None:
        tracer.uninstall()
    return ops, time.perf_counter() - start


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, ops, setup_walls, host_factor):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate = work_rate(ops, workload.work_kinds)
    return {
        "setup_s": (median(setup_walls), "s", "lower"),
        "work_per_s": (rate and rate * host_factor, "1/s", "higher"),
        "ok_ratio": (reached_ratio(ops, workload.work_kinds), "ratio", "higher"),
        "peak_rss_mb": (rss_mb, "MB", "lower"),
    }


def named_readouts(workload, ops, host_factor):
    """The workload's metrics under their own names, for the results file.
    Times here are wall seconds, not reference seconds."""
    work = [op for op in ops if op.kind in workload.work_kinds]
    out = {"host_factor": host_factor}
    prefix = {"sonar-certify": "certify", "verify-sweep": "verify",
              "grow-toy": "grow"}[workload.name]
    out[f"{prefix}_s"] = timing_summary([op.seconds for op in work])
    for kind, group in by_kind(work, workload.work_kinds).items():
        if len(workload.work_kinds) > 1:
            out[f"{prefix}_{kind}_s"] = timing_summary([op.seconds for op in group])
    rate = work_rate(ops, workload.work_kinds)
    ratio = reached_ratio(ops, workload.work_kinds)
    if workload.name == "sonar-certify":
        out["anneal_epochs_per_s"] = rate
        out["certify_ok_ratio"] = ratio
        stabs = [op.info["min_stability_all"] for op in ops
                 if "min_stability_all" in op.info]
        out["min_stability_all"] = min(stabs) if stabs else None
        out["baseline_s"] = timing_summary([op.seconds for op in ops if op.kind == "baseline"])
    elif workload.name == "grow-toy":
        out["grow_epochs_per_s"] = rate
        out["grow_solved_ratio"] = ratio
        out["stalled"] = sum("stall" in op.info for op in ops)
    return out


def per_layer(tracer, ops, import_times):
    from tracing import LAYERS
    traced = [op for op in ops if op.traced]
    n = len(traced)
    layers = tracer.layer_totals()
    m = {}

    def per_call(layer, name, scale):
        calls, total = tracer.function(layer, name)
        return total / calls * scale if calls else 0.0

    for layer in LAYERS:
        calls, self_s = layers[layer]
        m[f"{layer}.self_s"] = (self_s / n, "s")
        m[f"{layer}.calls"] = (calls / n, "count")
        m[f"{layer}.call_us"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    m["bench.self_s"] = (layers["bench"][1] / n, "s")
    for bucket, (secs, epochs) in tracer.anneal.items():
        m[f"perceptron.epoch_us_{bucket}"] = (secs / epochs * 1e6 if epochs else 0.0, "us")
    m["perceptron.epochs"] = (tracer.anneal_epochs / n, "count")
    m["perceptron.count_errors_us"] = (per_call("perceptron", "count_errors", 1e6), "us")
    m["perceptron.count_errors_calls"] = (tracer.function("perceptron", "count_errors")[0] / n, "count")
    secs, sweeps = tracer.rosenblatt
    m["perceptron.rosenblatt_sweep_us"] = (secs / sweeps * 1e6 if sweeps else 0.0, "us")
    m["data.standardize_us"] = (per_call("data", "standardize", 1e6), "us")
    m["data.compute_stats_us"] = (per_call("data", "compute_stats", 1e6), "us")
    m["data.load_file_ms"] = (per_call("data", "load_file", 1e3), "ms")
    m["evaluation.evaluate_us"] = (per_call("evaluation", "evaluate", 1e6), "us")
    m["evaluation.run_mode_ms"] = (per_call("evaluation", "run_mode", 1e3), "ms")
    m["evaluation.perturbation_analysis_ms"] = (
        per_call("evaluation", "perturbation_analysis", 1e3), "ms")
    m["network.units_trained"] = (tracer.units_in_network / n, "count")
    m["network.network_output_us"] = (per_call("network", "network_output", 1e6), "us")
    m["cli.artifact_bytes"] = (sum(op.artifact_bytes for op in traced) / n, "B")
    m["setup.import_ms"] = (median(import_times) * 1e3, "ms")
    m["trace.overhead"] = (tracing_overhead(ops), "ratio")
    m["trace.accounted_share"] = (accounted_share(ops), "ratio")
    m["trace.spans_per_op"] = (tracer.n_spans() / n, "count")
    return m


def per_kind_medians(ops, traced_value):
    """Sums, over the kinds that ran both traced and untraced, of the
    per-kind median of ``traced_value(op)`` over traced operations and of
    the median untraced wall time."""
    t = u = 0.0
    for k in sorted({op.kind for op in ops}):
        on = [traced_value(op) for op in ops if op.kind == k and op.traced]
        off = [op.seconds for op in ops if op.kind == k and not op.traced]
        if on and off:
            t += median(on)
            u += median(off)
    return t, u


def tracing_overhead(ops):
    """Traced over untraced time per round, minus one."""
    t, u = per_kind_medians(ops, lambda op: op.seconds)
    return t / u - 1.0 if u else 0.0


def accounted_share(ops):
    """The five layers' self time in traced operations over the untraced
    time of the same kinds. Above 1 by the tracing overhead inside spans;
    below 1 by time no span covers."""
    t, u = per_kind_medians(ops, lambda op: op.layer_seconds)
    return t / u if u else 0.0


def layer_table(metrics):
    from tracing import LAYERS
    lines = [f"{'layer':<12}{'self ms/op':>12}{'calls/op':>11}{'us/call':>11}"]
    for layer in (*LAYERS, "bench"):
        self_s = metrics[f"{layer}.self_s"][0]
        if layer == "bench":
            lines.append(f"{layer:<12}{self_s * 1e3:>12.3f}")
            continue
        lines.append(f"{layer:<12}{self_s * 1e3:>12.3f}"
                     f"{metrics[f'{layer}.calls'][0]:>11.1f}"
                     f"{metrics[f'{layer}.call_us'][0]:>11.2f}")
    lines.append(f"layer self time is {metrics['trace.accounted_share'][0]:.2%} "
                 f"of untraced operation time; tracing overhead "
                 f"{metrics['trace.overhead'][0]:+.2%} against untraced rounds")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare mode


def load_records(path):
    """Records of a results file, each with ``values``: every metric and
    every numeric readout (a timing readout by its median) by name."""
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for r in records:
        values = {name: m["value"] for name, m in r["metrics"].items()}
        for name, v in r["readouts"].items():
            if isinstance(v, dict):
                v = v["median_s"]
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                values[name] = v
        r["values"] = values
    return records


def compare(base_path, new_path):
    bounds, direction = {}, {}
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.is_file():
        spec = json.loads(bench_json.read_text())
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
        direction = {m["name"]: m["better"]
                     for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    base, new = load_records(base_path), load_records(new_path)
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    print(f"{'workload':<14}{'metric':<36}{'base':>12}{'new':>12}{'ratio':>8}"
          f"{'spread':>8}  verdict")
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        c = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        names = sorted({k for r in b + c for k in r["values"]})
        for name in names:
            bv = [r["values"][name] for r in b if r["values"].get(name) is not None]
            cv = [r["values"][name] for r in c if r["values"].get(name) is not None]
            if not bv or not cv:
                continue
            better = direction.get(name)
            print(f"{workload:<14}{name:<36}" + compare_row(bv, cv, better, bounds.get(name)))


def compare_row(bv, cv, better, bound):
    mb, mc = median(bv), median(cv)
    ratio = mc / mb if mb else float("nan")
    spreads = [spread(bv), spread(cv)]
    shown = max(s for s in spreads if s is not None) if any(s is not None for s in spreads) else None
    row = f"{mb:>12.5g}{mc:>12.5g}{ratio:>8.3f}" + (f"{shown:>8.3f}" if shown is not None else f"{'-':>8}")
    if better not in ("lower", "higher") or bound is None:
        return row + "  (no bound)"
    sign = 1.0 if better == "lower" else -1.0
    worse_share = sign * (mc - mb) / abs(mb) if mb else 0.0
    all_better = (max(cv) < min(bv)) if better == "lower" else (min(cv) > max(bv))
    if None in spreads:
        verdict = "unresolved (need 2+ runs a side)"
    elif all_better:
        verdict = "better (every run)"
    elif max(spreads) > bound:
        verdict = f"unresolved (spread > bound {bound})"
    elif worse_share > bound:
        verdict = f"WORSE beyond bound {bound}"
    else:
        verdict = f"within bound {bound}"
    return row + "  " + verdict


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(OUT_DIR / "results.jsonl"),
                    help="JSON-lines file each run appends its record to")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two results files and exit")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.compare and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0

    workloads, _ = import_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    setup_walls, import_times = measure_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing
        from monoplane import cli, data, evaluation, network, perceptron
        tracer = tracing.Tracer({"data": data, "perceptron": perceptron,
                                 "network": network, "evaluation": evaluation,
                                 "cli": cli})
    host = HostSpeed()
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as scratch:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(scratch))
        ops, measured_s = run_ops(workload, args.seconds, tracer, host)

    failures = [f"op {i} ({op.kind}): {op.failure}" for i, op in enumerate(ops) if op.failure]
    host_factor = host.factor()
    readouts = named_readouts(workload, ops, host_factor)
    if tracer is None:
        metrics = end_to_end(workload, ops, setup_walls, host_factor)
    else:
        metrics = per_layer(tracer, ops, import_times)
        print(layer_table(metrics))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.csv.gz"
        tracer.write_spans(spans_path)
        print(f"spans: {spans_path}")

    for name, (value, unit, *_) in metrics.items():
        print(f"{name:<40} {value if value is None else format(value, '.6g'):>14} {unit}")
    for name, value in readouts.items():
        print(f"{name:<40} {json.dumps(value)}")
    for line in failures:
        print(f"FAILED {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": measured_s,
        "environment": environment(workloads, args.seed),
        "attempted": len(ops), "failed": len(failures), "failures": failures,
        "setup_walls_s": setup_walls,
        "metrics": {name: {"value": v[0], "unit": v[1],
                           "better": v[2] if len(v) > 2 else None}
                    for name, v in metrics.items()},
        "readouts": readouts,
        "ops": [{"kind": op.kind, "wall_s": op.seconds, "traced": op.traced,
                 "work": op.work} for op in ops],
    }
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    incomplete = [name for name, v in metrics.items() if v[0] is None]
    if incomplete:
        raise SystemExit(f"error: no value for {incomplete}")
    print(json.dumps({
        "correct": not failures, "attempted": len(ops), "failed": len(failures),
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
