"""Interleaved A/B timing of the Minimerror anneal between two source trees.

Usage:

    python scripts/epoch_ab.py PARENT_SRC CHANGE_SRC [--rounds N]
                               [--problem NAME ...]

Imports the ``monoplane`` package under each ``src`` directory under a name
of its own (``monoplane_a`` and ``monoplane_b``), so both run in one
process on the same inputs, and times ``perceptron.minimerror_train`` on
each problem once per tree and round. Which tree runs first alternates
every round, so a drift of the host's speed falls on both sides alike.

The problems are those of the benchmark's hot paths: parity of 2 to 5 bits
and one 40-point random-label set in 3 dimensions with the default
schedule (grow-toy's first units), and the Train part, the Test part and
all 208 patterns of the standardized sonar set with the separation
schedule. ``--problem`` runs only the named ones.

For each problem it prints the epochs run, the minimum and median
microseconds per epoch (the anneal's wall time over its trace length) of
each tree, the ratio of the minima, and in how many rounds the change was
faster. It exits 1 if the two trees' weights or any trace column differ in
any run, so a timing is only reported for changes that keep every bit.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SONAR_FILE = REPO / "tests" / "data" / "sonar.all-data"
TRACE_COLUMNS = ("temperature", "cost", "errors", "min_stability")


def load_tree(src, name):
    """The ``monoplane`` package under ``src``, imported as ``name``."""
    init = Path(src).resolve() / "monoplane" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.perceptron")


def parity(n):
    """All 2**n inputs in {-1, +1}**n with a bias column, labelled by their
    product."""
    bits = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    return (np.column_stack([np.ones(len(bits)), bits]),
            np.prod(bits, axis=1).astype(int))


def random_labels(seed=0, n=40, dims=3):
    """Gaussian points with balanced random labels."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dims))
    tau = rng.permutation(np.repeat((-1, 1), n // 2))
    return np.column_stack([np.ones(n), x]), tau


def sonar_sets(package):
    """(Xi, tau) of the standardized Train part, Test part and all 208
    patterns of the bundled split, read with the ``data`` module of
    ``package``."""
    data = importlib.import_module(f"{package}.data")
    raw = data.load_file(SONAR_FILE)
    split_file = Path(data.__file__).parent / "assets" / "splits" / "balanced.split"
    parts = dict(zip(("sonar-train", "sonar-test"),
                     data.split(raw, data.load_split_file(split_file))))
    parts["sonar-all"] = raw
    out = {}
    for name, part in parts.items():
        ps = data.standardize(part, data.compute_stats(part))
        out[name] = (ps.Xi, ps.tau)
    return out


def problems(perceptron):
    """name -> (Xi, tau, config) for every problem, the data and schedules
    read with the package of ``perceptron``."""
    default = perceptron.TrainingConfig()
    out = {f"parity{n}": (*parity(n), default) for n in (2, 3, 4, 5)}
    out["random40"] = (*random_labels(), default)
    for name, (Xi, tau) in sonar_sets(perceptron.__package__).items():
        out[name] = (Xi, tau, perceptron.SEPARATION_CONFIG)
    return out


def run(perceptron, pattern_set, config):
    """(seconds, weights, trace) of one anneal."""
    t0 = time.perf_counter()
    w, trace = perceptron.minimerror_train(pattern_set, config)
    return time.perf_counter() - t0, w, trace


def differences(a, b):
    """The names of the outputs in which two anneals differ."""
    (wa, ta), (wb, tb) = a, b
    diff = [] if wa.w.tobytes() == wb.w.tobytes() else ["w"]
    diff += [c for c in TRACE_COLUMNS
             if getattr(ta, c).tobytes() != getattr(tb, c).tobytes()]
    diff += [c for c in ("best_epoch", "hebbian_fallback", "stop")
             if getattr(ta, c) != getattr(tb, c)]
    return diff


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--problem", action="append",
                    help="run only this problem (repeatable)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("need --rounds >= 1")
    trees = {"a": load_tree(args.parent_src, "monoplane_a"),
             "b": load_tree(args.change_src, "monoplane_b")}
    todo = problems(trees["a"])
    unknown = sorted(set(args.problem or ()) - set(todo))
    if unknown:
        ap.error(f"unknown problem(s) {unknown}; choose from {sorted(todo)}")
    if args.problem:
        todo = {k: v for k, v in todo.items() if k in args.problem}

    status = 0
    print(f"{'problem':<12} {'epochs':>6}  {'parent min/med us':>18}  "
          f"{'change min/med us':>18}  {'ratio':>6}  wins")
    for name, (Xi, tau, config) in todo.items():
        mu = np.arange(1, len(tau) + 1)
        sets = {k: importlib.import_module(f"{p.__package__}.data").PatternSet(
                    Xi, tau, mu) for k, p in trees.items()}
        us = {"a": [], "b": []}
        wins, epochs = 0, 0
        for r in range(args.rounds):
            out = {}
            for k in ("ab" if r % 2 == 0 else "ba"):
                secs, w, trace = run(trees[k], sets[k], config)
                epochs = len(trace)
                us[k].append(secs / epochs * 1e6)
                out[k] = (w, trace)
            diff = differences(out["a"], out["b"])
            if diff:
                print(f"{name}: round {r}: the trees differ in {', '.join(diff)}")
                status = 1
            wins += us["b"][-1] < us["a"][-1]
        ma, mb = min(us["a"]), min(us["b"])
        print(f"{name:<12} {epochs:>6}  {ma:>8.2f}/{statistics.median(us['a']):<9.2f}"
              f"  {mb:>8.2f}/{statistics.median(us['b']):<9.2f}"
              f"  x{ma / mb:<5.2f}  {wins}/{args.rounds}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
