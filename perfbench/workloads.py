"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (this is the
set-up that ``setup_s`` times) and runs one operation per ``op`` call. An
operation times only the library call, inside the ``clock`` it is given,
and then checks the call's output. Library functions are looked up on their
module at call time so that the tracer's module-level wrappers apply.

The workloads run in a fixed cycle of operation kinds; one pass through the
cycle is a round. Metrics are combined per kind, so a run that stops part
way through a round reads the same as one that stops at its end.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from monoplane import cli, data, network, perceptron

HERE = Path(__file__).resolve().parent
DATASET = Path("tests") / "data" / "sonar.all-data"
BALANCED_SPLIT = Path(data.__file__).resolve().parent / "assets" / "splits" / "balanced.split"


@dataclass
class OpResult:
    """Outcome of one operation.

    ``reached`` is whether the operation reached its goal (a certification at
    zero errors, a report that passes its checks, a grown network);
    ``failure`` is set when the output is wrong or the call raised.
    """

    kind: str
    seconds: float
    work: float = 0.0
    reached: bool = False
    failure: str | None = None
    artifact_bytes: int = 0
    info: dict = field(default_factory=dict)
    traced: bool = False
    layer_seconds: float = 0.0  # traced: the five layers' self time


def schedule_length(config):
    """Epochs the annealing schedule of ``config`` runs: T decays from
    t_initial while T > t_min, for at most max_epochs epochs."""
    T, n = config.t_initial, 0
    while T > config.t_min and n < config.max_epochs:
        T *= config.t_decay
        n += 1
    return n


def _silenced():
    return contextlib.redirect_stdout(io.StringIO())


class SonarCertify:
    """Separation-schedule certification of the three benchmark sets.

    A round trains the learning part, the held-out part and the combined
    set through ``monoplane train --config separation`` and then runs the
    10-seed Rosenblatt baseline of acceptance criterion 9 in both
    directions against the round's two separators. The inputs are the
    canonical data, so the seed changes nothing. Work is one full schedule
    per certification, whatever number of epochs it actually runs, so
    work per second tracks time per certification.
    """

    name = "sonar-certify"
    kinds = ("train", "test", "all", "baseline")
    work_kinds = ("train", "test", "all")
    set_sizes = {"train": 104, "test": 104, "all": 208}
    baseline_seeds = 10
    baseline_config = dict(t_initial=1.0, learning_rate=1.0, max_epochs=20000)

    def __init__(self, root, seed, scratch):
        self.dataset = root / DATASET
        self.scratch = scratch
        self.epochs_per_certification = schedule_length(perceptron.SEPARATION_CONFIG)
        raw = data.load_file(self.dataset)
        train_raw, test_raw = data.split(raw, data.load_split_file(BALANCED_SPLIT))
        stats_train = data.compute_stats(train_raw)
        stats_test = data.compute_stats(test_raw)
        # criterion 9 settings: learn one part, evaluate the other in the
        # learned part's coordinates
        self.directions = {
            "train": (data.standardize(train_raw, stats_train),
                      data.standardize(test_raw, stats_train)),
            "test": (data.standardize(test_raw, stats_test),
                     data.standardize(train_raw, stats_test)),
        }
        all_std = data.standardize(raw, data.compute_stats(raw))
        self.all_xi = np.array([p.xi for p in all_std])
        self.all_tau = np.array([p.tau for p in all_std], dtype=float)
        self.generalization = {}    # this round's separator errors per part

    def op(self, kind, index, clock):
        if kind == "baseline":
            return self._baseline(clock)
        out = Path(tempfile.mkdtemp(prefix="certify-", dir=self.scratch))
        try:
            argv = ["train", "--dataset", str(self.dataset),
                    "--split-file", str(BALANCED_SPLIT), "--part", kind,
                    "--config", "separation", "--out", str(out)]
            with _silenced(), clock:
                rc = cli.main(argv)
            res = OpResult(kind, clock.seconds)
            if rc != 0:
                res.failure = f"train --part {kind} exited {rc}"
                return res
            report = json.loads((out / "report.json").read_text())
            res.artifact_bytes = sum(f.stat().st_size for f in out.iterdir())
            res.work = self.epochs_per_certification
            errors = report["training_errors"]["total"]
            size = report["learning_set_size"]
            res.reached = errors == 0
            if size != self.set_sizes[kind]:
                res.failure = f"--part {kind} learned {size} patterns"
            elif errors:
                res.failure = f"--part {kind} ended at {errors} training errors"
            elif kind == "all":
                w = perceptron.load_weights((out / "weights.txt").read_text())
                gam = self.all_tau * (self.all_xi @ w.w) / w.norm
                res.info["min_stability_all"] = float(gam.min())
                if gam.min() <= 0.0:
                    res.failure = "combined-set separator has a stability <= 0"
            else:
                self.generalization[kind] = report["generalization"]["counts"]["total"]
            return res
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _baseline(self, clock):
        held_errors = {}
        learn_errors = []
        sweeps = 0
        with clock:
            for direction, (learn, held) in self.directions.items():
                held_errors[direction] = []
                for seed in range(self.baseline_seeds):
                    cfg = perceptron.TrainingConfig(seed=seed, **self.baseline_config)
                    w, trace = perceptron.rosenblatt_train(learn, cfg)
                    sweeps += len(trace)
                    learn_errors.append(perceptron.count_errors(w, learn)[0])
                    held_errors[direction].append(perceptron.count_errors(w, held)[0])
        res = OpResult("baseline", clock.seconds, work=sweeps)
        separators, self.generalization = self.generalization, {}
        if any(learn_errors):
            res.failure = f"a Rosenblatt run kept training errors: {learn_errors}"
        elif set(separators) != set(self.directions):
            res.failure = "no annealed separator from this round to compare with"
        else:
            worse = [d for d in self.directions
                     if np.mean(held_errors[d]) < separators[d]]
            if worse:
                res.failure = f"Rosenblatt generalizes better ({worse}): criterion 9 fails"
        res.reached = res.failure is None
        return res


class VerifySweep:
    """``monoplane verify`` over the bundled split, then random splits.

    The first operation uses the bundled balanced split and must reproduce
    the reference report kept beside this file. Later operations use seeded
    random class-balanced splits (49 mines and 55 rocks learning, the rest
    held out). The published tables never reproduce, so verify exits 1.
    """

    name = "verify-sweep"
    kinds = ("verify",)
    work_kinds = ("verify",)
    n_splits = 32
    learn_mines, learn_rocks = 49, 55
    reference_keys = ("counts_test_side", "counts_train_side", "counts_sonar",
                      "missing_test", "extra_test", "missing_train", "extra_train")

    def __init__(self, root, seed, scratch):
        self.dataset = root / DATASET
        raw = data.load_file(self.dataset)
        mines = [p.mu for p in raw if p.label == data.MINE]
        rocks = [p.mu for p in raw if p.label == data.ROCK]
        rng = np.random.default_rng(seed)
        self.splits = []
        for k in range(self.n_splits):
            learn = set(rng.choice(mines, self.learn_mines, replace=False).tolist())
            learn |= set(rng.choice(rocks, self.learn_rocks, replace=False).tolist())
            held = sorted(set(mines + rocks) - learn)
            path = scratch / f"random-{k}.split"
            path.write_text("[train]\n" + "".join(f"{m}\n" for m in sorted(learn))
                            + "[test]\n" + "".join(f"{m}\n" for m in held))
            self.splits.append(path)
        self.reference = json.loads((HERE / "reference_verify.json").read_text())

    def op(self, kind, index, clock):
        split_file = BALANCED_SPLIT if index == 0 else self.splits[(index - 1) % len(self.splits)]
        out = io.StringIO()
        argv = ["verify", "--dataset", str(self.dataset),
                "--split-file", str(split_file), "--format", "json"]
        with contextlib.redirect_stdout(out), clock:
            rc = cli.main(argv)
        res = OpResult(kind, clock.seconds, work=1)
        if rc != 1:
            res.failure = f"verify exited {rc}, expected 1"
            return res
        report = json.loads(out.getvalue())
        modes = {m["mode"]: m for m in report["modes"]}
        if set(modes) != set(self.reference["modes"]):
            res.failure = f"verify reported modes {sorted(modes)}"
            return res
        for name, m in modes.items():
            # W_Sonar is always scored in full-set coordinates
            want = 38 if name.endswith("-std") else 78
            if m["counts_sonar"][0] != want:
                res.failure = f"{name}: W_Sonar misclassifies {m['counts_sonar'][0]}, expected {want}"
                return res
        if index == 0:
            for name, ref in self.reference["modes"].items():
                diff = [k for k in self.reference_keys if modes[name][k] != ref[k]]
                if diff:
                    res.failure = f"bundled split, {name}: {diff} differ from the reference"
                    return res
            if report["closest_mode"] != self.reference["closest_mode"]:
                res.failure = f"closest mode {report['closest_mode']} differs from the reference"
                return res
        res.reached = True
        return res


def parity_patterns(n):
    """All 2**n inputs in {-1, +1}**n, labelled by their product."""
    pats = []
    for mu, bits in enumerate(itertools.product((-1.0, 1.0), repeat=n), start=1):
        pats.append(data.LabeledPattern(mu=mu, xi=np.array((1.0, *bits)),
                                        tau=int(np.prod(bits))))
    return pats


def random_label_patterns(rng, n_patterns=40, dims=3):
    """Gaussian points with balanced random labels."""
    x = rng.standard_normal((n_patterns, dims))
    tau = rng.permutation(np.repeat((-1, 1), n_patterns // 2))
    return [data.LabeledPattern(mu=mu + 1, xi=np.concatenate(([1.0], x[mu])),
                                tau=int(tau[mu]))
            for mu in range(n_patterns)]


class GrowToy:
    """Constructive growth with the default schedule on small problems.

    Parity of 2 to 5 bits (fixed inputs) and seeded random-label sets. A
    GrowthStallError is the library's documented outcome for a problem it
    cannot grow: it does not reach the goal but is not a wrong output.
    Work is counted as annealed units times the schedule length, so growth
    that trains more units does not read as a slowdown.
    """

    name = "grow-toy"
    kinds = ("parity2", "parity3", "parity4", "parity5", "random", "random")
    work_kinds = ("parity2", "parity3", "parity4", "parity5", "random")
    n_random = 16

    def __init__(self, root, seed, scratch):
        self.config = perceptron.TrainingConfig()
        self.epochs_per_unit = schedule_length(self.config)
        self.problems = {f"parity{n}": parity_patterns(n) for n in (2, 3, 4, 5)}
        rng = np.random.default_rng(seed)
        self.random_sets = [random_label_patterns(rng) for _ in range(self.n_random)]
        self.n_random_run = 0

    def op(self, kind, index, clock):
        if kind == "random":
            patterns = self.random_sets[self.n_random_run % self.n_random]
            self.n_random_run += 1
        else:
            patterns = self.problems[kind]
        stall = None
        with clock:
            try:
                model, trace = network.grow_network(patterns, self.config)
            except network.GrowthStallError as exc:
                stall = exc
        res = OpResult(kind, clock.seconds)
        if stall is not None:
            if stall.trace is None:
                res.failure = f"stall without a growth trace: {stall}"
                return res
            trace = stall.trace
            res.info["stall"] = str(stall)
        res.work = (len(trace.units) + len(trace.output_attempts)) * self.epochs_per_unit
        if stall is None:
            H, P = len(model.hidden), len(patterns)
            wrong = sum(network.network_output(model, p.xi) != p.tau for p in patterns)
            if H > P - 1:
                res.failure = f"grown network has H={H} > P-1={P - 1}"
            elif wrong:
                res.failure = f"grown network misclassifies {wrong} of {P}"
            res.reached = res.failure is None
        return res


WORKLOADS = {w.name: w for w in (SonarCertify, VerifySweep, GrowToy)}
