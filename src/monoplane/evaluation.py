"""Quantitative evaluation: published-weight verification, misclassification
tables, hyperplane cosines, and a one-sided separability probe.

The published weight vectors for the three benchmark runs are embedded as
data assets and checked against the source tables by tests. The verifier
sweeps every plausible standardization mode (statistics from the learning
part or from the full set, standard-deviation or variance scaling) and
reports, per mode, the misclassification sets and how they compare to the
published tables. It never patches a mismatch: the per-pattern diff and a
truncation-perturbation analysis are part of the report so the reader can
judge what the published numbers are consistent with.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field as dc_field
from importlib import resources

import numpy as np

from .data import compute_stats, standardize
from .perceptron import (
    TrainingConfig, WeightVector, _error_counts, _fields, _pack, count_errors,
    load_weights, minimerror_train, rosenblatt_train, stability,
)

PUBLISHED_NAMES = ("W_Train", "W_Test", "W_Sonar")
_ASSET_FILES = {"W_Train": "w_train.txt", "W_Test": "w_test.txt",
                "W_Sonar": "w_sonar.txt"}


@functools.cache
def _asset_text(name):
    return resources.files("monoplane.assets").joinpath(name).read_text()


@dataclass(frozen=True)
class PublishedWeights:
    name: str
    vector: WeightVector


def load_published_weights(name) -> PublishedWeights:
    """One of the three embedded benchmark separator vectors."""
    if name not in _ASSET_FILES:
        raise KeyError(f"unknown published weights {name!r}; "
                       f"expected one of {PUBLISHED_NAMES}")
    return PublishedWeights(name=name,
                            vector=load_weights(_asset_text(_ASSET_FILES[name])))


def load_published_table():
    """The published misclassification tables, keyed by side.

    ``test_side`` lists generalization errors of W_Train over the Test part;
    ``train_side`` lists those of W_Test over the Train part. Each record
    carries the published pattern number, field under the classifying
    vector, stability under W_Sonar, and the class label.
    """
    return json.loads(_asset_text("table6.json"))


@dataclass(frozen=True)
class MisclassifiedRecord:
    i: int
    mu: int
    field_value: float
    gamma_reference: float
    tau: int


@dataclass
class EvaluationReport:
    """Counts, per-pattern records, and optional named cosines."""

    set_size: int
    counts: tuple
    records: list
    cosines: dict = dc_field(default_factory=dict)

    @property
    def error_fraction(self) -> float:
        """Percent misclassified, as reported to one decimal."""
        if self.set_size == 0:
            return 0.0
        return round(100.0 * self.counts[0] / self.set_size, 1)

    def to_text(self):
        out = io.StringIO()
        total, fp, fn = self.counts
        out.write(f"errors {total}/{self.set_size} "
                  f"(eps_g = {self.error_fraction:.1f}%, {fp} F+ {fn} F-)\n")
        if self.records:
            out.write(f"{'i':>3} {'mu':>4} {'Field':>13} {'gamma(ref)':>13} {'tau':>4}\n")
            for r in self.records:
                gref = "" if r.gamma_reference is None else f"{r.gamma_reference: .5e}"
                out.write(f"{r.i:>3} {r.mu:>4} {r.field_value: .5e} {gref:>13} {r.tau:>4}\n")
        for k, v in self.cosines.items():
            out.write(f"cosine {k} = {v!r}\n")
        return out.getvalue()

    def to_csv(self):
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["i", "mu", "field", "gamma_reference", "tau"])
        for r in self.records:
            w.writerow([r.i, r.mu, repr(r.field_value),
                        "" if r.gamma_reference is None else repr(r.gamma_reference),
                        r.tau])
        return out.getvalue()

    def to_json_dict(self):
        return {
            "set_size": self.set_size,
            "counts": {"total": self.counts[0], "false_pos": self.counts[1],
                       "false_neg": self.counts[2]},
            "error_fraction": self.error_fraction,
            "records": [
                {"i": r.i, "mu": r.mu, "field": r.field_value,
                 "gamma_reference": r.gamma_reference, "tau": r.tau}
                for r in self.records
            ],
            "cosines": self.cosines,
        }


def evaluate(classifier: WeightVector, patterns, reference=None) -> EvaluationReport:
    """Misclassification report of ``classifier`` over ``patterns``.

    Every misclassified pattern is recorded with its field under the
    classifier and, when a reference separator is supplied, its stability
    under that reference; records are sorted by pattern number.
    """
    if not patterns:
        return EvaluationReport(set_size=0, counts=(0, 0, 0), records=[])
    Xi, tau = _pack(patterns)
    f = _fields(classifier, Xi)
    gam_ref = None if reference is None else tau * _fields(reference, Xi)
    wrong = sorted(np.flatnonzero(tau * f <= 0.0), key=lambda k: patterns[k].mu)
    records = [
        MisclassifiedRecord(
            i=i, mu=patterns[k].mu, field_value=float(f[k]),
            gamma_reference=None if gam_ref is None else float(gam_ref[k]),
            tau=patterns[k].tau)
        for i, k in enumerate(wrong, start=1)
    ]
    return EvaluationReport(set_size=len(patterns), counts=_error_counts(f, tau),
                            records=records)


def cosine(a: WeightVector, b: WeightVector, raw_eq8=False) -> float:
    """Angle cosine between two weight vectors.

    The default is the true cosine (a.b)/(||a|| ||b||). ``raw_eq8`` divides
    the dot product by (N+1)^2 instead, reproducing the published formula
    verbatim for comparison; the two agree only for vectors whose norms
    multiply to (N+1)^2.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    dot = float(a.w @ b.w)
    if raw_eq8:
        return dot / float(len(a)) ** 2
    return dot / (a.norm * b.norm)


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of the separability probe.

    ``separable`` is True only when a returned weight vector strictly
    separates the set (a checkable certificate). The probe never asserts
    non-separability: a False verdict means undetermined at this budget.
    """

    separable: bool
    weights: WeightVector
    errors: int
    trainer: str

    def recheck(self, patterns) -> bool:
        return min(stability(self.weights, p) for p in patterns) > 0.0


def separability_probe(patterns, budget: TrainingConfig) -> ProbeVerdict:
    """Try to exhibit a separating hyperplane within the training budget."""
    if not patterns:
        raise ValueError("cannot probe an empty pattern set")
    w_mm, _ = minimerror_train(patterns, budget)
    err_mm = count_errors(w_mm, patterns)[0]
    if err_mm == 0:
        return ProbeVerdict(True, w_mm, 0, "minimerror")
    w_rb, _ = rosenblatt_train(patterns, budget)
    err_rb = count_errors(w_rb, patterns)[0]
    if err_rb == 0:
        return ProbeVerdict(True, w_rb, 0, "rosenblatt")
    if err_rb < err_mm:
        return ProbeVerdict(False, w_rb, err_rb, "rosenblatt")
    return ProbeVerdict(False, w_mm, err_mm, "minimerror")


# ---------------------------------------------------------------------------
# published-weight verification


def paper_layout_numbering(train, test):
    """Renumber patterns in the published convention.

    The published tables number the learning part 1..104 and the
    generalization part 105..208, mines before rocks within each part
    (class blocks in file order). Returns {file mu: layout mu}.
    """
    order = []
    for part in (train, test):
        order.extend(sorted((p for p in part if p.label == "M"), key=lambda p: p.mu))
        order.extend(sorted((p for p in part if p.label == "R"), key=lambda p: p.mu))
    return {p.mu: k + 1 for k, p in enumerate(order)}


STANDARDIZATION_MODES = (
    ("part-std", "part", "std"),
    ("part-variance", "part", "variance"),
    ("all-std", "all", "std"),
    ("all-variance", "all", "variance"),
)


@dataclass
class ModeResult:
    mode: str
    counts_test_side: tuple
    counts_train_side: tuple
    counts_sonar: tuple
    mu_test_side: list
    mu_train_side: list
    table_match_test: bool
    table_match_train: bool
    missing_test: list
    extra_test: list
    missing_train: list
    extra_train: list
    gamma_check: dict


def _mode_parts(train_raw, test_raw, stats_from, scale, flip_labels):
    """The sets the three published vectors classify under one mode, in
    ``PUBLISHED_NAMES`` order: the Test part in Train-stats coordinates, the
    Train part in Test-stats coordinates, and every pattern in full-set
    coordinates. The ``all`` modes use the full-set statistics throughout."""
    all_raw = sorted(train_raw + test_raw, key=lambda p: p.mu)
    stats_all = compute_stats(all_raw, mode=scale)
    if stats_from == "part":
        stats_train = compute_stats(train_raw, mode=scale)
        stats_test = compute_stats(test_raw, mode=scale) if test_raw else stats_train
    else:
        stats_train = stats_test = stats_all
    return (standardize(test_raw, stats_train, flip_labels=flip_labels),
            standardize(train_raw, stats_test, flip_labels=flip_labels),
            standardize(all_raw, stats_all, flip_labels=flip_labels))


def run_mode(mode_name, stats_from, scale, train_raw, test_raw, flip_labels=False):
    """Evaluate the three published vectors under one standardization mode."""
    table = load_published_table()
    w_train, w_test, w_sonar = (load_published_weights(name).vector
                                for name in PUBLISHED_NAMES)
    test_std, train_std, all_std = _mode_parts(
        train_raw, test_raw, stats_from, scale, flip_labels)
    layout = paper_layout_numbering(train_raw, test_raw)

    rep_test = evaluate(w_train, test_std)
    mu_test = sorted(layout[r.mu] for r in rep_test.records)
    rep_train = evaluate(w_test, train_std)
    mu_train = sorted(layout[r.mu] for r in rep_train.records)
    counts_sonar = count_errors(w_sonar, all_std)

    pub_test = sorted(r["mu"] for r in table["test_side"])
    pub_train = sorted(r["mu"] for r in table["train_side"])

    # spot-check the published stabilities under W_Sonar by layout number
    by_layout = {layout[p.mu]: p for p in all_std}
    gamma_rows = []
    for side in ("test_side", "train_side"):
        for rec in table[side]:
            p = by_layout.get(rec["mu"])
            got = stability(w_sonar, p) if p is not None else None
            gamma_rows.append({
                "mu": rec["mu"], "published": rec["gamma_sonar"], "computed": got,
                "abs_err": None if got is None else abs(got - rec["gamma_sonar"]),
            })
    max_abs = max((r["abs_err"] for r in gamma_rows if r["abs_err"] is not None),
                  default=None)
    n_within = sum(1 for r in gamma_rows
                   if r["abs_err"] is not None and r["abs_err"] <= 1e-3)

    return ModeResult(
        mode=mode_name,
        counts_test_side=rep_test.counts,
        counts_train_side=rep_train.counts,
        counts_sonar=counts_sonar,
        mu_test_side=mu_test,
        mu_train_side=mu_train,
        table_match_test=(mu_test == pub_test),
        table_match_train=(mu_train == pub_train),
        missing_test=sorted(set(pub_test) - set(mu_test)),
        extra_test=sorted(set(mu_test) - set(pub_test)),
        missing_train=sorted(set(pub_train) - set(mu_train)),
        extra_train=sorted(set(mu_train) - set(pub_train)),
        gamma_check={"rows": gamma_rows, "max_abs_err": max_abs,
                     "n_within_1e-3": n_within},
    )


_PERTURBED = ("W_Train_on_test", "W_Test_on_train", "W_Sonar_on_all")


def perturbation_analysis(train_raw, test_raw, stats_from, scale,
                          n_draws=100, amplitude=5e-5, seed=0,
                          flip_labels=False):
    """Sensitivity of the error counts to table truncation.

    The published weights carry four decimals, so each component is known
    only to +-5e-5. Redraw every component uniformly within that band and
    report the spread of the three error counts over the draws.
    """
    parts = _mode_parts(train_raw, test_raw, stats_from, scale, flip_labels)
    ws = [load_published_weights(name).vector.w for name in PUBLISHED_NAMES]
    # the jitter stream in the order a loop over draws, then vectors, takes it
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-amplitude, amplitude, size=(n_draws, len(ws), len(ws[0])))
    out = {}
    for k, (key, w, patterns) in enumerate(zip(_PERTURBED, ws, parts)):
        errors = [0] * n_draws
        if patterns:
            Xi, tau = _pack(patterns)
            errors = np.sum(tau[:, None] * (Xi @ (w + jitter[:, k]).T) <= 0.0,
                            axis=0).tolist()
        out[key] = {"min": min(errors), "max": max(errors),
                    "distinct": sorted(set(errors))}
    return out


def published_norms():
    """Euclidean norms of the three published vectors (all close to
    sqrt(N+1), which identifies the normalization the tables use)."""
    return {name: load_published_weights(name).vector.norm
            for name in PUBLISHED_NAMES}


def cosine_report():
    """Pairwise cosines of the published vectors in both modes."""
    ws = {name: load_published_weights(name).vector for name in PUBLISHED_NAMES}
    pairs = [("W_Sonar", "W_Train"), ("W_Sonar", "W_Test"), ("W_Train", "W_Test")]
    published = {"(W_Sonar,W_Train)": 0.51615, "(W_Sonar,W_Test)": 0.34238,
                 "(W_Train,W_Test)": 0.4}
    out = {}
    for a, b in pairs:
        key = f"({a},{b})"
        out[key] = {
            "true_cosine": cosine(ws[a], ws[b]),
            "raw_eq8": cosine(ws[a], ws[b], raw_eq8=True),
            "published": published[key],
        }
    return out


def verify_published(train_raw, test_raw, flip_labels=False):
    """Sweep all standardization modes and diff against the published tables.

    Returns (exit_ok, results, extras): exit_ok is True iff some mode
    reproduces both published misclassification sets exactly. The
    perturbation analysis in ``extras`` runs in the closest mode and names it.
    """
    results = [run_mode(mode_name, stats_from, scale, train_raw, test_raw,
                        flip_labels=flip_labels)
               for mode_name, stats_from, scale in STANDARDIZATION_MODES]
    exit_ok = any(r.table_match_test and r.table_match_train for r in results)

    def closeness(r):
        return (len(r.missing_test) + len(r.extra_test)
                + len(r.missing_train) + len(r.extra_train))
    closest = min(results, key=closeness)
    _, stats_from, scale = next(m for m in STANDARDIZATION_MODES
                                if m[0] == closest.mode)
    extras = {
        "closest_mode": closest.mode,
        "norms": published_norms(),
        "cosines": cosine_report(),
        "perturbation": {
            "mode": closest.mode,
            "spreads": perturbation_analysis(train_raw, test_raw, stats_from,
                                             scale, flip_labels=flip_labels),
        },
    }
    return exit_ok, results, extras
