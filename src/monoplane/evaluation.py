"""Quantitative evaluation: published-weight verification, misclassification
tables, hyperplane cosines, and a two-sided separability decision.

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

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import PatternSet, RawSet, compute_stats, standardize
from .perceptron import WeightVector, _error_counts, field, load_weights

PUBLISHED_NAMES = ("W_Train", "W_Test", "W_Sonar")
_ASSET_FILES = {"W_Train": "w_train.txt", "W_Test": "w_test.txt",
                "W_Sonar": "w_sonar.txt"}


def _asset_text(name):
    return resources.files("monoplane.assets").joinpath(name).read_text()


def load_published_weights(name) -> WeightVector:
    """One of the three embedded benchmark separator vectors."""
    if name not in _ASSET_FILES:
        raise KeyError(f"unknown published weights {name!r}; "
                       f"expected one of {PUBLISHED_NAMES}")
    return load_weights(_asset_text(_ASSET_FILES[name]))


def load_published_table():
    """The published misclassification tables, keyed by side.

    ``test_side`` lists generalization errors of W_Train over the Test part;
    ``train_side`` lists those of W_Test over the Train part. Each record
    carries the published pattern number, field under the classifying
    vector, stability under W_Sonar, and the class label.
    """
    return json.loads(_asset_text("table6.json"))


@functools.cache
def _published():
    """What verification reads, built on first use (not at import) and kept
    for the process: the published table, the sorted mu lists of its
    ``test_side`` and ``train_side``, the three vectors in
    ``PUBLISHED_NAMES`` order, and their truncation-perturbed matrices in
    the same order. Perturbed matrix k is ``(w_k + jitter[:, k]).T``, one
    column per draw, for the 100 x 3 x 61 jitter of
    ``perturbation_analysis`` drawn once. Every array is read-only, so no
    caller can change what later calls read."""
    table = load_published_table()
    pub_mu = tuple(sorted(r["mu"] for r in table[side])
                   for side in ("test_side", "train_side"))
    ws = tuple(map(load_published_weights, PUBLISHED_NAMES))
    # the jitter stream in the order a loop over draws, then vectors, takes it
    jitter = np.random.default_rng(0).uniform(
        -5e-5, 5e-5, size=(100, len(ws), len(ws[0])))
    perturbed = []
    for k, w in enumerate(ws):
        w.w.flags.writeable = False
        draws = w.w + jitter[:, k]
        draws.flags.writeable = False
        perturbed.append(draws.T)
    return table, pub_mu, ws, tuple(perturbed)


@dataclass
class EvaluationReport:
    """Counts and the misclassified patterns.

    ``mu``, ``field`` and ``tau`` hold one entry per misclassified pattern,
    in pattern-number order: its number, its field under the classifier
    and its label. ``to_json_dict`` also writes each record's
    ``gamma_reference`` as null and ``cosines`` as an empty object, keys the
    report schema keeps.
    """

    set_size: int
    counts: tuple
    mu: list
    field: list
    tau: list

    @property
    def error_fraction(self) -> float:
        """Percent misclassified, as reported to one decimal."""
        if self.set_size == 0:
            return 0.0
        return round(100.0 * self.counts[0] / self.set_size, 1)

    def to_json_dict(self):
        return {
            "set_size": self.set_size,
            "counts": {"total": self.counts[0], "false_pos": self.counts[1],
                       "false_neg": self.counts[2]},
            "error_fraction": self.error_fraction,
            "records": [
                {"i": i, "mu": mu, "field": f, "gamma_reference": None, "tau": tau}
                for i, (mu, f, tau) in enumerate(
                    zip(self.mu, self.field, self.tau), start=1)
            ],
            "cosines": {},
        }


def evaluate(classifier: WeightVector, patterns) -> EvaluationReport:
    """Misclassification report of ``classifier`` over ``patterns``: every
    misclassified pattern with its field, in pattern-number order."""
    if not patterns:
        return EvaluationReport(set_size=0, counts=(0, 0, 0), mu=[], field=[],
                                tau=[])
    ps = PatternSet.of(patterns)
    f = field(classifier, ps.Xi)
    wrong = np.flatnonzero(ps.tau * f <= 0.0)
    wrong = wrong[np.argsort(ps.mu[wrong], kind="stable")]
    return EvaluationReport(set_size=len(ps), counts=_error_counts(f, ps.tau),
                            mu=ps.mu[wrong].tolist(), field=f[wrong].tolist(),
                            tau=ps.tau[wrong].tolist())


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


_STEPS_PER_PATTERN = 3    # outer NNLS steps per pattern; a longer solve raises
_GORDAN_ROUNDOFF = 1e-10  # max ||u @ tXi|| per unit of tXi's largest row norm


@dataclass(frozen=True)
class SeparabilityVerdict:
    """``separable`` with w* in ``weights`` and ``kappa`` bracketing its
    minimal stability (w*'s own, then ||u @ tXi||), or not, with Gordan's
    vector in ``u``, the NNLS multipliers (sum 1; w*'s support is u > 0).
    The two ends of ``kappa`` are kappa* computed two ways in float64, not
    rounded outward, so the lower may exceed the upper by 1-2 ulps."""

    separable: bool
    u: np.ndarray
    weights: WeightVector | None = None
    kappa: tuple | None = None

    def recheck(self, patterns) -> bool:
        """w* separates ``patterns``, or u >= 0 passes ``_GORDAN_ROUNDOFF``."""
        tXi = PatternSet.of(patterns).folded
        if self.separable:
            return bool(field(self.weights, tXi).min() > 0.0)
        return bool(self.u.min() >= 0.0 and np.linalg.norm(self.u @ tXi)
                    <= _GORDAN_ROUNDOFF * np.linalg.norm(tXi, axis=1).max())


def separability(patterns) -> SeparabilityVerdict:
    """Decide separability of tXi, the label-folded patterns, with a
    certificate: the NNLS u = argmin_{u>=0} ||E u - f||, E = [tXi^T; 1^T],
    f = e_last (Lawson and Hanson, 1974, ch. 23) gives w* = argmin ||w|| s.t.
    tXi w >= 1 as -r[:-1]/r[-1], r = E u - f, or else a Gordan u; or raises,
    also before the NNLS on an empty set or a NaN or infinite entry."""
    if not patterns:
        raise ValueError("cannot decide separability of an empty pattern set")
    tXi = PatternSet.of(patterns).folded
    if not np.isfinite(tXi).all():
        raise ValueError("cannot decide separability of a non-finite pattern")
    E, f = np.vstack((tXi.T, np.ones(len(tXi)))), np.eye(tXi.shape[1] + 1)[-1]
    u, passive = np.zeros(len(tXi)), np.zeros(len(tXi), dtype=bool)
    tol = 10 * max(E.shape) * np.finfo(float).eps * np.abs(E).max()
    for _ in range(int(_STEPS_PER_PATTERN * len(u))):
        g = np.where(passive, -np.inf, E.T @ (f - E @ u))
        if g.max() <= tol:
            break
        passive[np.argmax(g)] = True
        while True:
            z = np.zeros_like(u)
            z[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
            if (z[passive] > 0.0).all():
                break
            neg = np.flatnonzero(passive & (z <= 0.0))
            ratio = u[neg] / (u[neg] - z[neg])
            u += ratio.min() * (z - u)  # until the first of them reaches 0
            u[neg[np.argmin(ratio)]] = 0.0
            passive &= u > 0.0
        u = z
    else:
        raise RuntimeError(f"NNLS took over {_STEPS_PER_PATTERN} steps per pattern")
    r = E @ u - f
    u /= u.sum()
    if r[-1] < 0.0 and r[:-1].any():
        w = WeightVector(r[:-1] / -r[-1])
        kappa = (float(field(w, tXi).min()), float(np.linalg.norm(u @ tXi)))
        if kappa[0] > 0.0:
            return SeparabilityVerdict(True, u, w, kappa)
    if (verdict := SeparabilityVerdict(False, u)).recheck(patterns):
        return verdict
    raise RuntimeError("neither a separator nor a Gordan vector verifies")


# ---------------------------------------------------------------------------
# published-weight verification


def paper_layout_numbering(train, test):
    """Renumber the patterns of two RawSets in the published convention.

    The published tables number the learning part 1..104 and the
    generalization part 105..208, mines before rocks within each part
    (class blocks in file order). Returns {file mu: layout mu}.
    """
    order = []
    for part in (train, test):
        order.extend(part.mu[np.lexsort((part.mu, part.tau))].tolist())
    return {m: k + 1 for k, m in enumerate(order)}


STANDARDIZATION_MODES = (
    ("part-std", "part", "std"),
    ("part-variance", "part", "variance"),
    ("all-std", "all", "std"),
    ("all-variance", "all", "variance"),
)


def mode_parts(train_raw, test_raw, flip_labels=False):
    """The PatternSets the three published vectors classify, keyed by mode
    name in ``STANDARDIZATION_MODES`` order. Each value holds, in
    ``PUBLISHED_NAMES`` order, the Test part in Train-stats coordinates,
    the Train part in Test-stats coordinates, and every pattern in full-set
    coordinates; the ``all`` modes use the full-set statistics throughout.
    Each part keeps its row order, the full set is in file mu order, and
    ``mu`` holds each pattern's number in the paper's layout. The full set
    is standardized once per scale, and both modes of that scale share it."""
    layout = paper_layout_numbering(train_raw, test_raw)
    mu = np.concatenate((train_raw.mu, test_raw.mu))
    numbered = RawSet(np.concatenate((train_raw.X, test_raw.X)),
                      np.concatenate((train_raw.tau, test_raw.tau)),
                      np.array([layout[m] for m in mu.tolist()], dtype=int))
    n_train = len(train_raw)
    train, test = numbered.take(slice(n_train)), numbered.take(slice(n_train, None))
    full = numbered.take(np.argsort(mu, kind="stable"))
    full_sets = {}      # scale: (full-set stats, full set in them)
    parts = {}
    for mode_name, stats_from, scale in STANDARDIZATION_MODES:
        if scale not in full_sets:
            stats = compute_stats(full, scale)
            full_sets[scale] = stats, standardize(full, stats, flip_labels)
        stats_all, full_set = full_sets[scale]
        if stats_from == "part":
            stats_train = compute_stats(train, scale)
            stats_test = compute_stats(test, scale) if len(test) else stats_train
        else:
            stats_train = stats_test = stats_all
        parts[mode_name] = (standardize(test, stats_train, flip_labels),
                            standardize(train, stats_test, flip_labels),
                            full_set)
    return parts


def run_mode(mode_name, parts):
    """Evaluate the three published vectors on the ``mode_name`` entry of
    ``parts``, a ``mode_parts`` result: one dict of the verify report's
    ``modes`` list."""
    table, (pub_test, pub_train), ws, _ = _published()
    sets = parts[mode_name]
    rep_test, rep_train = evaluate(ws[0], sets[0]), evaluate(ws[1], sets[1])
    mu_test, mu_train = rep_test.mu, rep_train.mu

    # W_Sonar's error counts and the spot-check of the published stabilities
    # by layout number read one matrix field pass: the product ``evaluate``
    # takes, so a row's stability is bit for bit its field times tau (a
    # one-row dot may round the last bit differently)
    all_part = sets[2]
    f_sonar = field(ws[2], all_part.Xi)
    stability_of = dict(zip(all_part.mu.tolist(), (all_part.tau * f_sonar).tolist()))
    gamma_rows = []
    for side in ("test_side", "train_side"):
        for rec in table[side]:
            got = stability_of.get(rec["mu"])
            gamma_rows.append({
                "mu": rec["mu"], "published": rec["gamma_sonar"], "computed": got,
                "abs_err": None if got is None else abs(got - rec["gamma_sonar"]),
            })
    errs = [r["abs_err"] for r in gamma_rows if r["abs_err"] is not None]

    return {
        "mode": mode_name,
        "counts_test_side": rep_test.counts,
        "counts_train_side": rep_train.counts,
        "counts_sonar": _error_counts(f_sonar, all_part.tau),
        "mu_test_side": mu_test,
        "mu_train_side": mu_train,
        "table_match_test": mu_test == pub_test,
        "table_match_train": mu_train == pub_train,
        "missing_test": sorted(set(pub_test) - set(mu_test)),
        "extra_test": sorted(set(mu_test) - set(pub_test)),
        "missing_train": sorted(set(pub_train) - set(mu_train)),
        "extra_train": sorted(set(mu_train) - set(pub_train)),
        "gamma_check": {"rows": gamma_rows, "max_abs_err": max(errs, default=None),
                        "n_within_1e-3": sum(e <= 1e-3 for e in errs)},
    }


_PERTURBED = ("W_Train_on_test", "W_Test_on_train", "W_Sonar_on_all")


def perturbation_analysis(parts):
    """Sensitivity of the error counts to table truncation, on ``parts``,
    one entry of ``mode_parts``.

    The published weights carry four decimals, so each component is known
    only to +-5e-5. Redraw every component uniformly within that band, 100
    times from seed 0, and report the spread of the three error counts over
    the draws.
    """
    out = {}
    for key, draws, part in zip(_PERTURBED, _published()[3], parts):
        errors = np.sum(part.folded @ draws <= 0.0, axis=0).tolist()
        out[key] = {"min": min(errors), "max": max(errors),
                    "distinct": sorted(set(errors))}
    return out


def published_norms():
    """Euclidean norms of the three published vectors (all close to
    sqrt(N+1), which identifies the normalization the tables use)."""
    return {name: w.norm for name, w in zip(PUBLISHED_NAMES, _published()[2])}


def cosine_report():
    """Pairwise cosines of the published vectors in both modes."""
    ws = dict(zip(PUBLISHED_NAMES, _published()[2]))
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

    Returns the report that ``verify --format json`` prints: ``modes``, one
    ``run_mode`` dict per mode; ``closest_mode``, the mode with the fewest
    missing and extra patterns; the published ``norms`` and ``cosines``;
    the ``perturbation`` analysis in the closest mode, which it names; and
    ``reproduced``, True iff some mode reproduces both published
    misclassification sets exactly.
    """
    parts = mode_parts(train_raw, test_raw, flip_labels)
    modes = [run_mode(mode_name, parts) for mode_name in parts]
    closest = min(modes, key=lambda r: sum(len(r[k]) for k in (
        "missing_test", "extra_test", "missing_train", "extra_train")))["mode"]
    return {
        "modes": modes,
        "closest_mode": closest,
        "norms": published_norms(),
        "cosines": cosine_report(),
        "perturbation": {"mode": closest,
                         "spreads": perturbation_analysis(parts[closest])},
        "reproduced": any(r["table_match_test"] and r["table_match_train"]
                          for r in modes),
    }
