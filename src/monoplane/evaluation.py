"""Quantitative evaluation: published-weight verification, misclassification
tables, hyperplane cosines, and a two-sided separability decision.

The published weight vectors for the three benchmark runs are embedded as
data assets and checked against the source tables by tests. The verifier
sweeps every plausible standardization mode (statistics from the learning
part or from the full set, standard-deviation or variance scaling) and
reports, per mode, the misclassification sets and how they compare to the
published tables. It never patches a mismatch: the per-pattern diff and the
exact range of error counts that the tables' four-decimal truncation allows
are part of the report so the reader can judge what the published numbers
are consistent with.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import RawSet, compute_stats, standardize
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
    vector, stability under W_Sonar, and the class label. ``cosines`` holds
    the published pairwise cosines of the three vectors.
    """
    return json.loads(_asset_text("table6.json"))


def published_counts(side):
    """The published (total, false_pos, false_neg) of ``side``, "test" or
    "train", from the table that ``_published`` parses once per process."""
    return tuple(_published()[0][f"counts_{side}_side"])


@functools.cache
def _published():
    """What verification reads, built on first use (not at import) and kept
    for the process: the published table, the sorted mu lists of its
    ``test_side`` and ``train_side``, and the three vectors in
    ``PUBLISHED_NAMES`` order, whose arrays are read-only, so no caller can
    change what later calls read."""
    table = load_published_table()
    pub_mu = tuple(sorted(r["mu"] for r in table[side])
                   for side in ("test_side", "train_side"))
    ws = tuple(map(load_published_weights, PUBLISHED_NAMES))
    for w in ws:
        w.w.flags.writeable = False
    return table, pub_mu, ws


def evaluate(classifier: WeightVector, patterns):
    """Misclassification report of ``classifier`` over ``patterns``, the dict
    the ``train`` report prints as ``generalization``: ``set_size``,
    ``counts`` as ``total``, ``false_pos`` and ``false_neg`` (``count_errors``'
    triple, in that order), ``error_fraction`` (percent misclassified to one
    decimal), and one ``records`` entry per misclassified pattern in
    pattern-number order: its ``mu``, ``field`` under the classifier and
    ``tau``."""
    f, tau, mu = field(classifier, patterns.Xi), patterns.tau, patterns.mu
    wrong = np.flatnonzero(tau * f <= 0.0)
    wrong = wrong[np.argsort(mu[wrong], kind="stable")]
    total, false_pos, false_neg = _error_counts(f, tau)
    return {
        "set_size": len(tau),
        "counts": {"total": total, "false_pos": false_pos, "false_neg": false_neg},
        "error_fraction": round(100.0 * total / max(len(tau), 1), 1),
        "records": [{"mu": m, "field": fl, "tau": t} for m, fl, t in zip(
            mu[wrong].tolist(), f[wrong].tolist(), tau[wrong].tolist())],
    }


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
_UNIT = np.finfo(float).eps / 2  # u, the unit roundoff of float64


def _up(x):
    """The float after ``x``: the exact value that ``x`` rounds to nearest
    lies below it."""
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


def _gamma(k):
    """An upper bound on gamma_k = k u / (1 - k u); both terms are exact."""
    return _up(k * _UNIT / (1.0 - k * _UNIT))


def _norm_above(x):
    """An upper bound on the exact 2-norm of ``x``: the computed x.x is at
    least (1 - gamma_n) ||x||^2, and 1 / (1 - gamma_n) <= 1 + gamma_2n."""
    return _up(np.sqrt(_up(np.dot(x, x) * _up(1.0 + _gamma(2 * len(x))))))


@dataclass(frozen=True)
class SeparabilityVerdict:
    """``separable`` with w* in ``weights`` and ``kappa`` bracketing its
    minimal stability kappa* (from w*'s fields, then from ||u @ tXi||), or
    not, with Gordan's vector in ``u``, the NNLS multipliers (sum 1; w*'s
    support is u > 0). ``kappa`` is rounded outward, so its lower end is at
    most its upper, bit for bit; ``separability`` gives the argument."""

    separable: bool
    u: np.ndarray
    weights: WeightVector | None = None
    kappa: tuple | None = None

    def recheck(self, patterns) -> bool:
        """w* separates ``patterns``, or u >= 0 passes ``_GORDAN_ROUNDOFF``."""
        tXi = patterns.folded
        if self.separable:
            return bool(field(self.weights, tXi).min() > 0.0)
        return bool(self.u.min() >= 0.0 and np.linalg.norm(self.u @ tXi)
                    <= _GORDAN_ROUNDOFF * np.linalg.norm(tXi, axis=1).max())


def separability(patterns) -> SeparabilityVerdict:
    """Decide separability of tXi, the label-folded patterns, with a
    certificate: the NNLS u = argmin_{u>=0} ||E u - f||, E = [tXi^T; 1^T],
    f = e_last (Lawson and Hanson, 1974, ch. 23) gives w* = argmin ||w|| s.t.
    tXi w >= 1 as -r[:-1]/r[-1], r = E u - f, or else a Gordan u; or raises,
    also before the NNLS on an empty set or a NaN or infinite entry.

    ``kappa`` encloses kappa* whatever order the BLAS sums in, barring
    underflow and overflow. A computed dot product of length k, in any
    order and with FMA, is within gamma_k |x|.|y| of x.y (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, sec. 3.1), so a computed
    |x|.|y| is at least (1 - gamma_k) |x|.|y|, and gamma_k / (1 - gamma_k)
    <= gamma_2k. Every other operation rounds to nearest, and one nextafter
    step keeps its exact value on the side the bound needs. For tXi of P
    rows of n inputs:
    - lower: every w has min_mu tXi_mu.w / ||w|| <= kappa*. For w*, the
      exact tXi_mu.w* is at least the computed one less gamma_2n times the
      computed |tXi_mu|.|w*|, and the least of these over an upper bound on
      ||w*|| bounds kappa* below when it is positive;
    - upper: for unit w and u >= 0, min_mu tXi_mu.w <= (u tXi).w / sum(u)
      <= ||u tXi|| / sum(u). Each exact |(u tXi)_j| is at most the computed
      one plus gamma_2P times the computed (u |tXi|)_j, and sum(u) is at
      least its computed value over 1 + gamma_P.
    The verdict is ``separable`` only with a positive lower end."""
    if not patterns:
        raise ValueError("cannot decide separability of an empty pattern set")
    tXi = patterns.folded
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
        P, n = tXi.shape
        f_below = _down(tXi @ w.w - _up(_gamma(2 * n) * (np.abs(tXi) @ np.abs(w.w))))
        ut_above = _up(np.abs(u @ tXi) + _up(_gamma(2 * P) * (u @ np.abs(tXi))))
        u_sum_below = _down(u.sum() / _up(1.0 + _gamma(P)))
        kappa = (float(_down(f_below.min() / _norm_above(w.w))),
                 float(_up(_norm_above(ut_above) / u_sum_below)))
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
    table, (pub_test, pub_train), ws = _published()
    sets = parts[mode_name]
    rep_test, rep_train = evaluate(ws[0], sets[0]), evaluate(ws[1], sets[1])
    mu_test, mu_train = ([r["mu"] for r in rep["records"]]
                         for rep in (rep_test, rep_train))

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
        "counts_test_side": tuple(rep_test["counts"].values()),
        "counts_train_side": tuple(rep_train["counts"].values()),
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
    """The error counts that the published vectors' truncation allows, on
    ``parts``, one entry of ``mode_parts``, exactly.

    The tables print four decimals, so each component of a published w is
    known only to +-5e-5. For any v with |v_i - w_i| <= 5e-5, the
    unnormalized stability tau x.v of pattern x differs from s = tau x.w by
    at most r = 5e-5 ||x||_1, and the corner v = w -+ 5e-5 sign(tau x)
    reaches s -+ r. So every v misclassifies the patterns with s <= -r, none
    those with s > r, and some v each one between. Per vector, ``min``
    counts the first kind and ``max`` both, so every v's count lies in
    [min, max], and ``min_ratio`` is the smallest |s| / r, above 1 only if
    min == max. With two or more patterns between, one v may reach neither
    end, as each pattern's corner differs.
    """
    out = {}
    for key, w, part in zip(_PERTURBED, _published()[2], parts):
        s = part.folded @ w.w
        r = 5e-5 * np.abs(part.Xi).sum(1)
        out[key] = {"min": int(np.count_nonzero(s <= -r)),
                    "max": int(np.count_nonzero(s <= r)),
                    "min_ratio": float((np.abs(s) / r).min())}
    return out


def published_norms():
    """Euclidean norms of the three published vectors (all close to
    sqrt(N+1), which identifies the normalization the tables use)."""
    return {name: w.norm for name, w in zip(PUBLISHED_NAMES, _published()[2])}


def cosine_report():
    """Pairwise cosines of the published vectors in both modes."""
    table, _, published_ws = _published()
    ws = dict(zip(PUBLISHED_NAMES, published_ws))
    pairs = [("W_Sonar", "W_Train"), ("W_Sonar", "W_Test"), ("W_Train", "W_Test")]
    out = {}
    for a, b in pairs:
        key = f"({a},{b})"
        out[key] = {
            "true_cosine": cosine(ws[a], ws[b]),
            "raw_eq8": cosine(ws[a], ws[b], raw_eq8=True),
            "published": table["cosines"][key],
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
