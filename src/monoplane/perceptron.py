"""Single binary perceptron machinery.

The classifier is a hyperplane through weight space: a pattern xi (with
xi[0] = 1 carrying the bias) is classified by the sign of w . xi. Two
quantities drive everything here:

    field(w, xi)     = (w . xi) / ||w||        signed distance to the plane
    stability(w, p)  = tau * field(w, p.xi)    positive iff well classified

Training minimizes the temperature-smoothed error count

    E(w, T) = 1/2 * sum_mu [ 1 - tanh(gamma_mu / 2T) ]

by full-batch gradient descent while T decays geometrically: a deterministic
annealing that starts with a wide soft window over all patterns and
progressively sharpens E toward the true misclassification count. The
returned weights are those of the best epoch seen (fewest training errors,
ties broken by the larger minimal stability).

Every trainer and evaluator takes a data.PatternSet (or a LabeledPattern
sequence, which PatternSet.of packs). The anneal works on its label-folded
pattern matrix tXi (row mu is tau_mu * xi_mu), derived once per PatternSet,
so that each epoch is two matrix-vector products:

    gamma = tXi @ w / ||w||                                  stabilities
    grad  = (c @ tXi) / ||w|| - (c . gamma) w / ||w||^2      dE/dw

with c_mu = -sech^2(gamma_mu / 2T_mu) / (4 T_mu). T_mu is one temperature
for the plain cost, or the two-temperature window of the asymmetric cost,
which is again one temperature once every stability is nonnegative. An
epoch counts errors only when the minimal stability is not positive.

A classic fixed-increment perceptron with pocket-style retention is provided
as a baseline for generalization comparisons.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .data import PatternSet


class TrainingError(RuntimeError):
    """Raised when descent produces non-finite weights or cost.

    Carries the trace accumulated up to the failure in ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class WeightVector:
    """Immutable weight vector; component 0 is the bias weight."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        n = float(np.linalg.norm(w))
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("weight vector must be finite with nonzero norm")
        object.__setattr__(self, "norm", n)

    def __len__(self):
        return len(self.w)

    def rescaled(self):
        """Same direction with ||w||^2 = len(w), the trainer's normalization."""
        return WeightVector(self.w * (np.sqrt(len(self.w)) / self.norm))


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the annealed trainer.

    temp_ratio is the ratio of the smoothing window width applied to
    positively stabilized patterns relative to negatively stabilized ones;
    1.0 recovers the plain single-temperature cost exactly. Values below 1
    narrow the window on the already-correct side, which concentrates the
    descent on the remaining errors and is what "finer tuning" buys on
    hard, barely separable sets.
    """

    t_initial: float = 10.0
    t_min: float = 1e-3
    t_decay: float = 0.999
    learning_rate: float = 0.02
    max_epochs: int = 100000
    seed: int = 0
    temp_ratio: float = 1.0

    def __post_init__(self):
        if not (self.t_initial >= self.t_min > 0):
            raise ValueError("need t_initial >= t_min > 0")
        if not (0 < self.t_decay < 1):
            raise ValueError("need 0 < t_decay < 1")
        if self.learning_rate <= 0:
            raise ValueError("need learning_rate > 0")
        if self.max_epochs < 1:
            raise ValueError("need max_epochs >= 1")
        if self.temp_ratio <= 0:
            raise ValueError("need temp_ratio > 0")

    @classmethod
    def from_file(cls, path):
        """Read a flat key=value file; unknown keys are an error."""
        casts = {f.name: type(f.default) for f in fields(cls)}
        kwargs = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in casts:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                kwargs[key] = casts[key](val)
        return cls(**kwargs)

    def to_dict(self):
        return asdict(self)


# Schedule that achieves full separation of the hardest benchmark case (the
# combined 208-pattern set): slower decay, colder floor, narrow window on the
# correct side. The stock defaults already separate the easier parts.
SEPARATION_CONFIG = TrainingConfig(
    t_initial=1.0, t_min=1e-5, t_decay=0.9998,
    learning_rate=0.02, max_epochs=100000, temp_ratio=0.02,
)


@dataclass
class EpochRecord:
    temperature: float
    cost: float
    errors: int
    min_stability: float


@dataclass
class TrainingTrace:
    """Per-epoch observability of a run, plus which epoch was retained."""

    records: list = dc_field(default_factory=list)
    best_epoch: int = -1
    hebbian_fallback: bool = False

    def append(self, rec):
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def to_csv(self, stream):
        stream.write("epoch,temperature,cost,errors,min_stability\n")
        for i, r in enumerate(self.records):
            stream.write(f"{i},{r.temperature!r},{r.cost!r},{r.errors},"
                         f"{r.min_stability!r}\n")

    def error_counts(self):
        return [r.errors for r in self.records]


def field(w: WeightVector, xi) -> float:
    """Signed distance of the pattern to the hyperplane normal to w."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != w.w.shape:
        raise ValueError(f"pattern has {xi.shape[0]} components, weights {len(w)}")
    return float(w.w @ xi) / w.norm


def stability(w: WeightVector, p) -> float:
    """tau * field: positive iff the pattern is well classified."""
    return p.tau * field(w, p.xi)


def _fields(w: WeightVector, Xi):
    return (Xi @ w.w) / w.norm


def _sech2(x):
    # sech^2 via exp(-|x|) to avoid cosh overflow for saturated windows
    ax = np.abs(x)
    e = np.exp(-np.minimum(ax, 350.0))
    return np.square(2.0 * e / (1.0 + e * e))


def cost(w: WeightVector, patterns, T: float) -> float:
    """Smoothed error count E = 1/2 sum [1 - tanh(gamma / 2T)], in (0, P)."""
    if T <= 0:
        raise ValueError("temperature must be positive")
    if not patterns:
        raise ValueError("cost of an empty pattern set is undefined")
    gam = _fields(w, PatternSet.of(patterns).folded)
    return float(0.5 * np.sum(1.0 - np.tanh(gam / (2.0 * T))))


def cost_gradient(w: WeightVector, patterns, T: float):
    """Exact gradient of ``cost`` with respect to w.

    With the label-folded rows tau*xi stacked in tXi, the stabilities
    gamma = tXi @ w / ||w|| and c_mu = -sech^2(gamma_mu/2T)/(4T):

        dE/dw = (c @ tXi) / ||w|| - (c . gamma) w / ||w||^2

    Each pattern's share is orthogonal to w, so the whole gradient is.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")
    tXi = PatternSet.of(patterns).folded
    gam = (tXi @ w.w) / w.norm
    return _gradient(w.w, w.norm, tXi, gam, gam / (2.0 * T), T)


def _gradient(w, nw, tXi, gam, h, T):
    """Gradient of the smoothed error count at raw weights ``w`` of norm
    ``nw``, given the stabilities ``gam`` of the folded rows ``tXi``. ``T``
    is a scalar temperature or one temperature per pattern, and ``h`` is
    ``gam / (2T)``, which the caller has at hand."""
    c = _sech2(h) / (-4.0 * T)
    return (c @ tXi) / nw - (c @ gam) / (nw * nw) * w


def hebbian_init(patterns, rng=None):
    """Center-of-mass start: w = mean of tau * xi, rescaled to ||w||^2 = dim.

    A perfectly balanced set cancels to the zero vector; the fallback is a
    random direction drawn from ``rng`` (default seed 0). Returns
    (WeightVector, used_fallback).
    """
    if not patterns:
        raise ValueError("cannot initialize from an empty pattern set")
    w = PatternSet.of(patterns).folded.mean(axis=0)
    if np.linalg.norm(w) < 1e-300:
        rng = np.random.default_rng(0) if rng is None else rng
        return WeightVector(rng.standard_normal(len(w))).rescaled(), True
    return WeightVector(w).rescaled(), False


def count_errors(w: WeightVector, patterns):
    """(total, false_pos, false_neg) of w over the set.

    total counts stability <= 0, so a pattern exactly on the hyperplane is
    an error; false_pos/false_neg use strict field signs per the reporting
    convention (a zero field lands in neither bucket).
    """
    if not patterns:
        return 0, 0, 0
    ps = PatternSet.of(patterns)
    return _error_counts(_fields(w, ps.Xi), ps.tau)


def _error_counts(f, tau):
    """``count_errors`` from the fields ``f`` of the patterns labelled ``tau``."""
    total = int(np.sum(tau * f <= 0.0))
    false_pos = int(np.sum((tau == -1) & (f > 0.0)))
    false_neg = int(np.sum((tau == +1) & (f < 0.0)))
    return total, false_pos, false_neg


def minimerror_train(patterns, config: TrainingConfig):
    """Annealed minimization of the smoothed error count.

    From a Hebbian start, repeat {normalized full-batch gradient step;
    rescale ||w||^2 = dim; T <- T * t_decay} until T < t_min or max_epochs.
    The asymmetric window applies temperature temp_ratio*T to patterns with
    nonnegative stability and T to the rest; temp_ratio=1 is the plain cost.
    Deterministic for a fixed pattern order and config.
    """
    if not patterns:
        raise ValueError("cannot train on an empty pattern set")
    ps = PatternSet.of(patterns)
    tXi = ps.folded
    dim = tXi.shape[1]
    wv, fallback = hebbian_init(ps, np.random.default_rng(config.seed))
    w = wv.w.copy()
    trace = TrainingTrace(hebbian_fallback=fallback)
    theta = config.temp_ratio

    best = None     # (errors, -min_stability) lexicographic, lower is better
    best_w = w.copy()
    T = config.t_initial
    epoch = 0
    root_dim = math.sqrt(dim)
    while T > config.t_min and epoch < config.max_epochs:
        nw = math.sqrt(w @ w)
        gam = (tXi @ w) / nw
        min_stab = float(gam.min())
        # no stability is <= 0 above a positive minimum; a NaN minimum
        # still goes to the count
        errors = 0 if min_stab > 0.0 else int(np.count_nonzero(gam <= 0.0))
        h = gam / (2.0 * T)
        E = float(0.5 * (1.0 - np.tanh(h)).sum())
        # w enters every epoch rescaled to norm sqrt(dim), so nw is finite
        # exactly when w is
        if not math.isfinite(E) or not math.isfinite(nw):
            raise TrainingError(f"non-finite state at epoch {epoch}", trace)
        trace.append(EpochRecord(T, E, errors, min_stab))
        key = (errors, -min_stab)
        if best is None or key < best:
            best = key
            best_w = w.copy()
            trace.best_epoch = epoch

        # two-temperature window: theta*T on the well-classified side. It
        # is one temperature for the plain cost and, the common case late
        # in an anneal, when every pattern is on that side.
        if theta == 1.0 or min_stab >= 0.0:
            grad = _gradient(w, nw, tXi, gam, h / theta, T * theta)
        else:
            r = np.where(gam >= 0.0, theta, 1.0)
            grad = _gradient(w, nw, tXi, gam, h / r, T * r)
        gn = math.sqrt(grad @ grad)
        if gn > 0.0:
            w -= (config.learning_rate / gn) * grad
        w *= root_dim / math.sqrt(w @ w)
        T *= config.t_decay
        epoch += 1

    return WeightVector(best_w), trace


def rosenblatt_train(patterns, config: TrainingConfig):
    """Classic fixed-increment rule with pocket retention.

    Starting from a seeded random direction, sweep the set in order and on
    each misclassified pattern apply w <- w + learning_rate * tau * xi,
    until an errorless pass or max_epochs. The returned weights are the
    best snapshot seen, so the result is well defined on non-separable data.
    Weights that collapse to zero or whose norm is not finite raise
    TrainingError.
    """
    if not patterns:
        raise ValueError("cannot train on an empty pattern set")
    tXi = PatternSet.of(patterns).folded
    dim = tXi.shape[1]
    rng = np.random.default_rng(config.seed)
    w = rng.standard_normal(dim)
    w *= np.sqrt(dim) / np.linalg.norm(w)
    rows = list(tXi)
    trace = TrainingTrace()

    best = None
    best_w = w.copy()
    for epoch in range(config.max_epochs):
        for trow in rows:
            if trow @ w <= 0.0:
                w = w + config.learning_rate * trow
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise TrainingError(f"weights collapsed to zero at epoch {epoch}", trace)
        if not math.isfinite(nw):
            raise TrainingError(f"non-finite state at epoch {epoch}", trace)
        gam = (tXi @ w) / nw
        errors = int(np.count_nonzero(gam <= 0.0))
        min_stab = float(gam.min())
        trace.append(EpochRecord(float("nan"), float(errors), errors, min_stab))
        key = (errors, -min_stab)
        if best is None or key < best:
            best = key
            best_w = w.copy()
            trace.best_epoch = epoch
        if errors == 0:
            break

    return WeightVector(best_w).rescaled(), trace


def save_weights(w: WeightVector, stream):
    """One real per line, component 0 (the bias) first."""
    for v in w.w:
        stream.write(f"{float(v)!r}\n")


def load_weights(source) -> WeightVector:
    """Accept one-per-line or the comma/whitespace table layout."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("no weight values found")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"unparseable weight value: {exc}") from None
    return WeightVector(np.array(values))


def weights_to_table_text(w: WeightVector, per_row=8):
    """Render in the published-table layout: 8 comma-separated values a row."""
    out = io.StringIO()
    vals = [f"{v: .4f}" for v in w.w]
    for i in range(0, len(vals), per_row):
        out.write(", ".join(v.strip() for v in vals[i:i + per_row]))
        out.write("\n")
    return out.getvalue()
