"""Single binary perceptron machinery.

The classifier is a hyperplane through weight space: a pattern xi (with
xi[0] = 1 carrying the bias) is classified by the sign of w . xi. Two
quantities drive everything here:

    field(w, X)  = (X @ w) / ||w||      signed distance to the plane
    gamma        = tau * field(w, X)    positive iff well classified

one entry per row of a (P, dim) pattern matrix X with labels tau.

Training minimizes the temperature-smoothed error count

    E(w, T) = 1/2 * sum_mu [ 1 - tanh(gamma_mu / 2T) ]

by full-batch gradient descent while T decays geometrically: a deterministic
annealing that starts with a wide soft window over all patterns and
progressively sharpens E toward the true misclassification count. The
returned weights are those of the best epoch seen (fewest training errors,
ties broken by the larger minimal stability).

Every trainer and evaluator takes a data.PatternSet. The anneal works on
its label-folded pattern matrix tXi (row mu is tau_mu * xi_mu), derived
once per PatternSet, with w stored as the last row of the stacked matrix
M = [tXi; w]. An epoch is then two matrix-vector products:

    M @ w = [tXi @ w, w . w]               gamma = tXi @ w / ||w||
    d     = [u, -(u . tXi @ w) / (w . w)] @ M
          = u @ tXi - (u . gamma) w / ||w||                  descent direction

with u_mu = sech^2(gamma_mu / 2T_mu) / r_mu for the window temperatures
T_mu = r_mu T (r_mu = temp_ratio where gamma_mu >= 0, else 1). The gradient
of E is -d / (4T ||w||), and the step w += (lr ||w|| / sqrt(dim)) d / ||d||
cancels that positive factor, so the epoch computes neither it nor the
common 1/r_mu of a one-temperature window (the plain cost, or every
stability nonnegative). The step is a fixed fraction of ||w|| and nothing
else depends on the scale of w, so w is not rescaled every epoch: it is
multiplied by an exact power of two when w . w passes 4 dim. An epoch
takes no step when every gamma_mu / 2T_mu is past ~355.6, where sech^2 is
0. Such an epoch ends the anneal: w would never move again and T only
falls, so no later epoch could change w, the minimal stability or the
retained epoch. The trace ends with that epoch and says why the anneal
stopped.

The trace is four columns (temperature, cost, errors, minimal stability).
The descent reads none of them, so an epoch runs only the descent step: it
writes M @ w in place in a row of a block buffer and copies w beside it.
Once per block of _BLOCK epochs, the block's rows give every column and
the retained epoch: the minimal stabilities as row minima over ||w||, the
errors only in a block with a minimal stability that is not positive, the
temperatures as running products of t_decay, and the cost from one
division by 2T ||w||, one tanh and one row sum.

At the sizes of a network's units an epoch's time is mostly numpy's
per-call overhead, so the epoch passes every output positionally into a
preallocated array, gives each scalar operand as a preallocated 0-d array
(numpy converts a Python float on every call) and computes sech^2 inline
as cosh, square and reciprocal. A field that is not finite, NaN or +-inf,
makes the direction NaN and raises TrainingError at its epoch.

A classic fixed-increment perceptron with pocket-style retention is provided
as a baseline for generalization comparisons.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import _load, read_number


class TrainingError(RuntimeError):
    """Raised when descent produces non-finite weights or cost.

    Carries the trace accumulated up to the failure in ``trace``.
    """

    def __init__(self, message, trace):
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
        # a bool is an int to isinstance; a float or NaN max_epochs would run
        for name in ("max_epochs", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"need an integer {name}, got {value!r}")
        for name in ("t_initial", "t_min", "learning_rate", "temp_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"need a finite {name}, got {value}")
        if not (self.t_initial >= self.t_min > 0):
            raise ValueError("need t_initial >= t_min > 0")
        if not (0 < self.t_decay < 1):
            raise ValueError("need 0 < t_decay < 1")
        if self.learning_rate <= 0:
            raise ValueError("need learning_rate > 0")
        if self.max_epochs < 1:
            raise ValueError("need max_epochs >= 1")
        if self.seed < 0:
            raise ValueError("need seed >= 0")
        if self.temp_ratio <= 0:
            raise ValueError("need temp_ratio > 0")

    @classmethod
    def from_file(cls, path):
        """Read a flat key=value file; any fault of it (bytes that are not
        UTF-8, a line, a bad config) is a ParseError naming the file."""
        casts = {f.name: type(f.default) for f in fields(cls)}
        def parse(lines):
            kwargs = {}
            for lineno, line in enumerate(lines, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in casts:
                    raise ValueError(f"line {lineno}: unknown config key {key!r}")
                if key in kwargs:
                    raise ValueError(f"line {lineno}: duplicate config key {key!r}")
                try:
                    kwargs[key] = read_number(val, casts[key])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad {key}: {exc}") from None
            return cls(**kwargs)
        return _load(parse, path)

    def to_dict(self):
        return asdict(self)


# Schedule that separates the Train part, the Test part and the combined
# 208-pattern set: slower decay, colder floor, narrow window on the correct
# side. The stock defaults separate none of them: on the bundled split they
# end at t_min with 9/104, 3/104 and 13/208 training errors.
SEPARATION_CONFIG = TrainingConfig(
    t_initial=1.0, t_min=1e-5, t_decay=0.9998,
    learning_rate=0.02, max_epochs=100000, temp_ratio=0.02,
)


_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class TrainingTrace:
    """Per-epoch observability of a run, plus which epoch was retained.

    One entry per epoch run in each column: ``temperature``, ``cost`` and
    ``min_stability`` as float64, ``errors`` as int64. ``to_csv`` writes
    them as Python floats and ints. ``stop`` says why an anneal ended:
    "frozen" (its last epoch took no step, and no later one would),
    "t_min" or "max_epochs"; it is None for other trainers.
    """

    temperature: np.ndarray
    cost: np.ndarray
    errors: np.ndarray
    min_stability: np.ndarray
    best_epoch: int = -1
    hebbian_fallback: bool = False
    stop: str | None = None

    @classmethod
    def from_rows(cls, rows, best_epoch=-1, hebbian_fallback=False):
        """A trace from (temperature, cost, errors, min_stability) rows."""
        T, E, errors, stab = zip(*rows) if rows else ((),) * 4
        return cls(np.array(T, dtype=float), np.array(E, dtype=float),
                   np.array(errors, dtype=np.int64),
                   np.array(stab, dtype=float), best_epoch, hebbian_fallback)

    def __len__(self):
        return len(self.errors)

    def to_csv(self, stream):
        stream.write("epoch,temperature,cost,errors,min_stability\n")
        columns = (self.temperature, self.cost, self.errors, self.min_stability)
        # a bounded number of rows at a time as Python numbers, so a long
        # trace never holds all its values as Python objects at once
        for start in range(0, len(self), _CSV_CHUNK_ROWS):
            rows = zip(*(c[start:start + _CSV_CHUNK_ROWS].tolist()
                         for c in columns))
            stream.writelines(f"{i},{T!r},{E!r},{errors},{stab!r}\n"
                              for i, (T, E, errors, stab)
                              in enumerate(rows, start))


def field(w: WeightVector, X):
    """Signed distance of each row of the (P, dim) pattern matrix X to the
    hyperplane normal to w: an array of one entry per row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(w):
        raise ValueError(f"patterns of shape {X.shape} do not have the "
                         f"{len(w)} components of the weights")
    return (X @ w.w) / w.norm


def _sech2(x):
    # 1/cosh^2; past |x| ~355 cosh^2 overflows to inf and sech^2 is 0, so
    # callers run this under np.errstate(over="ignore")
    c = np.cosh(x)
    c *= c
    return np.divide(1.0, c, out=c)


def cost(w: WeightVector, patterns, T: float) -> float:
    """Smoothed error count E = 1/2 sum [1 - tanh(gamma / 2T)], in (0, P)."""
    if not T > 0:
        raise ValueError("temperature must be positive")
    if not patterns:
        raise ValueError("cost of an empty pattern set is undefined")
    gam = field(w, patterns.folded)
    return float(0.5 * np.sum(1.0 - np.tanh(gam / (2.0 * T))))


def cost_gradient(w: WeightVector, patterns, T: float):
    """Exact gradient of ``cost`` with respect to w.

    With the label-folded rows tau*xi stacked in tXi, the stabilities
    gamma = tXi @ w / ||w|| and u_mu = sech^2(gamma_mu/2T) / T:

        dE/dw = -(u @ tXi - (u . gamma) w / ||w||) / (4 ||w||)

    Each pattern's share is orthogonal to w, so the whole gradient is.
    """
    if not T > 0:
        raise ValueError("temperature must be positive")
    if not patterns:
        raise ValueError("cost of an empty pattern set is undefined")
    tXi = patterns.folded
    gam = field(w, tXi)
    with np.errstate(over="ignore"):
        u = _sech2(gam / (2.0 * T)) / T
    d = np.dot(u, tXi)
    d -= (np.dot(u, gam) / w.norm) * w.w
    return d * (-0.25 / w.norm)


def hebbian_init(patterns, rng=None):
    """Center-of-mass start: w = mean of tau * xi, rescaled to ||w||^2 = dim.

    A perfectly balanced set cancels to the zero vector; the fallback is a
    random direction drawn from ``rng`` (default seed 0). Returns
    (WeightVector, used_fallback).
    """
    if not patterns:
        raise ValueError("cannot initialize from an empty pattern set")
    w = patterns.folded.mean(axis=0)
    # over 2**e, e the binary exponent of its largest entry, the mean's norm
    # cannot overflow, and rescaling cancels the power of two; the fallback
    # still tests the mean's own norm against 1e-300
    e = int(np.frexp(np.abs(w).max())[1])
    w = np.ldexp(w, -e)
    if np.linalg.norm(w) < math.ldexp(1e-300, -e):
        rng = np.random.default_rng(0) if rng is None else rng
        return WeightVector(rng.standard_normal(len(w))).rescaled(), True
    return WeightVector(w).rescaled(), False


def count_errors(w: WeightVector, patterns):
    """(total, false_pos, false_neg) of w over the set.

    total counts stability <= 0, so a pattern exactly on the hyperplane is
    an error: a separation certificate needs every stability strictly
    positive. false_pos/false_neg use strict field signs per the reporting
    convention (a zero field lands in neither bucket). network._sign
    differs on purpose: it maps a zero field to +1, because a network unit
    must realize a +-1 output for every pattern.
    """
    return _error_counts(field(w, patterns.Xi), patterns.tau)


def _error_counts(f, tau):
    """``count_errors`` from the fields ``f`` of the patterns labelled ``tau``."""
    total = int(np.count_nonzero(tau * f <= 0.0))
    false_pos = int(np.count_nonzero((tau == -1) & (f > 0.0)))
    false_neg = int(np.count_nonzero((tau == +1) & (f < 0.0)))
    return total, false_pos, false_neg


# epochs whose trace columns are computed together: M @ w and w are buffered
# per block
_BLOCK = 256


def _close_block(blocks, G, W, k, first, T, t_decay, best):
    """Append the trace columns of a block's first ``k`` epochs, the first
    of them epoch ``first`` at temperature ``T``, to ``blocks``, and return
    ``best``, the retained (errors, min_stability, epoch, w), updated with
    the block's best epoch: fewest errors, then the largest minimal
    stability, then the first.

    Row i of ``G`` is M @ w at the block's epoch i, tXi @ w with w . w in
    its last slot, every value finite, and row i of ``W`` is that w. Its
    minimal stability is the row's minimum over sqrt(w . w). Errors are
    counted only in a block with a minimal stability that is not positive.
    The temperatures are the running products of t_decay from T, the
    anneal's own T *= t_decay bit for bit, and the cost is
    E = 1/2 sum(1 - tanh(gamma / 2T)), with gamma / 2T the rest of the row
    over 2T sqrt(w . w). The buffers are then free for the next block."""
    h = G[:k, :-1]
    nw = np.sqrt(G[:k, -1])
    stabs = np.minimum.reduce(h, axis=1)
    stabs /= nw
    # no stability is <= 0 above a positive minimum
    if float(np.minimum.reduce(stabs, initial=math.inf)) > 0.0:
        errs = np.zeros(k, np.int64)
    else:
        errs = np.count_nonzero(h <= 0.0, axis=1).astype(np.int64, copy=False)
    temps = np.full(k, t_decay)
    if k:
        temps[0] = T
        np.multiply.accumulate(temps, out=temps)
        e = int(errs.min())
        rows = np.flatnonzero(errs == e)
        i = int(rows[stabs[rows].argmax()])
        if best[2] < 0 or e < best[0] or (e == best[0] and stabs[i] > best[1]):
            best = (e, float(stabs[i]), first + i, W[i].copy())
    nw *= 2.0 * temps
    np.divide(h, nw[:, None], out=h)
    np.tanh(h, out=h)
    np.subtract(1.0, h, out=h)
    E = h.sum(axis=1)
    E *= 0.5
    blocks.append((temps, E, errs, stabs))
    return best


def minimerror_train(patterns, config: TrainingConfig):
    """Annealed minimization of the smoothed error count.

    From a Hebbian start, repeat {normalized full-batch descent step;
    T <- T * t_decay} until T <= t_min or max_epochs, and return the
    retained weights rescaled to ||w||^2 = dim. The asymmetric window
    applies temperature temp_ratio*T to patterns with nonnegative stability
    and T to the rest; temp_ratio=1 is the plain cost. Deterministic for a
    fixed pattern order and config.

    The step has length lr ||w|| / sqrt(dim), a fixed fraction of ||w||,
    and everything else the epoch computes is invariant under the scale of
    w, so w is not rescaled every epoch. When w . w passes 4 dim, w is
    multiplied by a power of two that brings it below 2 dim: an exact
    scaling, so every other bit of the anneal stays the same.

    An epoch runs only the descent step. It keeps M @ w and w in a row of
    a block buffer, and ``_close_block`` derives every trace column and the
    retained epoch from the rows once per block of _BLOCK epochs. Only a
    two-temperature window takes the minimal stability in the epoch, to
    pick the window.

    An epoch whose every stability is at least 712 temp_ratio T saturates
    the window: every sech^2 weight is 0, so it takes no step, and neither
    would any later epoch, so none could move w, change the minimal
    stability or displace the retained epoch. The anneal ends there. Such
    an epoch's direction norm is 0, not at least 1e-150, and only then does
    the epoch test its minimal stability against 712 temp_ratio T. Its
    ``stop`` is "frozen" when the last row is such an epoch, even if the
    schedule ends there too, else "t_min" when T fell to t_min and
    "max_epochs" otherwise.

    A field that is not finite (NaN, or +-inf, which BLAS may give for the
    same overflow depending on how it groups the sum) makes the direction
    norm NaN, and a step that overflows w or w . w makes the next epoch's
    w . w not finite. Either epoch fails: it leaves the loop with no
    ``stop`` and keeps no row. A NaN norm fails the test for a norm of at
    least 1e-150, so only an epoch that already fails it tests for NaN.

    Every exit of the loop ends in one place: the last block is closed,
    keeping the row of every epoch run but a failing one, and the trace is
    built once. An anneal with no ``stop`` then raises TrainingError at its
    failing epoch, with that trace.
    """
    if not patterns:
        raise ValueError("cannot train on an empty pattern set")
    P, dim = patterns.folded.shape
    wv, fallback = hebbian_init(patterns, np.random.default_rng(config.seed))
    # w is the last row of M = [tXi; w], so M @ w is tXi @ w and w . w
    M = np.empty((P + 1, dim))
    M[:P] = patterns.folded
    w = M[P]
    w[:] = wv.w
    theta = config.temp_ratio
    lr, t_min, t_decay = config.learning_rate, config.t_min, config.t_decay
    max_epochs = config.max_epochs
    root_dim = math.sqrt(dim)
    ww_max = 4.0 * dim

    # one allocation: row k holds M @ w at the block's epoch k, then that w
    GW = np.empty((_BLOCK, P + 1 + dim))
    G, W = GW[:, :P + 1], GW[:, P + 1:]
    g_rows = [(row, row[:P], wrow) for row, wrow in zip(G, W)]
    # the pattern weights u, then -(u . tXi @ w) / (w . w), so that
    # uext @ M = u @ tXi - (u . gamma / ||w||) w
    uext = np.empty(P + 1)
    u = uext[:P]
    d = np.empty(dim)
    # a 0-d operand: numpy converts a Python float on every call
    c0 = np.empty(())
    m_dot, u_dot, uext_dot, d_dot = M.dot, u.dot, uext.dot, d.dot
    divide, multiply, add = np.divide, np.multiply, np.add
    cosh, square, reciprocal = np.cosh, np.square, np.reciprocal
    sqrt, isfinite, block = math.sqrt, math.isfinite, _BLOCK
    blocks = []
    best = (None, None, -1, w.copy())   # (errors, min_stability, epoch, w)

    T = T_first = config.t_initial
    epoch = first = k = 0
    stop = None
    # a diverged step is caught by the test below, a non-finite field by a
    # NaN direction norm, and a saturated window overflows cosh^2 to inf,
    # none by numpy warnings
    with np.errstate(all="ignore"):
        while T > t_min and epoch < max_epochs:
            if k == block:
                best = _close_block(blocks, G, W, k, first, T_first, t_decay,
                                    best)
                first, T_first, k = epoch, T, 0
            row, raw, wrow = g_rows[k]
            m_dot(w, row)
            ww = row.item(P)
            if ww > ww_max:
                w *= math.ldexp(1.0, -(math.frexp(ww / dim)[1] // 2))
                m_dot(w, row)
                ww = row.item(P)
            nw = sqrt(ww)
            # w . w is kept below 4 dim, so nw is not finite only when the
            # last step overflowed w or w . w
            if not isfinite(nw):
                break
            wrow[...] = w

            # two-temperature window: theta*T on the well-classified side. It
            # is one temperature for the plain cost and, the common case late
            # in an anneal, when every pattern is on that side; its 1/theta
            # then cancels in the step normalization. gamma / 2T_mu is
            # raw / (2T ||w|| r_mu), and u = 1 / cosh^2 of it (as _sech2).
            s = 2.0 * T * nw
            one = theta == 1.0 or raw.item(raw.argmin()) >= 0.0
            if one:
                c0[()] = theta * s
                divide(raw, c0, u)
            else:
                pos = raw >= 0.0
                divide(raw, np.where(pos, theta * s, s), u)
            cosh(u, u)
            square(u, u)
            reciprocal(u, u)
            if not one:
                divide(u, theta, u, where=pos)
            uext[P] = -float(u_dot(raw)) / ww
            uext_dot(M, d)
            dn = sqrt(d_dot(d))
            if not dn >= 1e-150:
                # a NaN field makes u NaN, and a +-inf one u . raw (0 * inf),
                # so d and its norm are NaN: the epoch fails and keeps no
                # row, so every row kept has finite fields
                if dn != dn:
                    break
                # past gamma / 2T_mu ~355.6 cosh^2 overflows and sech^2 is 0.
                # A saturated window, every stability at least 712 theta T,
                # gives d = 0 and no step, and so does every later epoch: w
                # stays and T falls. The epoch keeps its row.
                if float(np.minimum.reduce(raw)) / nw >= 712.0 * theta * T:
                    stop = "frozen"
                    k += 1
                    break
                # d . d underflows once ||d|| < ~1.5e-162, d / ||d|| does
                # not. Scaled to a largest pattern weight of 1, the weights
                # give the same direction with every term of it normal,
                # whatever the scale of w.
                if (u_max := float(np.maximum.reduce(u))) > 0.0:
                    u /= u_max
                    uext[P] = -float(u_dot(raw)) / ww
                    uext_dot(M, d)
                    dn = sqrt(d_dot(d))
            if dn > 0.0:
                c0[()] = lr * nw / (root_dim * dn)
                multiply(d, c0, d)
                add(w, d, w)
            T *= t_decay
            epoch += 1
            k += 1
        else:
            stop = "t_min" if T <= t_min else "max_epochs"
        best = _close_block(blocks, G, W, k, first, T_first, t_decay, best)
    trace = TrainingTrace(*map(np.concatenate, zip(*blocks)), best[2],
                          fallback, stop)
    # only a non-finite norm or direction leaves the loop without a stop
    if stop is None:
        raise TrainingError(f"non-finite state at epoch {epoch}", trace)
    return WeightVector(best[3]).rescaled(), trace


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
    tXi = patterns.folded
    rng = np.random.default_rng(config.seed)
    w = WeightVector(rng.standard_normal(tXi.shape[1])).rescaled().w
    trows = list(tXi)
    rows = []

    best = None
    best_epoch = -1
    best_w = w.copy()
    # an overflowing norm is caught by the test below, not by numpy warnings
    with np.errstate(all="ignore"):
        for epoch in range(config.max_epochs):
            for trow in trows:
                if trow.dot(w) <= 0.0:
                    w = w + config.learning_rate * trow
            nw = np.linalg.norm(w)
            if not 0.0 < nw < math.inf:
                break
            gam = (tXi @ w) / nw
            errors = int(np.count_nonzero(gam <= 0.0))
            min_stab = float(gam.min())
            rows.append((float("nan"), float(errors), errors, min_stab))
            key = (errors, -min_stab)
            if best is None or key < best:
                best = key
                best_w = w.copy()
                best_epoch = epoch
            if errors == 0:
                break

    trace = TrainingTrace.from_rows(rows, best_epoch)
    # a zero or non-finite norm leaves the sweeps: its epoch keeps no row
    if not 0.0 < nw < math.inf:
        fault = "weights collapsed to zero" if nw == 0.0 else "non-finite state"
        raise TrainingError(f"{fault} at epoch {epoch}", trace)
    return WeightVector(best_w).rescaled(), trace


def save_weights(w: WeightVector, stream):
    """One real per line, component 0 (the bias) first."""
    for v in w.w:
        stream.write(f"{float(v)!r}\n")


def load_weights(text) -> WeightVector:
    """Accept one-per-line or the comma/whitespace table layout."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("no weight values found")
    try:
        values = [read_number(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"unparseable weight value: {exc}") from None
    return WeightVector(np.array(values))
