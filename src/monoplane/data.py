"""Sonar benchmark ingestion: CSV parsing, train/test division, standardization.

The benchmark file is plain CSV: 60 reals in [0, 1] followed by a class token
(R for rock, M for mine), one pattern per line. A file is read into one
``RawSet``, its patterns numbered mu = 1..n in file order. A division into a
learning and a generalization part comes only from a split file, whose
``[train]`` / ``[test]`` sections list the mu of each part.

Standardization is the per-feature z-score

    xi_i <- (xi_i - mean_i) / scale_i

with mean and scale computed over a chosen learning set only. ``scale`` is
the population standard deviation by default, the coordinates ``train``
and ``grow`` learn in; ``variance`` mode divides by the mean squared
deviation instead and is kept for ``verify``, which sweeps both, because
the two conventions are easy to confuse and produce very different geometry.
``compute_stats`` and ``standardize`` are the one path from a ``RawSet`` to
the ``PatternSet`` that trainers and evaluators read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ROCK = "R"
MINE = "M"

_LABEL_TAU = {"R": +1, "ROCK": +1, "M": -1, "MINE": -1}


class ParseError(ValueError):
    """A dataset, split or config file could not be read or interpreted."""


class SplitError(ValueError):
    """A division request is inconsistent with the loaded dataset."""


class StatsError(ValueError):
    """Standardization statistics cannot be computed or applied."""


@dataclass(frozen=True)
class RawPattern:
    """One row of a RawSet, as indexing or iterating it yields."""

    mu: int
    features: tuple
    label: str


@dataclass(frozen=True)
class LabeledPattern:
    """A standardized pattern: xi[0] is the constant bias coordinate 1."""

    mu: int
    xi: np.ndarray
    tau: int

    def __post_init__(self):
        if self.xi[0] != 1.0:
            raise ValueError(f"pattern mu={self.mu}: xi[0] must be exactly 1")
        if self.tau not in (-1, +1):
            raise ValueError(f"pattern mu={self.mu}: tau must be -1 or +1")


@dataclass(frozen=True, eq=False)
class RawSet:
    """Benchmark patterns as read from disk, before standardization: row k
    of the float ``(P, n)`` matrix ``X`` holds the features of the pattern
    numbered ``mu[k]``, and ``tau[k]`` is its label as parsed (rock +1,
    mine -1). Indexing and iteration yield RawPattern rows."""

    X: np.ndarray
    tau: np.ndarray
    mu: np.ndarray

    def take(self, rows):
        """The RawSet of the rows that ``rows`` selects, in that order."""
        return RawSet(self.X[rows], self.tau[rows], self.mu[rows])

    def __len__(self):
        return len(self.tau)

    def __getitem__(self, k):
        return RawPattern(mu=int(self.mu[k]), features=tuple(self.X[k].tolist()),
                          label=ROCK if self.tau[k] > 0 else MINE)


@dataclass(frozen=True, eq=False)
class PatternSet:
    """Standardized patterns packed as arrays, as ``standardize`` returns
    them: row k of ``Xi`` is the pattern numbered ``mu[k]`` (``Xi[k, 0]`` is
    the bias coordinate 1) and ``tau[k]`` is its +-1 label. Indexing and
    iteration yield LabeledPattern rows."""

    Xi: np.ndarray
    tau: np.ndarray
    mu: np.ndarray

    @classmethod
    def of(cls, patterns):
        """``patterns`` itself if it is a PatternSet, else a LabeledPattern
        sequence packed in order. Only ``network.grow_network`` calls it:
        every other trainer and evaluator takes a PatternSet only."""
        if isinstance(patterns, cls):
            return patterns
        return cls(Xi=np.array([p.xi for p in patterns], dtype=float),
                   tau=np.array([p.tau for p in patterns], dtype=int),
                   mu=np.array([p.mu for p in patterns], dtype=int))

    @functools.cached_property
    def folded(self):
        """The label-folded pattern matrix: row k is tau[k] * Xi[k]."""
        return self.tau[:, None] * self.Xi

    def __len__(self):
        return len(self.tau)

    def __getitem__(self, k):
        return LabeledPattern(mu=int(self.mu[k]), xi=self.Xi[k], tau=int(self.tau[k]))


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    train_indices: frozenset
    test_indices: frozenset


def parse_sonar_file(lines, require_unit_range=True):
    """Parse a benchmark text stream into a RawSet numbered in file order.

    ``lines`` is a string or any iterable of text lines (an open file works).
    Blank lines are skipped. The comma count of the first line is the
    feature count that every line must have; a first line with no value
    before its label raises. Three passes each raise ParseError at the first
    line that fails them, by 1-based number: the field count and the class
    label of every line, then the numbers, then the values. A value outside
    [0, 1] raises unless ``require_unit_range`` is False, which permits
    non-benchmark data such as bundled toy fixtures; a value that is not
    finite raises either way.

    numpy's C text reader reads the numbers in one call: what Python's
    ``float`` reads, less underscores (``0.1_5``) and non-ASCII digits.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    n_features, linenos, body, taus = None, [], [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        commas = line.count(",")
        if n_features is None:
            n_features = commas
            if not n_features:
                raise ParseError(f"line {lineno}: no value before the label")
        # usecols ignores extra fields, so the comma count is the field check
        if commas != n_features:
            raise ParseError(
                f"line {lineno}: expected {n_features} values plus a label, "
                f"got {commas + 1} fields"
            )
        label = line.rpartition(",")[2].strip()
        tau = _LABEL_TAU.get(label.upper())
        if tau is None:
            raise ParseError(f"line {lineno}: unknown class label {label!r}")
        linenos.append(lineno)
        body.append(line)
        taus.append(tau)
    try:  # loadtxt warns on no data
        X = _read_values(body, n_features) if body else np.empty((0, 0))
    except ValueError:
        raise _rejection(linenos, body, n_features) from None
    # NaN fails both comparisons; argmin finds the first failure in row order
    ok = (X >= 0.0) & (X <= 1.0) if require_unit_range else np.isfinite(X)
    if not ok.all():
        k, i = divmod(int(ok.argmin()), n_features)
        fault = ("outside [0, 1] (pass require_unit_range=False to accept)"
                 if require_unit_range else "is not finite")
        raise ParseError(f"line {linenos[k]}: feature {i + 1} value "
                         f"{float(X[k, i])} {fault}")
    return RawSet(X=X, tau=np.array(taus, dtype=int), mu=np.arange(1, len(body) + 1))


def _read_values(lines, n_features):
    """The first ``n_features`` comma-separated numbers of each line, as a
    float matrix; comments=None keeps a "#" part of a value."""
    return np.loadtxt(lines, delimiter=",", usecols=range(n_features),
                      dtype=float, comments=None, ndmin=2)


def _rejection(linenos, body, n_features):
    """The ParseError naming the first line that the reader rejects on its
    own, and in it the first value that it rejects on its own; the reader
    rejects a file only for a line that it also rejects on its own."""
    for lineno, line in zip(linenos, body):
        try:
            _read_values([line], n_features)
        except ValueError as exc:
            for value in line.split(",")[:n_features]:
                try:  # the comma keeps an empty value from reading as a blank line
                    _read_values([value + ","], 1)
                except ValueError:
                    return ParseError(f"line {lineno}: unparseable number (could "
                                      f"not convert string to float: {value.strip()!r})")
            return ParseError(f"line {lineno}: {exc}")  # e.g. an embedded newline


def read_number(token, cast=float):
    """``cast(token)`` in the one number grammar of the files monoplane
    reads: a float as the dataset reader reads it (Python's ``float`` less
    underscores and non-ASCII digits), an int as ASCII digits after an
    optional minus sign; else the ValueError ``cast`` raises, naming it."""
    text = token.strip()
    if text.isascii() and (text.removeprefix("-").isdigit() if cast is int
                           else "_" not in text):
        return cast(text)
    raise ValueError(f"invalid literal for int() with base 10: {token!r}" if cast is int
                     else f"could not convert string to float: {token!r}")


def load_file(path, require_unit_range=True):
    return _load(parse_sonar_file, path, require_unit_range=require_unit_range)


def _load(parse, path, **kwargs):
    """``parse`` of the text file at ``path``, the one place that names an
    input file: bytes that are not UTF-8, and any ValueError ``parse``
    raises, raise ParseError ``"{path}: {reason}"``; ``open`` raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh, **kwargs)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not a UTF-8 text file") from None
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None


def split(raw, spec):
    """Divide a RawSet per ``spec`` into its Train and Test parts, each in
    the row order of ``raw``. ``spec`` must cover every mu of ``raw`` once
    and name no other; SplitError names the indices that break this. The
    Train rows are then those that a boolean table indexed by mu selects,
    and the Test rows the rest."""
    mus = set(raw.mu.tolist())
    missing = sorted((spec.train_indices | spec.test_indices) - mus)
    if missing:
        raise SplitError(f"split references indices outside the dataset: {missing}")
    overlap = sorted(spec.train_indices & spec.test_indices)
    if overlap:
        raise SplitError(f"split assigns indices to both parts: {overlap}")
    uncovered = sorted(mus - (spec.train_indices | spec.test_indices))
    if uncovered:
        raise SplitError(f"split does not cover indices: {uncovered}")
    in_train = np.zeros(raw.mu.max(initial=0) + 1, dtype=bool)
    in_train[list(spec.train_indices)] = True
    train = in_train[raw.mu]
    return raw.take(train), raw.take(~train)


def parse_split_file(lines):
    """Read a two-section split file: ``[train]`` / ``[test]``, one mu per
    line, and ``#`` comments. Each line is stripped of its comment and read
    as a header or an index; ParseError names by number the first that is
    neither, or an index before any header."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    sections = {"train": set(), "test": set()}
    current = None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ParseError(f"line {lineno}: unknown split section {name!r}")
            current = name
            continue
        if current is None:
            raise ParseError(f"line {lineno}: index before any [train]/[test] header")
        # ASCII decimal digits only: int() also reads signs, underscores
        # and non-ASCII digits
        if not (line.isascii() and line.isdigit()):
            raise ParseError(f"line {lineno}: expected an integer index, got {line!r}")
        sections[current].add(int(line))
    return SplitSpec(train_indices=frozenset(sections["train"]),
                     test_indices=frozenset(sections["test"]))


def load_split_file(path):
    return _load(parse_split_file, path)


def compute_stats(raw, mode="std"):
    """Per-feature mean and scale over a learning set, a RawSet.

    mode="std": scale is the population standard deviation (divisor P).
    mode="variance": scale is the mean squared deviation, i.e. no square
    root. A mean or scale that overflows to a non-finite value, and a zero
    scale (constant feature), are errors rather than a silent divide.
    """
    if len(raw) == 0:
        raise StatsError("cannot compute statistics of an empty pattern list")
    if mode not in ("std", "variance"):
        raise StatsError(f"unknown scale mode {mode!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = raw.X.mean(axis=0)
        var = ((raw.X - mean) ** 2).mean(axis=0)
        scale = np.sqrt(var) if mode == "std" else var
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
    if bad.size:
        raise StatsError(
            f"feature(s) {', '.join(str(i + 1) for i in bad)}: "
            f"mean or scale is not finite"
        )
    zeros = np.where(scale == 0.0)[0]
    if zeros.size:
        raise StatsError(
            f"constant feature(s) {', '.join(str(i + 1) for i in zeros)}: "
            f"scale would be zero"
        )
    return StandardizationStats(mean=mean, scale=scale)


def standardize(raw, stats):
    """Map a RawSet to a PatternSet in the coordinates of ``stats``.

    xi[0] = 1 (bias coordinate), xi[i] = (features[i-1] - mean) / scale.
    Labels pass through unchanged (rock +1, mine -1). The first value that
    maps to a non-finite coordinate raises StatsError.
    """
    n = len(stats.mean)
    if raw.X.shape[1] != n:
        raise StatsError(f"patterns have {raw.X.shape[1]} features, stats cover {n}")
    Xi = np.empty((len(raw), n + 1), dtype=float)
    Xi[:, 0] = 1.0
    with np.errstate(over="ignore"):
        Xi[:, 1:] = (raw.X - stats.mean) / stats.scale
    ok = np.isfinite(Xi)  # column i > 0 is feature i
    if not ok.all():
        k, i = divmod(int(ok.argmin()), n + 1)
        raise StatsError(f"pattern mu={raw.mu[k]}: feature {i} value "
                         f"{float(raw.X[k, i - 1])} does not standardize to a finite number")
    return PatternSet(Xi=Xi, tau=raw.tau, mu=raw.mu)
