"""Sonar benchmark ingestion: CSV parsing, train/test division, standardization.

The benchmark file is plain CSV: 60 reals in [0, 1] followed by a class token
(R for rock, M for mine), one pattern per line. Patterns are numbered mu =
1..n in file order. The default division sends mu 1..104 to the learning part
and mu 105..208 to the generalization part; a split file with ``[train]`` /
``[test]`` sections overrides that when the distribution order differs.

Standardization is the per-feature z-score

    xi_i <- (xi_i - mean_i) / scale_i

with mean and scale computed over a chosen learning set only. ``scale`` is
the population standard deviation by default; ``variance`` mode divides by
the mean squared deviation instead and is kept selectable because the two
conventions are easy to confuse and produce very different geometry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ROCK = "R"
MINE = "M"

_LABEL_ALIASES = {
    "R": ROCK, "ROCK": ROCK,
    "M": MINE, "MINE": MINE,
}


class ParseError(ValueError):
    """A dataset or split file line could not be interpreted."""


class SplitError(ValueError):
    """A division request is inconsistent with the loaded dataset."""


class StatsError(ValueError):
    """Standardization statistics cannot be computed or applied."""


@dataclass(frozen=True)
class RawPattern:
    """One benchmark pattern as read from disk, before standardization."""

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
class PatternSet:
    """Standardized patterns packed as arrays: row k of ``Xi`` is the
    pattern numbered ``mu[k]`` (``Xi[k, 0]`` is the bias coordinate 1) and
    ``tau[k]`` is its +-1 label. Indexing and iteration yield
    LabeledPattern rows."""

    Xi: np.ndarray
    tau: np.ndarray
    mu: np.ndarray

    @classmethod
    def of(cls, patterns):
        """``patterns`` itself if it is a PatternSet, else a LabeledPattern
        sequence packed in order."""
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


def parse_sonar_file(lines, n_features=60, require_unit_range=True):
    """Parse a benchmark text stream into RawPatterns numbered in file order.

    ``lines`` is any iterable of text lines (an open file works). Malformed
    lines raise ParseError naming the 1-based line number. Values outside
    [0, 1] raise unless ``require_unit_range`` is False, which permits
    non-benchmark data such as bundled toy fixtures.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    patterns = []
    mu = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n_features + 1:
            raise ParseError(
                f"line {lineno}: expected {n_features} values plus a label, "
                f"got {len(parts)} fields"
            )
        try:
            values = [float(p) for p in parts[:-1]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: unparseable number ({exc})") from None
        label = _LABEL_ALIASES.get(parts[-1].upper())
        if label is None:
            raise ParseError(f"line {lineno}: unknown class label {parts[-1]!r}")
        if require_unit_range:
            for i, v in enumerate(values):
                if not 0.0 <= v <= 1.0:
                    raise ParseError(
                        f"line {lineno}: feature {i + 1} value {v} outside [0, 1] "
                        f"(pass require_unit_range=False to accept)"
                    )
        mu += 1
        patterns.append(RawPattern(mu=mu, features=tuple(values), label=label))
    return patterns


def load_file(path, n_features=60, require_unit_range=True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sonar_file(fh, n_features=n_features,
                                require_unit_range=require_unit_range)


def default_split(patterns):
    """The benchmark division by absolute index: mu 1..104 vs mu 105..208."""
    mus = {p.mu for p in patterns}
    return SplitSpec(
        train_indices=frozenset(m for m in mus if m <= 104),
        test_indices=frozenset(m for m in mus if m > 104),
    )


def split(patterns, spec):
    """Divide patterns per ``spec``, preserving file order within each part."""
    mus = {p.mu for p in patterns}
    missing = sorted((spec.train_indices | spec.test_indices) - mus)
    if missing:
        raise SplitError(f"split references indices outside the dataset: {missing}")
    overlap = sorted(spec.train_indices & spec.test_indices)
    if overlap:
        raise SplitError(f"split assigns indices to both parts: {overlap}")
    uncovered = sorted(mus - (spec.train_indices | spec.test_indices))
    if uncovered:
        raise SplitError(f"split does not cover indices: {uncovered}")
    train = [p for p in patterns if p.mu in spec.train_indices]
    test = [p for p in patterns if p.mu in spec.test_indices]
    return train, test


def parse_split_file(lines):
    """Read a two-section split file: ``[train]`` / ``[test]``, one mu per line."""
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
        try:
            sections[current].add(int(line))
        except ValueError:
            raise ParseError(f"line {lineno}: expected an integer index, got {line!r}") from None
    return SplitSpec(train_indices=frozenset(sections["train"]),
                     test_indices=frozenset(sections["test"]))


def load_split_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_split_file(fh)


def _matrix_stats(X, mode):
    """``compute_stats`` of a ``(P, n)`` feature matrix."""
    if X.shape[0] == 0:
        raise StatsError("cannot compute statistics of an empty pattern list")
    if mode not in ("std", "variance"):
        raise StatsError(f"unknown scale mode {mode!r}")
    mean = X.mean(axis=0)
    var = ((X - mean) ** 2).mean(axis=0)
    scale = np.sqrt(var) if mode == "std" else var
    zeros = np.where(scale == 0.0)[0]
    if zeros.size:
        raise StatsError(
            f"constant feature(s) {', '.join(str(i + 1) for i in zeros)}: "
            f"scale would be zero"
        )
    return StandardizationStats(mean=mean, scale=scale)


def _standardized(X, stats):
    """The ``(P, 1+n)`` pattern matrix of a ``(P, n)`` feature matrix in the
    coordinates of ``stats``: column 0 is the bias coordinate 1."""
    Xi = np.empty((X.shape[0], X.shape[1] + 1), dtype=float)
    Xi[:, 0] = 1.0
    Xi[:, 1:] = (X - stats.mean) / stats.scale
    return Xi


def _labels(patterns, flip_labels):
    """tau of each RawPattern as an int array: rock -> +1, mine -> -1,
    swapped by ``flip_labels``."""
    rock = -1 if flip_labels else +1
    return np.array([rock if p.label == ROCK else -rock for p in patterns], dtype=int)


def compute_stats(patterns, mode="std"):
    """Per-feature mean and scale over a learning set.

    mode="std": scale is the population standard deviation (divisor P).
    mode="variance": scale is the mean squared deviation, i.e. no square
    root. A zero scale (constant feature) is an error rather than a silent
    divide-by-zero.
    """
    return _matrix_stats(np.array([p.features for p in patterns], dtype=float), mode)


def standardize(patterns, stats, flip_labels=False):
    """Map RawPatterns to a PatternSet in the coordinates of ``stats``.

    xi[0] = 1 (bias coordinate), xi[i] = (features[i-1] - mean) / scale.
    Labels map rock -> +1 and mine -> -1 unless ``flip_labels``.
    """
    n = len(stats.mean)
    for p in patterns:
        if len(p.features) != n:
            raise StatsError(
                f"pattern mu={p.mu} has {len(p.features)} features, "
                f"stats cover {n}"
            )
    X = np.array([p.features for p in patterns], dtype=float).reshape(len(patterns), n)
    return PatternSet(Xi=_standardized(X, stats), tau=_labels(patterns, flip_labels),
                      mu=np.array([p.mu for p in patterns], dtype=int))


def class_counts(patterns):
    """(rocks, mines) tally of RawPatterns."""
    rocks = sum(p.label == ROCK for p in patterns)
    return rocks, len(patterns) - rocks
