import re
from pathlib import Path

import numpy as np
import pytest

from monoplane import (
    SEPARATION_CONFIG, TrainingConfig, compute_stats, load_file,
    load_split_file, minimerror_train, split, standardize,
)

DATA_DIR = Path(__file__).parent / "data"
SONAR = DATA_DIR / "sonar.all-data"
BALANCED_SPLIT = (Path(__file__).parent.parent / "src" / "monoplane"
                  / "assets" / "splits" / "balanced.split")


@pytest.fixture(scope="session")
def sonar_path():
    return SONAR


@pytest.fixture(scope="session")
def balanced_split_path():
    return BALANCED_SPLIT


@pytest.fixture(scope="session")
def raw_patterns():
    return load_file(SONAR)


@pytest.fixture(scope="session")
def balanced_parts(raw_patterns):
    spec = load_split_file(BALANCED_SPLIT)
    return split(raw_patterns, spec)


@pytest.fixture(scope="session")
def train_std(balanced_parts):
    """Train part standardized with its own statistics."""
    train_raw, _ = balanced_parts
    stats = compute_stats(train_raw)
    return standardize(train_raw, stats), stats


@pytest.fixture(scope="session")
def test_std_train_stats(balanced_parts, train_std):
    """Test part in the Train-stats coordinates (generalization setting)."""
    _, test_raw = balanced_parts
    _, stats = train_std
    return standardize(test_raw, stats)


@pytest.fixture(scope="session")
def test_std(balanced_parts):
    """Test part standardized with its own statistics."""
    _, test_raw = balanced_parts
    stats = compute_stats(test_raw)
    return standardize(test_raw, stats), stats


@pytest.fixture(scope="session")
def all_std(raw_patterns):
    stats = compute_stats(raw_patterns)
    return standardize(raw_patterns, stats), stats


@pytest.fixture(scope="session")
def fast_config():
    """Short schedule for tests that only need a plausible training run."""
    return TrainingConfig(t_initial=1.0, t_min=1e-3, t_decay=0.99,
                          learning_rate=0.05, max_epochs=2000)


@pytest.fixture(scope="session")
def separation_config():
    return SEPARATION_CONFIG


@pytest.fixture(scope="session")
def trained_train_separator(train_std, separation_config):
    """The expensive run shared by evaluation and acceptance tests."""
    patterns, _ = train_std
    return minimerror_train(patterns, separation_config)


@pytest.fixture(scope="session")
def trained_test_separator(test_std, separation_config):
    """The Test-part run that criteria 2 and 9 share."""
    patterns, _ = test_std
    return minimerror_train(patterns, separation_config)


def make_ls_patterns(rng, n=30, dim=5, margin=0.15):
    """Random linearly separable set with a known separator."""
    from monoplane import LabeledPattern
    w = rng.standard_normal(dim + 1)
    w /= np.linalg.norm(w)
    pats = []
    mu = 0
    while len(pats) < n:
        x = rng.standard_normal(dim)
        xi = np.concatenate([[1.0], x])
        f = xi @ w
        if abs(f) < margin:
            continue
        mu += 1
        pats.append(LabeledPattern(mu=mu, xi=xi, tau=(1 if f > 0 else -1)))
    return pats, w


def xor_patterns():
    from monoplane import LabeledPattern
    coords = [(0.0, 0.0, +1), (0.0, 1.0, -1), (1.0, 0.0, -1), (1.0, 1.0, +1)]
    pats = []
    for k, (a, b, t) in enumerate(coords, start=1):
        xi = np.array([1.0, (a - 0.5) / 0.5, (b - 0.5) / 0.5])
        pats.append(LabeledPattern(mu=k, xi=xi, tau=t))
    return pats


_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"),
                           ("xfailed", "FAIL (expected; see notes)"),
                           ("xpassed", "UNEXPECTED PASS")):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _CRITERION_RE.search(getattr(rep, "nodeid", ""))
            if m:
                rows[int(m.group(1))] = (m.group(2), label)
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(rows):
            name, label = rows[num]
            terminalreporter.write_line(
                f"criterion {num:2d} {name:<28s} {label}")
