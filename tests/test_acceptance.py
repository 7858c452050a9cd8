"""Acceptance gate: every numbered criterion of the build, one test each.

Criteria 3, 4 and 5 concern the published weight tables. Those tables are
not reproducible against the canonical benchmark file under any
standardization convention this package implements (statistics from the
learning part or the full set, standard-deviation or variance scaling,
either label polarity, any class-balanced or file-order division): the
published W_Sonar vector misclassifies 38 of 208 patterns in both
standard-deviation modes and 78 in both variance modes, as ``verify``
reports, and the published pairwise cosines match neither cosine mode.
The three tests state the criteria faithfully and are marked
strict-expected-fail; the verification command publishes the per-mode
diffs and the truncation perturbation analysis.

The separability claims themselves (criteria 1 and 2) do hold on the
canonical data and are certified here by retraining from scratch, and by
the maximal-stability separator that ``separability`` solves for, which
also bounds how stable the retrained separators can be.
"""

import json

import numpy as np
import pytest

from monoplane import (
    SEPARATION_CONFIG, TrainingConfig, WeightVector, cosine, cost,
    cost_gradient, count_errors, grow_network, hidden_states,
    field, internal_targets, load_published_weights, load_weights,
    minimerror_train, network_output, rosenblatt_train, separability,
)
from monoplane.cli import main as cli_main
from monoplane.evaluation import mode_parts, run_mode, verify_published

from conftest import make_ls_patterns, pattern_set, stability, xor_patterns


FAST_CFG_TEXT = ("t_initial=1.0\nt_min=1e-3\nt_decay=0.99\n"
                 "learning_rate=0.05\nmax_epochs=2000\n")


def assert_max_stability_bounds(patterns, w):
    """``separability`` finds ``patterns`` separable, its certificate
    rechecks, and ``w``'s minimal stability is at most kappa*'s upper end."""
    verdict = separability(patterns)
    assert verdict.separable
    assert verdict.recheck(patterns)
    assert field(w, patterns.folded).min() <= verdict.kappa[1]


def test_criterion_01_train_separability(sonar_path, balanced_split_path,
                                         tmp_path, train_std):
    """`train --part train` reaches 0/104 training errors in the default
    epoch budget; tuning within the exposed config is permitted."""
    out = tmp_path / "o"
    rc = cli_main(["train", "--dataset", str(sonar_path),
                   "--split-file", str(balanced_split_path),
                   "--part", "train", "--config", "separation",
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["learning_set_size"] == 104
    assert rep["training_errors"]["total"] == 0
    assert SEPARATION_CONFIG.max_epochs <= 100000
    w = load_weights((out / "weights.txt").read_text())
    assert_max_stability_bounds(train_std[0], w)


def test_criterion_02_test_and_full_separability(raw_patterns, test_std,
                                                 trained_test_separator,
                                                 separation_config):
    """The Test part and the combined 208-pattern set are both learned
    with zero errors."""
    from monoplane import compute_stats, standardize
    test_patterns, _ = test_std
    w_te, _ = trained_test_separator
    assert count_errors(w_te, test_patterns)[0] == 0

    stats_all = compute_stats(raw_patterns)
    all_patterns = standardize(raw_patterns, stats_all)
    w_all, _ = minimerror_train(all_patterns, separation_config)
    assert count_errors(w_all, all_patterns)[0] == 0
    assert min(stability(w_all, p) for p in all_patterns) > 0.0
    assert_max_stability_bounds(test_patterns, w_te)
    assert_max_stability_bounds(all_patterns, w_all)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="The published weight tables do not reproduce on the canonical "
           "benchmark file: no standardization mode yields the published "
           "misclassification sets, and the best modes miss the published "
           "count pair (20, 24) by more than the +-2 fallback tolerance. "
           "The verify command reports per-mode diffs and the +-5e-5 "
           "truncation perturbation analysis.")
def test_criterion_03_published_weight_verification(balanced_parts):
    """W_Train must misclassify exactly the 20 published Test patterns and
    W_Test exactly the 24 published Train patterns under some documented
    mode; fallback tolerance is +-2 on both counts in the best mode."""
    train_raw, test_raw = balanced_parts
    report = verify_published(train_raw, test_raw)
    if report["reproduced"]:
        return
    assert any(
        abs(r["counts_test_side"][0] - 20) <= 2
        and abs(r["counts_train_side"][0] - 24) <= 2
        for r in report["modes"]
    ), ("no mode reproduces the published misclassification sets, and no "
        "mode lands within +-2 of the published counts (20, 24)")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="The published W_Sonar vector misclassifies 38 of the 208 "
           "canonical patterns in both standard-deviation modes and 78 in "
           "both variance modes, as the verify command reports; its "
           "published per-pattern stabilities likewise do not match.")
def test_criterion_04_published_sonar_separator(balanced_parts):
    """W_Sonar must separate all 208 patterns, with the 44 published
    stabilities matched to 1e-3."""
    train_raw, test_raw = balanced_parts
    r = run_mode("part-std", mode_parts(train_raw, test_raw))
    assert r["counts_sonar"][0] == 0
    assert r["gamma_check"]["n_within_1e-3"] == 44


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="Neither cosine mode reproduces the published values: the true "
           "cosines of the printed vectors are 0.369/0.322/0.487 against "
           "published 0.51615/0.34238/0.4, and the verbatim (N+1)^-2 "
           "formula gives values near 0.006. Recorded with the published "
           "vector norms (all sqrt(61)) in the verification report.")
def test_criterion_05_published_cosines():
    """One cosine mode must give 0.51615 and 0.34238 within +-0.01 and 0.4
    within +-0.05."""
    ws = {n: load_published_weights(n) for n in ("W_Sonar", "W_Train", "W_Test")}
    for raw in (False, True):
        st = cosine(ws["W_Sonar"], ws["W_Train"], raw_eq8=raw)
        se = cosine(ws["W_Sonar"], ws["W_Test"], raw_eq8=raw)
        te = cosine(ws["W_Train"], ws["W_Test"], raw_eq8=raw)
        if (abs(st - 0.51615) <= 0.01 and abs(se - 0.34238) <= 0.01
                and abs(te - 0.4) <= 0.05):
            return
    pytest.fail("neither cosine mode reproduces the published table")


def test_criterion_06_gradient_correctness():
    """100 random (w, set, T) instances: analytic gradient within 1e-5
    relative of central finite differences."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(3, 10))
        pats, _ = make_ls_patterns(rng, n=int(rng.integers(4, 16)), dim=dim - 1)
        w = WeightVector(rng.standard_normal(dim))
        T = float(rng.uniform(0.05, 3.0))
        g = cost_gradient(w, pats, T)
        eps = 1e-6
        fd = np.zeros(dim)
        for i in range(dim):
            up = w.w.copy(); up[i] += eps
            dn = w.w.copy(); dn[i] -= eps
            fd[i] = (cost(WeightVector(up), pats, T)
                     - cost(WeightVector(dn), pats, T)) / (2 * eps)
        denom = np.maximum(np.abs(fd), 1e-10)
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    assert worst < 1e-5


def test_criterion_07_cost_limits():
    """E -> P/2 as T -> infinity; saturated patterns contribute 1 or 0."""
    rng = np.random.default_rng(707)
    pats, _ = make_ls_patterns(rng, n=37, dim=7)
    w = WeightVector(rng.standard_normal(8))
    P = len(pats)
    assert abs(cost(w, pats, T=1e12) - P / 2) < 1e-9

    T = 0.25
    deep_wrong = pattern_set([[1.0, -20 * T]], [+1], [1])
    deep_right = pattern_set([[1.0, +20 * T]], [+1], [2])
    unit = WeightVector(np.array([0.0, 1.0]))
    assert abs(cost(unit, deep_wrong, T) - 1.0) < 1e-8
    assert abs(cost(unit, deep_right, T) - 0.0) < 1e-8


def test_criterion_08_monoplane_properties():
    """XOR solves with H=2 and zero errors; an LS fixture gives H=1; the
    internal-error sequence strictly decreases; the parity identity holds
    exactly at every growth step."""
    cfg = TrainingConfig(t_initial=1.0, t_min=1e-4, t_decay=0.995,
                         learning_rate=0.05, max_epochs=3000, seed=1)
    xor = xor_patterns()
    model, trace = grow_network(xor, cfg)
    assert len(model.hidden) == 2
    assert all(network_output(model, p.xi) == p.tau for p in xor)
    seq = trace.units
    assert all(b < a for a, b in zip(seq, seq[1:]))

    tau = np.array([p.tau for p in xor])
    states = np.array([hidden_states(model, p.xi) for p in xor])
    targets = tau.copy()
    prod = np.ones(len(xor), dtype=int)
    for h in range(states.shape[1]):
        targets = internal_targets(targets, states[:, h])
        prod *= states[:, h]
        assert np.array_equal(tau, prod * targets)

    rng = np.random.default_rng(808)
    ls_pats, _ = make_ls_patterns(rng, n=40, dim=6)
    ls_model, ls_trace = grow_network(
        ls_pats, TrainingConfig(t_initial=1.0, t_min=1e-3, t_decay=0.99,
                                learning_rate=0.05, max_epochs=2000))
    assert len(ls_model.hidden) == 1
    assert all(network_output(ls_model, p.xi) == p.tau for p in ls_pats)


def test_criterion_09_rosenblatt_baseline(balanced_parts, trained_train_separator,
                                          trained_test_separator, train_std,
                                          test_std, test_std_train_stats):
    """The fixed-increment baseline generalizes no better than the annealed
    trainer, averaged over 10 seeds, in both learning directions."""
    from monoplane import standardize
    train_raw, _ = balanced_parts

    # forward: learn Train, evaluate on Test
    train_patterns, _ = train_std
    w_mm = trained_train_separator[0]
    assert count_errors(w_mm, train_patterns)[0] == 0
    eg_mm_fwd = count_errors(w_mm, test_std_train_stats)[0]

    rb_cfg = dict(t_initial=1.0, learning_rate=1.0, max_epochs=20000)
    egs_fwd = []
    for seed in range(10):
        w_rb, _ = rosenblatt_train(train_patterns,
                                   TrainingConfig(seed=seed, **rb_cfg))
        assert count_errors(w_rb, train_patterns)[0] == 0
        egs_fwd.append(count_errors(w_rb, test_std_train_stats)[0])

    # reverse: learn Test, evaluate on Train
    test_patterns, stats_te = test_std
    train_eval = standardize(train_raw, stats_te)
    w_mm_rev = trained_test_separator[0]
    assert count_errors(w_mm_rev, test_patterns)[0] == 0
    eg_mm_rev = count_errors(w_mm_rev, train_eval)[0]
    egs_rev = []
    for seed in range(10):
        w_rb, _ = rosenblatt_train(test_patterns,
                                   TrainingConfig(seed=seed, **rb_cfg))
        assert count_errors(w_rb, test_patterns)[0] == 0
        egs_rev.append(count_errors(w_rb, train_eval)[0])

    assert np.mean(egs_fwd) >= eg_mm_fwd
    assert np.mean(egs_rev) >= eg_mm_rev


def test_criterion_10_reproducibility(sonar_path, balanced_split_path,
                                      tmp_path):
    """Identical manifests produce byte-identical artifacts."""
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG_TEXT)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli_main(["train", "--dataset", str(sonar_path),
                       "--split-file", str(balanced_split_path),
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    names = ["weights.txt", "trace.csv", "report.json", "manifest.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    assert m0 == m1
