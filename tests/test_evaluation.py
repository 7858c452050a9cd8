import hashlib
import importlib
import itertools
import json
import math
from collections.abc import Sized
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monoplane import (
    PatternSet, RawSet, StatsError, WeightVector, compute_stats, cosine,
    count_errors, evaluate, field, load_published_table, load_published_weights,
    load_weights, minimerror_train, rosenblatt_train, separability, standardize,
    verify_published,
)
from monoplane import evaluation
from monoplane.evaluation import (
    PUBLISHED_NAMES, STANDARDIZATION_MODES, mode_parts,
    paper_layout_numbering, perturbation_analysis, published_norms, run_mode,
    verify_text,
)

from conftest import (
    make_ls_patterns, pattern_set, random_balanced_split, stability, xor_patterns,
)

# the embedded tables are data assets; any edit must be deliberate
ASSET_SHA256 = {
    "w_train.txt": "4657bc50b690ad1d66156bc77dc3dbbdf42c1e3c92be9271ee0cf4930081f2c3",
    "w_test.txt": "30423c0247ffbf05b4e992033168a15e0a864fd46d7c1eaf035fd198cbc44f5a",
    "w_sonar.txt": "6624e92e9857ed1efb8a1b25ce2fd84274e3f963651daa933762596f51510c37",
    "table6.json": "e7a8dfad7439c6cd2d8d967e37f799f1a6d072a3f8027c5e7d9e775d3359637b",
}


class TestPublishedAssets:
    def test_checksums(self):
        for name, want in ASSET_SHA256.items():
            data = resources.files("monoplane.assets").joinpath(name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == want, name

    def test_w_train_endpoints(self):
        w = load_published_weights("W_Train")
        assert len(w) == 61
        assert w.w[0] == pytest.approx(-0.0692)
        assert w.w[-1] == pytest.approx(0.0015)

    def test_w_test_endpoints(self):
        w = load_published_weights("W_Test")
        assert len(w) == 61
        assert w.w[0] == pytest.approx(-0.4035)

    def test_w_sonar_largest_entry(self):
        w = load_published_weights("W_Sonar")
        assert w.w[0] == pytest.approx(-0.0290)
        assert w.w[31] == pytest.approx(3.3527)
        assert np.argmax(np.abs(w.w)) == 31

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_published_weights("W_Bogus")

    def test_norms_identify_the_normalization(self):
        """All three published vectors sit on ||w||^2 = N+1 = 61."""
        norms = published_norms()
        for name in PUBLISHED_NAMES:
            assert norms[name] == pytest.approx(np.sqrt(61), abs=2e-4)

    def test_table6_shape(self):
        t6 = load_published_table()
        assert len(t6["test_side"]) == 20
        assert len(t6["train_side"]) == 24
        assert t6["test_side"][0]["mu"] == 105
        assert t6["test_side"][0]["gamma_sonar"] == pytest.approx(2.09029e-3)
        assert sum(1 for r in t6["test_side"] if r["tau"] == -1) == 15
        assert sum(1 for r in t6["train_side"] if r["tau"] == +1) == 19
        assert t6["cosines"] == {"(W_Sonar,W_Train)": 0.51615,
                                 "(W_Sonar,W_Test)": 0.34238,
                                 "(W_Train,W_Test)": 0.4}


def _counts(rep):
    """The ``counts`` of an ``evaluate`` report as ``count_errors``' triple."""
    return tuple(rep["counts"][k] for k in ("total", "false_pos", "false_neg"))


class TestEvaluate:
    def test_separator_yields_empty_report(self, fast_config):
        rng = np.random.default_rng(40)
        pats, true_w = make_ls_patterns(rng, n=30, dim=5)
        from monoplane import minimerror_train
        w, _ = minimerror_train(pats, fast_config)
        rep = evaluate(w, pats)
        assert _counts(rep) == (0, 0, 0)
        assert rep["records"] == []
        assert rep["error_fraction"] == 0.0

    def test_records_sorted_and_consistent(self):
        rng = np.random.default_rng(41)
        pats, _ = make_ls_patterns(rng, n=60, dim=6)
        w = WeightVector(rng.standard_normal(7))
        rep = evaluate(w, pats)
        total, false_pos, false_neg = _counts(rep)
        mus = [r["mu"] for r in rep["records"]]
        assert total == len(mus)
        assert total == false_pos + false_neg
        assert mus == sorted(mus)
        for r in rep["records"]:
            p = next(p for p in pats if p.mu == r["mu"])
            assert r["tau"] == p.tau and r["tau"] * r["field"] <= 0
        assert rep["records"]

    def test_error_fraction_one_decimal(self):
        rng = np.random.default_rng(42)
        pats, _ = make_ls_patterns(rng, n=104, dim=5)
        w = WeightVector(rng.standard_normal(6))
        rep = evaluate(w, pats)
        assert rep["set_size"] == 104
        assert rep["error_fraction"] == round(100.0 * rep["counts"]["total"] / 104, 1)

    def test_emitters_carry_identical_fields(self):
        rng = np.random.default_rng(43)
        pats, _ = make_ls_patterns(rng, n=20, dim=4)
        w = WeightVector(rng.standard_normal(5))
        rep = evaluate(w, pats)
        assert len(rep["records"]) == count_errors(w, pats)[0]
        assert json.loads(json.dumps(rep)) == rep

    def test_empty_set(self):
        empty = PatternSet(np.zeros((0, 3)), np.zeros(0, dtype=int),
                           np.zeros(0, dtype=int))
        assert evaluate(WeightVector(np.ones(3)), empty) == {
            "set_size": 0, "counts": {"total": 0, "false_pos": 0, "false_neg": 0},
            "error_fraction": 0.0, "records": []}


class TestCosine:
    def test_self_is_one(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            w = WeightVector(rng.standard_normal(61))
            assert cosine(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        rng = np.random.default_rng(51)
        w = WeightVector(rng.standard_normal(61))
        assert cosine(w, WeightVector(-w.w)) == pytest.approx(-1.0, abs=1e-12)

    def test_raw_eq8_divides_by_squared_dimension(self):
        a = WeightVector(np.ones(61))
        b = WeightVector(np.ones(61))
        assert cosine(a, b, raw_eq8=True) == pytest.approx(61 / 61**2)
        assert cosine(a, b) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(WeightVector(np.ones(3)), WeightVector(np.ones(4)))

    def test_published_pairs_both_modes(self):
        """The two modes bracket the published Table 5 values but neither
        reproduces them; the verifier reports this rather than patching it."""
        ws = {n: load_published_weights(n) for n in PUBLISHED_NAMES}
        true_st = cosine(ws["W_Sonar"], ws["W_Train"])
        raw_st = cosine(ws["W_Sonar"], ws["W_Train"], raw_eq8=True)
        assert true_st == pytest.approx(0.36922, abs=1e-4)
        assert raw_st == pytest.approx(true_st * 61 / 61**2, rel=1e-3)


class TestProbe:
    def test_train_part_is_separable(self, train_std, separation_config,
                                     trained_train_separator):
        patterns, _ = train_std
        w, _ = trained_train_separator
        # the session-trained separator is itself a separation certificate
        assert count_errors(w, patterns)[0] == 0
        assert min(stability(w, p) for p in patterns) > 0.0

    def test_xor_is_not_separable(self):
        verdict = separability(xor_patterns())
        assert not verdict.separable
        assert verdict.weights is None and verdict.kappa is None
        assert (verdict.u >= 0.0).all()
        assert verdict.u.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(verdict.u, 0.25, atol=1e-15)
        assert verdict.recheck(xor_patterns())

    def test_certificate_soundness_on_toy(self):
        rng = np.random.default_rng(60)
        pats, _ = make_ls_patterns(rng, n=25, dim=4)
        verdict = separability(pats)
        assert verdict.separable
        assert verdict.recheck(pats)

    def test_probe_rejects_empty(self):
        with pytest.raises(ValueError):
            separability(pattern_set(np.zeros((0, 3)), []))

    @pytest.mark.parametrize("value", (np.nan, np.inf))
    def test_non_finite_entry_raises_before_lapack(self, capfd, value):
        ps = random_set(5, P=6, dim=3)
        ps.Xi[2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            separability(ps)
        assert capfd.readouterr().err == ""


def random_set(seed, P, dim, rounded=False):
    """P random patterns of ``dim`` inputs plus the bias, random labels;
    ``rounded`` inputs are whole numbers, so ties and duplicates occur."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((P, dim))
    if rounded:
        X = np.round(X)
    return PatternSet(Xi=np.hstack((np.ones((P, 1)), X)),
                      tau=rng.choice([-1, 1], size=P), mu=np.arange(1, P + 1))


def certificates(verdict, ps):
    """Which of the two certificates ``verdict`` carries hold, checked here
    independently of ``recheck``: (w* separates, u is a Gordan vector)."""
    tXi = ps.folded
    separates = (verdict.weights is not None
                 and bool(field(verdict.weights, tXi).min() > 0.0))
    u = verdict.u
    gordan = bool((u >= 0.0).all() and abs(u.sum() - 1.0) <= 1e-12
                  and np.linalg.norm(u @ tXi)
                  <= evaluation._GORDAN_ROUNDOFF
                  * np.linalg.norm(tXi, axis=1).max())
    return separates, gordan


def brute_force_separator(tXi):
    """The least-norm w with tXi w >= 1, by enumerating the active subsets
    S: w = A_S^T (A_S A_S^T)^-1 1 for A_S = tXi[S] of full row rank, and
    the condition number of that A_S. A field is feasible within 1e-9 of
    its own size |tXi| |w|, not an absolute 1e-9: an ill-conditioned A_S
    gives a long w whose fields round by more than that. None when no
    subset gives a feasible w."""
    best = None
    for k in range(1, len(tXi) + 1):
        for S in itertools.combinations(range(len(tXi)), k):
            A = tXi[list(S)]
            if np.linalg.matrix_rank(A) < k:
                continue
            w = A.T @ np.linalg.solve(A @ A.T, np.ones(k))
            if (tXi @ w >= 1.0 - 1e-9 * (np.abs(tXi) @ np.abs(w))).all() and (
                    best is None or w @ w < best[0] @ best[0]):
                best = w, np.linalg.cond(A)
    return best


class TestSeparability:
    """``separability`` against independent checks of its certificates."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), P=st.integers(1, 40),
           dim=st.integers(1, 8), rounded=st.integers(0, 4))
    def test_exactly_one_certificate(self, fast_config, seed, P, dim, rounded):
        ps = random_set(seed, P, dim, rounded=rounded == 0)
        verdict = separability(ps)
        separates, gordan = certificates(verdict, ps)
        assert separates != gordan
        assert verdict.separable == separates
        assert verdict.recheck(ps)
        if not verdict.separable:
            return
        lower, upper = verdict.kappa
        assert lower <= upper
        # no separator's minimal stability beats kappa*
        for w, _ in (minimerror_train(ps, fast_config),
                     rosenblatt_train(ps, fast_config)):
            assert field(w, ps.folded).min() <= upper

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), P=st.integers(1, 6),
           dim=st.integers(1, 4))
    # optimal active sets of condition number ~1e4, 4e3 and 6e4
    @example(seed=824293, P=5, dim=3)
    @example(seed=2892824860, P=6, dim=3)
    @example(seed=2111578931, P=6, dim=4)
    def test_matches_brute_force_on_tiny_sets(self, seed, P, dim):
        ps = random_set(seed, P, dim)
        verdict = separability(ps)
        best = brute_force_separator(ps.folded)
        assert verdict.separable == (best is not None)
        if best is not None:
            w, cond = best
            # both solves lose about cond(A_S)^2 roundings of w on the
            # active set; 1e-7 bounds that below a condition number of ~7e3
            rtol = max(1e-7, 8.0 * cond**2 * np.finfo(float).eps)
            np.testing.assert_allclose(verdict.weights.w, w, rtol=rtol, atol=1e-9)
            assert verdict.kappa[1] == pytest.approx(1.0 / np.linalg.norm(w),
                                                     rel=rtol)

    def test_opposite_labels_on_one_input(self):
        pats = pattern_set([[1.0, 0.3], [1.0, 0.3]], [1, -1])
        verdict = separability(pats)
        assert not verdict.separable
        np.testing.assert_allclose(verdict.u, 0.5, atol=1e-15)

    def test_single_pattern(self):
        pats = pattern_set([[1.0, 3.0, -4.0]], [-1])
        verdict = separability(pats)
        assert verdict.separable and verdict.recheck(pats)
        # w* is the folded row over its squared norm; kappa* its norm
        np.testing.assert_allclose(verdict.weights.w,
                                   np.array([-1.0, -3.0, 4.0]) / 26.0)
        assert verdict.kappa == pytest.approx((np.sqrt(26.0),) * 2)

    @pytest.mark.parametrize("per_pattern", [1 / 208, 0.25],
                             ids=["one-step", "52-steps"])
    def test_step_cap_raises(self, all_std, monkeypatch, per_pattern):
        """All 208 patterns need one outer step per support pattern (57),
        so a smaller cap raises instead of returning a verdict."""
        patterns, _ = all_std
        monkeypatch.setattr(evaluation, "_STEPS_PER_PATTERN", per_pattern)
        with pytest.raises(RuntimeError, match="^NNLS took over"):
            separability(patterns)

    @pytest.mark.parametrize("name, kappa_star, support", [
        ("train", 0.14313625, 46), ("test", 0.24759396, 42),
        ("all", 0.01957064, 57)])
    def test_sonar_kappa_star(self, train_std, test_std, all_std, name,
                              kappa_star, support):
        patterns = {"train": train_std, "test": test_std,
                    "all": all_std}[name][0]
        verdict = separability(patterns)
        assert verdict.separable and verdict.recheck(patterns)
        lower, upper = verdict.kappa
        assert lower <= upper <= lower * (1.0 + 1e-9)
        assert round(lower, 8) == round(upper, 8) == kappa_star
        assert np.count_nonzero(verdict.u) == support

    def test_sonar_label_permutations_not_separable(self, all_std):
        patterns, _ = all_std
        rng = np.random.default_rng(2024)
        for _ in range(20):
            ps = PatternSet(patterns.Xi, rng.permutation(patterns.tau),
                            patterns.mu)
            verdict = separability(ps)
            assert not verdict.separable and verdict.recheck(ps)
            assert np.linalg.norm(verdict.u @ ps.folded) <= 1e-12


class TestLayoutNumbering:
    def test_blocks_and_quotas(self, balanced_parts):
        train, test = balanced_parts
        layout = paper_layout_numbering(train, test)
        assert sorted(layout.values()) == list(range(1, 209))
        # mines of the learning part take 1..49, its rocks 50..104
        train_mines = sorted(train.mu[train.tau == -1].tolist())
        assert [layout[m] for m in train_mines] == list(range(1, 50))
        train_rocks = sorted(train.mu[train.tau == 1].tolist())
        assert [layout[m] for m in train_rocks] == list(range(50, 105))
        test_mines = sorted(test.mu[test.tau == -1].tolist())
        assert [layout[m] for m in test_mines] == list(range(105, 167))
        test_rocks = sorted(test.mu[test.tau == 1].tolist())
        assert [layout[m] for m in test_rocks] == list(range(167, 209))


class TestModeSweep:
    def test_run_mode_structure(self, balanced_parts):
        train, test = balanced_parts
        r = run_mode("part-std", mode_parts(train, test))
        assert r["counts_test_side"][0] == len(r["mu_test_side"])
        assert r["counts_train_side"][0] == len(r["mu_train_side"])
        total, false_pos, false_neg = r["counts_test_side"]
        assert false_pos + false_neg == total
        assert len(r["counts_sonar"]) == 3 and "gamma_check" not in r
        assert len(verify_published(train, test)["gamma_check"]["std"]["rows"]) == 44

    def test_perturbation_analysis_spread(self, balanced_parts):
        train, test = balanced_parts
        sens = perturbation_analysis(mode_parts(train, test)["part-std"])
        for key in ("W_Train_on_test", "W_Test_on_train", "W_Sonar_on_all"):
            assert sens[key]["min"] <= sens[key]["max"]

    @pytest.mark.parametrize("mode", STANDARDIZATION_MODES, ids=lambda m: m[0])
    def test_perturbation_matches_per_pattern_corners(self, balanced_parts, mode):
        """``min`` counts the patterns that even their own best corner of
        the truncation box misclassifies, and ``max`` those that their own
        worst corner does, one pattern and one vector at a time."""
        train, test = balanced_parts
        mode_name, stats_from, scale = mode
        sets = _reference_mode_sets(train, test, stats_from, scale)
        got = perturbation_analysis(mode_parts(train, test)[mode_name])
        for key, name, pats in zip(got, PUBLISHED_NAMES, sets):
            w = load_published_weights(name).w
            low = high = 0
            for p in pats:
                step = 5e-5 * p.tau * np.sign(p.xi)
                low += stability(WeightVector(w + step), p) <= 0.0
                high += stability(WeightVector(w - step), p) <= 0.0
            ratio = min(abs(p.tau * (p.xi @ w)) / (5e-5 * np.abs(p.xi).sum())
                        for p in pats)
            assert (got[key]["min"], got[key]["max"]) == (low, high)
            assert got[key]["min_ratio"] == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("flipped, counts", [(False, (17, 18)),
                                                 (True, (86, 87))])
    def test_perturbation_reaches_counts_the_draws_miss(self, raw_patterns,
                                                        flipped, counts):
        """On this split one Test pattern lies within the truncation box of
        W_Train's hyperplane (|s| / r = 0.43), so some vector in the box
        classifies it either way, under either labelling; no seed-0 draw
        reached the lower count."""
        sets = mode_parts(*random_balanced_split(raw_patterns, 193))["part-std"]
        got = perturbation_analysis(_flipped(sets) if flipped else sets)["W_Train_on_test"]
        assert (got["min"], got["max"]) == counts
        assert got["min_ratio"] == pytest.approx(0.42914, abs=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), P=st.integers(1, 8))
    def test_perturbation_corners_bound_the_box(self, seed, P):
        """On random patterns, some placed near the truncation box's edge,
        a pattern counted as sure keeps its sign at its worst corner, whose
        stability is s -+ r up to rounding, and a pattern counted as neither
        changes sign between its corners."""
        rng = np.random.default_rng(seed)
        ws = [load_published_weights(n).w for n in PUBLISHED_NAMES]
        sets = []
        for w in ws:
            Xi = np.hstack((np.ones((P, 1)), rng.standard_normal((P, len(w) - 1))))
            tau = rng.choice([-1, 1], size=P)
            # move the field of each row to a random multiple in [-2, 2] of
            # its radius along the input of largest weight
            k = 1 + np.argmax(np.abs(w[1:]))
            target = rng.uniform(-2.0, 2.0, P) * 5e-5 * np.abs(Xi).sum(1)
            Xi[:, k] += (tau * target - Xi @ w) / w[k]
            sets.append(PatternSet(Xi, tau, np.arange(1, P + 1)))
        whole = perturbation_analysis(sets)
        rows = [perturbation_analysis([PatternSet(ps.Xi[i:i + 1], ps.tau[i:i + 1],
                                                  ps.mu[i:i + 1]) for ps in sets])
                for i in range(P)]
        for key, w, ps in zip(whole, ws, sets):
            assert whole[key]["min"] == sum(row[key]["min"] for row in rows)
            assert whole[key]["max"] == sum(row[key]["max"] for row in rows)
            # one-row and matrix products round s differently
            assert whole[key]["min_ratio"] == pytest.approx(
                min(row[key]["min_ratio"] for row in rows), rel=1e-9, abs=1e-9)
            for row, x, t in zip(rows, ps.Xi, ps.tau.tolist()):
                s = math.fsum(t * x * w)
                r = 5e-5 * math.fsum(np.abs(x))
                tol = 1e-12 * math.fsum(np.abs(x * w))
                worst = math.fsum(t * x * (w - 5e-5 * t * np.sign(x)))
                best = math.fsum(t * x * (w + 5e-5 * t * np.sign(x)))
                assert worst == pytest.approx(s - r, abs=tol)
                assert best == pytest.approx(s + r, abs=tol)
                if row[key]["max"] == 0:        # sure right
                    assert worst > 0.0 and row[key]["min_ratio"] > 1.0
                elif row[key]["min"] == 1:      # sure wrong
                    assert best <= 0.0 and row[key]["min_ratio"] >= 1.0
                else:
                    assert worst <= tol and best >= -tol
                    assert row[key]["min_ratio"] <= 1.0

    def test_perturbation_runs_in_closest_mode(self, balanced_parts):
        train, test = balanced_parts
        report = verify_published(train, test)
        pert = report["perturbation"]
        assert pert["mode"] == report["closest_mode"]
        assert pert["spreads"] == perturbation_analysis(
            mode_parts(train, test)[report["closest_mode"]])

    @pytest.mark.parametrize("split", ("bundled", 1))
    def test_narrative_reads_the_json_report(self, raw_patterns, balanced_parts, split):
        """The narrative of the report read back from the JSON that ``verify
        --format json`` prints, whose keys are sorted, is the narrative of
        the report itself."""
        parts = (balanced_parts if split == "bundled"
                 else random_balanced_split(raw_patterns, split))
        report = verify_published(*parts)
        read_back = json.loads(json.dumps(report, sort_keys=True))
        assert verify_text(read_back) == verify_text(report)


def _full_set(train, test):
    """The rows of two RawSets as one RawSet in mu order."""
    X, tau, mu = (np.concatenate((a, b)) for a, b in
                  ((train.X, test.X), (train.tau, test.tau), (train.mu, test.mu)))
    return RawSet(X, tau, mu).take(np.argsort(mu))


def _flipped(sets):
    """The PatternSets ``sets`` with every label negated (rock -1, mine +1)."""
    return tuple(PatternSet(s.Xi, -s.tau, s.mu) for s in sets)


def _reference_mode_sets(train, test, stats_from, scale):
    """The three sets of a mode standardized one pattern at a time."""
    full = _full_set(train, test)
    stats_all = compute_stats(full, mode=scale)
    if stats_from == "part":
        stats_tr = compute_stats(train, mode=scale)
        stats_te = compute_stats(test, mode=scale)
    else:
        stats_tr = stats_te = stats_all

    def std(part, stats):
        return pattern_set(
            [np.concatenate(([1.0], (x - stats.mean) / stats.scale)) for x in part.X],
            [1 if t == 1 else -1 for t in part.tau.tolist()], part.mu)
    return std(test, stats_tr), std(train, stats_te), std(full, stats_all)


def _reference_run_mode(mode_name, sets, layout):
    table = load_published_table()
    w_train, w_test, w_sonar = map(load_published_weights, PUBLISHED_NAMES)
    test_std, train_std, all_std = sets
    mu_test = sorted(layout[p.mu] for p in test_std if stability(w_train, p) <= 0)
    mu_train = sorted(layout[p.mu] for p in train_std if stability(w_test, p) <= 0)
    pub_test = sorted(r["mu"] for r in table["test_side"])
    pub_train = sorted(r["mu"] for r in table["train_side"])
    return dict(
        mode=mode_name,
        counts_test_side=count_errors(w_train, test_std),
        counts_train_side=count_errors(w_test, train_std),
        counts_sonar=count_errors(w_sonar, all_std),
        mu_test_side=mu_test, mu_train_side=mu_train,
        table_match_test=mu_test == pub_test, table_match_train=mu_train == pub_train,
        missing_test=sorted(set(pub_test) - set(mu_test)),
        extra_test=sorted(set(mu_test) - set(pub_test)),
        missing_train=sorted(set(pub_train) - set(mu_train)),
        extra_train=sorted(set(mu_train) - set(pub_train)))


def _reference_gamma_check(all_std, layout):
    table = load_published_table()
    # W_Sonar stabilities from one matrix field of the full set, the product
    # the misclassification report reads
    f_sonar = field(load_published_weights("W_Sonar"),
                    np.array([p.xi for p in all_std])).tolist()
    by_layout = {layout[p.mu]: p.tau * f for p, f in zip(all_std, f_sonar)}
    rows = []
    for side in ("test_side", "train_side"):
        for rec in table[side]:
            got = by_layout.get(rec["mu"])
            rows.append({"mu": rec["mu"], "published": rec["gamma_sonar"],
                         "computed": got,
                         "abs_err": None if got is None else abs(got - rec["gamma_sonar"])})
    errs = [r["abs_err"] for r in rows if r["abs_err"] is not None]
    return {"rows": rows, "max_abs_err": max(errs, default=None),
            "n_within_1e-3": sum(1 for e in errs if e <= 1e-3)}


def _gamma_checks(monkeypatch, train, test, parts):
    """The ``gamma_check`` of the verify report of ``train`` and ``test``
    when their ``mode_parts`` are ``parts``, whose labels may be negated."""
    monkeypatch.setattr(evaluation, "mode_parts", lambda *raw: parts)
    return verify_published(train, test)["gamma_check"]


def _seeded_draw_counts(sets, n_draws=100):
    """Per published vector, the error counts of ``n_draws`` uniform draws of
    it within its truncation box, from seed 0: a sample of the counts the
    box allows."""
    ws = [load_published_weights(n).w for n in PUBLISHED_NAMES]
    rng = np.random.default_rng(0)
    jitter = rng.uniform(-5e-5, 5e-5, size=(n_draws, len(ws), len(ws[0])))
    out = {}
    for k, (key, w, pats) in enumerate(zip(
            ("W_Train_on_test", "W_Test_on_train", "W_Sonar_on_all"), ws, sets)):
        out[key] = {count_errors(WeightVector(w + jitter[d, k]), pats)[0]
                    for d in range(n_draws)}
    return out


class TestArrayVerify:
    """The packed-array verify equals the per-pattern definitions exactly."""

    @pytest.fixture(scope="class", params=["bundled", 1, 2, 3])
    def parts(self, request, raw_patterns, balanced_parts):
        if request.param == "bundled":
            return balanced_parts
        return random_balanced_split(raw_patterns, request.param)

    @pytest.mark.parametrize("flipped", (False, True))
    @pytest.mark.parametrize("mode", STANDARDIZATION_MODES, ids=lambda m: m[0])
    def test_mode_matches_reference(self, parts, mode, flipped, monkeypatch):
        """``run_mode``, the report's ``gamma_check`` of the mode's scale and
        ``perturbation_analysis`` equal their per-pattern definitions, also
        on sets whose labels are negated."""
        train, test = parts
        mode_name, stats_from, scale = mode
        sets = _reference_mode_sets(train, test, stats_from, scale)
        parts = mode_parts(train, test)
        if flipped:
            sets, parts = _flipped(sets), {m: _flipped(s) for m, s in parts.items()}
        layout = paper_layout_numbering(train, test)
        assert run_mode(mode_name, parts) == _reference_run_mode(mode_name, sets, layout)
        got = _gamma_checks(monkeypatch, train, test, parts)[scale]
        assert got == _reference_gamma_check(sets[2], layout)
        assert all(type(r["computed"]) is float for r in got["rows"])
        box = perturbation_analysis(parts[mode_name])
        for key, counts in _seeded_draw_counts(sets).items():
            assert box[key]["min"] <= min(counts) <= max(counts) <= box[key]["max"]

    @pytest.mark.parametrize("flipped", (False, True))
    def test_spot_check_reads_the_report_field(self, parts, flipped, monkeypatch):
        """Each spot-checked stability is, bit for bit, tau times the matrix
        field of its pattern, under either labelling, so a pattern W_Sonar
        misclassifies carries the field that ``evaluate`` reports for it."""
        w_sonar = load_published_weights("W_Sonar")
        sets = mode_parts(*parts)
        if flipped:
            sets = {m: _flipped(s) for m, s in sets.items()}
        gamma_checks = _gamma_checks(monkeypatch, *parts, sets)
        n_misclassified = 0
        for mode_name, _, scale in STANDARDIZATION_MODES:
            full = sets[mode_name][2]
            f = field(w_sonar, full.Xi)
            row_of = {m: k for k, m in enumerate(full.mu.tolist())}
            rep = evaluate(w_sonar, full)
            reported = {r["mu"]: r["tau"] * r["field"] for r in rep["records"]}
            for row in gamma_checks[scale]["rows"]:
                k = row_of[row["mu"]]
                assert row["computed"] == float(full.tau[k] * f[k])
                if row["mu"] in reported:
                    assert row["computed"] == reported[row["mu"]]
                    n_misclassified += 1
        assert n_misclassified > 0

    @pytest.mark.parametrize("flipped", (False, True))
    def test_mode_parts_rows(self, parts, flipped):
        """Every part holds the reference rows bitwise, in the reference
        order, numbered in the paper's layout, and the labels of the raw
        sets as they are, also when those are negated."""
        train, test = parts
        if flipped:
            train, test = (RawSet(r.X, -r.tau, r.mu) for r in parts)
        layout = paper_layout_numbering(train, test)
        got = mode_parts(train, test)
        assert list(got) == [m[0] for m in STANDARDIZATION_MODES]
        for mode_name, stats_from, scale in STANDARDIZATION_MODES:
            want = _reference_mode_sets(train, test, stats_from, scale)
            for part, ref in zip(got[mode_name], want):
                assert part.mu.tolist() == [layout[p.mu] for p in ref]
                assert part.tau.tolist() == [p.tau for p in ref]
                assert part.Xi.tobytes() == np.array([p.xi for p in ref]).tobytes()
            rep = evaluate(load_published_weights("W_Train"), got[mode_name][0])
            assert rep["records"] and all(type(r["mu"]) is int and type(r["tau"]) is int
                                          for r in rep["records"])

    def test_flipped_labels_mirror_the_report(self, parts, monkeypatch):
        """Negating every label mirrors each mode: no field is exactly 0, so
        each misclassified set becomes its part's complement, W_Sonar errs
        on P - total patterns, each spot-check stability is negated, and
        each spread's min and max become P - max and P - min."""
        sets = mode_parts(*parts)
        flipped = {m: _flipped(s) for m, s in sets.items()}
        checks, mirror_checks = (_gamma_checks(monkeypatch, *parts, p)
                                 for p in (sets, flipped))
        for scale, check in checks.items():
            assert ([r["computed"] for r in mirror_checks[scale]["rows"]]
                    == [-r["computed"] for r in check["rows"]])
        for mode_name, mode_sets in sets.items():
            got, mirror = run_mode(mode_name, sets), run_mode(mode_name, flipped)
            for side, part in zip(("test", "train"), mode_sets):
                key = f"mu_{side}_side"
                assert mirror[key] == sorted(set(part.mu.tolist()) - set(got[key]))
            n_all = len(mode_sets[2])
            assert mirror["counts_sonar"][0] == n_all - got["counts_sonar"][0]
            box = perturbation_analysis(mode_sets)
            box_mirror = perturbation_analysis(flipped[mode_name])
            for key, ps in zip(box, mode_sets):
                assert (box_mirror[key]["min"], box_mirror[key]["max"]) == (
                    len(ps) - box[key]["max"], len(ps) - box[key]["min"])
                assert box_mirror[key]["min_ratio"] == box[key]["min_ratio"]

    @pytest.mark.parametrize("empty", (0, 1), ids=("train", "test"))
    def test_empty_part_is_a_stats_error(self, balanced_parts, empty):
        """A verify with either part empty raises the StatsError of
        statistics over no patterns."""
        parts = [p.take([]) if k == empty else p for k, p in enumerate(balanced_parts)]
        with pytest.raises(StatsError, match="^cannot compute statistics of an empty"):
            verify_published(*parts)

    def test_verify_numbers_layout_once(self, balanced_parts, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return paper_layout_numbering(*args)
        monkeypatch.setattr(evaluation, "paper_layout_numbering", counted)
        verify_published(*balanced_parts)
        assert len(calls) == 1

    def test_verify_checks_w_sonar_once_per_scale(self, balanced_parts, monkeypatch):
        """W_Sonar's field over the full set is taken once per mode, for its
        count, and once per scale, for the spot-check; the two modes of a
        scale count the same W_Sonar errors, each mode's dict is
        ``run_mode``'s, and a verify leaves no module-level state behind: the
        next one computes its checks afresh."""
        w_sonar = evaluation._published()[2][2]
        calls = []

        def counted(w, X):
            calls.append(w is w_sonar)
            return field(w, X)
        monkeypatch.setattr(evaluation, "field", counted)

        def state():
            return {name: (id(value), len(value) if isinstance(value, Sized) else None)
                    for name, value in vars(evaluation).items()}
        before = state()
        report = verify_published(*balanced_parts)
        assert sum(calls) == 4 + 2 and state() == before
        assert set(report["gamma_check"]) == {"std", "variance"}
        by_scale = {}
        for m in report["modes"]:
            by_scale.setdefault(m["mode"].split("-")[1], []).append(m["counts_sonar"])
        for a, b in by_scale.values():
            assert a == b
        parts = mode_parts(*balanced_parts)
        assert report["modes"] == [run_mode(name, parts) for name in parts]
        assert sum(calls) == 6 + 4
        assert verify_published(*balanced_parts) == report
        assert sum(calls) == 10 + 6 and state() == before

    def test_verify_parses_published_assets_once(self, balanced_parts, monkeypatch):
        calls = []

        def counted(source):
            calls.append(source)
            return load_weights(source)
        monkeypatch.setattr(evaluation, "load_weights", counted)
        evaluation._published.cache_clear()
        verify_published(*balanced_parts)
        verify_published(*balanced_parts)
        assert len(calls) <= 3

    def test_verify_draws_no_random_numbers(self, balanced_parts, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("verify drew random numbers")
        monkeypatch.setattr(np.random, "default_rng", boom)
        evaluation._published.cache_clear()
        first = verify_published(*balanced_parts)["perturbation"]
        assert verify_published(*balanced_parts)["perturbation"] == first

    def test_published_arrays_are_read_only(self):
        evaluation._published.cache_clear()
        for w in evaluation._published()[2]:
            with pytest.raises(ValueError, match="read-only"):
                w.w[0] = 1.0

    def test_verify_builds_no_pattern_lists(self, balanced_parts, monkeypatch):
        """Verify builds no per-pattern row (``RawPattern`` or
        ``LabeledPattern``) and never runs ``count_errors``, under any name a
        monoplane module binds them to."""
        def boom(*args, **kwargs):
            raise AssertionError("called on the verify path")
        for name in ("monoplane", "monoplane.data", "monoplane.perceptron",
                     "monoplane.evaluation", "monoplane.cli"):
            module = importlib.import_module(name)
            for fn in ("RawPattern", "LabeledPattern", "count_errors"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, boom)
        train, test = balanced_parts
        report = verify_published(train, test)
        assert not report["reproduced"] and len(report["modes"]) == 4

    def test_mode_parts_standardizes_through_public_functions(self, balanced_parts,
                                                              monkeypatch):
        """Every set ``mode_parts`` returns is a ``standardize`` result in
        coordinates that ``compute_stats`` returned, so wrappers of the two
        public functions see all of verify's standardization."""
        made_stats, used_stats, made_sets = [], [], []

        def stats(*args, **kwargs):
            made_stats.append(compute_stats(*args, **kwargs))
            return made_stats[-1]

        def std(raw, coords, *args, **kwargs):
            used_stats.append(coords)
            made_sets.append(standardize(raw, coords, *args, **kwargs))
            return made_sets[-1]
        monkeypatch.setattr(evaluation, "compute_stats", stats)
        monkeypatch.setattr(evaluation, "standardize", std)
        parts = mode_parts(*balanced_parts)
        returned = {id(s) for sets in parts.values() for s in sets}
        assert returned == {id(s) for s in made_sets}
        assert len(returned) == len(made_sets)
        assert all(any(u is m for m in made_stats) for u in used_stats)

    def test_verify_standardizes_the_full_set_once_per_scale(self, balanced_parts,
                                                             monkeypatch):
        """A verify computes the 6 distinct statistics (Train part, Test
        part and full set, per scale) and makes the 10 distinct sets; both
        modes of a scale share the full set."""
        calls = {"compute_stats": 0, "standardize": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(evaluation, "compute_stats", counted(compute_stats))
        monkeypatch.setattr(evaluation, "standardize", counted(standardize))
        verify_published(*balanced_parts)
        assert calls == {"compute_stats": 6, "standardize": 10}
        parts = mode_parts(*balanced_parts)
        assert parts["part-std"][2] is parts["all-std"][2]
        assert parts["part-variance"][2] is parts["all-variance"][2]
