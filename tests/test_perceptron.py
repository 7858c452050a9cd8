import decimal
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monoplane
from monoplane import (
    SEPARATION_CONFIG, PatternSet, TrainingConfig,
    TrainingError, WeightVector, cost, cost_gradient, count_errors, evaluate,
    field, hebbian_init, load_published_weights, load_weights,
    minimerror_train, rosenblatt_train, save_weights,
)
from monoplane import trace_csv
from monoplane.perceptron import _BLOCK, TrainingTrace, _sech2

from conftest import make_ls_patterns, pattern_set, stability, xor_patterns


def pat(xi, tau, mu=1):
    """The one-pattern set of ``xi`` labelled ``tau``."""
    return pattern_set([xi], [tau], [mu])


def two_point_set():
    return pattern_set([[1.0, +1.0], [1.0, -1.0]], [+1, -1])


class TestFieldStability:
    def test_bias_only_projection(self):
        w = WeightVector(np.array([1.0, 0.0, 0.0]))
        assert field(w, np.array([[1.0, 5.0, -3.0]])) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = rng.standard_normal(61)
            xi = np.concatenate([[1.0], rng.standard_normal(60)])[None]
            c = float(rng.uniform(0.1, 100.0))
            f1 = field(WeightVector(w), xi)
            f2 = field(WeightVector(c * w), xi)
            assert f2 == pytest.approx(f1, rel=1e-12)

    def test_on_hyperplane_zero(self):
        w = WeightVector(np.array([0.0, 1.0, 0.0]))
        p = pat([1.0, 0.0, 2.0], +1)[0]
        assert stability(w, p) == 0.0

    def test_sign_convention(self):
        w = WeightVector(np.array([1.0, 0.0]))
        p_ok = pat([1.0, 0.0], +1)[0]
        p_bad = pat([1.0, 0.0], -1)[0]
        assert stability(w, p_ok) > 0
        assert stability(w, p_bad) < 0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(np.zeros(3))

    def test_dimension_mismatch(self):
        w = WeightVector(np.ones(3))
        with pytest.raises(ValueError):
            field(w, np.ones((1, 4)))

    @pytest.mark.parametrize("shape", [(4,), (2,), (5, 4), (5, 2), (0, 4),
                                       (), (2, 5, 3)],
                             ids=["row-4", "row-2", "matrix-5x4", "matrix-5x2",
                                  "empty-0x4", "scalar", "three-axes"])
    def test_width_mismatch_raises_for_both_shapes(self, shape):
        w = WeightVector(np.ones(3))
        with pytest.raises(ValueError, match=r"do not have the 3 components"):
            field(w, np.ones(shape))

    def test_one_pattern_row_raises(self):
        """field takes a (P, dim) matrix only: one pattern is a one-row
        matrix, and a row of the right width raises the shape error."""
        w = WeightVector(np.ones(3))
        with pytest.raises(ValueError, match=r"^patterns of shape \(3,\) do not"):
            field(w, np.ones(3))
        assert field(w, np.ones((1, 3))).shape == (1,)

    def test_matrix_on_train_part(self, train_std):
        """One field per row, float64 entries, each a row's own dot
        product up to round-off, and the matrix is what count_errors and
        evaluate read."""
        ps, _ = train_std
        w = load_published_weights("W_Train")
        f = field(w, ps.Xi)
        assert f.dtype == np.float64
        assert_rows_match(w, ps.Xi, f)
        rep = evaluate(w, ps)
        wrong = np.flatnonzero(ps.tau * f <= 0.0)
        counts = rep["counts"]
        assert (counts["total"], counts["false_pos"],
                counts["false_neg"]) == count_errors(w, ps)
        assert counts["total"] == len(wrong) > 0
        assert (np.array([r["field"] for r in rep["records"]]).tobytes()
                == f[wrong].tobytes())

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), P=st.integers(0, 40),
           dim=st.integers(1, 70), scale=st.floats(1e-3, 1e3))
    def test_matrix_matches_rows(self, seed, P, dim, scale):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((P, dim)) * scale
        w = WeightVector(rng.standard_normal(dim) + 1.0)
        assert_rows_match(w, X, field(w, X))


def assert_rows_match(w, X, f):
    """Row k of the matrix field ``f`` is the float ``X[k] . w / ||w||`` up
    to the round-off of one dot product: a matrix-vector product may sum a
    row in another order than a single dot does, so the last bits can
    differ."""
    assert isinstance(f, np.ndarray) and f.shape == (len(X),)
    rows = [float(x @ w.w) / w.norm for x in X]
    assert all(type(r) is float for r in rows)
    eps = np.finfo(float).eps
    bound = (2 * X.shape[1] + 2) * eps * (np.abs(X) @ np.abs(w.w)) / w.norm
    assert np.all(np.abs(f - np.array(rows, dtype=float)) <= bound)


class TestCost:
    def test_infinite_temperature_limit(self):
        rng = np.random.default_rng(0)
        pats, _ = make_ls_patterns(rng, n=40, dim=6)
        w = WeightVector(rng.standard_normal(7))
        P = len(pats)
        assert abs(cost(w, pats, T=1e12) - P / 2) < 1e-9

    def test_constructed_quarter(self):
        # a single pattern with gamma = 2T * atanh(0.5) contributes E = 0.25;
        # unit weight along the first coordinate makes gamma = xi[0]
        T = 0.7
        gamma = 2 * T * math.atanh(0.5)
        p = pat([1.0, gamma], +1)
        w = WeightVector(np.array([0.0, 1.0]))
        assert cost(w, p, T) == pytest.approx(0.25, abs=1e-12)

    def test_saturated_contributions(self):
        T = 0.5
        g = 10 * 2 * T
        p_wrong = pat([1.0, -g], +1)     # gamma/2T = -10, counted as 1 error
        p_right = pat([1.0, +g], +1)     # gamma/2T = +10, vanishing share
        w = WeightVector(np.array([0.0, 1.0]))
        assert cost(w, p_wrong, T) == pytest.approx(1.0, abs=1e-8)
        assert cost(w, p_right, T) == pytest.approx(0.0, abs=1e-8)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(3)
        pats, _ = make_ls_patterns(rng, n=25, dim=4)
        w = WeightVector(rng.standard_normal(5))
        for T in (0.01, 0.3, 5.0):
            E = cost(w, pats, T)
            assert 0.0 < E < len(pats)

    def test_nonpositive_temperature(self):
        w = WeightVector(np.ones(2))
        with pytest.raises(ValueError):
            cost(w, two_point_set(), T=0.0)

    def test_nan_temperature(self):
        w = WeightVector(np.ones(3))
        with pytest.raises(ValueError, match="^temperature must be positive$"):
            cost(w, xor_patterns(), float("nan"))


class TestGradient:
    def finite_difference(self, w, pats, T, eps=1e-6):
        base = w.w
        g = np.zeros_like(base)
        for i in range(len(base)):
            up = base.copy(); up[i] += eps
            dn = base.copy(); dn[i] -= eps
            g[i] = (cost(WeightVector(up), pats, T)
                    - cost(WeightVector(dn), pats, T)) / (2 * eps)
        return g

    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(3, 9))
            pats, _ = make_ls_patterns(rng, n=int(rng.integers(5, 20)), dim=dim - 1)
            w = WeightVector(rng.standard_normal(dim))
            T = float(rng.uniform(0.05, 2.0))
            g = cost_gradient(w, pats, T)
            fd = self.finite_difference(w, pats, T)
            denom = np.maximum(np.abs(fd), 1e-10)
            assert np.max(np.abs(g - fd) / denom) < 1e-5

    def test_saturated_window_vanishes(self):
        T = 1e-4
        pats = pattern_set([[1.0, 50.0], [1.0, -50.0]], [+1, -1])
        w = WeightVector(np.array([0.0, 1.0]))
        g = cost_gradient(w, pats, T)
        assert np.linalg.norm(g) < 1e-20

    def test_nan_temperature(self):
        w = WeightVector(np.ones(3))
        with pytest.raises(ValueError, match="^temperature must be positive$"):
            cost_gradient(w, xor_patterns(), float("nan"))

    def test_empty_set_rejected_like_cost(self):
        w = WeightVector(np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (cost, cost_gradient):
                with pytest.raises(ValueError,
                                   match="^cost of an empty pattern set is undefined$"):
                    f(w, pattern_set(np.zeros((0, 2)), []), 1.0)

    def test_tiny_temperature_is_finite_without_warnings(self):
        rng = np.random.default_rng(8)
        pats, _ = make_ls_patterns(rng, n=30, dim=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (WeightVector(np.array([0.5, 1.0])),
                      WeightVector(np.array([-0.5, 1.0]))):
                assert np.isfinite(cost_gradient(w, two_point_set(), 1e-6)).all()
            for _ in range(10):
                w = WeightVector(rng.standard_normal(6))
                assert np.isfinite(cost_gradient(w, pats, 1e-6)).all()

    def test_orthogonal_to_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pats, _ = make_ls_patterns(rng, n=15, dim=5)
            w = WeightVector(rng.standard_normal(6))
            g = cost_gradient(w, pats, T=0.4)
            gn = np.linalg.norm(g)
            if gn == 0:
                continue
            assert abs(w.w @ g) < 1e-10 * gn * w.norm


def reference_sech2(x):
    """1 / cosh(x)^2, exactly 0 once cosh(x)^2 overflows, as ``_sech2``."""
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(x) ** 2


def outer_gradient(w, Xi, tau, T):
    """The per-pattern outer-product form of the gradient, kept as the
    reference for the matrix-vector kernel. ``T`` is scalar or per pattern."""
    nw = np.linalg.norm(w)
    proj = (Xi @ w) / nw
    coef = -reference_sech2(tau * proj / (2.0 * T)) / (4.0 * T)
    return ((coef * tau)[:, None] * (Xi / nw - np.outer(proj, w) / nw**2)).sum(axis=0)


def two_temperature_cost(w, Xi, tau, T, ratio):
    """E with temperature ratio*T on patterns of nonnegative stability."""
    gam = tau * (Xi @ w) / np.linalg.norm(w)
    Teff = np.where(gam >= 0.0, ratio * T, T)
    return float(0.5 * np.sum(1.0 - np.tanh(gam / (2.0 * Teff))))


def decimal_sech2(x):
    """sech^2(x) = 4 / (e^x + e^-x)^2 at 40 significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        e = decimal.Decimal(x).exp()
        return float(4 / (e + 1 / e) ** 2)


class TestSech2:
    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(-300.0, 300.0))
    @example(x=0.0)
    @example(x=5e-324)
    @example(x=-300.0)
    @example(x=300.0)
    def test_relative_error_against_decimal(self, x):
        ref = decimal_sech2(x)
        assert abs(float(_sech2(np.array([x]))[0]) - ref) <= 1e-14 * ref

    def test_saturated_is_zero_not_nan_or_inf(self):
        xs = np.array([360.0, 400.0, 709.0, 711.0, 1e5, 1e300, np.inf])
        xs = np.concatenate([xs, -xs])
        with np.errstate(over="ignore"):
            got = _sech2(xs)
        assert np.isfinite(got).all()
        assert np.all((got >= 0.0) & (got <= 1e-300))


class TestGradientKernel:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), P=st.integers(1, 40),
           dim=st.integers(2, 12), T=st.floats(0.05, 5.0),
           ratio=st.floats(0.01, 2.0))
    def test_matches_outer_form_and_central_differences(self, seed, P, dim,
                                                        T, ratio):
        rng = np.random.default_rng(seed)
        Xi = np.column_stack([np.ones(P), rng.standard_normal((P, dim - 1))])
        tau = rng.choice([-1.0, 1.0], size=P)
        w = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
        tXi = tau[:, None] * Xi
        nw = np.linalg.norm(w)
        gam = (tXi @ w) / nw
        Teff = np.where(gam >= 0.0, ratio * T, T)

        g = cost_gradient(WeightVector(w),
                          PatternSet(Xi, tau.astype(int), np.arange(1, P + 1)), T)
        ref = outer_gradient(w, Xi, tau, T)
        # both forms subtract two terms that can nearly cancel, so their
        # round-off is relative to the sum of the terms' magnitudes, not
        # to the (possibly far smaller) gradient they leave
        c = np.cosh(np.minimum(np.abs(gam / (2.0 * T)), 350.0)) ** -2.0 / (4.0 * T)
        scale = (c @ np.abs(tXi)) / nw + (c @ np.abs(gam)) / nw**2 * np.abs(w)
        # both sides divided by the largest term magnitude, so that no
        # norm squares components into the subnormal range
        smax = np.max(scale)
        assert (np.linalg.norm((g - ref) / smax)
                <= 1e-12 * np.linalg.norm(scale / smax) + 1e-300 / smax)

        # off the window's switch point, Teff is locally constant and the
        # outer form at the window temperatures, the reference
        # TestStepDirection holds the anneal's step to, is the exact
        # gradient of the two-temperature cost
        assume(np.min(np.abs(gam)) >= 1e-4)
        eps = 1e-6 * nw
        fd = np.empty(dim)
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = eps
            fd[i] = (two_temperature_cost(w + step, Xi, tau, T, ratio)
                     - two_temperature_cost(w - step, Xi, tau, T, ratio)) / (2 * eps)
        g = outer_gradient(w, Xi, tau, Teff)
        # the floor sits well above the round-off of a difference quotient
        # of E (at most 40 terms) at this step, ~1e-8 / ||w||
        assert np.max(np.abs(g - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1e-3 / nw)


class TestStepDirection:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), P=st.integers(1, 40),
           dim=st.integers(2, 12), T=st.floats(0.05, 5.0),
           theta=st.one_of(st.just(1.0), st.floats(0.01, 2.0)))
    # g's components are ~1e-158, so g . g is subnormal
    @example(seed=425, P=1, dim=7, T=0.05, theta=0.01)
    # g's components are ~1e-297, so g . g underflows to 0; a reference
    # sech^2 clamped below its overflow put the direction off by ~3.5e-5
    @example(seed=4037453285, P=2, dim=6, T=0.05, theta=0.01)
    def test_is_the_normalized_negative_gradient(self, seed, P, dim, T, theta):
        """The epoch's step d/||d|| is -g/||g|| for the gradient g of the
        outer form at the window temperatures: every factor the epoch
        drops is a positive constant."""
        rng = np.random.default_rng(seed)
        Xi = np.column_stack([np.ones(P), rng.standard_normal((P, dim - 1))])
        tau = rng.choice([-1.0, 1.0], size=P)
        w = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
        tXi = tau[:, None] * Xi
        nw = np.linalg.norm(w)
        gam = (tXi @ w) / nw
        Teff = np.where(gam >= 0.0, theta * T, T)

        d = reference_direction(np.vstack([tXi, w]), T, theta)
        g = outer_gradient(w, Xi, tau, Teff)
        assume(np.max(np.abs(d)) > 0.0 and np.max(np.abs(g)) > 0.0)
        # each norm is taken of its vector scaled to a largest magnitude
        # of 1: squares of tiny components round in the subnormal range
        dmax, gmax = np.max(np.abs(d)), np.max(np.abs(g))
        d, g = d / dmax, g / gmax
        dn, gn = np.linalg.norm(d), np.linalg.norm(g)
        # as in TestGradientKernel, round-off is relative to the summed
        # magnitudes of the gradient's terms, here scaled by 1/||g||
        c = reference_sech2(gam / (2.0 * Teff)) / (4.0 * Teff)
        scale = (c @ np.abs(tXi)) / nw + (c @ np.abs(gam)) / nw**2 * np.abs(w)
        smax = np.max(scale)
        assert np.linalg.norm(d / dn + g / gn) <= (
            1e-12 * np.linalg.norm(scale / smax) / gn * (smax / gmax))


class TestHebbian:
    def test_single_pattern_separates_itself(self):
        p = pat([1.0, 0.4, -0.2], +1)
        w, fallback = hebbian_init(p)
        assert not fallback
        assert stability(w, p[0]) > 0

    def test_cancellation_falls_back(self):
        pats = pattern_set([[1.0, 0.5], [1.0, 0.5]], [+1, -1])
        w, fallback = hebbian_init(pats, rng=np.random.default_rng(0))
        assert fallback
        assert w.norm > 0

    def test_fallback_deterministic(self):
        pats = pattern_set([[1.0, 0.5], [1.0, 0.5]], [+1, -1])
        w1, _ = hebbian_init(pats, rng=np.random.default_rng(9))
        w2, _ = hebbian_init(pats, rng=np.random.default_rng(9))
        assert np.array_equal(w1.w, w2.w)

    @pytest.mark.parametrize("tau", [1, -1])
    def test_huge_entries_start_and_anneal(self, fast_config, tau):
        """The folded mean of these patterns has a norm past the float64
        range, so only a mean scaled before its norm gives a start; the
        start and an anneal from it warn and raise nothing."""
        ps = pattern_set([[1.0, 1.5e200], [1.0, 1e200]], [1, tau])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, fallback = hebbian_init(ps)
            minimerror_train(ps, fast_config)
        assert not fallback
        np.testing.assert_allclose(w.w, [0.0, np.sqrt(2.0)], atol=1e-15)

    def test_train_set_is_deterministic_vector(self, train_std):
        patterns, _ = train_std
        w1, f1 = hebbian_init(patterns)
        w2, f2 = hebbian_init(patterns)
        assert not f1 and not f2
        assert np.array_equal(w1.w, w2.w)
        assert w1.norm == pytest.approx(np.sqrt(61))


def reference_direction(M, T, theta):
    """The epoch's unnormalized descent direction at w = M[-1] for the
    folded rows tXi = M[:-1], one numpy call per step: pattern weights
    sech^2(gamma / 2 theta T) when every stability is nonnegative, else
    sech^2(gamma / 2rT) / r with r = theta on the well-classified side and
    1 on the other, and -(u . gamma / ||w||) as the weight of w. A
    direction whose norm is below 1e-150 is recomputed from the pattern
    weights divided by the largest one."""
    raw = M @ M[-1]
    nw = math.sqrt(raw[-1])
    gam = raw[:-1] / nw
    s = 2.0 * T * nw
    with np.errstate(over="ignore"):
        if gam.min() >= 0.0:
            u = _sech2(raw[:-1] / (theta * s))
        else:
            r = np.where(gam >= 0.0, theta, 1.0)
            u = _sech2(raw[:-1] / (r * s)) / r
    d = np.append(u, -(u @ raw[:-1]) / raw[-1]) @ M
    if math.sqrt(d @ d) < 1e-150 and u.max() > 0.0:
        u = u / u.max()
        d = np.append(u, -(u @ raw[:-1]) / raw[-1]) @ M
    return d


def reference_minimerror(patterns, config):
    """The annealing epoch written one numpy call per step, kept as the
    reference for ``minimerror_train``. w is the last row of the stacked
    matrix [tXi; w] and is never renormalized, so it grows by a factor
    sqrt(1 + lr^2 / dim) an epoch until w . w overflows. Every scheduled
    epoch runs, a saturated one too, and a field or w . w that is not finite
    raises. Returns the weights, the trace, whose ``stop`` is "t_min" or
    "max_epochs", and whether each epoch stepped."""
    wv, fallback = hebbian_init(patterns, np.random.default_rng(config.seed))
    M = np.vstack([patterns.folded, wv.w])
    w = M[-1]
    root_dim = math.sqrt(len(w))
    rows, stepped = [], []
    best, best_w, best_epoch = None, w.copy(), -1
    T, epoch = config.t_initial, 0
    while T > config.t_min and epoch < config.max_epochs:
        raw = M @ w
        nw = math.sqrt(raw[-1])
        gam = raw[:-1] / nw
        errors = int(np.count_nonzero(gam <= 0.0))
        min_stab = float(gam.min())
        E = float(0.5 * np.sum(1.0 - np.tanh(raw[:-1] / (2.0 * T * nw))))
        if not np.isfinite(raw).all() or not math.isfinite(E):
            raise TrainingError(f"non-finite state at epoch {epoch}",
                                TrainingTrace.from_rows(rows, best_epoch, fallback))
        rows.append((T, E, errors, min_stab))
        if best is None or (errors, -min_stab) < best:
            best, best_w = (errors, -min_stab), w.copy()
            best_epoch = epoch
        d = reference_direction(M, T, config.temp_ratio)
        dn = math.sqrt(d @ d)
        stepped.append(dn > 0.0)
        if dn > 0.0:
            w += (config.learning_rate * nw / (root_dim * dn)) * d
        T *= config.t_decay
        epoch += 1
    trace = replace(TrainingTrace.from_rows(rows, best_epoch, fallback),
                    stop="t_min" if T <= config.t_min else "max_epochs")
    return WeightVector(best_w).rescaled(), trace, np.array(stepped, dtype=bool)


def assert_reference_prefix(w, trace, reference, config):
    """The anneal ran the reference loop's epochs up to the first saturated
    one (every stability at least 712 temp_ratio T) or, with none, all of
    them: its trace is the reference's rows through its last epoch bit for
    bit, with the same weights, retained epoch and fallback flag. Ended
    "frozen", it ended at that saturated epoch, and every later reference
    epoch repeats it: no step, the same minimal stability bits and errors,
    and no later retained epoch. Otherwise it ended as the reference did."""
    w_ref, trace_ref, stepped = reference
    n = len(trace)
    for name in ("temperature", "cost", "errors", "min_stability"):
        assert (getattr(trace, name).tobytes()
                == getattr(trace_ref, name)[:n].tobytes())
    assert w.w.tobytes() == w_ref.w.tobytes()
    assert trace.best_epoch == trace_ref.best_epoch
    assert trace.hebbian_fallback == trace_ref.hebbian_fallback
    saturated = trace_ref.min_stability >= (712.0 * config.temp_ratio
                                            * trace_ref.temperature)
    assert not saturated[:n - 1].any()
    if trace.stop == "frozen":
        assert saturated[n - 1]
        assert not stepped[n - 1:].any()
        bits = trace_ref.min_stability[n - 1:].view(np.int64)
        assert (bits == bits[0]).all()
        assert (trace_ref.errors[n - 1:] == trace_ref.errors[n - 1]).all()
        assert trace.best_epoch <= n - 1
    else:
        assert n == len(trace_ref) and not saturated.any()
        assert trace.stop == trace_ref.stop


def assert_blocks_match_reference_loop(ps, epochs, temp_ratio):
    """Run ``epochs`` epochs from T = 1 down by 0.99 an epoch, assert that
    the run and its csv equal the reference loop's, and return its trace."""
    schedule = TrainingConfig(t_initial=1.0, t_min=1e-300, t_decay=0.99,
                              learning_rate=0.05, max_epochs=epochs,
                              temp_ratio=temp_ratio)
    w, trace = minimerror_train(ps, schedule)
    reference = reference_minimerror(ps, schedule)
    assert_reference_prefix(w, trace, reference, schedule)
    a, b = io.StringIO(), io.StringIO()
    trace.to_csv(a)
    reference[1].to_csv(b)
    assert a.getvalue().splitlines() == b.getvalue().splitlines()[:len(trace) + 1]
    return trace


def overflowing_field_set(c, ratio, n=12, dim=4):
    """n separable patterns (1, t, t, s) and the pair (1, c, -c ratio, 0)
    under both labels, which cancels in the Hebbian mean. The pair's field
    is w0 + c w1 - c ratio w2 with w1 = w2 > 0 from the start on: hugely
    negative for one label while both products are finite, and, once they
    overflow together, inf - inf = NaN (BLAS adds them in separate
    partial sums). With ratio 0, c w1 alone overflows, to +inf for one
    label and -inf for the other. With dim 3 the last column is dropped."""
    rng = np.random.default_rng(0)
    t = rng.uniform(0.2, 1.0, n) * rng.choice([-1, 1], n)
    Xi = np.column_stack([np.ones(n + 2), np.r_[c, c, t],
                          np.r_[-c * ratio, -c * ratio, t],
                          np.r_[0.0, 0.0, rng.uniform(-0.3, 0.3, n)]])
    tau = np.r_[1, -1, np.sign(t).astype(int)]
    return PatternSet(Xi[:, :dim], tau, np.arange(1, n + 3))


@st.composite
def anneal_problems(draw, max_features=8):
    """(PatternSet, kind): a separable set, random labels, or random labels
    with every row repeated under the opposite label, whose Hebbian mean is
    exactly zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = draw(st.integers(2, 40))
    dim = draw(st.integers(1, max_features))
    kind = draw(st.sampled_from(["separable", "random", "cancelling"]))
    if kind == "separable":
        return make_ls_patterns(rng, n=P, dim=dim)[0], kind
    n = P // 2 if kind == "cancelling" else P
    Xi = np.column_stack([np.ones(n), rng.standard_normal((n, dim))])
    tau = rng.choice([-1, 1], size=n)
    if kind == "cancelling":
        Xi = np.repeat(Xi, 2, axis=0)
        tau = np.column_stack([tau, -tau]).ravel()
    return PatternSet(Xi, tau, np.arange(1, len(tau) + 1)), kind


@st.composite
def anneal_schedules(draw, learning_rate=(0.001, 0.5), max_epochs=300):
    """Schedules of at most ``max_epochs`` epochs with the plain cost, the
    separation window or any window ratio in [0.01, 2]."""
    return TrainingConfig(
        t_initial=draw(st.floats(0.05, 10.0)),
        t_min=draw(st.floats(1e-4, 1e-2)),
        t_decay=draw(st.floats(0.9, 0.999)),
        learning_rate=draw(st.floats(*learning_rate)),
        max_epochs=draw(st.integers(1, max_epochs)),
        seed=draw(st.integers(0, 3)),
        temp_ratio=draw(st.one_of(st.just(1.0), st.just(0.02),
                                  st.floats(0.01, 2.0))),
    )


class TestMinimerror:
    def test_two_pattern_ls(self, fast_config):
        w, trace = minimerror_train(two_point_set(), fast_config)
        assert count_errors(w, two_point_set())[0] == 0
        assert trace.best_epoch >= 0

    def test_retention_is_best_epoch(self, fast_config):
        rng = np.random.default_rng(2)
        pats, _ = make_ls_patterns(rng, n=40, dim=8)
        w, trace = minimerror_train(pats, fast_config)
        retained = count_errors(w, pats)[0]
        assert retained == trace.errors.min()
        assert retained == trace.errors[trace.best_epoch]
        min_stab = min(stability(w, p) for p in pats)
        assert min_stab == pytest.approx(trace.min_stability[trace.best_epoch],
                                         rel=1e-12, abs=1e-12)

    def test_flipped_labels_mirror_the_run(self, train_std,
                                           test_std_train_stats, fast_config):
        """Negated labels negate every folded row, so the Hebbian start
        and every step: on the Train part (55 rocks, 49 mines) the anneal
        returns -w bit for bit with equal trace columns, retained epoch
        and stop, and evaluate swaps false positives and false negatives."""
        patterns, _ = train_std
        config = replace(fast_config, temp_ratio=0.02)
        w, trace = minimerror_train(patterns, config)
        flip = [PatternSet(ps.Xi, -ps.tau, ps.mu)
                for ps in (patterns, test_std_train_stats)]
        w_flip, trace_flip = minimerror_train(flip[0], config)
        assert (-w.w).tobytes() == w_flip.w.tobytes()
        for column in ("temperature", "cost", "errors", "min_stability"):
            assert (getattr(trace, column).tobytes()
                    == getattr(trace_flip, column).tobytes()), column
        assert ((trace.best_epoch, trace.stop)
                == (trace_flip.best_epoch, trace_flip.stop))
        swapped = []
        for ps, ps_flip in zip((patterns, test_std_train_stats), flip):
            counts = evaluate(w, ps)["counts"]
            counts_flip = evaluate(w_flip, ps_flip)["counts"]
            assert (counts["total"], counts["false_pos"], counts["false_neg"]) == (
                counts_flip["total"], counts_flip["false_neg"], counts_flip["false_pos"])
            swapped.append(counts["false_pos"] != counts["false_neg"])
        assert any(swapped)

    def test_bit_reproducible(self, fast_config):
        rng = np.random.default_rng(4)
        pats, _ = make_ls_patterns(rng, n=30, dim=6)
        w1, t1 = minimerror_train(pats, fast_config)
        w2, t2 = minimerror_train(pats, fast_config)
        assert np.array_equal(w1.w, w2.w)
        assert t1.best_epoch == t2.best_epoch
        assert t1.cost.tolist() == t2.cost.tolist()

    def test_weight_norm_convention(self, fast_config):
        rng = np.random.default_rng(6)
        pats, _ = make_ls_patterns(rng, n=20, dim=5)
        w, _ = minimerror_train(pats, fast_config)
        assert w.norm == pytest.approx(np.sqrt(6), rel=1e-9)

    def test_trace_temperatures_decay(self, fast_config):
        pats = two_point_set()
        _, trace = minimerror_train(pats, fast_config)
        temps = trace.temperature.tolist()
        assert all(b < a for a, b in zip(temps, temps[1:]))
        assert len(trace) <= fast_config.max_epochs

    def test_empty_set_rejected(self, fast_config):
        with pytest.raises(ValueError):
            minimerror_train(pattern_set(np.zeros((0, 3)), []), fast_config)

    @pytest.mark.parametrize("learning_rate", [1e308, 1e200])
    def test_diverged_anneal_stops_at_epoch_1(self, all_std, learning_rate):
        """The first step overflows w . w (lr = 1e200) or w itself
        (lr = 1e308), so the second epoch's norm is not finite."""
        patterns, _ = all_std
        cfg = replace(SEPARATION_CONFIG, learning_rate=learning_rate)
        with warnings.catch_warnings(), \
                pytest.raises(TrainingError,
                              match=r"^non-finite state at epoch 1$") as exc:
            warnings.simplefilter("error")
            minimerror_train(patterns, cfg)
        assert len(exc.value.trace) == 1

    @pytest.mark.parametrize("temp_ratio", [1.0, 0.02])
    def test_nan_stability_stops_at_its_epoch(self, temp_ratio):
        """A field whose two terms overflow to inf - inf = NaN while ||w||
        stays finite raises at the epoch of that NaN, inside the second
        block, with the reference loop's rows before it, its retained epoch
        and its fallback flag, and without a numpy warning."""
        ps = overflowing_field_set(1.17e308, 1.0 + 1e-5)
        schedule = TrainingConfig(t_initial=1.0, t_min=1e-300, t_decay=0.999,
                                  learning_rate=0.05, max_epochs=3 * _BLOCK,
                                  temp_ratio=temp_ratio)
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as ref:
            reference_minimerror(ps, schedule)
        n = len(ref.value.trace)
        assert _BLOCK < n < 2 * _BLOCK
        assert np.isfinite(ref.value.trace.min_stability).all()
        with warnings.catch_warnings(), \
                pytest.raises(TrainingError,
                              match=rf"^non-finite state at epoch {n}$") as exc:
            warnings.simplefilter("error")
            minimerror_train(ps, schedule)
        trace, trace_ref = exc.value.trace, ref.value.trace
        for name in ("temperature", "cost", "errors", "min_stability"):
            assert getattr(trace, name).tobytes() == getattr(trace_ref, name).tobytes()
        assert trace.best_epoch == trace_ref.best_epoch
        assert trace.hebbian_fallback is trace_ref.hebbian_fallback is False

    @pytest.mark.parametrize("temp_ratio", [1.0, 0.02])
    def test_infinite_stability_raises(self, temp_ratio):
        """A pair of fields that overflow to +inf and -inf from the start
        makes the direction NaN (0 * inf in u . gamma). Like a NaN field it
        raises at its epoch, here the first, with no rows, as the reference
        loop does."""
        ps = overflowing_field_set(1.5e308, 0.0)
        schedule = TrainingConfig(t_initial=1.0, t_min=1e-300, t_decay=0.99,
                                  learning_rate=0.05, max_epochs=_BLOCK + 17,
                                  temp_ratio=temp_ratio)
        w0 = hebbian_init(ps)[0].w
        with np.errstate(over="ignore"):
            assert np.isinf(ps.folded @ w0).sum() == 2
        message = r"^non-finite state at epoch 0$"
        with warnings.catch_warnings(), \
                pytest.raises(TrainingError, match=message) as exc:
            warnings.simplefilter("error")
            minimerror_train(ps, schedule)
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingError, match=message) as ref:
            reference_minimerror(ps, schedule)
        assert len(exc.value.trace) == len(ref.value.trace) == 0
        assert exc.value.trace.best_epoch == ref.value.trace.best_epoch == -1

    @pytest.mark.parametrize("temp_ratio", [1.0, 0.02])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_overflowing_pair_raises_whatever_the_dot_product_grouping(
            self, dim, temp_ratio):
        """The rows (1, c, -c) and (-1, -c, c) with c w1 and c w2 both past
        the float64 range: whether BLAS gives their fields as +-inf or as
        inf - inf = NaN depends on how it groups the sum, and varies with
        the dimension (OpenBLAS on x86-64 gives -inf and +inf at dim 3 and
        NaN at dim 4). Either way the anneal raises at its first epoch with
        no rows."""
        ps = overflowing_field_set(1.5e308, 1.0, dim=dim)
        schedule = TrainingConfig(t_initial=1.0, t_min=1e-300, t_decay=0.99,
                                  learning_rate=0.05, max_epochs=_BLOCK + 17,
                                  temp_ratio=temp_ratio)
        w0 = hebbian_init(ps)[0].w
        with np.errstate(all="ignore"):
            assert not np.isfinite(ps.folded[:2] @ w0).any()
        with warnings.catch_warnings(), \
                pytest.raises(TrainingError,
                              match=r"^non-finite state at epoch 0$") as exc:
            warnings.simplefilter("error")
            minimerror_train(ps, schedule)
        assert len(exc.value.trace) == 0

    @settings(max_examples=100, deadline=None)
    @given(problem=anneal_problems(), schedule=anneal_schedules())
    def test_epoch_matches_reference_loop(self, problem, schedule):
        """Weights, retained epoch, fallback flag and every trace record
        equal the reference loop's bit for bit, through the freeze epoch
        of an anneal that freezes."""
        ps, kind = problem
        w, trace = minimerror_train(ps, schedule)
        reference = reference_minimerror(ps, schedule)
        assert_reference_prefix(w, trace, reference, schedule)
        assert trace.hebbian_fallback == (kind == "cancelling")
        a, b = io.StringIO(), io.StringIO()
        trace.to_csv(a)
        reference[1].to_csv(b)
        assert a.getvalue().splitlines() == b.getvalue().splitlines()[:len(trace) + 1]

    @settings(max_examples=50, deadline=None)
    @given(problem=anneal_problems(max_features=3),
           schedule=anneal_schedules(learning_rate=(0.5, 20.0), max_epochs=2000))
    @example(problem=(PatternSet(np.array([[1.0, 0.3], [1.0, -1.2], [1.0, 0.8]]),
                                 np.array([1, -1, -1]), np.array([1, 2, 3])),
                      "random"),
             schedule=TrainingConfig(t_initial=1.0, t_min=1e-3, t_decay=0.99,
                                     learning_rate=10.0, max_epochs=2000))
    def test_renormalization_is_exact_and_bounded(self, problem, schedule):
        """Steps that grow w . w by 1 + lr^2 / dim an epoch never overflow,
        the result has ||w||^2 = dim, and the power-of-two rescales change
        no bit: the run equals the never-renormalized reference loop for as
        long as that one stays finite. A reference that diverges has moved
        w at every epoch, so the anneal has not frozen before it."""
        ps, _ = problem
        w, trace = minimerror_train(ps, schedule)
        assert w.w @ w.w == pytest.approx(len(w), rel=1e-12)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                reference = reference_minimerror(ps, schedule)
        except TrainingError as exc:
            n = len(exc.trace)
            assert len(trace) >= n
            for name in ("temperature", "cost", "errors", "min_stability"):
                assert (getattr(trace, name)[:n].tobytes()
                        == getattr(exc.trace, name).tobytes())
        else:
            assert_reference_prefix(w, trace, reference, schedule)

    def test_step_survives_an_underflowing_direction_norm(self):
        """With every |gamma / 2T| in (186, 355), d . d underflows to 0
        though d does not; the epoch still turns w by atan(lr / sqrt(dim))
        toward the less stable pattern, whose weight sech^2 dominates."""
        pats = pattern_set([[1.0, 2.0], [1.0, 1.2]], [+1, +1])
        cfg = TrainingConfig(t_initial=0.0036, t_min=1e-3, t_decay=0.99,
                             learning_rate=0.05, max_epochs=2)
        _, trace = minimerror_train(pats, cfg)
        tXi = pats.folded
        w0 = hebbian_init(pats)[0].w
        w0 = w0 / np.linalg.norm(w0)
        gam = tXi @ w0
        for T in trace.temperature:
            assert np.all((186.0 < gam / (2.0 * T)) & (gam / (2.0 * T) < 355.0))
        x = tXi[np.argmin(gam)]
        n = x - (x @ w0) * w0
        w1 = w0 + (cfg.learning_rate / math.sqrt(2.0)) * n / np.linalg.norm(n)
        assert trace.min_stability[0] == pytest.approx(gam.min(), rel=1e-12)
        assert trace.min_stability[1] == pytest.approx(
            np.min(tXi @ w1) / np.linalg.norm(w1), rel=1e-12)

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_cost_column_is_the_cost_at_the_retained_epoch(self, part, request):
        """The block cost divides each gamma row by 2T ||w|| itself; at the
        retained epoch of a separation-schedule run it equals ``cost`` of
        the returned weights."""
        patterns, _ = request.getfixturevalue(f"{part}_std")
        w, trace = request.getfixturevalue(f"trained_{part}_separator")
        best = trace.best_epoch
        # beyond 1e-12 relative, each term may differ by one rounding of
        # tanh near +-1 (2^-53)
        assert trace.cost[best] == pytest.approx(
            cost(w, patterns, trace.temperature[best]),
            rel=1e-12, abs=len(patterns) * 2.0**-53)

    @pytest.mark.parametrize("temp_ratio", [1.0, 0.02])
    @pytest.mark.parametrize("epochs", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                        3 * _BLOCK + 17])
    def test_block_boundaries_match_reference_loop(self, epochs, temp_ratio):
        """Schedules that end one epoch short of a block, on its boundary
        and one past it, and a longer one that freezes inside a later
        block, equal the reference loop bit for bit."""
        rng = np.random.default_rng(epochs)
        ps = make_ls_patterns(rng, n=30, dim=5)[0]
        trace = assert_blocks_match_reference_loop(ps, epochs, temp_ratio)
        if epochs > 3 * _BLOCK:
            assert trace.stop == "frozen" and _BLOCK < len(trace) < epochs
        else:
            assert trace.stop == "max_epochs" and len(trace) == epochs

    @pytest.mark.parametrize("temp_ratio", [1.0, 0.02])
    @pytest.mark.parametrize("epochs", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                        3 * _BLOCK + 17])
    def test_block_boundaries_match_reference_loop_on_random_labels(
            self, epochs, temp_ratio):
        """The same schedules on a random-label set, which no epoch
        separates: every epoch's errors are counted in its block, and the
        retained epoch is chosen across blocks (in a later one on the
        longest run), bit for bit as the reference loop does."""
        rng = np.random.default_rng(epochs)
        ps = PatternSet(np.column_stack([np.ones(20), rng.standard_normal((20, 5))]),
                        rng.choice([-1, 1], size=20), np.arange(1, 21))
        trace = assert_blocks_match_reference_loop(ps, epochs, temp_ratio)
        assert trace.stop == "max_epochs" and len(trace) == epochs
        assert trace.errors.min() > 0
        if epochs > 3 * _BLOCK:
            assert trace.best_epoch >= _BLOCK

    @pytest.mark.parametrize("temp_ratio", [1.0, 0.02])
    @pytest.mark.parametrize("freeze, max_epochs, t_min_at, stop", [
        (0, 2 * _BLOCK + 5, None, "frozen"),    # a saturated Hebbian start
        (_BLOCK, 3 * _BLOCK + 17, None, "frozen"),      # block slot 0
        (2 * _BLOCK - 1, 3 * _BLOCK + 17, None, "frozen"),  # slot _BLOCK - 1
        (100, 3 * _BLOCK, None, "frozen"),      # max_epochs on a boundary
        (100, 100000, 2 * _BLOCK + 44, "frozen"),   # t_min after the freeze
        (2 * _BLOCK + 9, 2 * _BLOCK + 10, None, "frozen"),  # the last epoch
        (2 * _BLOCK + 9, 100000, 2 * _BLOCK + 10, "frozen"),  # ... by t_min
        (2 * _BLOCK + 44, 100000, _BLOCK + 3, "t_min"),
        (2 * _BLOCK + 44, _BLOCK + 3, None, "max_epochs"),
    ], ids=["start", "slot-0", "last-slot", "boundary", "t_min", "last-epoch",
            "last-epoch-t_min", "t_min-first", "max_epochs-first"])
    def test_frozen_fill_matches_reference_loop(self, freeze, max_epochs,
                                                t_min_at, stop, temp_ratio):
        """An anneal that would freeze at a chosen epoch (every stability at
        least 712 temp_ratio T from then on) ends there, or earlier at
        t_min or max_epochs, and equals the reference loop, which runs every
        epoch, bit for bit in every trace column through its last epoch, the
        retained epoch and the weights. A tiny step keeps the minimal
        stability within 1e-6 of its start, so a start T of that stability
        over 712 temp_ratio, times t_decay^(1/2 - freeze), freezes the run
        at ``freeze``; a t_min half a decay above epoch ``t_min_at``'s
        temperature ends the schedule there."""
        rng = np.random.default_rng(freeze)
        n, dim = 30, 5
        tau = rng.choice([-1, 1], size=n)
        x = rng.standard_normal((n, dim)) * 0.2
        x[:, 0] = tau * (1.0 + np.abs(x[:, 0]))
        ps = PatternSet(np.column_stack([np.ones(n), x]), tau, np.arange(1, n + 1))
        w0 = hebbian_init(ps)[0].w
        s = float(np.min(ps.folded @ w0)) / np.linalg.norm(w0)
        assert s > 0.0
        t_decay = 0.99
        t0 = s / (712.0 * temp_ratio) * t_decay ** (0.5 - freeze)
        schedule = TrainingConfig(
            t_initial=t0, t_decay=t_decay, learning_rate=1e-9,
            t_min=1e-300 if t_min_at is None else t0 * t_decay ** (t_min_at - 0.5),
            max_epochs=max_epochs, temp_ratio=temp_ratio)
        w, trace = minimerror_train(ps, schedule)
        reference = reference_minimerror(ps, schedule)
        trace_ref = reference[1]
        frozen = trace_ref.min_stability >= (712.0 * temp_ratio
                                             * trace_ref.temperature)
        assert len(trace_ref) == (max_epochs if t_min_at is None else t_min_at)
        assert frozen[freeze:].all() and not frozen[:freeze].any()
        assert_reference_prefix(w, trace, reference, schedule)
        assert trace.stop == stop
        assert len(trace) == min(freeze + 1, len(trace_ref))

    def test_train_separator_stays_frozen(self, trained_train_separator):
        """The Train-part separation run ends at its first epoch whose every
        stability is at least 712 theta T, 23,160 epochs into the 57,559 of
        the schedule: only that last row is saturated, it has no error, and
        the retained epoch comes before it."""
        _, trace = trained_train_separator
        theta = SEPARATION_CONFIG.temp_ratio
        frozen = trace.min_stability >= 712.0 * theta * trace.temperature
        assert len(trace) == 23160 and trace.stop == "frozen"
        assert frozen[-1] and not frozen[:-1].any()
        assert trace.errors[-1] == 0
        assert trace.best_epoch < len(trace) - 1

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, sonar_path):
        """All 208 patterns with the separation schedule cut to 2,000
        epochs, in a fresh process with one BLAS thread and then two: at
        P = 208 OpenBLAS splits the 209 x 61 matrix-vector products across
        its threads, and the weights and trace.csv keep every byte."""
        child = (
            "import io, sys\n"
            "from dataclasses import replace\n"
            "from monoplane import (SEPARATION_CONFIG, compute_stats,\n"
            "    load_file, minimerror_train, standardize)\n"
            "raw = load_file(sys.argv[1])\n"
            "w, trace = minimerror_train(standardize(raw, compute_stats(raw)),\n"
            "    replace(SEPARATION_CONFIG, max_epochs=2000))\n"
            "out = io.StringIO()\n"
            "trace.to_csv(out)\n"
            "print(w.w.tobytes().hex())\n"
            "print(out.getvalue(), end='')\n"
        )
        src = os.path.dirname(os.path.dirname(monoplane.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", child, str(sonar_path)], env=env,
                capture_output=True, text=True, check=True).stdout)
        assert outputs[0].count("\n") == 2 + 2000
        assert outputs[0] == outputs[1]

    def test_csv_matches_a_per_row_repr_writer(self):
        """Every row is written with one repr per value: 0.0 next to -0.0,
        NaN runs and a long repeated run included. The helper's path, the
        columns' bytes in blocks of _BLOCK rows read back through
        ``memoryview.cast``, writes the same text, for the whole trace and
        for traces of 0 and 1 rows, which are one block each."""
        stabs = ([0.0, -0.0, -0.0, 0.0, float("nan"), float("nan"), 1.5]
                 + [0.1 + 0.2] * 600 + [0.3, float("nan"), -0.0, 5e-324])
        rows = [(0.999 ** i, i / 7.0, i % 3, v) for i, v in enumerate(stabs)]
        trace = TrainingTrace.from_rows(rows, best_epoch=2)
        want = "epoch,temperature,cost,errors,min_stability\n" + "".join(
            f"{i},{T!r},{E!r},{errors},{stab!r}\n"
            for i, (T, E, errors, stab) in enumerate(rows))
        buf = io.StringIO()
        trace.to_csv(buf)
        assert buf.getvalue() == want
        assert helper_text(trace) == (len(rows), want)
        for short in (TrainingTrace.from_rows([]), TrainingTrace.from_rows(rows[:1])):
            buf = io.StringIO()
            short.to_csv(buf)
            assert want.startswith(buf.getvalue())
            assert buf.getvalue().count("\n") == len(short) + 1
            assert helper_text(short) == (len(short), buf.getvalue())

    def test_csv_of_a_long_trace_is_written_in_bounded_memory(self, tmp_path):
        """A trace as long as the all-208 separation anneal's (35,187 rows)
        is written with the per-row bytes and never holds all its rows as
        Python numbers: the writer's peak stays below 1.5 MB above its
        start."""
        rng = np.random.default_rng(5)
        n = 35187
        trace = TrainingTrace(0.9998 ** np.arange(n), rng.random(n) * 50,
                              rng.integers(0, 40, n), rng.standard_normal(n))
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                trace.to_csv(fh)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        rows = zip(trace.temperature.tolist(), trace.cost.tolist(),
                   trace.errors.tolist(), trace.min_stability.tolist())
        want = ["epoch,temperature,cost,errors,min_stability\n"] + [
            f"{i},{T!r},{E!r},{errors},{stab!r}\n"
            for i, (T, E, errors, stab) in enumerate(rows)]
        got = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # name the first differing line (a diff of the whole file is slow)
        assert len(got) == len(want)
        bad = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None, (bad, got[bad], want[bad])

    def test_trace_is_compact_and_typed(self):
        """A default-schedule trace keeps at most 64 bytes per epoch, and
        writes its rows as Python floats and ints."""
        rng = np.random.default_rng(13)
        ps = make_ls_patterns(rng, n=40, dim=5)[0]
        ps.folded                       # cached on the set, not the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            w, trace = minimerror_train(ps, TrainingConfig())
            del w
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 9206
        assert retained <= 64 * len(trace)

        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == len(trace) + 1
        # a numpy scalar would be written as np.float64(...) and not parse
        for line in lines[1:]:
            epoch, T, E, errors, stab = line.split(",")
            int(epoch), float(T), float(E), int(errors), float(stab)


def columns(trace):
    return trace.temperature, trace.cost, trace.errors, trace.min_stability


def helper_text(trace):
    """(rows, text) of ``trace`` sent to ``trace_csv.format_blocks`` in
    blocks of _BLOCK rows, the last one possibly short, as the anneal
    sends them."""
    wire = io.BytesIO(b"".join(
        trace_csv.pack_block(*(c[k:k + _BLOCK] for c in columns(trace)))
        for k in range(0, len(trace) or 1, _BLOCK)))
    rows, text = trace_csv.format_blocks(wire.read)
    return rows, b"".join(text).decode("ascii")


class TestBlockHook:
    """``minimerror_train(on_block=)`` sees each closed block's columns."""

    @pytest.mark.parametrize("config, stop", [
        (SEPARATION_CONFIG, "frozen"),
        (TrainingConfig(), "t_min"),
        (TrainingConfig(t_initial=1e-3), "t_min"),
        (replace(SEPARATION_CONFIG, learning_rate=1e308), None),
    ], ids=["frozen-separation", "default-t_min", "empty", "diverged"])
    def test_blocks_concatenate_to_the_trace(self, config, stop):
        """The blocks are _BLOCK rows each but the last, and concatenate,
        bit for bit and with the same dtypes, to the returned trace's
        columns, or to a diverged anneal's TrainingError.trace; an empty
        trace is one empty block."""
        ps = make_ls_patterns(np.random.default_rng(13), n=40, dim=5)[0]
        blocks = []

        def hook(*cols):
            blocks.append(cols)
        if stop is None:
            with pytest.raises(TrainingError) as exc:
                minimerror_train(ps, config, on_block=hook)
            trace = exc.value.trace
        else:
            trace = minimerror_train(ps, config, on_block=hook)[1]
            assert trace.stop == stop
        sizes = [len(b[2]) for b in blocks]
        assert sizes[:-1] == [_BLOCK] * (len(sizes) - 1) and sizes[-1] <= _BLOCK
        assert sum(sizes) == len(trace)
        assert (len(trace) == 0) == (config.t_initial == config.t_min)
        for k, column in enumerate(columns(trace)):
            parts = [b[k] for b in blocks]
            assert {p.dtype for p in parts} == {column.dtype}
            assert np.concatenate(parts).tobytes() == column.tobytes()

    def test_growth_passes_no_hook(self, monkeypatch):
        """``grow_network`` writes no trace while a unit anneals, and
        trains every unit without a hook."""
        from monoplane import network
        hooks = []

        def spy(patterns, config, on_block=None):
            hooks.append(on_block)
            return minimerror_train(patterns, config)
        monkeypatch.setattr(network, "minimerror_train", spy)
        network.grow_network(xor_patterns(), TrainingConfig(max_epochs=500))
        assert hooks and hooks == [None] * len(hooks)


def per_pattern_rosenblatt(patterns, config):
    """The fixed-increment rule on unfolded rows, kept as the reference."""
    Xi = np.array([p.xi for p in patterns])
    tau = np.array([p.tau for p in patterns], dtype=float)
    dim = Xi.shape[1]
    w = np.random.default_rng(config.seed).standard_normal(dim)
    w *= np.sqrt(dim) / np.linalg.norm(w)
    rows = []
    best, best_w, best_epoch = None, w.copy(), -1
    for epoch in range(config.max_epochs):
        for j in range(len(Xi)):
            if tau[j] * (Xi[j] @ w) <= 0.0:
                w = w + config.learning_rate * tau[j] * Xi[j]
        gam = tau * (Xi @ w) / np.linalg.norm(w)
        errors = int(np.sum(gam <= 0.0))
        min_stab = float(gam.min())
        rows.append((float("nan"), float(errors), errors, min_stab))
        if best is None or (errors, -min_stab) < best:
            best, best_w = (errors, -min_stab), w.copy()
            best_epoch = epoch
        if errors == 0:
            break
    return WeightVector(best_w).rescaled(), TrainingTrace.from_rows(rows, best_epoch)


class TestRosenblatt:
    def test_two_pattern_converges_fast(self):
        cfg = TrainingConfig(max_epochs=10, learning_rate=1.0)
        w, trace = rosenblatt_train(two_point_set(), cfg)
        assert count_errors(w, two_point_set())[0] == 0
        assert len(trace) <= 3

    def test_xor_returns_best_snapshot(self):
        cfg = TrainingConfig(max_epochs=60, learning_rate=1.0)
        pats = xor_patterns()
        w, trace = rosenblatt_train(pats, cfg)
        errs = count_errors(w, pats)[0]
        assert errs >= 1                      # provably not separable
        assert errs == trace.errors.min()
        assert len(trace) == 60               # ran to the cap

    def test_ls_set_converges(self, fast_config):
        rng = np.random.default_rng(12)
        pats, _ = make_ls_patterns(rng, n=50, dim=7, margin=0.2)
        cfg = TrainingConfig(max_epochs=5000, learning_rate=1.0, seed=1)
        w, _ = rosenblatt_train(pats, cfg)
        assert count_errors(w, pats)[0] == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_folded_rows_match_per_pattern_rule(self, seed, train_std):
        """Stepping on the folded rows tau*xi is exact: weights and trace
        equal the per-pattern rule bit for bit (criterion 9's setting)."""
        pats, _ = train_std
        cfg = TrainingConfig(seed=seed, t_initial=1.0, learning_rate=1.0,
                             max_epochs=20000)
        w, trace = rosenblatt_train(pats, cfg)
        w_ref, trace_ref = per_pattern_rosenblatt(pats, cfg)
        assert np.array_equal(w.w, w_ref.w)
        assert trace.best_epoch == trace_ref.best_epoch
        a, b = io.StringIO(), io.StringIO()
        trace.to_csv(a)
        trace_ref.to_csv(b)
        assert a.getvalue() == b.getvalue()

    def test_overflowing_norm_raises(self, train_std):
        """A step too large for the norm to stay finite stops the run at
        once instead of counting every stability as 0."""
        pats, _ = train_std
        cfg = TrainingConfig(learning_rate=1e300, max_epochs=50)
        with warnings.catch_warnings(), \
                pytest.raises(TrainingError,
                              match=r"^non-finite state at epoch 0$") as exc:
            warnings.simplefilter("error")
            rosenblatt_train(pats, cfg)
        assert len(exc.value.trace) == 0

    def test_collapsed_weights_raise(self):
        """A first sweep whose one step cancels the start leaves no
        direction: the run stops at that epoch with no rows."""
        pats = pattern_set([[1.0]], [-1])
        cfg = TrainingConfig(learning_rate=1.0, max_epochs=5)
        with warnings.catch_warnings(), \
                pytest.raises(TrainingError,
                              match=r"^weights collapsed to zero at epoch 0$") as exc:
            warnings.simplefilter("error")
            rosenblatt_train(pats, cfg)
        assert len(exc.value.trace) == 0 and exc.value.trace.best_epoch == -1

    def test_seed_changes_start(self):
        pats = two_point_set()
        w1, _ = rosenblatt_train(pats, TrainingConfig(max_epochs=5, seed=1))
        w2, _ = rosenblatt_train(pats, TrainingConfig(max_epochs=5, seed=2))
        assert not np.array_equal(w1.w, w2.w)


class TestCountErrors:
    def test_empty_set(self):
        w = WeightVector(np.ones(2))
        assert count_errors(w, pattern_set(np.zeros((0, 2)), [])) == (0, 0, 0)

    def test_composition(self):
        w = WeightVector(np.array([0.0, 1.0]))
        pats = pattern_set([[1.0, +1.0],     # correct
                            [1.0, -1.0],     # false negative
                            [1.0, +1.0],     # false positive
                            [1.0, -1.0]],    # correct
                           [+1, +1, -1, -1])
        assert count_errors(w, pats) == (2, 1, 1)

    def test_zero_field_counts_as_error(self):
        w = WeightVector(np.array([0.0, 1.0]))
        p = pat([1.0, 0.0], +1)
        total, fp, fn = count_errors(w, p)
        assert total == 1 and fp == 0 and fn == 0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(t_initial=0.1, t_min=1.0)
        with pytest.raises(ValueError):
            TrainingConfig(t_decay=1.5)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            TrainingConfig(temp_ratio=0.0)

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("name", ("t_initial", "t_min", "learning_rate",
                                      "temp_ratio"))
    def test_non_finite_knob_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^need a finite {name}, got {value}$"):
            TrainingConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("max_epochs", math.nan), ("max_epochs", 2.5), ("max_epochs", True),
        ("max_epochs", np.int64(5)), ("seed", 1.5), ("seed", False),
        ("seed", -1), ("max_epochs", 0),
    ], ids=["max_epochs-nan", "max_epochs-float", "max_epochs-bool",
            "max_epochs-numpy", "seed-float", "seed-bool", "seed-negative",
            "max_epochs-zero"])
    def test_integer_knob_rejected(self, name, value):
        """The integer knobs take a Python int, not a float, a bool or a
        numpy integer, which the manifest's JSON could not hold; a seed is
        nonnegative, as numpy's generators need, and an anneal runs at least
        one epoch."""
        with pytest.raises(ValueError, match=f"^need (an integer )?{name}\\b"):
            TrainingConfig(**{name: value})

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("t_initial = 2.5\nseed=7\n# comment\ntemp_ratio=0.5\n")
        cfg = TrainingConfig.from_file(p)
        assert cfg.t_initial == 2.5 and cfg.seed == 7 and cfg.temp_ratio == 0.5
        assert cfg.t_decay == 0.999     # untouched default

    def test_from_file_unknown_key(self, tmp_path):
        """A line that names no known key, or has no "=", is named."""
        p = tmp_path / "cfg"
        for line, message in (("bogus=1", "unknown config key 'bogus'"),
                              ("bogus", "expected key=value")):
            p.write_text(f"seed=1\n{line}\n")
            with pytest.raises(ValueError) as exc:
                TrainingConfig.from_file(p)
            assert str(exc.value) == f"{p}: line 2: {message}"

    @pytest.mark.parametrize("line, cast_error", [
        ("max_epochs = 1e5", "invalid literal for int() with base 10: '1e5'"),
        ("seed = true", "invalid literal for int() with base 10: 'true'"),
        ("t_min = cold", "could not convert string to float: 'cold'"),
    ], ids=["int-as-float", "int-as-bool", "float"])
    def test_from_file_names_the_line_of_a_bad_value(self, tmp_path, line,
                                                     cast_error):
        p = tmp_path / "cfg"
        p.write_text(f"t_initial = 2.5\n# comment\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError) as exc:
            TrainingConfig.from_file(p)
        assert str(exc.value) == f"{p}: line 3: bad {key}: {cast_error}"

    @pytest.mark.parametrize("line, cast_error", [
        ("max_epochs=1_000", "invalid literal for int() with base 10: '1_000'"),
        ("seed=+1", "invalid literal for int() with base 10: '+1'"),
        ("t_initial=\u0663", "could not convert string to float: '\u0663'"),
        ("t_min=1_0e-3", "could not convert string to float: '1_0e-3'"),
    ], ids=["int-underscore", "int-plus", "float-non-ascii", "float-underscore"])
    def test_from_file_reads_the_one_number_grammar(self, tmp_path, line,
                                                    cast_error):
        p = tmp_path / "cfg"
        p.write_text(f"{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            TrainingConfig.from_file(p)
        assert str(exc.value) == (
            f"{p}: line 1: bad {line.split('=')[0]}: {cast_error}")

    def test_from_file_repeated_key(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("max_epochs=5\n# comment\nmax_epochs=7\n")
        with pytest.raises(ValueError) as exc:
            TrainingConfig.from_file(p)
        assert str(exc.value) == f"{p}: line 3: duplicate config key 'max_epochs'"

    def test_from_file_negative_seed_keeps_its_message(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("seed=-1\n")
        with pytest.raises(ValueError) as exc:
            TrainingConfig.from_file(p)
        assert str(exc.value) == f"{p}: need seed >= 0"


class TestSerialization:
    def test_line_roundtrip(self):
        rng = np.random.default_rng(8)
        w = WeightVector(rng.standard_normal(61))
        buf = io.StringIO()
        save_weights(w, buf)
        w2 = load_weights(buf.getvalue())
        assert np.array_equal(w.w, w2.w)

    @settings(max_examples=200, deadline=None)
    @given(w=st.integers(1, 70).flatmap(lambda dim: st.lists(
        st.floats(-1e100, 1e100), min_size=dim, max_size=dim)))
    def test_line_roundtrip_is_bitwise(self, w):
        w = np.array(w)
        assume(0.0 < np.linalg.norm(w))
        buf = io.StringIO()
        save_weights(WeightVector(w), buf)
        assert load_weights(buf.getvalue()).w.tobytes() == w.tobytes()

    def test_table_layout_accepted(self):
        text = "0.5, -0.25, 1.0\n2.0 3.0\n"
        w = load_weights(text)
        assert np.array_equal(w.w, [0.5, -0.25, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "0.\u0665"])
    def test_number_outside_the_grammar_rejected(self, token):
        """A token Python's ``float`` reads but the dataset reader does not
        (an underscore, a non-ASCII digit) is not a weight."""
        with pytest.raises(ValueError) as info:
            load_weights(f"0.5, -0.25\n{token}\n")
        assert str(info.value) == ("unparseable weight value: could not convert "
                                   f"string to float: {token!r}")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            load_weights("not a number")
        with pytest.raises(ValueError):
            load_weights("")
