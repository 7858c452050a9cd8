import io
import itertools
import traceback

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from monoplane import network
from monoplane import (
    GrowthStallError, LabeledPattern, NetworkModel, PatternSet, TrainingConfig,
    TrainingTrace, WeightVector, count_errors, grow_network, hidden_states,
    internal_targets, load_network, minimerror_train, network_output,
    save_network,
)

from conftest import make_ls_patterns, pattern_set, xor_patterns


def xor_config():
    return TrainingConfig(t_initial=1.0, t_min=1e-4, t_decay=0.995,
                          learning_rate=0.05, max_epochs=3000, seed=1)


def parity_patterns(n):
    """The 2^n patterns (1, bits) over {-1, +1}^n labelled by the product
    of their bits."""
    bits = list(itertools.product((-1.0, 1.0), repeat=n))
    return pattern_set([[1.0, *b] for b in bits], [int(np.prod(b)) for b in bits])


class TestForwardPass:
    def test_separator_states_equal_labels(self, fast_config):
        rng = np.random.default_rng(1)
        pats, _ = make_ls_patterns(rng, n=25, dim=4)
        w, _ = minimerror_train(pats, fast_config)
        assert count_errors(w, pats)[0] == 0
        model = NetworkModel(hidden=(w,), output=WeightVector(np.array([0.0, 1.0])))
        for p in pats:
            assert hidden_states(model, p.xi)[0] == p.tau

    def test_negation_flips_states(self):
        rng = np.random.default_rng(2)
        w = WeightVector(rng.standard_normal(5))
        model = NetworkModel(hidden=(w,), output=WeightVector(np.array([0.0, 1.0])))
        neg = NetworkModel(hidden=(WeightVector(-w.w),),
                           output=WeightVector(np.array([0.0, 1.0])))
        for _ in range(30):
            xi = np.concatenate([[1.0], rng.standard_normal(4)])
            if abs(w.w @ xi) < 1e-12:
                continue
            assert hidden_states(model, xi)[0] == -hidden_states(neg, xi)[0]

    def test_sign_zero_is_positive(self):
        w = WeightVector(np.array([0.0, 1.0]))
        model = NetworkModel(hidden=(w,), output=WeightVector(np.array([0.0, 1.0])))
        xi = np.array([1.0, 0.0])
        assert hidden_states(model, xi)[0] == +1
        assert network_output(model, xi) == +1

    def test_dimension_mismatch(self):
        w = WeightVector(np.ones(3))
        model = NetworkModel(hidden=(w,), output=WeightVector(np.array([0.0, 1.0])))
        with pytest.raises(ValueError):
            hidden_states(model, np.ones(5))

    def test_identity_wiring(self):
        rng = np.random.default_rng(3)
        w = WeightVector(rng.standard_normal(4))
        model = NetworkModel(hidden=(w,), output=WeightVector(np.array([0.0, 1.0])))
        for _ in range(20):
            xi = np.concatenate([[1.0], rng.standard_normal(3)])
            assert network_output(model, xi) == hidden_states(model, xi)[0]

    def test_constant_bias_unit(self):
        rng = np.random.default_rng(4)
        w = WeightVector(rng.standard_normal(4))
        model = NetworkModel(hidden=(w,), output=WeightVector(np.array([1.0, 0.0])))
        for _ in range(20):
            xi = np.concatenate([[1.0], rng.standard_normal(3)])
            assert network_output(model, xi) == +1

    def test_output_antisymmetry(self):
        rng = np.random.default_rng(5)
        w1 = WeightVector(rng.standard_normal(4))
        w2 = WeightVector(rng.standard_normal(4))
        out = WeightVector(np.array([0.3, 1.0, -0.7]))
        m = NetworkModel(hidden=(w1, w2), output=out)
        m_neg = NetworkModel(hidden=(w1, w2), output=WeightVector(-out.w))
        for _ in range(30):
            xi = np.concatenate([[1.0], rng.standard_normal(3)])
            sigma = np.concatenate([[1.0], hidden_states(m, xi).astype(float)])
            if abs(out.w @ sigma) < 1e-12:
                continue
            assert network_output(m, xi) == -network_output(m_neg, xi)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), H=st.integers(1, 5),
           dim=st.integers(1, 6), P=st.integers(1, 12), grid=st.booleans())
    def test_matrix_rows_equal_single_patterns(self, seed, H, dim, P, grid):
        """On a (P, dim) matrix, row k equals the one-pattern result, which
        equals the per-unit definition; on integer grids (exact zero
        fields) too, where sign(0) = +1."""
        rng = np.random.default_rng(seed)

        def draw(*shape):
            if grid:
                return rng.integers(-2, 3, shape).astype(float)
            return rng.standard_normal(shape)

        ws = [draw(dim) for _ in range(H)] + [draw(H + 1)]
        assume(all(np.any(w) for w in ws))
        model = NetworkModel(hidden=tuple(WeightVector(w) for w in ws[:H]),
                             output=WeightVector(ws[H]))
        X = draw(P, dim)
        states = hidden_states(model, X)
        outputs = network_output(model, X)
        assert states.shape == (P, H) and outputs.shape == (P,)
        for k, xi in enumerate(X):
            one = hidden_states(model, xi)
            assert one.shape == (H,) and one.dtype.kind == "i"
            assert np.array_equal(states[k], one)
            assert one.tolist() == [1 if u.w @ xi >= 0 else -1 for u in model.hidden]
            zeta = network_output(model, xi)
            assert type(zeta) is int and zeta == outputs[k]
            assert zeta == (1 if model.output.w @ np.concatenate([[1.0], one]) >= 0
                            else -1)

    def test_output_weight_count_enforced(self):
        """The output unit has one weight per hidden unit and the bias, and
        a network has at least one hidden unit."""
        w = WeightVector(np.ones(3))
        with pytest.raises(ValueError, match="^output unit has 3 weights, expected 2$"):
            NetworkModel(hidden=(w,), output=WeightVector(np.ones(3)))
        with pytest.raises(ValueError, match="^a network needs at least one hidden unit$"):
            NetworkModel(hidden=(), output=WeightVector(np.ones(1)))


class TestInternalTargets:
    def test_errorless_unit_gives_all_positive(self):
        t = np.array([+1, -1, +1])
        assert np.array_equal(internal_targets(t, t), [1, 1, 1])

    def test_all_wrong_gives_all_negative(self):
        t = np.array([+1, -1, +1])
        assert np.array_equal(internal_targets(t, -t), [-1, -1, -1])

    def test_componentwise_product(self):
        t = np.array([+1, -1, +1])
        s = np.array([+1, +1, +1])
        assert np.array_equal(internal_targets(t, s), [+1, -1, +1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            internal_targets([1, -1], [1, -1, 1])

    def test_parity_identity_random(self):
        """tau = (prod sigma_k) * tau_{h+1} holds for any state sequence."""
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            depth = int(rng.integers(1, 6))
            tau = rng.choice([-1, +1], size=n)
            targets = tau.copy()
            prod = np.ones(n, dtype=int)
            for _h in range(depth):
                sigma = rng.choice([-1, +1], size=n)
                targets = internal_targets(targets, sigma)
                prod *= sigma
                assert np.array_equal(tau, prod * targets)


class TestGrowth:
    def test_ls_set_gives_single_unit(self, fast_config):
        rng = np.random.default_rng(20)
        pats, _ = make_ls_patterns(rng, n=40, dim=6)
        model, trace = grow_network(pats, fast_config)
        assert len(model.hidden) == 1
        assert trace.units == [0]
        # network coincides with its sole perceptron on every training pattern
        unit = model.hidden[0]
        for p in pats:
            lone = 1 if unit.w @ p.xi >= 0 else -1
            assert network_output(model, p.xi) == lone == p.tau

    def test_xor_needs_two_units(self):
        pats = xor_patterns()
        model, trace = grow_network(pats, xor_config())
        assert len(model.hidden) == 2
        errs = sum(1 for p in pats if network_output(model, p.xi) != p.tau)
        assert errs == 0
        seq = trace.units
        assert seq[-1] == 0
        assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_parity_identity_during_growth(self):
        """Exact recursion bookkeeping on the grown XOR network."""
        pats = xor_patterns()
        model, _ = grow_network(pats, xor_config())
        tau = np.array([p.tau for p in pats])
        states = np.array([hidden_states(model, p.xi) for p in pats])
        targets = tau.copy()
        prod = np.ones(len(pats), dtype=int)
        for h in range(states.shape[1]):
            targets = internal_targets(targets, states[:, h])
            prod *= states[:, h]
            assert np.array_equal(tau, prod * targets)

    def test_units_equal_minimerror_train_on_their_targets(self, fast_config):
        """Each unit, and the output unit, carries the bits minimerror_train
        gives on the same targets (parity of 3 bits, three hidden units)."""
        pats = parity_patterns(3)
        model, _ = grow_network(pats, fast_config)
        assert len(model.hidden) == 3
        Xi, tau = pats.Xi, pats.tau
        targets, states = tau, []
        for unit in model.hidden:
            ref, _ = minimerror_train(PatternSet(Xi, targets, pats.mu), fast_config)
            assert np.array_equal(unit.w, ref.w)
            states.append(np.where(Xi @ unit.w >= 0.0, 1, -1))
            targets = targets * states[-1]
        reps = np.column_stack(states)
        ref, _ = minimerror_train(
            pattern_set([np.concatenate([[1.0], r]) for r in reps], tau), fast_config)
        assert np.array_equal(model.output.w, ref.w)

    def test_growth_trace_keeps_no_epoch_traces(self, fast_config):
        """A growth trace holds per-unit counts, not the units' anneals."""
        _, trace = grow_network(parity_patterns(3), fast_config)
        held = [v for value in vars(trace).values()
                for v in (value if isinstance(value, list) else [value])]
        assert len(held) == len(trace.units) + len(trace.output_attempts)
        assert not any(isinstance(v, TrainingTrace) for v in held)

    def test_max_hidden_stall(self):
        """Two equal patterns with opposite labels: unit 1 errs on one of
        them, and P - 1 = 1 is the most hidden units growth may train, so
        it stalls at that cap. The stall carries the growth trace; its
        traceback, which keeps grow_network's frame alive, holds no unit's
        anneal trace."""
        pats = pattern_set([[1.0, 0.5], [1.0, 0.5]], [+1, -1])
        with pytest.raises(GrowthStallError,
                           match="^hidden-unit cap 1 reached with nonzero errors$") as exc:
            grow_network(pats, xor_config())
        assert exc.value.trace.units == [1]
        assert exc.value.trace.output_attempts == []
        held = [v for frame, _ in traceback.walk_tb(exc.value.__traceback__)
                for v in frame.f_locals.values()]
        assert not any(isinstance(v, TrainingTrace) for v in held)

    def test_flipped_labels_give_an_equal_trace(self):
        """Negated XOR labels negate unit 1's targets and states, so every
        later unit's targets, and each count growth records, are equal."""
        pats = xor_patterns()
        flipped = PatternSet(pats.Xi, -pats.tau, pats.mu)
        _, trace = grow_network(pats, xor_config())
        _, trace_flipped = grow_network(flipped, xor_config())
        assert trace_flipped == trace

    def test_single_pattern_grows_one_unit(self, fast_config):
        """H <= max(1, P - 1): one pattern still needs one hidden unit."""
        pats = pattern_set([[1.0, 0.3]], [-1])
        model, trace = grow_network(pats, fast_config)
        assert len(model.hidden) == 1
        assert trace.units == [0]
        assert network_output(model, pats[0].xi) == -1

    def test_failed_output_after_errorless_unit_stalls(self, monkeypatch):
        """Units sign(x1) and sign(x2) on XOR are errorless by unit 2 and
        realize all four state pairs, so no output unit can be exact:
        growth stalls right after it, without training a further unit."""
        pats = parity_patterns(2)
        weights = [WeightVector(np.array(w)) for w in
                   ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0])]
        calls = []

        def stub(patterns, config):
            calls.append(patterns)
            return weights[len(calls) - 1], None
        monkeypatch.setattr(network, "minimerror_train", stub)
        with pytest.raises(GrowthStallError,
                           match="output unit .* 2 network errors") as exc:
            grow_network(pats, xor_config())
        assert len(calls) == 3
        assert exc.value.trace.units == [2, 0]
        assert exc.value.trace.output_attempts == [(2, 2)]

    def test_zero_field_conventions(self, monkeypatch):
        """A pattern exactly on a unit's hyperplane is an error without a
        side to count_errors, a +1 output to the network, and no internal
        error to growth, which counts with the network's sign."""
        pats = pattern_set([[1, 1, 0], [1, -1, 0], [1, 0, 1]], [+1, -1, +1])
        hidden = WeightVector(np.array([0, 1, 0]))
        output = WeightVector(np.array([0, 1]))
        assert hidden.w @ pats[2].xi == 0.0
        assert count_errors(hidden, pats) == (1, 0, 0)
        model = NetworkModel(hidden=(hidden,), output=output)
        assert network_output(model, pats[2].xi) == +1

        weights = iter([hidden, output])
        monkeypatch.setattr(network, "minimerror_train",
                            lambda patterns, config: (next(weights), None))
        grown, trace = grow_network(pats, xor_config())
        assert trace.units == [0]
        assert trace.output_attempts == [(1, 0)]
        assert network_output(grown, np.array([p.xi for p in pats])).tolist() == [1, -1, 1]

    def test_bound_is_p_minus_1(self, fast_config):
        rng = np.random.default_rng(21)
        pats, _ = make_ls_patterns(rng, n=12, dim=3)
        model, _ = grow_network(pats, fast_config)
        assert 1 <= len(model.hidden) <= len(pats) - 1

    @pytest.mark.parametrize("problem", ["xor", "parity3"])
    def test_list_input_equals_its_pattern_set(self, fast_config, problem):
        """A LabeledPattern list, the one input besides a PatternSet that
        grow_network takes, grows the network and growth trace of its
        packed PatternSet byte for byte, and the network's one-pattern
        output equals its row of the matrix call."""
        ps, config = ((xor_patterns(), xor_config()) if problem == "xor"
                      else (parity_patterns(3), fast_config))
        rows = [LabeledPattern(mu=p.mu, xi=p.xi.copy(), tau=p.tau) for p in ps]
        grown = []
        for patterns in (rows, PatternSet.of(rows)):
            model, trace = grow_network(patterns, config)
            net, csv = io.StringIO(), io.StringIO()
            save_network(model, net)
            trace.to_csv(csv)
            grown.append((net.getvalue(), csv.getvalue()))
        assert grown[0] == grown[1]
        assert [network_output(model, p.xi) for p in rows] == \
            network_output(model, ps.Xi).tolist() == ps.tau.tolist()

    def test_empty_set_rejected(self, fast_config):
        with pytest.raises(ValueError):
            grow_network(pattern_set(np.zeros((0, 3)), []), fast_config)


class TestNetworkSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(30)
        hidden = tuple(WeightVector(rng.standard_normal(5)) for _ in range(3))
        output = WeightVector(rng.standard_normal(4))
        model = NetworkModel(hidden=hidden, output=output)
        buf = io.StringIO()
        save_network(model, buf)
        text = buf.getvalue()
        assert text.startswith("H=3\n")
        m2 = load_network(text)
        assert len(m2.hidden) == 3
        for a, b in zip(model.hidden, m2.hidden):
            assert np.array_equal(a.w, b.w)
        assert np.array_equal(model.output.w, m2.output.w)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), H=st.integers(1, 5), dim=st.integers(1, 8))
    def test_roundtrip_is_bitwise(self, data, H, dim):
        def vector(n):
            w = np.array(data.draw(st.lists(st.floats(-1e100, 1e100),
                                            min_size=n, max_size=n)))
            assume(0.0 < np.linalg.norm(w))
            return WeightVector(w)
        model = NetworkModel(hidden=tuple(vector(dim) for _ in range(H)),
                             output=vector(H + 1))
        buf = io.StringIO()
        save_network(model, buf)
        loaded = load_network(buf.getvalue())
        assert len(loaded.hidden) == H
        for a, b in zip((*model.hidden, model.output), (*loaded.hidden, loaded.output)):
            assert b.w.tobytes() == a.w.tobytes()

    def test_header_required(self):
        with pytest.raises(ValueError, match="H="):
            load_network("1.0\n2.0\n")

    @pytest.mark.parametrize("text, message", [
        ("H=+1\n1.0\n2.0\n3.0\n",
         "bad H= header: invalid literal for int() with base 10: '+1'"),
        ("H=1_0\n1.0\n2.0\n3.0\n",
         "bad H= header: invalid literal for int() with base 10: '1_0'"),
        ("H=1\n1.0\n1_0\n3.0\n", "line 3: could not convert string to float: '1_0'"),
        ("H=1\n1.0\n\u0662\n3.0\n",
         "line 3: could not convert string to float: '\u0662'"),
        # a value's line number counts blank lines, as an editor does
        ("\nH=1\n1.0\n\n  \nx\n3.0\n", "line 6: could not convert string to float: 'x'"),
    ], ids=["count-plus", "count-underscore", "value-underscore", "value-non-ascii",
            "value-after-blank-lines"])
    def test_number_outside_the_grammar_rejected(self, text, message):
        with pytest.raises(ValueError) as info:
            load_network(text)
        assert str(info.value) == message

    def test_negative_count_keeps_its_message(self):
        with pytest.raises(ValueError, match="at least one hidden unit"):
            load_network("H=-1\n1.0\n")

    def test_inconsistent_body(self):
        with pytest.raises(ValueError, match="inconsistent"):
            load_network("H=2\n1.0\n2.0\n3.0\n")
