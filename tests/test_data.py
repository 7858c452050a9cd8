import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoplane import (
    ParseError, RawPattern, SplitError, SplitSpec, StatsError,
    compute_stats, default_split, parse_sonar_file, parse_split_file,
    split, standardize,
)
from monoplane.data import _matrix_stats, _standardized, class_counts


def _toy_lines(rows):
    return "\n".join(",".join(str(v) for v in r) for r in rows)


class TestParse:
    def test_benchmark_counts(self, raw_patterns):
        assert len(raw_patterns) == 208
        rocks, mines = class_counts(raw_patterns)
        assert (rocks, mines) == (97, 111)

    def test_mu_is_file_order(self, raw_patterns):
        assert [p.mu for p in raw_patterns] == list(range(1, 209))

    def test_empty_file(self):
        assert parse_sonar_file("") == []
        assert parse_sonar_file("\n\n") == []

    def test_wrong_arity_names_line(self):
        good = ",".join(["0.1"] * 60) + ",R"
        bad = ",".join(["0.1"] * 59) + ",R"
        with pytest.raises(ParseError, match="line 2"):
            parse_sonar_file(good + "\n" + bad)

    def test_unknown_label(self):
        line = ",".join(["0.1"] * 60) + ",Q"
        with pytest.raises(ParseError, match="unknown class label"):
            parse_sonar_file(line)

    def test_case_insensitive_labels(self):
        lines = (",".join(["0.1"] * 60) + ",r\n" + ",".join(["0.2"] * 60) + ",m")
        pats = parse_sonar_file(lines)
        assert [p.label for p in pats] == ["R", "M"]

    def test_range_check_default_and_override(self):
        line = ",".join(["1.5"] + ["0.1"] * 59) + ",R"
        with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
            parse_sonar_file(line)
        pats = parse_sonar_file(line, require_unit_range=False)
        assert pats[0].features[0] == 1.5

    def test_unparseable_number(self):
        line = ",".join(["abc"] + ["0.1"] * 59) + ",R"
        with pytest.raises(ParseError, match="line 1"):
            parse_sonar_file(line)


class TestSplit:
    def test_default_split_indices(self, raw_patterns):
        spec = default_split(raw_patterns)
        train, test = split(raw_patterns, spec)
        assert [p.mu for p in train] == list(range(1, 105))
        assert [p.mu for p in test] == list(range(105, 209))

    def test_balanced_split_reproduces_published_class_table(self, balanced_parts):
        train, test = balanced_parts
        assert class_counts(train) == (55, 49)
        assert class_counts(test) == (42, 62)
        assert len(train) == len(test) == 104

    def test_degenerate_all_train(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset(range(1, 209)),
                         test_indices=frozenset())
        train, test = split(raw_patterns, spec)
        assert len(train) == 208 and test == []

    def test_out_of_range_index(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset([1, 300]),
                         test_indices=frozenset(range(2, 209)))
        with pytest.raises(SplitError, match="300"):
            split(raw_patterns, spec)

    def test_order_preserved(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset([5, 2, 150]),
                         test_indices=frozenset(set(range(1, 209)) - {5, 2, 150}))
        train, _ = split(raw_patterns, spec)
        assert [p.mu for p in train] == [2, 5, 150]

    def test_uncovered_indices_rejected(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset([1]), test_indices=frozenset([2]))
        with pytest.raises(SplitError, match="does not cover"):
            split(raw_patterns, spec)


class TestSplitFile:
    def test_roundtrip(self):
        text = "# comment\n[train]\n1\n2\n[test]\n3\n"
        spec = parse_split_file(text)
        assert spec.train_indices == frozenset({1, 2})
        assert spec.test_indices == frozenset({3})

    def test_index_before_header(self):
        with pytest.raises(ParseError, match="before any"):
            parse_split_file("7\n[train]\n")

    def test_bad_integer(self):
        with pytest.raises(ParseError, match="integer"):
            parse_split_file("[train]\nx7\n")


class TestStats:
    def test_two_point_hand_computation(self):
        rows = [[0.0] * 60 + ["R"], [1.0] * 60 + ["M"]]
        pats = parse_sonar_file(_toy_lines(rows))
        stats = compute_stats(pats)
        assert np.allclose(stats.mean, 0.5)
        assert np.allclose(stats.scale, 0.5)

    def test_variance_mode(self):
        rows = [[0.0] * 60 + ["R"], [1.0] * 60 + ["M"]]
        pats = parse_sonar_file(_toy_lines(rows))
        stats = compute_stats(pats, mode="variance")
        assert np.allclose(stats.scale, 0.25)

    def test_single_pattern_is_constant_feature_error(self):
        rows = [[0.3] * 60 + ["R"]]
        pats = parse_sonar_file(_toy_lines(rows))
        with pytest.raises(StatsError, match="constant feature"):
            compute_stats(pats)

    def test_empty_list(self):
        with pytest.raises(StatsError, match="empty"):
            compute_stats([])

    def test_constant_feature_named(self):
        rows = [[0.5, 0.1] + [0.2] * 58 + ["R"],
                [0.5, 0.9] + [0.7] * 58 + ["M"]]
        pats = parse_sonar_file(_toy_lines(rows))
        with pytest.raises(StatsError, match="1"):
            compute_stats(pats)

    def test_train_stats_roundtrip(self, balanced_parts):
        """Standardizing the learning set with its own stats yields
        per-feature mean 0 and variance 1."""
        train_raw, _ = balanced_parts
        stats = compute_stats(train_raw)
        std = standardize(train_raw, stats)
        Z = np.array([p.xi[1:] for p in std])
        assert np.max(np.abs(Z.mean(axis=0))) < 1e-12
        assert np.max(np.abs(Z.var(axis=0) - 1.0)) < 1e-10


class TestStandardize:
    def test_bias_coordinate(self, balanced_parts):
        train_raw, _ = balanced_parts
        stats = compute_stats(train_raw)
        for p in standardize(train_raw, stats):
            assert p.xi[0] == 1.0

    def test_label_mapping_and_flip(self, raw_patterns, all_std):
        _, stats = all_std
        std = standardize(raw_patterns[:1], stats)
        assert std[0].tau == +1           # first benchmark pattern is a rock
        flipped = standardize(raw_patterns[:1], stats, flip_labels=True)
        assert flipped[0].tau == -1

    def test_feature_at_mean_maps_to_zero(self):
        rows = [[0.2] * 60 + ["R"], [0.8] * 60 + ["M"], [0.5] * 60 + ["R"]]
        pats = parse_sonar_file(_toy_lines(rows))
        stats = compute_stats(pats)
        std = standardize(pats, stats)
        assert np.allclose(std[2].xi[1:], 0.0)

    def test_dimension_mismatch(self, all_std):
        _, stats = all_std
        bad = RawPattern(mu=1, features=(0.1, 0.2), label="R")
        with pytest.raises(StatsError, match="features"):
            standardize([bad], stats)

    def test_test_part_means_nonzero_under_train_stats(self, test_std_train_stats):
        """Statistics come from the learning set only, so the held-out part
        is generally not centered."""
        Z = np.array([p.xi[1:] for p in test_std_train_stats])
        assert np.max(np.abs(Z.mean(axis=0))) > 1e-3


class TestArrayStandardization:
    """The array helpers behind ``compute_stats`` and ``standardize`` give the
    bits of the matrix statistics and of the per-pattern z-score."""

    @staticmethod
    def _reference_stats(rows, mode):
        X = np.array(rows, dtype=float)
        mean = X.mean(axis=0)
        var = ((X - mean) ** 2).mean(axis=0)
        return mean, (np.sqrt(var) if mode == "std" else var)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), P=st.integers(2, 30), n=st.integers(1, 8),
           mode=st.sampled_from(("std", "variance")), flip=st.booleans())
    def test_matches_per_pattern_formula(self, data, P, n, mode, flip):
        rows = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            min_size=P, max_size=P))
        labels = data.draw(st.lists(st.sampled_from("RM"), min_size=P, max_size=P))
        pats = [RawPattern(mu=k + 1, features=tuple(r), label=lab)
                for k, (r, lab) in enumerate(zip(rows, labels))]
        mean, scale = self._reference_stats(rows, mode)
        zeros = np.flatnonzero(scale == 0.0)
        if zeros.size:
            message = (f"constant feature(s) {', '.join(str(i + 1) for i in zeros)}: "
                       f"scale would be zero")
            for fn in (lambda: compute_stats(pats, mode=mode),
                       lambda: _matrix_stats(np.array(rows), mode)):
                with pytest.raises(StatsError) as exc:
                    fn()
                assert str(exc.value) == message
            return
        stats = compute_stats(pats, mode=mode)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.scale.tobytes() == scale.tobytes()
        Xi = _standardized(np.array(rows), stats)
        std = standardize(pats, stats, flip_labels=flip)
        for k, (p, q) in enumerate(zip(pats, std)):
            xi = np.empty(n + 1)
            xi[0] = 1.0
            xi[1:] = (np.asarray(p.features) - stats.mean) / stats.scale
            assert q.xi.tobytes() == xi.tobytes() == Xi[k].tobytes()
            tau = +1 if p.label == "R" else -1
            assert (q.mu, q.tau) == (p.mu, -tau if flip else tau)

    @pytest.mark.parametrize("mode", ("std", "variance"))
    def test_constant_feature_message(self, mode):
        pats = [RawPattern(mu=1, features=(0.5, 0.1, 0.3), label="R"),
                RawPattern(mu=2, features=(0.5, 0.9, 0.3), label="M")]
        with pytest.raises(StatsError) as exc:
            compute_stats(pats, mode=mode)
        assert str(exc.value) == "constant feature(s) 1, 3: scale would be zero"

    def test_feature_count_mismatch_message(self):
        pats = [RawPattern(mu=1, features=(0.1, 0.2), label="R"),
                RawPattern(mu=2, features=(0.9, 0.4), label="M")]
        stats = compute_stats(pats)
        bad = pats + [RawPattern(mu=3, features=(0.1, 0.2, 0.3), label="R")]
        with pytest.raises(StatsError) as exc:
            standardize(bad, stats)
        assert str(exc.value) == "pattern mu=3 has 3 features, stats cover 2"

    def test_empty_part_standardizes_to_nothing(self, all_std):
        _, stats = all_std
        assert standardize([], stats) == []
