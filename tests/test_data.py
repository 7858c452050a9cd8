import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monoplane import (
    LabeledPattern, ParseError, PatternSet, RawSet, SplitError, SplitSpec,
    StandardizationStats, StatsError, TrainingConfig, compute_stats, load_file,
    load_split_file, parse_sonar_file, parse_split_file, split, standardize,
)
from monoplane.data import read_number


def _toy_lines(rows):
    return "\n".join(",".join(str(v) for v in r) for r in rows)


def _class_counts(raw):
    """(rocks, mines) tally of a RawSet."""
    rocks = int(np.count_nonzero(raw.tau == 1))
    return rocks, len(raw) - rocks


def _raw_set(rows, labels):
    """A RawSet of feature rows and "R"/"M" labels, numbered from 1."""
    return RawSet(X=np.array(rows, dtype=float).reshape(len(rows), -1),
                  tau=np.array([1 if lab == "R" else -1 for lab in labels]),
                  mu=np.arange(1, len(rows) + 1))


_LABEL_TAU = {"R": +1, "ROCK": +1, "M": -1, "MINE": -1}


def _reference_float(p):
    """Python's ``float`` of ``p``, which must hold no underscore and no
    non-ASCII digit."""
    if "_" in p or any(c.isdecimal() and not c.isascii() for c in p):
        raise ValueError(f"could not convert string to float: {p!r}")
    return float(p)


def _reference_parse(lines, require_unit_range=True):
    """The line-at-a-time parser that ``parse_sonar_file`` must agree with:
    the same RawSet bits, or a ParseError with the same text. The value
    count of the first pattern line is the one every line must have. Each
    pass names the first line that fails it: the field count and the label,
    then the numbers, then the values."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    n_features, body = 0, []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if not n_features:
            n_features = len(parts) - 1
            if not n_features:
                raise ParseError(f"line {lineno}: no value before the label")
        if len(parts) != n_features + 1:
            raise ParseError(
                f"line {lineno}: expected {n_features} values plus a label, "
                f"got {len(parts)} fields"
            )
        tau = _LABEL_TAU.get(parts[-1].upper())
        if tau is None:
            raise ParseError(f"line {lineno}: unknown class label {parts[-1]!r}")
        body.append((lineno, parts[:-1], tau))
    rows = []
    for lineno, parts, _ in body:
        try:
            rows.append([_reference_float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: unparseable number ({exc})") from None
    for (lineno, _, _), values in zip(body, rows):
        for i, v in enumerate(values):
            if require_unit_range and not 0.0 <= v <= 1.0:
                raise ParseError(
                    f"line {lineno}: feature {i + 1} value {v} outside [0, 1] "
                    f"(pass require_unit_range=False to accept)"
                )
            if not require_unit_range and not math.isfinite(v):
                raise ParseError(f"line {lineno}: feature {i + 1} value {v} "
                                 f"is not finite")
    return RawSet(X=np.array(rows, dtype=float).reshape(len(rows), n_features),
                  tau=np.array([tau for _, _, tau in body], dtype=int),
                  mu=np.arange(1, len(rows) + 1))


_PAD = st.sampled_from(["", " ", "\t", "  ", " \t"])
_VALUE = st.one_of(
    st.floats(0.0, 1.0).map(lambda v: f"{v:.4f}"),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "+.5", "1e-1", "0.0", "-0.0", "1.0"]),
)
_LABEL = st.sampled_from(["R", "M", "r", "m", "rock", "mine", " Mine ", "ROCK"])
# tokens that one check or another rejects; underscores and non-ASCII digits
# are the numbers that Python's float reads and the parser does not
_BAD_VALUE = st.one_of(
    st.sampled_from(["0.1_5", "abc", "", "nan", "inf", "-inf", "1.0001", "0.1#2",
                     "#0.1", "-0.5", "1e400", "0x1p-1", "0.5 0.5", '"0.5"',
                     "\u00a00.5", "\u0660.5", "0.5\x00", "Infinity", "+nan"]),
    st.text(alphabet="0123456789.+-eE_ \t\x0b\x0c\xa0#naifINF\"", max_size=6),
)


@st.composite
def _sonar_file(draw):
    """A well-formed benchmark file's lines with blank lines mixed in,
    then at most one defect in one of its pattern lines."""
    n = draw(st.one_of(st.integers(1, 6), st.just(60)))
    # a row repeats up to 6 drawn cells, which keeps 60-feature files cheap
    cells = st.lists(st.tuples(_PAD, _VALUE, _PAD).map("".join),
                     min_size=1, max_size=min(n, 6))
    rows = draw(st.lists(st.tuples(
        cells.map(lambda c: [c[i % len(c)] for i in range(n)]), _LABEL), max_size=6))
    defect = draw(st.sampled_from([None, "extra", "missing", "label", "value"])
                  if rows else st.none())
    if defect is not None:
        k = draw(st.integers(0, len(rows) - 1))
        values, label = rows[k]
        if defect == "extra":
            values = values + ["0.5"]
        elif defect == "missing":
            values = values[:-1]
        elif defect == "label":
            label = draw(st.sampled_from(["Q", "", "rocks", "R M", "1"]))
        else:
            values = list(values)
            field = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
            values[field] = draw(_BAD_VALUE)
        rows[k] = values, label
    lines = [",".join(values + [label]) for values, label in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", "  \t "])))
    return lines


def _outcome(parse, lines, kind, require_unit_range):
    """A parse of ``lines`` passed as a str, a list or an open file, as
    comparable values: the RawSet's bits or the ParseError's text."""
    source = {"str": lambda: "\n".join(lines),
              "list": lambda: list(lines),
              "file": lambda: io.StringIO("".join(f"{line}\n" for line in lines))}[kind]()
    try:
        raw = parse(source, require_unit_range=require_unit_range)
    except ParseError as exc:
        return "ParseError", str(exc)
    return (raw.X.shape, raw.X.dtype, raw.X.view(np.int64).tolist(),
            raw.tau.tolist(), raw.mu.tolist())


class TestParse:
    def test_benchmark_counts(self, raw_patterns):
        assert len(raw_patterns) == 208
        rocks, mines = _class_counts(raw_patterns)
        assert (rocks, mines) == (97, 111)
        assert raw_patterns.X.shape == (208, 60)

    def test_mu_is_file_order(self, raw_patterns):
        assert raw_patterns.mu.tolist() == list(range(1, 209))

    @pytest.mark.filterwarnings("error")
    def test_empty_file(self):
        """A file with no pattern line has width 0."""
        for text in ("", "\n\n"):
            raw = parse_sonar_file(text)
            assert len(raw) == 0 and raw.X.shape == (0, 0)

    def test_bare_labels_name_line_1(self):
        with pytest.raises(ParseError) as info:
            parse_sonar_file("R\nM\n")
        assert str(info.value) == "line 1: no value before the label"

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
        assert pats.tau.tolist() == [1, -1]

    def test_range_check_default_and_override(self):
        line = ",".join(["1.5"] + ["0.1"] * 59) + ",R"
        with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
            parse_sonar_file(line)
        pats = parse_sonar_file(line, require_unit_range=False)
        assert pats.X[0, 0] == 1.5

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_feature_rejected_in_any_range(self, value):
        line = ",".join(["0.1", "0.2", value] + ["0.1"] * 57) + ",R"
        with pytest.raises(ParseError) as exc:
            parse_sonar_file("\n" + line, require_unit_range=False)
        assert str(exc.value) == (f"line 2: feature 3 value {float(value)} "
                                  f"is not finite")
        # the unit-range check rejects it with its own message
        with pytest.raises(ParseError, match=r"line 2: feature 3 .* outside \[0, 1\]"):
            parse_sonar_file("\n" + line)

    def test_unparseable_number(self):
        line = ",".join(["abc"] + ["0.1"] * 59) + ",R"
        with pytest.raises(ParseError, match="line 1"):
            parse_sonar_file(line)

    @pytest.mark.parametrize("token", [
        "0.1_5", "abc", "", "nan", "inf", "-inf", "1.0001", "0.1#2", "0.5 #",
        "#0.1", "1e400", "-0.0", " +.5\t"])
    def test_each_bad_value_matches_line_loop(self, token):
        """One token in the first, a middle or the last field of one line:
        the same outcome as the reference loop in every mode and input kind."""
        good = ["0.25,0.5,0.75,R", "", "1,0,0.125, mine"]
        for field in range(3):
            values = good[2].split(",")
            values[field] = token
            lines = good[:2] + [",".join(values)] + good[:1]
            for require_unit_range in (True, False):
                for kind in ("str", "list", "file"):
                    assert (_outcome(parse_sonar_file, lines, kind, require_unit_range)
                            == _outcome(_reference_parse, lines, kind,
                                        require_unit_range))

    @pytest.mark.parametrize("lines, message", [
        (["abc,0.5,R", "0.5,0.5,Q"], "line 2: unknown class label 'Q'"),
        (["abc,0.5,R", "0.5,R"], "line 2: expected 2 values plus a label, got 2 fields"),
        (["1.5,0.5,R", "0.5, 0.1_5 ,R"], "line 2: unparseable number "
                                         "(could not convert string to float: '0.1_5')"),
        (["0.5,-1,R", "2,0.5,R"], "line 1: feature 2 value -1.0 outside [0, 1] "
                                  "(pass require_unit_range=False to accept)"),
    ], ids=["label", "fields", "number", "range"])
    def test_each_pass_names_its_first_line(self, lines, message):
        """A later line's defect is named first when an earlier pass checks
        it: fields and labels, then numbers, then values."""
        for parse in (parse_sonar_file, _reference_parse):
            with pytest.raises(ParseError) as info:
                parse(lines)
            assert str(info.value) == message

    @pytest.mark.parametrize("token", ["0.1_5", "\u0660.5", "1\u0663"])
    def test_float_only_numbers_rejected(self, token):
        """Underscores and non-ASCII digits are not numbers here, although
        Python's float reads them."""
        float(token)
        with pytest.raises(ParseError) as info:
            parse_sonar_file(["0.25,0.5,R", f"0.5,{token},M"])
        assert str(info.value) == (f"line 2: unparseable number (could not "
                                   f"convert string to float: {token!r})")

    def test_embedded_newline_names_its_line(self):
        """A list item that holds a line break inside its label field passes
        the label check, and the reader's rejection still names it."""
        with pytest.raises(ParseError, match=r"^line 2: .*embedded newline"):
            parse_sonar_file(["0.25,0.5,R", "0.5,0.5,\nM"])

    @settings(max_examples=200, deadline=None)
    @given(lines=_sonar_file(), kind=st.sampled_from(["str", "list", "file"]),
           require_unit_range=st.booleans())
    # a str is split at a form feed too, so its first line ends at the comma
    @example(lines=[",".join(["0.0000"] * 59 + ["\x0c", "R"])], kind="str",
             require_unit_range=False)
    def test_matches_line_loop(self, lines, kind, require_unit_range):
        """Every file gives the reference loop's RawSet bits or ParseError
        text."""
        assert (_outcome(parse_sonar_file, lines, kind, require_unit_range)
                == _outcome(_reference_parse, lines, kind, require_unit_range))

    @pytest.mark.parametrize("load", [
        lambda path: load_file(path), load_split_file, TrainingConfig.from_file])
    def test_non_utf8_file_named(self, tmp_path, load):
        """Each loader names the file of a fault: bytes that are not UTF-8,
        and a line that its parser rejects (line 2, "%", rejects in all
        three)."""
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff[train]\n1\n0.5,0.5,R\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: not a UTF-8 text file"
        path.write_text("\n%\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: line 2: ")

    def test_canonical_file_takes_c_reader(self, sonar_path):
        """Read in one numpy call, the canonical file's parse peaks well
        below the line loop's, whose per-line float lists outlive the loop
        beside the finished matrix."""
        load_file(sonar_path)
        tracemalloc.start()
        try:
            raw = load_file(sonar_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * raw.X.nbytes


class TestSplit:
    def test_balanced_split_reproduces_published_class_table(self, balanced_parts):
        train, test = balanced_parts
        assert _class_counts(train) == (55, 49)
        assert _class_counts(test) == (42, 62)
        assert len(train) == len(test) == 104

    def test_degenerate_all_train(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset(range(1, 209)),
                         test_indices=frozenset())
        train, test = split(raw_patterns, spec)
        assert len(train) == 208 and len(test) == 0

    def test_out_of_range_index(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset([1, 300]),
                         test_indices=frozenset(range(2, 209)))
        with pytest.raises(SplitError, match="300"):
            split(raw_patterns, spec)

    def test_order_preserved(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset([5, 2, 150]),
                         test_indices=frozenset(set(range(1, 209)) - {5, 2, 150}))
        train, _ = split(raw_patterns, spec)
        assert train.mu.tolist() == [2, 5, 150]

    def test_uncovered_indices_rejected(self, raw_patterns):
        spec = SplitSpec(train_indices=frozenset([1]), test_indices=frozenset([2]))
        with pytest.raises(SplitError, match="does not cover"):
            split(raw_patterns, spec)

    def test_subset_with_gaps_in_mu(self, raw_patterns):
        """On a ``take``n subset, whose mu skips numbers and is not sorted,
        each part holds its rows in the subset's row order, and an index
        the subset lacks is named although the full file has it."""
        subset = raw_patterns.take([199, 4, 0, 57, 206])   # mu 200, 5, 1, 58, 207
        train, test = split(subset, SplitSpec(train_indices=frozenset([1, 200, 207]),
                                              test_indices=frozenset([5, 58])))
        assert train.mu.tolist() == [200, 1, 207]
        assert test.mu.tolist() == [5, 58]
        for part in (train, test):
            k = part.mu - 1
            assert part.X.tobytes() == raw_patterns.X[k].tobytes()
            assert part.tau.tobytes() == raw_patterns.tau[k].tobytes()
        with pytest.raises(SplitError) as info:
            split(subset, SplitSpec(train_indices=frozenset([1, 2, 200]),
                                    test_indices=frozenset([5, 58, 207])))
        assert str(info.value) == "split references indices outside the dataset: [2]"


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

    @pytest.mark.parametrize("token", ["1_0", "+2", "٣", "-3", "１２"])
    def test_only_ascii_decimal_indices(self, token):
        """An index is ASCII digits only, although Python's int reads
        underscores, signs and other scripts' digits (fullwidth "１２" passes
        ``isdigit`` but not ``isascii``)."""
        with pytest.raises(ParseError) as info:
            parse_split_file(f"[train]\n1\n{token}\n")
        assert str(info.value) == f"line 3: expected an integer index, got {token!r}"

    @pytest.mark.parametrize("line, index", [
        ("12", 12), ("  12\t", 12), (" 12  # twelve", 12), ("12#", 12), ("007", 7),
        (" １２ # fullwidth", None), ("+2 # signed", None),
    ])
    def test_index_line_in_a_section(self, line, index):
        """An index line inside a section reads the same with or without
        spaces around it and a trailing comment; a rejected one is named
        without its comment."""
        text = f"[test]\n3\n[train]\n{line}\n"
        if index is None:
            with pytest.raises(ParseError) as info:
                parse_split_file(text)
            token = line.split("#")[0].strip()
            assert str(info.value) == f"line 4: expected an integer index, got {token!r}"
        else:
            assert parse_split_file(text) == SplitSpec(train_indices=frozenset([index]),
                                                       test_indices=frozenset([3]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), P=st.integers(1, 40), n=st.integers(1, 4))
    def test_partition_round_trip(self, data, P, n):
        """A partition of 1..P written as a split file, with comments and
        blank lines, parses back to itself, and ``split`` selects exactly
        its rows of the source set in file order."""
        in_train = data.draw(st.lists(st.booleans(), min_size=P, max_size=P))
        want = {"train": [m for m in range(1, P + 1) if in_train[m - 1]],
                "test": [m for m in range(1, P + 1) if not in_train[m - 1]]}
        filler = st.sampled_from(("", "   ", "# a comment", "  # indented"))
        lines = [data.draw(filler)]
        for section in data.draw(st.permutations(("train", "test"))):
            lines.append(data.draw(st.sampled_from(
                (f"[{section}]", f"[ {section.upper()} ]", f"[{section}]  # part"))))
            for m in data.draw(st.permutations(want[section])):
                lines.append(data.draw(st.sampled_from((f"{m}", f"  {m}  # mu"))))
                lines.append(data.draw(filler))
        spec = parse_split_file("\n".join(lines))
        assert spec == SplitSpec(train_indices=frozenset(want["train"]),
                                 test_indices=frozenset(want["test"]))

        rows = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                                  min_size=P, max_size=P))
        labels = data.draw(st.lists(st.sampled_from("RM"), min_size=P, max_size=P))
        raw = parse_sonar_file(_toy_lines([[*r, lab] for r, lab in zip(rows, labels)]))
        source = np.array(rows, dtype=float)
        for part, name in zip(split(raw, spec), ("train", "test")):
            assert part.mu.tolist() == want[name]
            k = np.array(want[name], dtype=int) - 1
            assert part.X.shape == (len(k), n)
            assert part.X.tobytes() == source[k].tobytes()
            assert part.tau.tobytes() == raw.tau[k].tobytes()
            for j, row in enumerate(part):
                m = want[name][j]
                assert type(row.mu) is int and row.mu == m
                assert row.label == labels[m - 1] == ("R" if part.tau[j] == 1 else "M")
                assert row.features == tuple(rows[m - 1])


class TestReadNumber:
    @pytest.mark.parametrize("token, cast, value", [
        (" 0.25 ", float, 0.25), ("+1e-3", float, 1e-3), ("-inf", float, -math.inf),
        ("7", int, 7), ("-1", int, -1),
    ])
    def test_accepted(self, token, cast, value):
        got = read_number(token, cast)
        assert type(got) is cast and got == value

    @pytest.mark.parametrize("token, cast", [
        ("1_0", float), ("\u0661", float), ("0.\u0665", float),
        ("1_000", int), ("\u0663", int), ("+1", int), ("1e5", int), ("", int),
    ])
    def test_rejected_naming_the_token(self, token, cast):
        """What ``float`` or ``int`` would read beyond the grammar is
        rejected with their own message for a token they cannot read."""
        message = ("could not convert string to float" if cast is float
                   else "invalid literal for int() with base 10")
        with pytest.raises(ValueError) as info:
            read_number(token, cast)
        assert str(info.value) == f"{message}: {token!r}"


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
        with pytest.raises(StatsError, match="^unknown scale mode 'range'$"):
            compute_stats(pats, mode="range")

    def test_single_pattern_is_constant_feature_error(self):
        rows = [[0.3] * 60 + ["R"]]
        pats = parse_sonar_file(_toy_lines(rows))
        with pytest.raises(StatsError, match="constant feature"):
            compute_stats(pats)

    def test_empty_list(self):
        with pytest.raises(StatsError, match="empty"):
            compute_stats(parse_sonar_file(""))

    def test_constant_feature_named(self):
        rows = [[0.5, 0.1] + [0.2] * 58 + ["R"],
                [0.5, 0.9] + [0.7] * 58 + ["M"]]
        pats = parse_sonar_file(_toy_lines(rows))
        with pytest.raises(StatsError, match="1"):
            compute_stats(pats)

    @pytest.mark.parametrize("mode", ("std", "variance"))
    def test_overflowing_feature_named(self, mode):
        """A sum past the float64 range is an error, not an inf scale."""
        pats = parse_sonar_file("1e308,0.5,R\n1e308,0.25,M\n"
                                "-1e308,0.75,R\n1e308,0.1,M\n",
                                require_unit_range=False)
        with pytest.raises(StatsError, match=r"^feature\(s\) 1: mean or "
                                             r"scale is not finite$"):
            compute_stats(pats, mode=mode)

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
        first = raw_patterns.take(slice(1))
        std = standardize(first, stats)
        assert std[0].tau == +1           # first benchmark pattern is a rock
        flipped = standardize(RawSet(first.X, -first.tau, first.mu), stats)
        assert flipped[0].tau == -1       # labels pass through as they are

    def test_feature_at_mean_maps_to_zero(self):
        rows = [[0.2] * 60 + ["R"], [0.8] * 60 + ["M"], [0.5] * 60 + ["R"]]
        pats = parse_sonar_file(_toy_lines(rows))
        stats = compute_stats(pats)
        std = standardize(pats, stats)
        assert np.allclose(std[2].xi[1:], 0.0)

    def test_dimension_mismatch(self, all_std):
        _, stats = all_std
        bad = _raw_set([(0.1, 0.2)], "R")
        with pytest.raises(StatsError, match="features"):
            standardize(bad, stats)

    @pytest.mark.parametrize("mean, scale, value", [
        (0.2, 0.1, 1e308),          # the division overflows
        (-1e308, 1.0, 1.5e308),     # the subtraction overflows
    ], ids=["divide", "subtract"])
    def test_overflowing_value_named(self, mean, scale, value):
        """A value far outside the statistics is a StatsError naming its
        pattern and feature, not an infinite coordinate and a
        RuntimeWarning."""
        stats = StandardizationStats(mean=np.array([0.5, mean]),
                                     scale=np.array([0.25, scale]))
        raw = _raw_set([(0.1, 0.3), (0.2, value), (0.3, value)], "RMR")
        with pytest.raises(StatsError) as info:
            standardize(raw, stats)
        assert str(info.value) == (f"pattern mu=2: feature 2 value {value!r} "
                                   "does not standardize to a finite number")

    def test_test_part_means_nonzero_under_train_stats(self, test_std_train_stats):
        """Statistics come from the learning set only, so the held-out part
        is generally not centered."""
        Z = np.array([p.xi[1:] for p in test_std_train_stats])
        assert np.max(np.abs(Z.mean(axis=0))) > 1e-3


class TestArrayStandardization:
    """``compute_stats`` and ``standardize`` give the bits of the matrix
    statistics and of the per-pattern z-score."""

    @staticmethod
    def _reference_stats(rows, mode):
        X = np.array(rows, dtype=float)
        mean = X.mean(axis=0)
        var = ((X - mean) ** 2).mean(axis=0)
        return mean, (np.sqrt(var) if mode == "std" else var)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), P=st.integers(2, 30), n=st.integers(1, 8),
           mode=st.sampled_from(("std", "variance")))
    def test_matches_per_pattern_formula(self, data, P, n, mode):
        rows = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            min_size=P, max_size=P))
        labels = data.draw(st.lists(st.sampled_from("RM"), min_size=P, max_size=P))
        pats = _raw_set(rows, labels)
        mean, scale = self._reference_stats(rows, mode)
        zeros = np.flatnonzero(scale == 0.0)
        if zeros.size:
            message = (f"constant feature(s) {', '.join(str(i + 1) for i in zeros)}: "
                       f"scale would be zero")
            with pytest.raises(StatsError) as exc:
                compute_stats(pats, mode=mode)
            assert str(exc.value) == message
            return
        stats = compute_stats(pats, mode=mode)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.scale.tobytes() == scale.tobytes()
        std = standardize(pats, stats)
        assert len(std) == P
        for k, (r, lab, q) in enumerate(zip(rows, labels, std)):
            xi = np.empty(n + 1)
            xi[0] = 1.0
            xi[1:] = (np.asarray(r, dtype=float) - stats.mean) / stats.scale
            assert q.xi.tobytes() == xi.tobytes()
            tau = +1 if lab == "R" else -1
            assert (q.mu, q.tau) == (k + 1, tau)

    @pytest.mark.parametrize("mode", ("std", "variance"))
    def test_constant_feature_message(self, mode):
        pats = _raw_set([(0.5, 0.1, 0.3), (0.5, 0.9, 0.3)], "RM")
        with pytest.raises(StatsError) as exc:
            compute_stats(pats, mode=mode)
        assert str(exc.value) == "constant feature(s) 1, 3: scale would be zero"

    def test_feature_count_mismatch_message(self):
        pats = _raw_set([(0.1, 0.2), (0.9, 0.4)], "RM")
        stats = compute_stats(pats)
        # a raw set is one matrix, so the width mismatch is the whole set's
        bad = _raw_set([(0.1, 0.2, 0.3)], "R")
        with pytest.raises(StatsError) as exc:
            standardize(bad, stats)
        assert str(exc.value) == "patterns have 3 features, stats cover 2"

    def test_empty_part_standardizes_to_nothing(self, raw_patterns, all_std):
        _, stats = all_std
        assert len(standardize(raw_patterns.take([]), stats)) == 0


class TestPatternSet:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), P=st.integers(1, 30), n=st.integers(0, 8))
    def test_rows_round_trip(self, data, P, n):
        """Rows repack to the same bits, carry Python int mu and tau, and
        each folded row is exactly tau * xi."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        X = data.draw(st.lists(st.lists(finite, min_size=n, max_size=n),
                               min_size=P, max_size=P))
        Xi = np.column_stack([np.ones(P), np.array(X, dtype=float).reshape(P, n)])
        tau = np.array(data.draw(st.lists(st.sampled_from((-1, 1)),
                                          min_size=P, max_size=P)), dtype=int)
        mu = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=P,
                                         max_size=P, unique=True)), dtype=int)
        ps = PatternSet(Xi, tau, mu)
        assert PatternSet.of(ps) is ps
        rows = list(ps)
        assert len(rows) == len(ps) == P
        again = PatternSet.of(rows)
        for a, b in ((again.Xi, Xi), (again.tau, tau), (again.mu, mu)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        for k, row in enumerate(rows):
            assert type(row.mu) is int and type(row.tau) is int
            assert (row.mu, row.tau) == (mu[k], tau[k])
            assert ps.folded[k].tobytes() == (row.tau * row.xi).tobytes()

    @pytest.mark.parametrize("xi0, tau, message", [
        (0.5, 1, "xi[0] must be exactly 1"),
        (1.0, 0, "tau must be -1 or +1"),
    ], ids=["bias", "label"])
    def test_row_checks(self, xi0, tau, message):
        """A row has the bias coordinate 1 and a label of -1 or +1."""
        with pytest.raises(ValueError) as exc:
            LabeledPattern(mu=7, xi=np.array([xi0, 0.25]), tau=tau)
        assert str(exc.value) == f"pattern mu=7: {message}"
