import argparse
import io
import json
import platform
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from monoplane import (
    TrainingConfig, cli, compute_stats, count_errors, evaluate, evaluation,
    load_file,
    load_published_table, load_split_file, load_weights, minimerror_train,
    save_weights, split, standardize, verify_published, verify_text,
)
from monoplane.cli import _blas_build, build_parser, main

from conftest import random_balanced_split

FAST_CFG = "t_initial=1.0\nt_min=1e-3\nt_decay=0.99\nlearning_rate=0.05\nmax_epochs=2000\n"


@pytest.fixture()
def fast_cfg_path(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG)
    return str(p)


def run(args):
    return main(args)


class TestTrain:
    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        assert run(["train", "--dataset", str(path),
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --dataset: {path}: No such file or directory\n")

    def test_no_dataset_anywhere_exit_2(self, sonar_path, tmp_path, capsys,
                                        monkeypatch):
        """--dataset is the one source of the dataset: without it, a command
        is an argparse usage error that writes nothing, whatever
        ``$MONOPLANE_DATA`` holds."""
        monkeypatch.setenv("MONOPLANE_DATA", str(sonar_path))
        out = tmp_path / "o"
        for command in ("train", "verify"):
            with pytest.raises(SystemExit) as info:
                run([command, "--out", str(out)])
            assert info.value.code == 2
            assert "--dataset" in capsys.readouterr().err
            assert not out.exists()

    def test_artifacts_and_manifest(self, sonar_path, balanced_split_path,
                                    tmp_path):
        cfg = tmp_path / "seed3.cfg"
        cfg.write_text(FAST_CFG + "seed=3\n")
        out = tmp_path / "o"
        rc = run(["train", "--dataset", str(sonar_path),
                  "--split-file", str(balanced_split_path),
                  "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        for name in ("weights.txt", "trace.csv", "report.json", "manifest.json"):
            assert (out / name).exists(), name
        m = json.loads((out / "manifest.json").read_text())
        assert m["command"] == "train"
        assert m["split_source"] == str(balanced_split_path)
        assert m["config"]["seed"] == 3 and "seed" not in m
        assert m["config"]["max_epochs"] == 2000
        assert len(m["dataset_sha256"]) == 64
        assert m["python"] == platform.python_version()
        assert m["numpy"] == np.__version__
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert m["blas"] == f"{blas['name']} {blas['version']}"
        rep = json.loads((out / "report.json").read_text())
        assert rep["learning_set_size"] == 104
        assert "generalization" in rep
        assert rep["generalization"]["counts"]["total"] == len(
            rep["generalization"]["records"])

    def test_blas_is_none_when_numpy_does_not_expose_it(self, monkeypatch):
        monkeypatch.setattr(np.__config__, "CONFIG", {}, raising=False)
        assert _blas_build() is None

    def test_part_all_has_no_generalization(self, sonar_path, tmp_path,
                                            fast_cfg_path):
        out = tmp_path / "o"
        rc = run(["train", "--dataset", str(sonar_path), "--part", "all",
                  "--config", fast_cfg_path, "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["learning_set_size"] == 208
        assert "generalization" not in rep

    def test_byte_reproducibility(self, sonar_path, balanced_split_path,
                                  tmp_path, fast_cfg_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = run(["train", "--dataset", str(sonar_path),
                      "--split-file", str(balanced_split_path),
                      "--config", fast_cfg_path, "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for name in ("weights.txt", "trace.csv", "report.json", "manifest.json"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_malformed_dataset_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2,R\n0.3,M\n")
        assert run(["train", "--dataset", str(bad),
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --dataset: {bad}: line 2: expected 2 values plus a "
            "label, got 2 fields\n")

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_feature_exit_2(self, tmp_path, capsys, value):
        """--any-range lifts the [0, 1] check, not the finiteness check."""
        data = tmp_path / "bad.csv"
        data.write_text(f"0.1,{value},R\n0.3,0.4,M\n")
        out = tmp_path / "o"
        assert run(["train", "--dataset", str(data), "--any-range",
                    "--part", "all", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad --dataset: {data}: line 1: feature 2 ")
        assert "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ("train", "grow"))
    def test_overflowing_statistics_exit_2(self, tmp_path, capsys, command):
        """Finite values whose mean overflows are a usage error of
        --dataset, named by feature, not a traceback."""
        data = tmp_path / "big.csv"
        data.write_text("1e308,0.5,R\n1e308,0.25,M\n-1e308,0.75,R\n1e308,0.1,M\n")
        out = tmp_path / "o"
        assert run([command, "--dataset", str(data), "--any-range",
                    "--part", "all", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: bad --dataset: {data}: "
                                       "feature(s) 1: mean or scale is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ("train", "grow"))
    def test_held_out_value_overflowing_exit_2(self, tmp_path, capsys, command):
        """A held-out value that standardizes to infinity is a usage error
        of --dataset named by pattern and feature, and nothing is written."""
        data = tmp_path / "ov.csv"
        data.write_text("0.1,0.5,R\n0.2,0.25,M\n0.3,0.75,R\n1e308,0.1,M\n")
        split_file = tmp_path / "ov.split"
        split_file.write_text("[train]\n1\n2\n3\n[test]\n4\n")
        out = tmp_path / "o"
        assert run([command, "--dataset", str(data), "--split-file", str(split_file),
                    "--any-range", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: bad --dataset: {data}: pattern "
                                       "mu=4: feature 1 value 1e+308 does not "
                                       "standardize to a finite number\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("bogus=1", "line 6: unknown config key 'bogus'"),
        ("t_decay=2", "need 0 < t_decay < 1"),
        ("learning_rate = nan", "need a finite learning_rate, got nan"),
        ("max_epochs = 1e5", "line 6: bad max_epochs: invalid literal for "
                             "int() with base 10: '1e5'"),
        ("seed = true", "line 6: bad seed: invalid literal for int() "
                        "with base 10: 'true'"),
        ("seed = -1", "need seed >= 0"),
        ("max_epochs = 1_000", "line 6: bad max_epochs: invalid literal for "
                               "int() with base 10: '1_000'"),
        ("t_initial = \u0663", "line 6: bad t_initial: could not convert "
                               "string to float: '\u0663'"),
    ], ids=["unknown-key", "bad-value", "non-finite", "bad-int", "bad-seed",
            "negative-seed", "underscore-int", "non-ascii-float"])
    def test_bad_config_file_exit_2(self, sonar_path, balanced_split_path,
                                    tmp_path, capsys, line, message):
        # the line under test sets its key once: FAST_CFG's line for that
        # key is left blank, so the line under test stays line 6
        key = line.split("=")[0].strip()
        base = "".join("\n" if ln.split("=")[0] == key else ln + "\n"
                       for ln in FAST_CFG.splitlines())
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(base + line + "\n", encoding="utf-8")
        assert run(["train", "--dataset", str(sonar_path), "--split-file",
                    str(balanced_split_path), "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: bad --config: {cfg}: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ("train", "grow"))
    def test_repeated_config_key_exit_2(self, sonar_path, balanced_split_path,
                                        tmp_path, capsys, command):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("max_epochs=5\nmax_epochs=7\n")
        out = tmp_path / "o"
        assert run([command, "--dataset", str(sonar_path), "--split-file",
                    str(balanced_split_path), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: bad --config: {cfg}: line 2: "
                                       "duplicate config key 'max_epochs'\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad, command", [
        ("dataset", "train"), ("dataset", "verify"), ("split", "train"),
        ("split", "verify"), ("config", "train"),
    ])
    def test_non_utf8_input_exit_2(self, sonar_path, balanced_split_path,
                                   fast_cfg_path, tmp_path, capsys, command, bad):
        paths = {"dataset": sonar_path, "split": balanced_split_path,
                 "config": Path(fast_cfg_path)}
        source, paths[bad] = paths[bad], tmp_path / f"{bad}.bin"
        paths[bad].write_bytes(b"\xff" + source.read_bytes())
        out = tmp_path / "o"
        argv = [command, "--dataset", str(paths["dataset"]),
                "--split-file", str(paths["split"]), "--out", str(out)]
        if bad == "config":
            argv += ["--config", str(paths["config"])]
        assert run(argv) == 2
        option = {"dataset": "--dataset", "split": "--split-file",
                  "config": "--config"}[bad]
        assert capsys.readouterr().err == (
            f"error: bad {option}: {paths[bad]}: not a UTF-8 text file\n")
        assert not out.exists()


class TestStop:
    """The train report says why the anneal ended, with the figures README
    states for the bundled split."""

    # README's trace sizes in MB, to 0.1 MB
    TRACE_MB = {"train": 1.5, "test": 1.3, "all": 2.4}

    @pytest.mark.parametrize("part, epochs", [
        ("train", 23160), ("test", 20365), ("all", 35187),
    ])
    def test_separation_runs_end_frozen(self, sonar_path, balanced_split_path,
                                        tmp_path, part, epochs):
        out = tmp_path / "o"
        assert run(["train", "--dataset", str(sonar_path),
                    "--split-file", str(balanced_split_path),
                    "--config", "separation", "--part", part,
                    "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert (rep["stop"], rep["epochs_run"]) == ("frozen", epochs)
        # a header and one row per epoch run
        trace = (out / "trace.csv").read_bytes()
        assert trace.count(b"\n") == epochs + 1
        assert round(len(trace) / 1e6, 1) == self.TRACE_MB[part]

    def test_default_schedule_ends_at_t_min(self, sonar_path,
                                            balanced_split_path, tmp_path):
        """The stock defaults separate none of the three sets."""
        for part, errors, size in (("train", 9, 104), ("test", 3, 104),
                                   ("all", 13, 208)):
            out = tmp_path / part
            assert run(["train", "--dataset", str(sonar_path),
                        "--split-file", str(balanced_split_path),
                        "--part", part, "--out", str(out)]) == 0
            rep = json.loads((out / "report.json").read_text())
            assert (rep["stop"], rep["epochs_run"]) == ("t_min", 9206), part
            assert (rep["training_errors"]["total"],
                    rep["learning_set_size"]) == (errors, size), part


class TestReportContents:
    """What train and grow report is the library's own account of the run:
    the weights are the library's anneal on the learning part in the
    coordinates of ``compute_stats(<learning part>)``."""

    @pytest.mark.parametrize("part", ("train", "test", "all"))
    def test_train_report_is_evaluate(self, sonar_path, balanced_split_path,
                                      tmp_path, fast_cfg_path, part):
        out = tmp_path / "o"
        assert run(["train", "--dataset", str(sonar_path), "--split-file",
                    str(balanced_split_path), "--config", fast_cfg_path,
                    "--part", part, "--out", str(out)]) == 0
        raw = load_file(sonar_path)
        train, test = split(raw, load_split_file(balanced_split_path))
        learn_raw, eval_raw = {"train": (train, test), "test": (test, train),
                               "all": (raw, None)}[part]
        stats = compute_stats(learn_raw)
        learn = standardize(learn_raw, stats)
        w, _ = minimerror_train(learn, TrainingConfig.from_file(fast_cfg_path))
        buf = io.StringIO()
        save_weights(w, buf)
        assert (out / "weights.txt").read_text() == buf.getvalue()
        rep = json.loads((out / "report.json").read_text())
        total, false_pos, false_neg = count_errors(w, learn)
        assert rep["training_errors"] == {"total": total, "false_pos": false_pos,
                                          "false_neg": false_neg}
        if eval_raw is None:
            assert "generalization" not in rep
        else:
            assert rep["generalization"] == evaluate(w, standardize(eval_raw, stats))


@pytest.mark.parametrize("command", ("train", "grow"))
def test_diverged_training_exit_2(sonar_path, balanced_split_path, tmp_path,
                                  capsys, command):
    """A diverged anneal is a usage error (2), not a verify mismatch (1)."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("learning_rate=1e308\nmax_epochs=50\n")
    rc = run([command, "--dataset", str(sonar_path),
              "--split-file", str(balanced_split_path),
              "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: non-finite state at epoch 1\n"
    assert not (tmp_path / "o").exists()


RUN_KEYS = {"command", "dataset", "dataset_sha256", "split_source", "outputs",
            "python", "numpy", "blas"}


def test_manifest_records_the_options_its_command_reads(
        sonar_path, balanced_split_path, tmp_path, fast_cfg_path, capsys):
    """A manifest records each option its command reads, --out aside, and
    no other: train and grow their part, --any-range and config, verify
    its --format, so a --any-range run's manifest says so."""
    from importlib import resources
    xor = resources.files("monoplane.assets").joinpath("xor.csv")
    split_args = ["--dataset", str(sonar_path), "--split-file",
                  str(balanced_split_path)]
    config = TrainingConfig.from_file(fast_cfg_path).to_dict()
    runs = [
        (["train", *split_args, "--config", fast_cfg_path], 0,
         {"part": "train", "any_range": False, "config": config}),
        (["train", *split_args, "--config", fast_cfg_path, "--part", "test",
          "--any-range"], 0,
         {"part": "test", "any_range": True, "config": config}),
        (["grow", "--dataset", str(xor), "--part", "all", "--any-range",
          "--config", fast_cfg_path], 0,
         {"part": "all", "any_range": True, "config": config}),
        (["verify", *split_args, "--format", "json"], 1, {"format": "json"}),
        (["verify", *split_args], 1, {"format": "text"}),
    ]
    for k, (argv, code, options) in enumerate(runs):
        out = tmp_path / str(k)
        assert run([*argv, "--out", str(out)]) == code
        text = (out / "manifest.json").read_text(encoding="utf-8")
        m = json.loads(text)
        assert text == json.dumps(m, sort_keys=True) + "\n", argv
        assert m.keys() == RUN_KEYS | options.keys(), argv
        assert {key: m[key] for key in options} == options, argv
        assert m["command"] == argv[0]
    capsys.readouterr()


class TestJsonArtifacts:
    """Every JSON artifact is the stdlib's one-line, sorted-key text."""

    def test_artifacts_are_one_line_stdlib_json(self, sonar_path,
                                                balanced_split_path, tmp_path,
                                                fast_cfg_path, capsys):
        from importlib import resources
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        # XOR twice: grow learns the first copy and is scored on the second
        xor2, xor2_split = tmp_path / "xor2.csv", tmp_path / "xor2.split"
        xor2.write_text(xor.read_text() * 2)
        xor2_split.write_text("[train]\n1\n2\n3\n4\n[test]\n5\n6\n7\n8\n")
        split_args = ["--dataset", str(sonar_path), "--split-file",
                      str(balanced_split_path)]
        runs = [
            ("train", ["train", *split_args, "--config", fast_cfg_path],
             0, "report.json"),
            ("train-all", ["train", "--dataset", str(sonar_path), "--part",
                           "all", "--any-range", "--config", fast_cfg_path],
             0, "report.json"),
            ("grow", ["grow", "--dataset", str(xor), "--part", "all",
                      "--config", fast_cfg_path], 0, "report.json"),
            ("grow-split", ["grow", "--dataset", str(xor2), "--split-file",
                            str(xor2_split), "--config", fast_cfg_path],
             0, "report.json"),
            ("verify-text", ["verify", *split_args], 1, None),
            ("verify", ["verify", *split_args, "--format", "json"], 1,
             "verify.json"),
        ]
        for key, argv, code, report in runs:
            out = tmp_path / key
            assert run([*argv, "--out", str(out)]) == code, key
            for name in filter(None, (report, "manifest.json")):
                text = (out / name).read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text),
                                          sort_keys=True) + "\n", (key, name)
                assert text.count("\n") == 1, (key, name)
        assert capsys.readouterr().out.endswith(
            (tmp_path / "verify" / "verify.json").read_text(encoding="utf-8"))


class TestGrow:
    def test_xor_fixture_grows_two_units(self, tmp_path):
        from importlib import resources
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        cfg = tmp_path / "xor.cfg"
        cfg.write_text("t_initial=1.0\nt_min=1e-4\nt_decay=0.995\n"
                       "learning_rate=0.05\nmax_epochs=3000\nseed=1\n")
        out = tmp_path / "o"
        rc = run(["grow", "--dataset", str(xor), "--part", "all",
                  "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["hidden_units"] == 2
        assert rep["training_errors"] == 0
        net = (out / "network.txt").read_text()
        assert net.startswith("H=2\n")
        # --part all needs no split file, and the learning part sets the
        # coordinates: the manifest names neither a split nor a scale
        m = json.loads((out / "manifest.json").read_text())
        assert m["split_source"] is None
        assert "scale" not in m and "stats_from" not in m

    def test_stall_diagnostics(self, tmp_path, capsys):
        """Patterns 1 and 2 are equal with opposite labels, so unit 2 errs
        on one of them as unit 1 did: growth stalls, exits 2 and writes
        only growth.csv."""
        data = tmp_path / "stall.csv"
        data.write_text("0.0,0.2,R\n0.0,0.2,M\n1.0,0.7,R\n0.5,0.9,M\n")
        cfg = tmp_path / "stall.cfg"
        cfg.write_text("t_initial=1\nt_min=1e-3\nt_decay=0.99\n")
        out = tmp_path / "o"
        assert run(["grow", "--dataset", str(data), "--part", "all",
                    "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "growth stalled: unit 2 has 1 internal "
                                       "errors, not fewer than its predecessor's 1\n")
        assert [p.name for p in out.iterdir()] == ["growth.csv"]
        assert (out / "growth.csv").read_text() == (
            "unit,internal_errors\n1,1\n2,1\noutput_attempt_after_units,network_errors\n")


class TestParser:
    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        missing = ["train", "--dataset", str(tmp_path / "nope.csv")]
        assert run(missing) == 2
        assert run(missing) == 2
        one_build = ["monoplane"] + [f"monoplane {cmd}" for cmd in
                                     ("train", "grow", "verify")]
        assert built == one_build

    def test_no_state_leaks_between_calls(self, sonar_path, balanced_split_path,
                                          tmp_path, fast_cfg_path):
        common = ["train", "--dataset", str(sonar_path),
                  "--split-file", str(balanced_split_path),
                  "--config", fast_cfg_path]
        assert run([*common, "--part", "test", "--out", str(tmp_path / "a")]) == 0
        assert run([*common, "--out", str(tmp_path / "b")]) == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        # no --part: the default part, not the previous call's
        assert manifest["part"] == "train"
        assert build_parser().parse_args(["train", "--dataset", "x"]).part == "train"

    def test_readme_cli_examples_parse(self):
        """Every ``monoplane`` line of README's CLI block, its continuations
        joined and its comment dropped, is a command line the parser takes."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
        lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
        examples = [shlex.split(line.split("#", 1)[0])[1:] for line in lines
                    if line.startswith("monoplane ")]
        assert examples
        for argv in examples:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: monoplane {shlex.join(argv)}")

    def test_usage_error_then_valid_call(self, sonar_path, balanced_split_path,
                                         capsys):
        with pytest.raises(SystemExit) as info:
            run(["verify", "--dataset", str(sonar_path), "--bogus"])
        assert info.value.code == 2
        assert "--bogus" in capsys.readouterr().err
        assert run(["verify", "--dataset", str(sonar_path), "--split-file",
                    str(balanced_split_path)]) == 1
        assert "closest mode: " in capsys.readouterr().out


@pytest.mark.parametrize("command, fmt", [
    ("train", "json"), ("grow", "text"), ("verify", "csv"),
])
def test_removed_formats_are_usage_errors(sonar_path, tmp_path, capsys,
                                          command, fmt):
    """train and grow take no --format, and verify's has no csv: each is
    an argparse usage error that writes nothing."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        run([command, "--dataset", str(sonar_path), "--format", fmt,
             "--out", str(out)])
    assert info.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("grow", "--features", "2"), ("train", "--seed", "1"),
    ("train", "--scale", "variance"), ("grow", "--stats-from", "all"),
    ("train", "--flip-labels", None), ("grow", "--flip-labels", None),
    ("verify", "--flip-labels", None), ("grow", "--max-hidden", "2"),
    ("report", None, None),
])
def test_removed_inputs_are_usage_errors(sonar_path, tmp_path, capsys,
                                         command, option, value):
    """train and grow take no --features (the first line sets the width),
    no --seed (the config file sets it) and no --scale or --stats-from (the
    learning part's population std sets the coordinates); no command takes
    --flip-labels (its run is the exact mirror of the run without it);
    grow takes no --max-hidden (growth caps at max(1, P - 1)); and there
    is no report command (``cat`` prints the files it printed): each is an
    argparse usage error that writes nothing."""
    from importlib import resources
    out = tmp_path / "o"
    removed = [arg for arg in (option, value) if arg]
    data = (resources.files("monoplane.assets") / "xor.csv"
            if command == "grow" else sonar_path)
    with pytest.raises(SystemExit) as info:
        run([command, "--dataset", str(data), *removed, "--part", "all",
             "--out", str(out)])
    assert info.value.code == 2
    assert (option or f"invalid choice: '{command}'") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    (["train"], "--part train"),
    (["grow", "--part", "test"], "--part test"),
    (["verify"], "verify"),
], ids=["train", "grow-test", "verify"])
def test_division_needs_a_split_file(sonar_path, tmp_path, capsys, argv, what):
    """A division comes only from a split file: a run that learns a part,
    or verify, is a one-line usage error without one that writes
    nothing."""
    out = tmp_path / "o"
    assert run([*argv, "--dataset", str(sonar_path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {what} needs a --split-file\n")
    assert not out.exists()


ALL_INDICES = "".join(f"{mu}\n" for mu in range(1, 209))
NOT_UTF8 = b"\xff[train]\n1\n"


@pytest.mark.parametrize("command, bad, text, message", [
    ("train", "config", None, "bad --config: {path}: No such file or directory"),
    ("train", "split", None, "bad --split-file: {path}: No such file or directory"),
    ("train", "split", "[train]\n[test]\n" + ALL_INDICES,
     "bad --split-file: {path}: part 'train' selects no patterns"),
    ("verify", "split", "[train]\n[test]\n" + ALL_INDICES,
     "verification needs both a train and a test part"),
    ("train", "split", "[train]\n" + ALL_INDICES + "[test]\n1\n",
     "bad --split-file: split assigns indices to both parts: [1]"),
    ("train", "split", "[valid]\n1\n",
     "bad --split-file: {path}: line 1: unknown split section 'valid'"),
    ("train", "config", "dir", "bad --config: {path}: Is a directory"),
    ("train", "dataset", "dir", "bad --dataset: {path}: Is a directory"),
    ("train", "split", "dir", "bad --split-file: {path}: Is a directory"),
    ("verify", "dataset", None, "bad --dataset: {path}: No such file or directory"),
    ("train", "dataset", "0.1,0.2,R\n0.3,M\n", "bad --dataset: {path}: line 2: "
     "expected 2 values plus a label, got 2 fields"),
    ("train", "config", "seed=1\nbogus\n",
     "bad --config: {path}: line 2: expected key=value"),
    ("grow", "dataset", NOT_UTF8, "bad --dataset: {path}: not a UTF-8 text file"),
    ("grow", "split", NOT_UTF8, "bad --split-file: {path}: not a UTF-8 text file"),
    ("grow", "config", NOT_UTF8, "bad --config: {path}: not a UTF-8 text file"),
    ("train", "out", "", "bad --out: {path}: File exists"),
], ids=["missing-config", "missing-split", "empty-train", "verify-empty-train",
        "both-parts", "unknown-section", "config-dir", "dataset-dir", "split-dir",
        "missing-dataset", "dataset-line", "config-line", "dataset-not-utf8",
        "split-not-utf8", "config-not-utf8", "out-file"])
def test_rejected_input_exit_2(sonar_path, balanced_split_path, fast_cfg_path,
                               tmp_path, capsys, command, bad, text, message):
    """An input that is missing, is a directory, is not UTF-8, has a
    malformed line or divides the patterns into no usable parts, and an
    --out that is a file, is a one-line usage error that writes nothing; a
    fault of a file, or of the split it gives, names the option."""
    paths = {"dataset": sonar_path, "split": balanced_split_path,
             "config": Path(fast_cfg_path), "out": tmp_path / "o"}
    paths[bad] = path = tmp_path / f"{bad}.in"
    if text == "dir":
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    out = paths["out"]
    argv = [command, "--dataset", str(paths["dataset"]),
            "--split-file", str(paths["split"]), "--out", str(out)]
    if command != "verify":
        argv += ["--config", str(paths["config"])]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")
    if bad == "out":
        assert out.read_text() == text
    else:
        assert not out.exists()


def test_width_comes_from_the_file(sonar_path, balanced_split_path, tmp_path,
                                   capsys, fast_cfg_path):
    """On the sonar file less its first feature, train learns at width 59,
    and verify, which reads the benchmark's 60 features, names the width
    rather than a line, as a fault of --dataset."""
    data = tmp_path / "sonar59.csv"
    data.write_text("".join(line.split(",", 1)[1] + "\n"
                            for line in sonar_path.read_text().splitlines()))
    train_out, verify_out = tmp_path / "train", tmp_path / "verify"
    assert run(["train", "--dataset", str(data), "--part", "all",
                "--config", fast_cfg_path, "--out", str(train_out)]) == 0
    assert len(load_weights((train_out / "weights.txt").read_text())) == 60
    capsys.readouterr()
    assert run(["verify", "--dataset", str(data), "--split-file",
                str(balanced_split_path), "--out", str(verify_out)]) == 2
    assert capsys.readouterr() == ("", f"error: bad --dataset: {data}: verification "
                                   "needs 60 features per pattern, not 59\n")
    assert not verify_out.exists()


class TestVerify:
    def test_constant_feature_is_a_dataset_fault(self, sonar_path,
                                                 balanced_split_path, tmp_path,
                                                 capsys):
        """A feature that standardization cannot scale is named as a fault
        of --dataset, and nothing is written."""
        data = tmp_path / "flat.csv"
        data.write_text("".join("0.5," + line.split(",", 1)[1] + "\n"
                                for line in sonar_path.read_text().splitlines()))
        out = tmp_path / "v"
        assert run(["verify", "--dataset", str(data), "--split-file",
                    str(balanced_split_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: bad --dataset: {data}: "
                                       "constant feature(s) 1: scale would be zero\n")
        assert not out.exists()

    def test_asset_fault_is_not_a_dataset_fault(self, sonar_path,
                                                balanced_split_path, capsys,
                                                monkeypatch):
        """A published asset that cannot be read is reported as itself, not
        as a fault of the --dataset that verify was given."""
        def missing():
            raise FileNotFoundError(2, "No such file or directory", "table6.json")
        monkeypatch.setattr(evaluation, "_published", missing)
        argv = ["verify", "--dataset", str(sonar_path),
                "--split-file", str(balanced_split_path)]
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", "error: [Errno 2] No such file or directory: 'table6.json'\n")

        def corrupt():
            raise json.JSONDecodeError("Expecting value", "", 0)
        monkeypatch.setattr(evaluation, "_published", corrupt)
        with pytest.raises(json.JSONDecodeError):
            run(argv)

    def test_exit_1_and_diff_on_canonical_data(self, sonar_path,
                                               balanced_split_path, tmp_path,
                                               capsys):
        out = tmp_path / "v"
        rc = run(["verify", "--dataset", str(sonar_path),
                  "--split-file", str(balanced_split_path),
                  "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == 1
        assert "NOT REPRODUCED" in captured
        assert "closest mode" in captured
        assert (out / "verify.txt").exists()
        assert (out / "manifest.json").exists()

    def test_json_format(self, sonar_path, balanced_split_path,
                         tmp_path, capsys):
        rc = run(["verify", "--dataset", str(sonar_path),
                  "--split-file", str(balanced_split_path),
                  "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert len(payload["modes"]) == 4
        for m in payload["modes"]:
            assert len(m["counts_sonar"]) == 3
            assert len(m["mu_test_side"]) == m["counts_test_side"][0]
        assert set(payload["gamma_check"]) == {"std", "variance"}
        for check in payload["gamma_check"].values():
            assert len(check["rows"]) == 44
        assert payload["perturbation"]["mode"] == payload["closest_mode"]
        assert payload["reproduced"] is False
        for k, v in payload["norms"].items():
            assert v == pytest.approx(np.sqrt(61), abs=2e-4)

    @staticmethod
    def inputs(split_name, labels, sonar_path, balanced_split_path,
               raw_patterns, tmp_path):
        """The ``--dataset`` and ``--split-file`` arguments of a verify, and
        the ``verify_published`` report of the split they give. The dataset
        is the sonar file, or for ``flip`` a copy with R and M swapped; the
        split file is the bundled one, or one holding
        ``random_balanced_split`` with seed 1."""
        dataset, split_path = sonar_path, balanced_split_path
        if labels == "flip":
            dataset = tmp_path / "flipped.csv"
            dataset.write_text(sonar_path.read_text().translate(str.maketrans("RM", "MR")))
        if split_name == "random1":
            train, test = random_balanced_split(raw_patterns, 1)
            split_path = tmp_path / "random1.split"
            split_path.write_text("".join(
                f"[{name}]\n" + "".join(f"{m}\n" for m in part.mu.tolist())
                for name, part in (("train", train), ("test", test))))
        report = verify_published(*split(load_file(dataset), load_split_file(split_path)))
        return ["--dataset", str(dataset), "--split-file", str(split_path)], report

    @pytest.mark.parametrize("labels", ("rock+1", "flip"))
    @pytest.mark.parametrize("split_name", ("bundled", "random1"))
    def test_json_is_the_library_report(self, sonar_path, balanced_split_path,
                                        raw_patterns, tmp_path, capsys,
                                        split_name, labels):
        """``verify --format json`` prints exactly the object that
        ``verify_published`` returns, on either labelling of the file."""
        args, report = self.inputs(split_name, labels, sonar_path,
                                   balanced_split_path, raw_patterns, tmp_path)
        assert run(["verify", *args, "--format", "json"]) == 1
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"

    @pytest.mark.parametrize("labels", ("rock+1", "flip"))
    @pytest.mark.parametrize("split_name", ("bundled", "random1"))
    def test_text_is_the_library_narrative(self, sonar_path, balanced_split_path,
                                           raw_patterns, tmp_path, capsys,
                                           split_name, labels):
        """``verify --format text`` prints exactly ``verify_text`` of the
        report, on either labelling of the file, and each spread's
        ``min_ratio`` is the report's (which ``--format json`` prints) to
        two decimals."""
        args, report = self.inputs(split_name, labels, sonar_path,
                                   balanced_split_path, raw_patterns, tmp_path)
        assert run(["verify", *args, "--format", "text"]) == 1
        text = capsys.readouterr().out
        assert text == verify_text(report)
        spreads = report["perturbation"]["spreads"]
        printed = dict(re.findall(r"^  (\w+): min=\d+ max=\d+ min_ratio=(\S+)$",
                                  text, re.MULTILINE))
        assert printed == {k: f"{v['min_ratio']:.2f}" for k, v in spreads.items()}

    def test_text_published_figures_come_from_the_table(
            self, sonar_path, balanced_split_path, capsys, monkeypatch):
        """Each mode's "[published ...]" counts are the table's
        ``counts_*_side``, and the spot-check counts the table's rows."""
        table = load_published_table()
        n_rows = len(table["test_side"]) + len(table["train_side"])

        def assert_figures_of(table):
            run(["verify", "--dataset", str(sonar_path), "--split-file",
                 str(balanced_split_path), "--format", "text"])
            out = capsys.readouterr().out
            for side in ("test", "train"):
                total, false_pos, false_neg = table[f"counts_{side}_side"]
                assert out.count(f"[published {total}, {false_pos} F+, "
                                 f"{false_neg} F-]") == 4
            assert len(re.findall(rf"spot-check: \d+/{n_rows} within", out)) == 4

        assert_figures_of(table)
        doctored = {**table, "counts_test_side": [21, 16, 5],
                    "counts_train_side": [23, 4, 19]}
        published = evaluation._published()
        monkeypatch.setattr(evaluation, "_published",
                            lambda: (doctored, *published[1:]))
        assert_figures_of(doctored)
