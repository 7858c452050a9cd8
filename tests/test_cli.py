import argparse
import io
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from monoplane import (
    TrainingConfig, cli, compute_stats, count_errors, evaluate, evaluation,
    load_file,
    load_published_table, load_split_file, load_weights, minimerror_train,
    save_weights, split, standardize, verify_published,
)
from monoplane.cli import _blas_build, build_parser, main
from monoplane.network import GrowthTrace

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
        assert capsys.readouterr().err == f"error: dataset not found: {path}\n"

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

    def test_flip_labels_flag(self, sonar_path, balanced_split_path, tmp_path):
        """--flip-labels mirrors a run exactly: it negates every folded row
        and so the Hebbian start and every step, so the weights are negated
        bit for bit, the trace and the retained epoch and stop are equal,
        and false positives and false negatives swap. Growth on XOR
        trains the same units up to sign: its growth.csv is equal."""
        from importlib import resources
        cfg = tmp_path / "window.cfg"
        cfg.write_text(FAST_CFG + "temp_ratio=0.02\n")
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        argvs = {"train": ["train", "--dataset", str(sonar_path), "--split-file",
                           str(balanced_split_path), "--config", str(cfg)],
                 "grow": ["grow", "--dataset", str(xor), "--part", "all",
                          "--config", str(cfg)]}
        for command, argv in argvs.items():
            for sub, flip in (("a", []), ("b", ["--flip-labels"])):
                assert run([*argv, *flip, "--out", str(tmp_path / command / sub)]) == 0
        train_a, train_b = tmp_path / "train" / "a", tmp_path / "train" / "b"
        w_a = load_weights((train_a / "weights.txt").read_text())
        w_b = load_weights((train_b / "weights.txt").read_text())
        assert (-w_a.w).tobytes() == w_b.w.tobytes()
        assert (train_a / "trace.csv").read_bytes() == (train_b / "trace.csv").read_bytes()
        rep_a, rep_b = (json.loads((out / "report.json").read_text())
                        for out in (train_a, train_b))
        for key in ("best_epoch", "stop"):
            assert rep_a[key] == rep_b[key]
        swapped = []
        for counts_a, counts_b in ((rep_a["training_errors"], rep_b["training_errors"]),
                                   (rep_a["generalization"]["counts"],
                                    rep_b["generalization"]["counts"])):
            assert (counts_a["total"], counts_a["false_pos"], counts_a["false_neg"]) == (
                counts_b["total"], counts_b["false_neg"], counts_b["false_pos"])
            swapped.append(counts_a["false_pos"] != counts_a["false_neg"])
        assert any(swapped)
        assert ((tmp_path / "grow" / "a" / "growth.csv").read_bytes()
                == (tmp_path / "grow" / "b" / "growth.csv").read_bytes())

    def test_malformed_dataset_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2,R\n0.3,M\n")
        assert run(["train", "--dataset", str(bad),
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: expected 2 values plus a label, got 2 fields\n")

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_feature_exit_2(self, tmp_path, capsys, value):
        """--any-range lifts the [0, 1] check, not the finiteness check."""
        data = tmp_path / "bad.csv"
        data.write_text(f"0.1,{value},R\n0.3,0.4,M\n")
        out = tmp_path / "o"
        assert run(["train", "--dataset", str(data), "--any-range",
                    "--part", "all", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: feature 2 ") and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ("train", "grow"))
    def test_overflowing_statistics_exit_2(self, tmp_path, capsys, command):
        """Finite values whose mean overflows are a usage error, named by
        feature, not a traceback or a bad --max-hidden."""
        data = tmp_path / "big.csv"
        data.write_text("1e308,0.5,R\n1e308,0.25,M\n-1e308,0.75,R\n1e308,0.1,M\n")
        out = tmp_path / "o"
        assert run([command, "--dataset", str(data), "--any-range",
                    "--part", "all", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: feature(s) 1: mean or scale is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ("train", "grow"))
    def test_held_out_value_overflowing_exit_2(self, tmp_path, capsys, command):
        """A held-out value that standardizes to infinity is a usage error
        named by pattern and feature, and nothing is written."""
        data = tmp_path / "ov.csv"
        data.write_text("0.1,0.5,R\n0.2,0.25,M\n0.3,0.75,R\n1e308,0.1,M\n")
        split_file = tmp_path / "ov.split"
        split_file.write_text("[train]\n1\n2\n3\n[test]\n4\n")
        out = tmp_path / "o"
        assert run([command, "--dataset", str(data), "--split-file", str(split_file),
                    "--any-range", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: pattern mu=4: feature 1 value "
                                       "1e+308 does not standardize to a finite number\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("bogus=1", "unknown config key 'bogus'"),
        ("t_decay=2", "need 0 < t_decay < 1"),
        ("learning_rate = nan", "bad --config: need a finite learning_rate, got nan"),
        ("max_epochs = 1e5", "bad.cfg:6: bad max_epochs: invalid literal for "
                             "int() with base 10: '1e5'"),
        ("seed = true", "bad.cfg:6: bad seed: invalid literal for int() "
                        "with base 10: 'true'"),
        ("seed = -1", "bad --config: need seed >= 0"),
        ("max_epochs = 1_000", "bad.cfg:6: bad max_epochs: invalid literal for "
                               "int() with base 10: '1_000'"),
        ("t_initial = \u0663", "bad.cfg:6: bad t_initial: could not convert "
                               "string to float: '\u0663'"),
    ], ids=["unknown-key", "bad-value", "non-finite", "bad-int", "bad-seed",
            "negative-seed", "underscore-int", "non-ascii-float"])
    def test_bad_config_file_exit_2(self, sonar_path, tmp_path, capsys,
                                    line, message):
        # the line under test sets its key once: FAST_CFG's line for that
        # key is left blank, so the line under test stays line 6
        key = line.split("=")[0].strip()
        base = "".join("\n" if ln.split("=")[0] == key else ln + "\n"
                       for ln in FAST_CFG.splitlines())
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(base + line + "\n", encoding="utf-8")
        assert run(["train", "--dataset", str(sonar_path), "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ("train", "grow"))
    def test_repeated_config_key_exit_2(self, sonar_path, tmp_path, capsys,
                                        command):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("max_epochs=5\nmax_epochs=7\n")
        out = tmp_path / "o"
        assert run([command, "--dataset", str(sonar_path), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: bad --config: {cfg}:2: duplicate config key 'max_epochs'\n")
        assert not out.exists()

    @pytest.mark.parametrize("scale", ("std", "variance"))
    @pytest.mark.parametrize("stats_from", ("part", "all"))
    def test_scale_and_stats_from(self, sonar_path, balanced_split_path,
                                  tmp_path, fast_cfg_path, scale, stats_from):
        """The weights are the library's anneal on the learning part in the
        coordinates of ``compute_stats(<part or all>, scale)``."""
        out = tmp_path / "o"
        assert run(["train", "--dataset", str(sonar_path),
                    "--split-file", str(balanced_split_path),
                    "--config", fast_cfg_path, "--scale", scale,
                    "--stats-from", stats_from, "--out", str(out)]) == 0
        raw = load_file(sonar_path)
        learn_raw, _ = split(raw, load_split_file(balanced_split_path))
        stats = compute_stats(raw if stats_from == "all" else learn_raw, mode=scale)
        w, _ = minimerror_train(standardize(learn_raw, stats),
                                TrainingConfig.from_file(fast_cfg_path))
        buf = io.StringIO()
        save_weights(w, buf)
        assert (out / "weights.txt").read_text() == buf.getvalue()
        m = json.loads((out / "manifest.json").read_text())
        assert (m["scale"], m["stats_from"]) == (scale, stats_from)

    @pytest.mark.parametrize("command", ("train", "verify"))
    @pytest.mark.parametrize("bad", ("dataset", "split"))
    def test_non_utf8_input_exit_2(self, sonar_path, balanced_split_path,
                                   tmp_path, capsys, command, bad):
        paths = {"dataset": sonar_path, "split": balanced_split_path}
        source, paths[bad] = paths[bad], tmp_path / f"{bad}.bin"
        paths[bad].write_bytes(b"\xff" + source.read_bytes())
        out = tmp_path / "o"
        assert run([command, "--dataset", str(paths["dataset"]),
                    "--split-file", str(paths["split"]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {paths[bad]}: not a UTF-8 text file\n")
        assert not out.exists()


class TestStop:
    """The train report says why the anneal ended."""

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
        assert (out / "trace.csv").read_text().count("\n") == epochs + 1

    def test_default_schedule_ends_at_t_min(self, sonar_path,
                                            balanced_split_path, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--dataset", str(sonar_path),
                    "--split-file", str(balanced_split_path),
                    "--part", "train", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert (rep["stop"], rep["epochs_run"]) == ("t_min", 9206)


class TestReportContents:
    """What train and grow report is the library's own account of the run."""

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
        w = load_weights((out / "weights.txt").read_text())
        learn = standardize(learn_raw, stats)
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


class TestJsonArtifacts:
    """Every JSON artifact is the stdlib's one-line, sorted-key text."""

    def test_artifacts_are_one_line_stdlib_json(self, sonar_path,
                                                balanced_split_path, tmp_path,
                                                fast_cfg_path, capsys):
        from importlib import resources
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        runs = [
            (["train", "--dataset", str(sonar_path), "--split-file",
              str(balanced_split_path), "--config", fast_cfg_path],
             0, "report.json"),
            (["grow", "--dataset", str(xor), "--part", "all",
              "--config", fast_cfg_path], 0, "report.json"),
            (["verify", "--dataset", str(sonar_path), "--split-file",
              str(balanced_split_path), "--format", "json"], 1, "verify.json"),
        ]
        for argv, code, report in runs:
            out = tmp_path / argv[0]
            assert run([*argv, "--out", str(out)]) == code
            for name in (report, "manifest.json"):
                text = (out / name).read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text),
                                          sort_keys=True) + "\n", (argv[0], name)
                assert text.count("\n") == 1, (argv[0], name)
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

    def test_max_hidden_stall_diagnostics(self, tmp_path, capsys):
        from importlib import resources
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        cfg = tmp_path / "xor.cfg"
        cfg.write_text("t_initial=1.0\nt_min=1e-4\nt_decay=0.995\n"
                       "learning_rate=0.05\nmax_epochs=3000\nseed=1\n")
        rc = run(["grow", "--dataset", str(xor), "--part", "all",
                  "--config", str(cfg), "--max-hidden", "1",
                  "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "stall" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("cap", ("0", "-3"))
    def test_max_hidden_below_one_exit_2(self, tmp_path, capsys, cap):
        from importlib import resources
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        out = tmp_path / "o"
        rc = run(["grow", "--dataset", str(xor), "--part", "all",
                  "--max-hidden", cap, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: bad --max-hidden: need max_hidden >= 1, got {cap}\n")
        assert not out.exists()


class TestParser:
    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        p = tmp_path / "trace.csv"
        p.write_text("epoch,temperature,cost,errors,min_stability\n")
        assert run(["report", str(p)]) == 0
        assert run(["report", str(p)]) == 0
        one_build = ["monoplane"] + [f"monoplane {cmd}" for cmd in
                                     ("train", "grow", "verify", "report")]
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
])
def test_removed_inputs_are_usage_errors(sonar_path, tmp_path, capsys,
                                         command, option, value):
    """train and grow take no --features (the first line sets the width)
    and no --seed (the config file sets it): each is an argparse usage
    error that writes nothing."""
    from importlib import resources
    xor = resources.files("monoplane.assets").joinpath("xor.csv")
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        run([command, "--dataset", str(xor if command == "grow" else sonar_path),
             option, value, "--part", "all", "--out", str(out)])
    assert info.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()



def test_width_comes_from_the_file(sonar_path, tmp_path, capsys, fast_cfg_path):
    """On the sonar file less its first feature, train learns at width 59,
    and verify, which reads the benchmark's 60 features, names the width
    rather than a line."""
    data = tmp_path / "sonar59.csv"
    data.write_text("".join(line.split(",", 1)[1] + "\n"
                            for line in sonar_path.read_text().splitlines()))
    train_out, verify_out = tmp_path / "train", tmp_path / "verify"
    assert run(["train", "--dataset", str(data), "--part", "all",
                "--config", fast_cfg_path, "--out", str(train_out)]) == 0
    assert len(load_weights((train_out / "weights.txt").read_text())) == 60
    capsys.readouterr()
    assert run(["verify", "--dataset", str(data), "--out", str(verify_out)]) == 2
    assert capsys.readouterr() == ("", "error: verification needs 60 features "
                                   f"per pattern, {data} has 59\n")
    assert not verify_out.exists()


class TestVerify:
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
            assert len(m["gamma_check"]["rows"]) == 44
            assert len(m["mu_test_side"]) == m["counts_test_side"][0]
        assert payload["perturbation"]["mode"] == payload["closest_mode"]
        assert payload["reproduced"] is False
        for k, v in payload["norms"].items():
            assert v == pytest.approx(np.sqrt(61), abs=2e-4)

    @pytest.mark.parametrize("flip", (False, True), ids=["rock+1", "flip"])
    @pytest.mark.parametrize("split_name", ("bundled", "random1"))
    def test_json_is_the_library_report(self, sonar_path, balanced_split_path,
                                        raw_patterns, tmp_path, capsys,
                                        split_name, flip):
        """``verify --format json`` prints exactly the object that
        ``verify_published`` returns."""
        split_path = balanced_split_path
        if split_name == "random1":
            train, test = random_balanced_split(raw_patterns, 1)
            split_path = tmp_path / "random1.split"
            split_path.write_text("".join(
                f"[{name}]\n" + "".join(f"{m}\n" for m in part.mu.tolist())
                for name, part in (("train", train), ("test", test))))
        report = verify_published(*split(raw_patterns, load_split_file(split_path)),
                                  flip_labels=flip)
        rc = run(["verify", "--dataset", str(sonar_path), "--split-file",
                  str(split_path), "--format", "json"]
                 + (["--flip-labels"] if flip else []))
        assert rc == 1
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"

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

    def test_shuffled_rows_break_mu_numbering(self, raw_patterns, tmp_path,
                                              capsys):
        """Without a split file the default division has no mine in the test
        part of the published tables' layout, so nothing can match."""
        rc = run(["verify", "--dataset",
                  str(Path(__file__).parent / "data" / "sonar.all-data")])
        assert rc == 1


class TestReport:
    def test_weight_table_rendering(self, tmp_path, capsys):
        from monoplane import WeightVector, save_weights
        import io
        w = WeightVector(np.arange(1.0, 62.0))
        buf = io.StringIO()
        save_weights(w, buf)
        p = tmp_path / "w.txt"
        p.write_text(buf.getvalue())
        assert run(["report", str(p)]) == 0
        out = capsys.readouterr().out
        assert "61 weights" in out
        assert out.count("\n") >= 8

    def test_pairwise_cosine(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        paths = []
        for i in range(2):
            v = rng.standard_normal(61)
            p = tmp_path / f"w{i}.txt"
            p.write_text("\n".join(repr(float(x)) for x in v) + "\n")
            paths.append(str(p))
        assert run(["report"] + paths) == 0
        assert "pairwise cosine (true)" in capsys.readouterr().out
        assert run(["report", "--raw-eq8"] + paths) == 0
        assert "raw-eq8" in capsys.readouterr().out

    def test_trace_passthrough(self, tmp_path, capsys):
        p = tmp_path / "trace.csv"
        p.write_text("epoch,temperature,cost,errors,min_stability\n0,1.0,5.0,3,-0.2\n")
        assert run(["report", str(p)]) == 0
        assert "temperature" in capsys.readouterr().out

    def test_growth_passthrough(self, tmp_path, capsys):
        """grow's growth.csv prints verbatim."""
        buf = io.StringIO()
        GrowthTrace(units=[1, 0], output_attempts=[(1, 1), (2, 0)]).to_csv(buf)
        growth = tmp_path / "growth.csv"
        growth.write_text(buf.getvalue())
        assert run(["report", str(growth)]) == 0
        assert capsys.readouterr().out == (
            f"{growth}:\n{growth.read_text().rstrip()}\n")

    @pytest.mark.parametrize("command, options, report", [
        ("verify", ["--format", "json"], "verify.json"),
        ("verify", [], "verify.txt"),
        ("train", [], "report.json"),
        ("grow", [], "report.json"),
    ], ids=["verify-json", "verify-text", "train-json", "grow-json"])
    def test_cli_reports_print_verbatim(self, sonar_path, balanced_split_path,
                                        tmp_path, fast_cfg_path, capsys,
                                        command, options, report):
        """Every report that train, grow and verify write reads back
        verbatim, not as a malformed weight file."""
        from importlib import resources
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        argv = {"verify": ["verify", "--dataset", str(sonar_path), "--split-file",
                           str(balanced_split_path)],
                "train": ["train", "--dataset", str(sonar_path), "--split-file",
                          str(balanced_split_path), "--config", fast_cfg_path],
                "grow": ["grow", "--dataset", str(xor), "--config",
                         fast_cfg_path]}[command]
        out = tmp_path / "o"
        assert run([*argv, *options, "--out", str(out)]) == (
            1 if command == "verify" else 0)
        report = out / report
        capsys.readouterr()
        assert run(["report", str(report)]) == 0
        assert capsys.readouterr() == (
            f"{report}:\n{report.read_text().rstrip()}\n", "")

    def test_weights_of_different_lengths_exit_2(self, tmp_path, capsys):
        paths = []
        for n in (3, 2):
            p = tmp_path / f"w{n}.txt"
            p.write_text("".join(f"{k + 1.0!r}\n" for k in range(n)))
            paths.append(str(p))
        assert run(["report", *paths]) == 2
        assert capsys.readouterr().err == (
            "error: cannot compare the two weight vectors: dimension mismatch: 3 vs 2\n")

    @pytest.mark.parametrize("text, message", [
        ("0.5\n1_0\n", "unparseable weight value: could not convert string "
                        "to float: '1_0'"),
        ("0.5\n\u0661\n", "unparseable weight value: could not convert string "
                          "to float: '\u0661'"),
        ("H=+1\n1.0\n2.0\n3.0\n", "bad H= header: invalid literal for int() "
                                  "with base 10: '+1'"),
        ("H=1\n1.0\n1_0\n3.0\n", "line 3: could not convert string to float: '1_0'"),
    ], ids=["weights-underscore", "weights-non-ascii", "network-plus",
            "network-underscore"])
    def test_number_outside_the_grammar_exit_2(self, tmp_path, capsys, text,
                                               message):
        p = tmp_path / "artifact.txt"
        p.write_text(text, encoding="utf-8")
        assert run(["report", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {p}: {message}\n")

    def test_missing_artifact_exit_2(self, tmp_path):
        assert run(["report", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("text", ["0.5\nnot-a-number\n", "H=2\n1.0\n2.0\n3.0\n"],
                             ids=["weights", "network"])
    def test_unparseable_artifact_exit_2(self, tmp_path, capsys, text):
        p = tmp_path / "artifact.txt"
        p.write_text(text)
        assert run(["report", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {p}: ")
