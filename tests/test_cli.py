import json
import platform
from pathlib import Path

import numpy as np
import pytest

from monoplane.cli import _blas_build, _emit_report, main

FAST_CFG = "t_initial=1.0\nt_min=1e-3\nt_decay=0.99\nlearning_rate=0.05\nmax_epochs=2000\n"


@pytest.fixture()
def fast_cfg_path(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG)
    return str(p)


def run(args):
    return main(args)


class TestTrain:
    def test_missing_dataset_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MONOPLANE_DATA", raising=False)
        assert run(["train", "--dataset", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "o")]) == 2

    def test_no_dataset_anywhere_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MONOPLANE_DATA", raising=False)
        assert run(["train", "--out", str(tmp_path / "o")]) == 2
        assert "MONOPLANE_DATA" in capsys.readouterr().err

    def test_env_var_fallback(self, sonar_path, balanced_split_path, tmp_path,
                              monkeypatch, fast_cfg_path):
        monkeypatch.setenv("MONOPLANE_DATA", str(sonar_path))
        out = tmp_path / "o"
        assert run(["train", "--split-file", str(balanced_split_path),
                    "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert (out / "weights.txt").exists()

    def test_artifacts_and_manifest(self, sonar_path, balanced_split_path,
                                    tmp_path, fast_cfg_path):
        out = tmp_path / "o"
        rc = run(["train", "--dataset", str(sonar_path),
                  "--split-file", str(balanced_split_path),
                  "--config", fast_cfg_path, "--seed", "3",
                  "--out", str(out)])
        assert rc == 0
        for name in ("weights.txt", "trace.csv", "report.json", "manifest.json"):
            assert (out / name).exists(), name
        m = json.loads((out / "manifest.json").read_text())
        assert m["command"] == "train"
        assert m["seed"] == 3
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

    def test_flip_labels_flag(self, sonar_path, tmp_path, fast_cfg_path):
        out = tmp_path / "o"
        rc = run(["train", "--dataset", str(sonar_path), "--part", "all",
                  "--flip-labels", "--config", fast_cfg_path,
                  "--out", str(out)])
        assert rc == 0

    def test_malformed_dataset_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2,R\n")
        assert run(["train", "--dataset", str(bad),
                    "--out", str(tmp_path / "o")]) == 2
        assert "expected 60 values" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_feature_exit_2(self, tmp_path, capsys, value):
        """--any-range lifts the [0, 1] check, not the finiteness check."""
        data = tmp_path / "bad.csv"
        data.write_text(f"0.1,{value},R\n0.3,0.4,M\n")
        out = tmp_path / "o"
        assert run(["train", "--dataset", str(data), "--features", "2",
                    "--any-range", "--part", "all", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: feature 2 ") and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("bogus=1", "unknown config key 'bogus'"),
        ("t_decay=2", "need 0 < t_decay < 1"),
        ("learning_rate = nan", "bad --config: need a finite learning_rate, got nan"),
    ], ids=["unknown-key", "bad-value", "non-finite"])
    def test_bad_config_file_exit_2(self, sonar_path, tmp_path, capsys,
                                    line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CFG + line + "\n")
        assert run(["train", "--dataset", str(sonar_path), "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


class TestEmitReport:
    REPORT = {"b": [1, 2.5, "x"], "a": {"z": 0.1, "y": {}, "x": "s"},
              "c": True, "d": None, "e": {"f": {"g": -1.5e-20}}}

    def test_csv_bytes(self, tmp_path):
        assert _emit_report(self.REPORT, "csv", tmp_path, "r") == "r.csv"
        assert (tmp_path / "r.csv").read_bytes() == (
            b"key,value\na.x,'s'\na.z,0.1\nb,'[1, 2.5, \"x\"]'\nc,True\n"
            b"d,None\ne.f.g,-1.5e-20\n")

    def test_text_bytes(self, tmp_path):
        assert _emit_report(self.REPORT, "text", tmp_path, "r") == "r.txt"
        assert (tmp_path / "r.txt").read_bytes() == (
            b"a.x: s\na.z: 0.1\nb: [1, 2.5, 'x']\nc: True\nd: None\n"
            b"e.f.g: -1.5e-20\n")


class TestGrow:
    def test_xor_fixture_grows_two_units(self, tmp_path):
        from importlib import resources
        xor = resources.files("monoplane.assets").joinpath("xor.csv")
        cfg = tmp_path / "xor.cfg"
        cfg.write_text("t_initial=1.0\nt_min=1e-4\nt_decay=0.995\n"
                       "learning_rate=0.05\nmax_epochs=3000\nseed=1\n")
        out = tmp_path / "o"
        rc = run(["grow", "--dataset", str(xor), "--features", "2",
                  "--part", "all", "--config", str(cfg), "--out", str(out)])
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
        rc = run(["grow", "--dataset", str(xor), "--features", "2",
                  "--part", "all", "--config", str(cfg), "--max-hidden", "1",
                  "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "stall" in capsys.readouterr().err.lower()


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
