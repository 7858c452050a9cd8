"""sha256 of every byte the monoplane CLI produces over a fixed run matrix.

Usage:

    PYTHONPATH=<checkout>/src python scripts/artifact_hashes.py OUT.json
    python scripts/artifact_hashes.py --compare PARENT.json CHANGE.json

Runs ``monoplane.cli.main`` in-process over a fixed matrix of ``train``
(default and separation schedules), ``verify`` (text and json), ``grow``
(XOR, and parity 3 and 4 with the default schedule) and ``report``
(weights, a network and a growth trace) invocations and writes
one JSON object mapping ``<run>/exit``, ``<run>/stdout``, ``<run>/stderr``
and ``<run>/<output file>`` to the sha256 of those bytes. Every ``*.json``
output file, and the stdout of every ``verify --format json`` run, also
gets a ``<key>#parsed`` item: the sha256 of
``json.dumps(json.loads(bytes), sort_keys=True)``, which a change of
whitespace alone leaves equal. The re-dumped text is compared rather than
the parsed object because ``NaN != NaN``. Run it once with each of two
checkouts on ``PYTHONPATH``, then ``--compare`` the two files: it prints
each key whose hash differs or that only one file has, and a count, and
exits 1 if there is any, so exit 0 means equal exit codes, streams and
artifacts. The matrix gives 344 items.

Every run takes its inputs from copies in a scratch root and names them,
and its ``--out`` directory, relative to that root, so manifests and
``report`` output do not depend on where the checkout or the scratch root
lives. ``verify`` also runs on seeded random class-balanced splits written
into that root, because only splits other than the bundled one exercise
the mapping of rows to the paper's layout numbers. ``grow`` also runs on
parity-3 and parity-4 files written there: parity 3 grows three hidden
units, parity 4 stalls with several units trained. It also runs on a
seeded random-label file like perfbench's grow-toy sets (40 Gaussian
points in 3 dimensions, balanced labels, ``--any-range``), whose units
never separate their targets, so every epoch counts its errors and the
retained epoch is chosen among non-separating ones. ``train`` and ``verify``
also run on edited copies of the sonar file written there: one malformed
field, label or value each, one number that only Python's ``float`` reads
(``0.1_5``, which the parser rejects) and one leading byte that is not
UTF-8, so that every parser diagnostic is hashed, and one well-formed file
in a loose layout. ``train --seed -1`` hashes argparse's usage error for
an option that train does not take, ``grow --max-hidden 0`` the usage
error of a bad option value, ``train --any-range`` on a file of
finite values whose mean overflows the error of non-finite statistics,
``train --any-range`` on a held-out value that standardizes to infinity
the error naming that pattern, ``report`` on two weight files of different
lengths the error of a pair it cannot compare, and ``report`` on a weight
file holding ``1_0`` the error of a number outside the one grammar of the
files the CLI reads, ``train`` on a config file that sets ``max_epochs``
twice the error of a repeated key, and ``report`` on a network file whose
header is ``H=+1``, and on one with a value ``x``, the errors naming the
header and the value's line.

A run that raises instead of returning an exit code does not end the
matrix: its ``exit`` item hashes the ``SystemExit`` code, or the name of
the exception's type.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SONAR_FILE = REPO / "tests" / "data" / "sonar.all-data"
# inputs copied from the assets of the package on PYTHONPATH
ASSET_INPUTS = {"balanced.split": "splits/balanced.split", "xor.csv": "xor.csv"}
# the schedule of tests/test_cli.py::TestGrow
XOR_CFG = ("t_initial=1.0\nt_min=1e-4\nt_decay=0.995\n"
           "learning_rate=0.05\nmax_epochs=3000\nseed=1\n")
SONAR = ["--dataset", "sonar.all-data", "--split-file", "balanced.split"]
XOR = ["grow", "--dataset", "xor.csv", "--part", "all", "--config", "xor.cfg"]
# seeds of the random splits verify also runs on
RANDOM_SPLIT_SEEDS = (1, 2, 3, 4)
# bit counts of the parity problems grow also runs on
PARITY_BITS = (3, 4)
# seed of the random-label set grow also runs on
RANDOM_LABEL_SEED = 1
# sonar file variants: (field, token) written into line 101, None drops the field
VARIANT_LINE = 100
VARIANT_EDITS = {
    "fields": (6, None),
    "label": (60, "Q"),
    "range": (6, "1.5"),
    "token": (6, "abc"),
    "nan": (6, "nan"),
    "underscore": (6, "0.1_5"),
}
VARIANTS = (*VARIANT_EDITS, "loose", "not-utf8")
# two features whose first column's mean overflows float64
OVERFLOW_CSV = "1e308,0.5,R\n1e308,0.25,M\n-1e308,0.75,R\n1e308,0.1,M\n"
# two features whose held-out first value standardizes to infinity
HELD_OUT_OVERFLOW_CSV = "0.1,0.5,R\n0.2,0.25,M\n0.3,0.75,R\n1e308,0.1,M\n"
HELD_OUT_OVERFLOW_SPLIT = "[train]\n1\n2\n3\n[test]\n4\n"
# artifacts and a config file the CLI rejects, written into the scratch root
REJECTED_FILES = {
    "w-underscore.txt": "0.5\n1_0\n",
    "duplicate.cfg": "max_epochs=5\nmax_epochs=7\n",
    "net-plus.txt": "H=+1\n1.0\n2.0\n3.0\n",
    "net-value.txt": "H=1\n1.0\nx\n3.0\n",
}


def random_split_text(raw, seed, n_mines=49, n_rocks=55):
    """A split file drawn like perfbench's verify-sweep splits: ``n_mines``
    mines and ``n_rocks`` rocks learn, the rest are held out."""
    rng = np.random.default_rng(seed)
    mines = raw.mu[raw.tau == -1].tolist()
    rocks = raw.mu[raw.tau == 1].tolist()
    learn = set(rng.choice(mines, n_mines, replace=False).tolist())
    learn |= set(rng.choice(rocks, n_rocks, replace=False).tolist())
    held = sorted(set(mines + rocks) - learn)
    return ("[train]\n" + "".join(f"{m}\n" for m in sorted(learn))
            + "[test]\n" + "".join(f"{m}\n" for m in held))


def parity_text(n):
    """All ``n``-bit 0/1 inputs, labelled M when an odd number of bits is 1
    and R otherwise (``xor.csv`` is the case n = 2)."""
    return "".join(",".join(map(str, bits)) + (",M\n" if sum(bits) % 2 else ",R\n")
                   for bits in itertools.product((0, 1), repeat=n))


def random_label_text(seed, n_patterns=40, dims=3):
    """Gaussian points with balanced random labels, drawn like perfbench's
    grow-toy random-label sets, one repr per value."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_patterns, dims))
    tau = rng.permutation(np.repeat((-1, 1), n_patterns // 2))
    return "".join(",".join(map(repr, row.tolist())) + (",M\n" if t < 0 else ",R\n")
                   for row, t in zip(x, tau))


def variant_texts(text):
    """``{variant: text}``: the sonar file with one field of line 101
    edited per ``VARIANT_EDITS``, and ``loose``, the same patterns with
    blank lines, spaces and tabs around the values, and word or lower-case
    labels."""
    lines = text.splitlines()
    out = {}
    for name, (field, token) in VARIANT_EDITS.items():
        fields = lines[VARIANT_LINE].split(",")
        if token is None:
            del fields[field]
        else:
            fields[field] = token
        edited = [*lines[:VARIANT_LINE], ",".join(fields), *lines[VARIANT_LINE + 1:]]
        out[name] = "\n".join(edited) + "\n"
    loose = ["", "  "]
    for k, line in enumerate(lines):
        *values, label = line.split(",")
        label = ("rock" if label == "R" else "mine", label.lower(), f" {label} ")[k % 3]
        loose.append((",", " , ", ",\t")[k % 3].join(values + [label]))
        if k % 50 == 49:
            loose.append("\t")
    out["loose"] = "\n".join(loose) + "\n"
    return out


def run_matrix():
    """(run name, argv) pairs in execution order; ``report`` reads artifacts
    that the earlier runs wrote."""
    runs = []
    # "-json" in the names pairs these runs' keys with older hash files
    for part in ("train", "test", "all"):
        for flip in (False, True):
            name = f"train-{part}-json{'-flip' if flip else ''}"
            runs.append((name, ["train", *SONAR, "--part", part, "--out", name]
                         + (["--flip-labels"] if flip else [])))
    # the certification schedule, with its two-temperature window
    for part in ("train", "test", "all"):
        name = f"train-{part}-separation-json"
        runs.append((name, ["train", *SONAR, "--part", part, "--config",
                            "separation", "--out", name]))
    runs.append(("train-seed-negative", ["train", *SONAR, "--seed", "-1",
                                         "--out", "train-seed-negative"]))
    splits = {"": "balanced.split",
              **{f"random{s}-": f"random{s}.split" for s in RANDOM_SPLIT_SEEDS}}
    for prefix, split_file in splits.items():
        for fmt in ("json", "text"):
            for flip in (False, True):
                name = f"verify-{prefix}{fmt}{'-flip' if flip else ''}"
                runs.append((name, ["verify", "--dataset", "sonar.all-data",
                                    "--split-file", split_file, "--format", fmt,
                                    "--out", name] + (["--flip-labels"] if flip else [])))
    runs.append(("grow-xor-json", [*XOR, "--out", "grow-xor-json"]))
    runs.append(("grow-xor-stall", [*XOR, "--max-hidden", "1",
                                    "--out", "grow-xor-stall"]))
    runs.append(("grow-xor-max-hidden-0", [*XOR, "--max-hidden", "0",
                                           "--out", "grow-xor-max-hidden-0"]))
    # the default schedule, as perfbench's grow-toy workload runs it
    for n in PARITY_BITS:
        runs.append((f"grow-parity{n}", ["grow", "--dataset", f"parity{n}.csv",
                                         "--part", "all", "--out", f"grow-parity{n}"]))
    runs.append(("grow-random-labels", ["grow", "--dataset", "random-labels.csv",
                                        "--part", "all", "--any-range", "--out",
                                        "grow-random-labels"]))
    runs.append(("report", ["report", "train-train-json/weights.txt",
                            "train-test-json/weights.txt",
                            "grow-xor-json/network.txt"]))
    # the growth trace that grow writes, printed verbatim
    runs.append(("report-growth", ["report", "grow-xor-json/growth.csv"]))
    runs.append(("report-mismatch", ["report", "train-train-json/weights.txt",
                                     "w2.txt"]))
    for variant in VARIANTS:
        for command in ("train", "verify"):
            name = f"{command}-{variant}"
            runs.append((name, [command, "--dataset", f"sonar-{variant}.csv",
                                "--split-file", "balanced.split", "--out", name]))
    # the finiteness check that --any-range keeps
    runs.append(("train-nan-any-range", ["train", "--dataset", "sonar-nan.csv",
                                         "--split-file", "balanced.split",
                                         "--any-range", "--out", "train-nan-any-range"]))
    runs.append(("train-overflow-any-range",
                 ["train", "--dataset", "overflow.csv", "--any-range",
                  "--part", "all", "--out", "train-overflow-any-range"]))
    runs.append(("train-standardize-overflow",
                 ["train", "--dataset", "held-out-overflow.csv", "--split-file",
                  "held-out-overflow.split", "--any-range",
                  "--out", "train-standardize-overflow"]))
    runs.append(("report-underscore", ["report", "w-underscore.txt"]))
    runs.append(("train-config-duplicate", ["train", *SONAR, "--config",
                                            "duplicate.cfg", "--out",
                                            "train-config-duplicate"]))
    runs.append(("report-network-plus", ["report", "net-plus.txt"]))
    runs.append(("report-network-value", ["report", "net-value.txt"]))
    return runs


def _sha256(data: bytes):
    return hashlib.sha256(data).hexdigest()


def _parsed_sha256(data: bytes | str):
    """sha256 of JSON bytes re-dumped with no whitespace and sorted keys."""
    return _sha256(json.dumps(json.loads(data), sort_keys=True).encode())


def write_inputs(root: Path):
    """Write every input file the matrix reads into ``root``."""
    # imported here, so that --compare needs no checkout on PYTHONPATH
    import monoplane
    from monoplane import data
    assets = Path(monoplane.__file__).resolve().parent / "assets"
    shutil.copyfile(SONAR_FILE, root / "sonar.all-data")
    for name, source in ASSET_INPUTS.items():
        shutil.copyfile(assets / source, root / name)
    (root / "xor.cfg").write_text(XOR_CFG)
    raw = data.load_file(root / "sonar.all-data")
    for seed in RANDOM_SPLIT_SEEDS:
        (root / f"random{seed}.split").write_text(random_split_text(raw, seed))
    for n in PARITY_BITS:
        (root / f"parity{n}.csv").write_text(parity_text(n))
    (root / "random-labels.csv").write_text(random_label_text(RANDOM_LABEL_SEED))
    for variant, text in variant_texts((root / "sonar.all-data").read_text()).items():
        (root / f"sonar-{variant}.csv").write_text(text)
    (root / "sonar-not-utf8.csv").write_bytes(
        b"\xff" + (root / "sonar.all-data").read_bytes())
    (root / "w2.txt").write_text("1.0\n2.0\n")
    (root / "overflow.csv").write_text(OVERFLOW_CSV)
    (root / "held-out-overflow.csv").write_text(HELD_OUT_OVERFLOW_CSV)
    (root / "held-out-overflow.split").write_text(HELD_OUT_OVERFLOW_SPLIT)
    for name, text in REJECTED_FILES.items():
        (root / name).write_text(text)


def hashes(root: Path):
    """Run the matrix inside ``root`` and return the hash of every item."""
    from monoplane import cli
    write_inputs(root)
    out = {}
    for name, argv in run_matrix():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:
                rc = type(exc).__name__
        out[f"{name}/exit"] = _sha256(str(rc).encode())
        out[f"{name}/stdout"] = _sha256(stdout.getvalue().encode())
        out[f"{name}/stderr"] = _sha256(stderr.getvalue().encode())
        if argv[0] == "verify" and "json" in argv and stdout.getvalue():
            out[f"{name}/stdout#parsed"] = _parsed_sha256(stdout.getvalue())
        run_dir = root / name
        if run_dir.is_dir():
            for f in sorted(p for p in run_dir.rglob("*") if p.is_file()):
                key = f"{name}/{f.relative_to(run_dir).as_posix()}"
                out[key] = _sha256(f.read_bytes())
                if f.suffix == ".json":
                    out[f"{key}#parsed"] = _parsed_sha256(f.read_bytes())
    return out


def compare(parent_path, change_path):
    """Print each key whose hash differs between the two files, or that only
    one of them has; return 1 if there is any, else 0."""
    parent, change = (json.loads(Path(p).read_text()) for p in (parent_path, change_path))
    keys = parent.keys() | change.keys()
    differ = sorted(k for k in keys if parent.get(k) != change.get(k))
    for key in differ:
        where = ("differs" if key in parent and key in change
                 else f"only in {parent_path if key in parent else change_path}")
        print(f"{key}: {where}")
    print(f"{len(differ)} of {len(keys)} items differ")
    return 1 if differ else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(*argv[1:])
    if len(argv) != 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    target = Path(argv[0]).resolve()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as tmp:
        os.chdir(tmp)
        try:
            result = hashes(Path(tmp))
        finally:
            os.chdir(cwd)
    target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} items -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
