"""sha256 of every byte the monoplane CLI produces over a fixed run matrix.

Usage:

    PYTHONPATH=<checkout>/src python scripts/artifact_hashes.py OUT.json
    python scripts/artifact_hashes.py --compare PARENT.json CHANGE.json

Runs ``monoplane.cli.main`` in-process over a fixed matrix of ``train``
(default and separation schedules), ``verify`` (text and json) and
``grow`` (XOR, the Train part of the bundled split, and parity 3 and 4
with the default schedule) invocations, which pass every option of every
command, and writes one JSON object mapping ``<run>/exit``,
``<run>/stdout``, ``<run>/stderr`` and ``<run>/<output file>`` to the
sha256 of those bytes. Each JSON output
is ``json.dumps(obj, sort_keys=True)`` and a newline, so it is hashed once,
as bytes. Run it once with each of two checkouts on ``PYTHONPATH``, then
``--compare`` the two files: it prints each key whose hash differs or that
only one file has, and a count, and exits 1 if there is any, so exit 0
means equal exit codes, streams and artifacts. The matrix gives 200 items.

Every run takes its inputs from copies in a scratch root and names them,
and its ``--out`` directory, relative to that root, so manifests do not
depend on where the checkout or the scratch root lives. ``verify`` also
runs on seeded random class-balanced splits written into that root, because only splits other than the bundled one exercise
the mapping of rows to the paper's layout numbers. ``grow`` also runs on
parity-3 and parity-4 files written there: parity 3 grows three hidden
units, parity 4 stalls with several units trained. It also runs on a
seeded random-label file like perfbench's grow-toy sets (40 Gaussian
points in 3 dimensions, balanced labels, ``--any-range``), whose units
never separate their targets, so every epoch counts its errors and the
retained epoch is chosen among non-separating ones; ``train --any-range``
on that file succeeds, and its manifest records ``"any_range": true``.
``train`` and ``verify`` also run on edited copies of the sonar file
written there: one malformed field, label or value each, one number that
only Python's ``float`` reads (``0.1_5``, which the parser rejects) and
one leading byte that is not UTF-8 (``train`` also on such a config file),
so that every parser diagnostic is hashed, and one well-formed file in a
loose layout. ``train --seed -1`` hashes argparse's usage error for an
option that train does not take, ``train`` without a split file the error
of a part that needs one, ``train --any-range`` on a file of finite values
whose mean overflows the error of non-finite statistics,
``train --any-range`` on a held-out value that standardizes to infinity
the error naming that pattern, and ``train`` on a config file that sets
``max_epochs`` twice the error of a repeated key.

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
# a config file the CLI rejects, written into the scratch root
DUPLICATE_CFG = "max_epochs=5\nmax_epochs=7\n"


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
    """(run name, argv) pairs in execution order."""
    runs = []
    # "-json" in the names pairs these runs' keys with older hash files
    for part in ("train", "test", "all"):
        name = f"train-{part}-json"
        runs.append((name, ["train", *SONAR, "--part", part, "--out", name]))
    # the certification schedule, with its two-temperature window
    for part in ("train", "test", "all"):
        name = f"train-{part}-separation-json"
        runs.append((name, ["train", *SONAR, "--part", part, "--config",
                            "separation", "--out", name]))
    runs.append(("train-seed-negative", ["train", *SONAR, "--seed", "-1",
                                         "--out", "train-seed-negative"]))
    runs.append(("train-no-split", ["train", "--dataset", "sonar.all-data",
                                    "--out", "train-no-split"]))
    splits = {"": "balanced.split",
              **{f"random{s}-": f"random{s}.split" for s in RANDOM_SPLIT_SEEDS}}
    for prefix, split_file in splits.items():
        for fmt in ("json", "text"):
            name = f"verify-{prefix}{fmt}"
            runs.append((name, ["verify", "--dataset", "sonar.all-data", "--split-file",
                                split_file, "--format", fmt, "--out", name]))
    runs.append(("grow-xor-json", [*XOR, "--out", "grow-xor-json"]))
    # the Train part of the bundled split: units with 9, 2 and 0 internal
    # errors, then an output unit with 2 errors, so growth stalls
    runs.append(("grow-train-split", ["grow", *SONAR, "--part", "train",
                                      "--out", "grow-train-split"]))
    # the default schedule, as perfbench's grow-toy workload runs it
    for n in PARITY_BITS:
        runs.append((f"grow-parity{n}", ["grow", "--dataset", f"parity{n}.csv",
                                         "--part", "all", "--out", f"grow-parity{n}"]))
    runs.append(("grow-random-labels", ["grow", "--dataset", "random-labels.csv",
                                        "--part", "all", "--any-range", "--out",
                                        "grow-random-labels"]))
    runs.append(("train-random-labels-any-range",
                 ["train", "--dataset", "random-labels.csv", "--part", "all",
                  "--any-range", "--out", "train-random-labels-any-range"]))
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
    for cfg in ("duplicate", "not-utf8"):
        name = f"train-config-{cfg}"
        runs.append((name, ["train", *SONAR, "--config", f"{cfg}.cfg", "--out", name]))
    return runs


def _sha256(data: bytes):
    return hashlib.sha256(data).hexdigest()


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
    (root / "overflow.csv").write_text(OVERFLOW_CSV)
    (root / "held-out-overflow.csv").write_text(HELD_OUT_OVERFLOW_CSV)
    (root / "held-out-overflow.split").write_text(HELD_OUT_OVERFLOW_SPLIT)
    (root / "duplicate.cfg").write_text(DUPLICATE_CFG)
    for name, source in (("sonar-not-utf8.csv", "sonar.all-data"),
                         ("not-utf8.cfg", "xor.cfg")):
        (root / name).write_bytes(b"\xff" + (root / source).read_bytes())


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
        run_dir = root / name
        if run_dir.is_dir():
            for f in sorted(p for p in run_dir.rglob("*") if p.is_file()):
                key = f"{name}/{f.relative_to(run_dir).as_posix()}"
                out[key] = _sha256(f.read_bytes())
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
