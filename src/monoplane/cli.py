"""Command-line surface: train, grow, verify.

A finished train or grow run, and verify with --out, writes a manifest
that, together with the dataset bytes, fully determines every output byte:
configuration snapshot (the seed among it), dataset digest, split source,
and the python and numpy versions it ran on. Every input has one source:
--dataset, --split-file, --config and the options the manifest records. No
timestamps, no machine identifiers. Exit codes are a stable contract: 0
success, 1 verification mismatch, 2 usage or I/O error (``error: bad
OPTION: ...`` for a file an option names), a training run that diverged,
or a growth that stalled.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import data as dataio
from . import trace_csv
from .evaluation import evaluate, verify_published, verify_text
from .network import GrowthStallError, grow_network, network_output, save_network
from .perceptron import (
    SEPARATION_CONFIG, TrainingConfig, TrainingError, minimerror_train,
    save_weights,
)


class UsageError(Exception):
    pass


def _named(option, path, read):
    """``read(path)`` of an input that ``option`` names: an OSError becomes
    ``bad OPTION: PATH: <strerror>``, a ValueError ``bad OPTION: <message>``."""
    try:
        return read(path)
    except OSError as exc:
        raise UsageError(f"bad {option}: {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"bad {option}: {exc}") from None


def _load_config(arg):
    if arg is None:
        return TrainingConfig()
    if arg == "separation":
        return SEPARATION_CONFIG
    return _named("--config", arg, TrainingConfig.from_file)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_parts(args):
    """The dataset, and its train and test parts as the split file divides
    it. Only a run that learns ``--part all`` needs no split file; its
    parts are then None. The part a run learns, or both parts for verify,
    which has no --part, must select a pattern."""
    patterns = _named("--dataset", args.dataset, functools.partial(
        dataio.load_file, require_unit_range=not getattr(args, "any_range", False)))
    part = getattr(args, "part", None)
    if not args.split_file:
        if part == "all":
            return patterns, None, None
        raise UsageError((f"--part {part}" if part else "verify")
                         + " needs a --split-file")
    spec = _named("--split-file", args.split_file, dataio.load_split_file)
    try:
        parts = dataio.split(patterns, spec)
    except dataio.SplitError as exc:
        raise UsageError(f"bad --split-file: {args.split_file}: {exc}") from None
    for name, held in zip(("train", "test"), parts):
        if not held and part in (name, None):
            raise UsageError(f"bad --split-file: {args.split_file}: "
                             f"part {name!r} selects no patterns")
    return (patterns, *parts)


def _create(path: Path, binary=False):
    """Open ``path`` for writing, creating its directory, the --out
    directory, first, so that a run that fails before its first artifact
    leaves nothing behind."""
    _named("--out", path.parent, lambda out: out.mkdir(parents=True, exist_ok=True))
    if binary:
        return open(path, "wb")
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: Path, text: str):
    with _create(path) as fh:
        fh.write(text)


def _manifest(args, outputs, config=None):
    """The manifest of a run: its inputs, the options its command reads
    (train and grow: part, any_range and config; verify: format), its
    outputs and the versions it ran on."""
    options = ({"format": args.format} if args.cmd == "verify" else
               {"part": args.part, "any_range": args.any_range,
                "config": config.to_dict()})
    m = {
        "command": args.cmd,
        "dataset": args.dataset,
        "dataset_sha256": _sha256(args.dataset),
        "split_source": args.split_file,
        **options,
        "outputs": sorted(outputs),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
    }
    return json.dumps(m, sort_keys=True) + "\n"


def _blas_build():
    """The BLAS numpy was built with as "<name> <version>", or None."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return None


def _prepare_run(args):
    """Shared prologue of train and grow: load and split the dataset, read
    the config, and standardize the selected part and its held-out
    counterpart, both in the coordinates of the selected part. The output
    directory is created with the first artifact."""
    patterns, train, test = _load_parts(args)
    config = _load_config(args.config)
    learn_raw, eval_raw = {"train": (train, test), "test": (test, train),
                           "all": (patterns, patterns.take([]))}[args.part]
    try:
        stats = dataio.compute_stats(learn_raw)
        learn, evalp = (dataio.standardize(part, stats)
                        for part in (learn_raw, eval_raw))
    except dataio.StatsError as exc:
        raise UsageError(f"bad --dataset: {args.dataset}: {exc}") from None
    return config, learn, evalp, Path(args.out)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _trace_writer():
    """A ``trace_csv`` helper process that formats trace.csv on another CPU
    while the anneal runs, or None: on a host with one usable CPU, where it
    would only take time from the anneal, or when it cannot be started.
    train then formats trace.csv in-process, with the same bytes. On
    leaving, the helper is killed if it still runs, and always reaped."""
    proc = None
    if _usable_cpus() > 1 and sys.executable:
        with contextlib.suppress(OSError):
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", trace_csv.__file__],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL)
    try:
        yield proc
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()
            # stdin holds unsent bytes only if the helper stopped reading
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            proc.stdout.close()


def _sender(proc):
    """An ``on_block`` that sends each block to the helper as it closes."""
    def send(*columns):
        proc.stdin.write(trace_csv.pack_block(*columns))
        proc.stdin.flush()
    return send


def _writer_failed(proc):
    return ChildProcessError(f"trace.csv writer exited {proc.wait()}")


def _await_rows(proc, rows):
    """End the helper's input and read the row count that it writes once
    every block is formatted. A helper that fails, or that formatted other
    than ``rows`` rows, is found here, before any artifact is written; only
    one stopped while it writes its text is found later."""
    proc.stdin.close()
    formatted = trace_csv.read_count(proc.stdout)
    if formatted is None:
        raise _writer_failed(proc)
    if formatted != rows:
        raise ChildProcessError(
            f"trace.csv writer formatted {formatted} rows, not {rows}")


_COPY_BYTES = 1 << 16


def _copy_trace(proc, fh, rows):
    """Copy the helper's text into the binary file ``fh``, ``_COPY_BYTES``
    at a time, and check that the helper exited 0 after writing the header
    and one line per row."""
    lines = 0
    while chunk := proc.stdout.read(_COPY_BYTES):
        lines += chunk.count(b"\n")
        fh.write(chunk)
    if proc.wait() != 0:
        raise _writer_failed(proc)
    if lines != rows + 1:
        raise ChildProcessError(
            f"trace.csv writer wrote {lines} lines, not {rows + 1}")


def cmd_train(args):
    config, learn, evalp, out_dir = _prepare_run(args)
    with _trace_writer() as writer:
        try:
            w, trace = minimerror_train(
                learn, config,
                on_block=None if writer is None else _sender(writer))
        except BrokenPipeError:
            # the helper stopped reading: report how it ended
            raise _writer_failed(writer) from None
        if writer is not None:
            _await_rows(writer, len(trace))

        with _create(out_dir / "weights.txt") as fh:
            save_weights(w, fh)
        with _create(out_dir / "trace.csv", binary=writer is not None) as fh:
            if writer is None:
                trace.to_csv(fh)
            else:
                _copy_trace(writer, fh, len(trace))
    outputs = ["weights.txt", "trace.csv", "report.json"]

    report = {
        "part": args.part,
        "learning_set_size": len(learn),
        "training_errors": evaluate(w, learn)["counts"],
        "best_epoch": trace.best_epoch,
        "epochs_run": len(trace),
        "stop": trace.stop,
        "hebbian_fallback": trace.hebbian_fallback,
    }
    if evalp:
        report["generalization"] = evaluate(w, evalp)
    _write(out_dir / "report.json", json.dumps(report, sort_keys=True) + "\n")

    _write(out_dir / "manifest.json", _manifest(args, outputs, config))
    print(f"train: {report['training_errors']['total']}/{len(learn)} training errors"
          + (f", eps_g = {report['generalization']['error_fraction']:.1f}%"
             if evalp else " (no generalization part)"))
    return 0


def cmd_grow(args):
    config, learn, evalp, out_dir = _prepare_run(args)
    try:
        model, gtrace = grow_network(learn, config)
    except GrowthStallError as exc:
        with _create(out_dir / "growth.csv") as fh:
            exc.trace.to_csv(fh)
        print(f"growth stalled: {exc}", file=sys.stderr)
        return 2

    with _create(out_dir / "network.txt") as fh:
        save_network(model, fh)
    with _create(out_dir / "growth.csv") as fh:
        gtrace.to_csv(fh)
    outputs = ["network.txt", "growth.csv", "report.json"]

    # growth returned, so its last output unit is exact on the learning part
    train_errs = gtrace.output_attempts[-1][1]
    report = {
        "part": args.part,
        "hidden_units": len(model.hidden),
        "internal_error_sequence": gtrace.units,
        "training_errors": train_errs,
    }
    if evalp:
        gen_errs = int(np.count_nonzero(network_output(model, evalp.Xi) != evalp.tau))
        report["generalization_errors"] = gen_errs
        report["generalization_fraction"] = round(100.0 * gen_errs / len(evalp), 1)
    _write(out_dir / "report.json", json.dumps(report, sort_keys=True) + "\n")

    _write(out_dir / "manifest.json", _manifest(args, outputs, config))
    print(f"grow: H={len(model.hidden)}, {train_errs}/{len(learn)} training errors")
    return 0


def cmd_verify(args):
    _, train, test = _load_parts(args)
    try:
        report = verify_published(train, test)
    except dataio.StatsError as exc:
        raise UsageError(f"bad --dataset: {args.dataset}: {exc}") from None

    if args.format == "json":
        name, text = "verify.json", json.dumps(report, sort_keys=True) + "\n"
    else:
        name, text = "verify.txt", verify_text(report)

    if args.out:
        out_dir = Path(args.out)
        _write(out_dir / name, text)
        _write(out_dir / "manifest.json", _manifest(args, [name]))
    sys.stdout.write(text)
    return 0 if report["reproduced"] else 1


@functools.cache
def build_parser():
    """The parser ``main`` uses, built on first use (not at import) and
    kept for the process; ``parse_args`` returns a fresh namespace per call."""
    ap = argparse.ArgumentParser(
        prog="monoplane",
        description="Annealed perceptron training, constructive network "
                    "growth, and sonar-benchmark verification.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_training=True):
        p.add_argument("--dataset", required=True, help="benchmark CSV")
        p.add_argument("--split-file", help="[train]/[test] section file of 1-based indices")
        if with_training:
            p.add_argument("--part", choices=("train", "test", "all"), default="train")
            p.add_argument("--config",
                           help="key=value config file, or 'separation' for the "
                                "full-separation schedule")
            p.add_argument("--any-range", action="store_true",
                           help="accept feature values outside [0,1]")
            p.add_argument("--out", default="out", help="output directory")

    p_train = sub.add_parser("train", help="train one annealed perceptron")
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_grow = sub.add_parser("grow", help="grow a network until zero training errors")
    common(p_grow)
    p_grow.set_defaults(fn=cmd_grow)

    p_verify = sub.add_parser("verify", help="check the published weight tables")
    common(p_verify, with_training=False)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None, help="optional output directory")
    p_verify.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
