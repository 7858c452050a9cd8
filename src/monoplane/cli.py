"""Command-line surface: train, grow, verify, report.

A finished train or grow run, and verify with --out, writes a manifest
that, together with the dataset bytes, fully determines every output byte:
configuration snapshot (the seed among it), dataset digest, split source,
and the python and numpy versions it ran on. Every input has one source:
--dataset, --split-file, --config and the options the manifest records. No
timestamps, no machine identifiers. Exit codes are a stable contract: 0
success, 1 verification mismatch, 2 usage or I/O error, or a training run
that diverged.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import data as dataio
from .evaluation import cosine, evaluate, published_counts, verify_published
from .network import (
    GrowthStallError, grow_network, load_network, network_output, save_network,
)
from .perceptron import (
    SEPARATION_CONFIG, TrainingConfig, TrainingError, load_weights,
    minimerror_train, save_weights, weights_to_table_text,
)


class UsageError(Exception):
    pass


def _load_config(arg):
    if arg is None:
        cfg = TrainingConfig()
    elif arg == "separation":
        cfg = SEPARATION_CONFIG
    else:
        if not os.path.exists(arg):
            raise UsageError(f"config file not found: {arg}")
        try:
            cfg = TrainingConfig.from_file(arg)
        except ValueError as exc:
            raise UsageError(f"bad --config: {exc}") from None
    return cfg


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_parts(args):
    path = args.dataset
    if not os.path.exists(path):
        raise UsageError(f"dataset not found: {path}")
    patterns = dataio.load_file(
        path, require_unit_range=not getattr(args, "any_range", False))
    if args.split_file:
        if not os.path.exists(args.split_file):
            raise UsageError(f"split file not found: {args.split_file}")
        spec = dataio.load_split_file(args.split_file)
        split_source = args.split_file
    else:
        spec = dataio.default_split(patterns)
        split_source = "default(mu<=104)"
    train, test = dataio.split(patterns, spec)
    return path, patterns, train, test, split_source


def _create(path: Path):
    """Open ``path`` for writing, creating its directory first, so that a
    run that fails before its first artifact leaves nothing behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: Path, text: str):
    with _create(path) as fh:
        fh.write(text)


def _manifest(args, command, dataset_path, split_source, config, outputs):
    m = {
        "command": command,
        "dataset": str(dataset_path),
        "dataset_sha256": _sha256(dataset_path),
        "split_source": split_source,
        "part": getattr(args, "part", None),
        "scale": getattr(args, "scale", None),
        "stats_from": getattr(args, "stats_from", None),
        "flip_labels": bool(getattr(args, "flip_labels", False)),
        "config": config.to_dict() if config is not None else None,
        "format": getattr(args, "format", None),
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
    counterpart. The output directory is created with the first artifact."""
    path, patterns, train, test, split_source = _load_parts(args)
    config = _load_config(args.config)
    learn_raw, eval_raw = {"train": (train, test), "test": (test, train),
                           "all": (patterns, patterns.take([]))}[args.part]
    if not learn_raw:
        raise UsageError(f"part {args.part!r} selects no patterns")
    stats = dataio.compute_stats(
        patterns if args.stats_from == "all" else learn_raw, mode=args.scale)
    learn, evalp = (dataio.standardize(part, stats, flip_labels=args.flip_labels)
                    for part in (learn_raw, eval_raw))
    return path, split_source, config, learn, evalp, Path(args.out)


def cmd_train(args):
    path, split_source, config, learn, evalp, out_dir = _prepare_run(args)
    w, trace = minimerror_train(learn, config)

    with _create(out_dir / "weights.txt") as fh:
        save_weights(w, fh)
    with _create(out_dir / "trace.csv") as fh:
        trace.to_csv(fh)
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

    _write(out_dir / "manifest.json",
           _manifest(args, "train", path, split_source, config, outputs))
    print(f"train: {report['training_errors']['total']}/{len(learn)} training errors"
          + (f", eps_g = {report['generalization']['error_fraction']:.1f}%"
             if evalp else " (no generalization part)"))
    return 0


def cmd_grow(args):
    path, split_source, config, learn, evalp, out_dir = _prepare_run(args)
    if args.max_hidden is not None and args.max_hidden < 1:
        raise UsageError(
            f"bad --max-hidden: need max_hidden >= 1, got {args.max_hidden}")
    try:
        model, gtrace = grow_network(learn, config, max_hidden=args.max_hidden)
    except GrowthStallError as exc:
        if exc.trace is not None:
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

    _write(out_dir / "manifest.json",
           _manifest(args, "grow", path, split_source, config, outputs))
    print(f"grow: H={len(model.hidden)}, {train_errs}/{len(learn)} training errors")
    return 0


def _verify_text(report):
    lines = []
    for r in report["modes"]:
        lines.append(f"mode {r['mode']}:")
        for side, label in (("test", "W_Train on Test part"),
                            ("train", "W_Test on Train part")):
            got, pub = r[f"counts_{side}_side"], published_counts(side)
            lines.append(f"  {label}: total={got[0]} F+={got[1]} F-={got[2]} "
                         f"[published {pub[0]}, {pub[1]} F+, {pub[2]} F-]")
        lines.append(f"  W_Sonar on all: total={r['counts_sonar'][0]} [published 0]")
        lines.append(f"  table match: test-side={r['table_match_test']} "
                     f"train-side={r['table_match_train']}")
        for side in ("test", "train"):
            if not r[f"table_match_{side}"]:
                lines.append(f"    {side}-side missing mu: {r[f'missing_{side}']}")
                lines.append(f"    {side}-side extra mu:   {r[f'extra_{side}']}")
        gc = r["gamma_check"]
        lines.append(f"  gamma(W_Sonar) spot-check: {gc['n_within_1e-3']}/"
                     f"{len(gc['rows'])} within 1e-3 (max abs err "
                     f"{gc['max_abs_err'] if gc['max_abs_err'] is None else round(gc['max_abs_err'], 6)})")
    lines.append(f"closest mode: {report['closest_mode']}")
    lines.append("published vector norms (sqrt(61) = 7.81025):")
    for k, v in report["norms"].items():
        lines.append(f"  {k}: {v:.5f}")
    lines.append("cosines (true / raw-eq8 / published):")
    for k, v in report["cosines"].items():
        lines.append(f"  {k}: {v['true_cosine']:.5f} / {v['raw_eq8']:.5f} "
                     f"/ {v['published']}")
    pert = report["perturbation"]
    lines.append(f"truncation perturbation in {pert['mode']} (+-5e-5 per component), "
                 f"error-count spread:")
    for k, v in pert["spreads"].items():
        lines.append(f"  {k}: min={v['min']} max={v['max']}")
    lines.append(f"verdict: {'REPRODUCED' if report['reproduced'] else 'NOT REPRODUCED'}")
    return "\n".join(lines) + "\n"


def cmd_verify(args):
    path, patterns, train, test, split_source = _load_parts(args)
    if not train or not test:
        raise UsageError("verification needs both a train and a test part")
    if patterns.X.shape[1] != 60:
        raise UsageError(f"verification needs 60 features per pattern, "
                         f"{path} has {patterns.X.shape[1]}")
    report = verify_published(train, test, flip_labels=args.flip_labels)

    if args.format == "json":
        name, text = "verify.json", json.dumps(report, sort_keys=True) + "\n"
    else:
        name, text = "verify.txt", _verify_text(report)

    if args.out:
        out_dir = Path(args.out)
        _write(out_dir / name, text)
        _write(out_dir / "manifest.json",
               _manifest(args, "verify", path, split_source, None, [name]))
    sys.stdout.write(text)
    return 0 if report["reproduced"] else 1


def cmd_report(args):
    texts = []
    loaded = []
    for p in args.artifacts:
        if not os.path.exists(p):
            raise UsageError(f"artifact not found: {p}")
        try:
            content = Path(p).read_text(encoding="utf-8")
            first = content.lstrip().split("\n", 1)[0]
            if first.startswith("H="):
                model = load_network(content)
                texts.append(f"{p}: network with H={len(model.hidden)} hidden "
                             f"units, {len(model.hidden[0])} inputs each")
            elif first.startswith(("epoch,", "unit,", "mode", "{")):
                # a trace, a growth trace, or a report of train, grow or
                # verify, verbatim
                texts.append(f"{p}:\n{content.rstrip()}")
            else:
                w = load_weights(content)
                loaded.append(w)
                texts.append(f"{p}: {len(w)} weights, norm {w.norm!r}\n"
                             + weights_to_table_text(w).rstrip())
        except ValueError as exc:
            # a malformed artifact (or non-UTF-8 bytes) is a usage error
            raise UsageError(f"cannot read {p}: {exc}") from None
    if len(loaded) == 2:
        try:
            c = cosine(loaded[0], loaded[1], raw_eq8=args.raw_eq8)
        except ValueError as exc:
            raise UsageError(f"cannot compare the two weight vectors: {exc}") from None
        mode = "raw-eq8" if args.raw_eq8 else "true"
        texts.append(f"pairwise cosine ({mode}): {c!r}")
    print("\n".join(texts))
    return 0


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
        p.add_argument("--flip-labels", action="store_true",
                       help="swap the +-1 class mapping")
        if with_training:
            p.add_argument("--part", choices=("train", "test", "all"), default="train")
            p.add_argument("--scale", choices=("std", "variance"), default="std")
            p.add_argument("--stats-from", choices=("part", "all"), default="part")
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
    p_grow.add_argument("--max-hidden", type=int, default=None)
    p_grow.set_defaults(fn=cmd_grow)

    p_verify = sub.add_parser("verify", help="check the published weight tables")
    common(p_verify, with_training=False)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None, help="optional output directory")
    p_verify.set_defaults(fn=cmd_verify)

    p_report = sub.add_parser("report", help="render weight/network/trace artifacts")
    p_report.add_argument("artifacts", nargs="+")
    p_report.add_argument("--raw-eq8", action="store_true",
                          help="divide pairwise dot products by (N+1)^2")
    p_report.set_defaults(fn=cmd_report)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, dataio.ParseError, dataio.SplitError,
            dataio.StatsError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
