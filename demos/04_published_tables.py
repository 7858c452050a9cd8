"""Checking the published weight tables against the canonical data.

Three separator weight vectors were published for this benchmark (one per
learning set), along with their pairwise cosines and the per-pattern lists
of generalization errors. This script replays the whole verification: it
sweeps every standardization mode, diffs the misclassification sets
against the published ones, reports the published vectors' norms and
cosines in both formula variants, and bounds the error counts over every
vector the truncation allows (the tables carry 4 decimals, so each
component is only known to within 5e-5).

Spoiler: the published tables do NOT reproduce on the canonical data file
under any mode, while the separability claims themselves do (see demo 03).
The verification report makes the mismatch precise instead of hiding it.

Run:  python demos/04_published_tables.py  [path/to/sonar.all-data]
"""

import sys
from pathlib import Path

from monoplane import (
    load_file, load_published_table, load_split_file, split,
    verify_published,
)

HERE = Path(__file__).parent


def dataset_path():
    if len(sys.argv) > 1:
        return sys.argv[1]
    return HERE.parent / "tests" / "data" / "sonar.all-data"


def main():
    patterns = load_file(dataset_path())
    spec = load_split_file(HERE.parent / "src" / "monoplane" / "assets"
                           / "splits" / "balanced.split")
    train_raw, test_raw = split(patterns, spec)

    table = load_published_table()
    print(f"published: {len(table['test_side'])} errors of W_Train over Test "
          f"(eps_g {table['error_fraction_test_side']}%), "
          f"{len(table['train_side'])} of W_Test over Train "
          f"(eps_g {table['error_fraction_train_side']}%), "
          f"0 of W_Sonar over all 208")

    report = verify_published(train_raw, test_raw)
    print(f"\nmode sweep ({len(report['modes'])} standardization modes):")
    for r in report["modes"]:
        print(f"  {r['mode']:14s} W_Train/Test {r['counts_test_side'][0]:3d}  "
              f"W_Test/Train {r['counts_train_side'][0]:3d}  "
              f"W_Sonar/all {r['counts_sonar'][0]:3d}  "
              f"table match: {r['table_match_test'] and r['table_match_train']}")
    print(f"closest mode: {report['closest_mode']}")

    print("\npublished vector norms (sqrt(61) = 7.8102 identifies the "
          "normalization ||w||^2 = N+1):")
    for k, v in report["norms"].items():
        print(f"  {k}: {v:.5f}")

    print("\ncosines, true / published-formula / published value:")
    for k, v in report["cosines"].items():
        print(f"  {k:22s} {v['true_cosine']:+.5f} / {v['raw_eq8']:+.5f} "
              f"/ {v['published']}")

    pert = report["perturbation"]
    print(f"\ntruncation perturbation in {pert['mode']} "
          f"(every component +-5e-5, over the whole box):")
    for k, v in pert["spreads"].items():
        print(f"  {k:16s} error count ranges over {v['min']}..{v['max']} "
              f"(smallest |stability| / radius {v['min_ratio']:.2f})")

    print(f"\nverdict: {'REPRODUCED' if report['reproduced'] else 'NOT REPRODUCED'} "
          f"(the separability claims themselves hold; see demo 03)")


if __name__ == "__main__":
    main()
