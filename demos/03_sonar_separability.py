"""Certifying that the sonar benchmark is linearly separable, from scratch.

The claim: the 104-pattern learning part, the 104-pattern generalization
part, and the combined 208-pattern set each admit a hyperplane with every
pattern strictly on its correct side. This script decides each set's
separability, solving for its maximal-stability separator w*, and rechecks
the certificate (every stability under w* is positive). It prints the
bracket on the optimal minimal stability kappa* and the number of patterns
that support w*. The annealed perceptron and the baseline fixed-increment
rule are then trained on the learning part to compare generalization.

Run:  python demos/03_sonar_separability.py  [path/to/sonar.all-data]
"""

import sys
from pathlib import Path

import numpy as np

from monoplane import (
    SEPARATION_CONFIG, TrainingConfig, compute_stats, count_errors,
    load_file, load_split_file, minimerror_train, rosenblatt_train,
    separability, split, standardize,
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

    jobs = [("Train part", train_raw), ("Test part", test_raw),
            ("combined set", patterns)]
    for name, raw in jobs:
        stats = compute_stats(raw)
        std = standardize(raw, stats)
        verdict = separability(std)
        assert verdict.recheck(std)
        if verdict.separable:
            lower, upper = verdict.kappa
            print(f"{name:13s} ({len(std):3d} patterns): separable, "
                  f"kappa* in [{lower:.8f}, {upper:.8f}], "
                  f"{np.count_nonzero(verdict.u)} support patterns")
        else:
            print(f"{name:13s} ({len(std):3d} patterns): not separable "
                  f"(Gordan certificate)")

    # generalization: learn one part, misclassify some of the other
    print("\ngeneralization across the division:")
    stats_tr = compute_stats(train_raw)
    train = standardize(train_raw, stats_tr)
    test_in_tr = standardize(test_raw, stats_tr)
    w_mm, _ = minimerror_train(train, SEPARATION_CONFIG)
    eg = count_errors(w_mm, test_in_tr)
    print(f"  annealed separator: {eg[0]}/104 errors on the held-out part "
          f"(eps_g = {100 * eg[0] / 104:.1f}%, {eg[1]} F+ {eg[2]} F-)")

    egs = []
    for seed in range(5):
        w_rb, _ = rosenblatt_train(
            train, TrainingConfig(seed=seed, learning_rate=1.0,
                                  max_epochs=20000))
        egs.append(count_errors(w_rb, test_in_tr)[0])
    print(f"  fixed-increment rule over 5 seeds: {egs} "
          f"(mean eps_g = {100 * np.mean(egs) / 104:.1f}%)")


if __name__ == "__main__":
    main()
