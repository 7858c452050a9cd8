"""Training one binary perceptron by deterministic annealing.

The trainer minimizes a temperature-smoothed count of training errors,

    E(w, T) = 1/2 sum_mu [1 - tanh(gamma_mu / 2T)],

where gamma is each pattern's signed distance to the hyperplane times its
label. At high temperature every pattern pulls on the weights; as T decays
the window narrows and E sharpens toward the true error count. This script
walks the anneal on the benchmark learning part and shows what the trace
records.

Run:  python demos/01_annealed_perceptron.py  [path/to/sonar.all-data]
"""

import sys
from pathlib import Path

from monoplane import (
    SEPARATION_CONFIG, compute_stats, cost, count_errors, field, load_file,
    load_split_file, minimerror_train, split, standardize,
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
    train_raw, _ = split(patterns, spec)
    print(f"learning part: {len(train_raw)} patterns")

    stats = compute_stats(train_raw)
    train = standardize(train_raw, stats)

    # the smoothed error count interpolates between "everything counts
    # half" at high T and the exact error count at low T
    from monoplane import hebbian_init
    w0, _ = hebbian_init(train)
    for T in (1e6, 10.0, 1.0, 0.1, 0.01):
        print(f"  T={T:>8g}: E = {cost(w0, train, T):8.3f}   "
              f"(P/2 = {len(train) / 2})")
    print(f"  Hebbian start misclassifies {count_errors(w0, train)[0]} patterns")

    print("\nannealing with the full-separation schedule:")
    cfg = SEPARATION_CONFIG
    print(f"  T: {cfg.t_initial} -> {cfg.t_min}, decay {cfg.t_decay}, "
          f"window ratio {cfg.temp_ratio}")
    w, trace = minimerror_train(train, cfg)

    for epoch in (0, 1000, 5000, 20000, trace.best_epoch):
        k = min(epoch, len(trace) - 1)
        print(f"  epoch {epoch:>6}: T={trace.temperature[k]:.2e}  "
              f"E={trace.cost[k]:8.3f}  errors={trace.errors[k]:3d}  "
              f"min stability={trace.min_stability[k]:+.4f}")

    total, fp, fn = count_errors(w, train)
    # stability: tau times the signed distance to the hyperplane
    stabilities = train.tau * field(w, train.Xi)
    print(f"\nretained epoch {trace.best_epoch}: {total} errors "
          f"({fp} false positive, {fn} false negative)")
    print(f"worst stability {stabilities.min():+.4e} "
          f"(positive means strictly separated)")


if __name__ == "__main__":
    main()
