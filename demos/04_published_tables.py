"""Checking the published weight tables against the canonical data.

Three separator weight vectors were published for this benchmark (one per
learning set), along with their pairwise cosines and the per-pattern lists
of generalization errors. This script replays the whole verification and
prints the narrative ``monoplane verify`` prints: per standardization mode,
the error counts beside the published ones and the misclassification sets'
diff; the published vectors' norms and cosines in both formula variants;
and the error counts over every vector the truncation allows (the tables
carry 4 decimals, so each component is only known to within 5e-5).

Spoiler: the published tables do NOT reproduce on the canonical data file
under any mode, while the separability claims themselves do (see demo 03).
The verification report makes the mismatch precise instead of hiding it.

Run:  python demos/04_published_tables.py  [path/to/sonar.all-data]
"""

import sys
from pathlib import Path

from monoplane import load_file, load_split_file, split, verify_published, verify_text

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
    print(verify_text(verify_published(train_raw, test_raw)), end="")
    print("The separability claims themselves hold; see demo 03.")


if __name__ == "__main__":
    main()
