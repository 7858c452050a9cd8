"""Annealed perceptron training and constructive threshold networks.

The library has four layers: ``data`` ingests and standardizes the sonar
benchmark, ``perceptron`` trains single binary units by deterministic
annealing of a smoothed error count, ``network`` grows a single hidden
layer until the training set is learned exactly, and ``evaluation`` decides
separability and checks the published weight tables. ``cli`` ties them
into the ``monoplane`` command.
"""

from .data import (
    LabeledPattern, ParseError, PatternSet, RawPattern, RawSet, SplitError,
    SplitSpec, StandardizationStats, StatsError, compute_stats, load_file,
    load_split_file, parse_sonar_file, parse_split_file, split, standardize,
)
from .evaluation import (
    SeparabilityVerdict, cosine, evaluate, load_published_table,
    load_published_weights, separability, verify_published, verify_text,
)
from .network import (
    GrowthStallError, GrowthTrace, NetworkModel, grow_network, hidden_states,
    internal_targets, load_network, network_output, save_network,
)
from .perceptron import (
    SEPARATION_CONFIG, TrainingConfig, TrainingError, TrainingTrace,
    WeightVector, cost, cost_gradient, count_errors, field, hebbian_init,
    load_weights, minimerror_train, rosenblatt_train, save_weights,
)

__version__ = "0.1.0"
