"""Constructive growth of a single-hidden-layer threshold network.

Hidden units are appended one at a time. Unit 1 learns the true labels;
each later unit learns the internal targets

    tau_{h+1} = tau_h * sigma_h

which are +1 where the previous unit was right on its own targets and -1
where it erred. Unrolling the recursion gives the parity identity

    tau = (prod_{k<=h} sigma_k) * tau_{h+1}

so once some unit reaches zero errors on its targets, the true label is a
function of the hidden states realized on the training set, and an output
perceptron is trained over the internal representations (1, sigma_1..H).
Every appended unit must strictly reduce the internal error count of its
predecessor; a unit that fails to do so stalls the growth, which surfaces
as an error carrying the trace. Growth also stalls when the output unit
over an errorless unit's states cannot reach zero errors: the next unit's
targets would all be +1, and no unit can have fewer than its
predecessor's zero errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .data import PatternSet, read_number
from .perceptron import (
    TrainingConfig, WeightVector, minimerror_train, save_weights,
)


class GrowthStallError(RuntimeError):
    """Growth stalled (see ``grow_network``); ``trace`` is the growth so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class NetworkModel:
    """Ordered hidden-unit weights over the input, plus output-unit weights.

    The output unit has H+1 components: index 0 multiplies the constant
    hidden bias state sigma_0 = 1.
    """

    hidden: tuple
    output: WeightVector

    def __post_init__(self):
        if len(self.hidden) < 1:
            raise ValueError("a network needs at least one hidden unit")
        if len(self.output) != len(self.hidden) + 1:
            raise ValueError(
                f"output unit has {len(self.output)} weights, "
                f"expected {len(self.hidden) + 1}"
            )


@dataclass
class GrowthTrace:
    """What growth did, in growth order: ``units`` holds the internal error
    count of every trained unit (unit h at index h - 1), and
    ``output_attempts`` one (hidden units, network errors) pair per output
    unit trained."""

    units: list = dc_field(default_factory=list)
    output_attempts: list = dc_field(default_factory=list)

    def to_csv(self, stream):
        stream.write("unit,internal_errors\n")
        for h, errs in enumerate(self.units, start=1):
            stream.write(f"{h},{errs}\n")
        stream.write("output_attempt_after_units,network_errors\n")
        for n_hidden, net_errs in self.output_attempts:
            stream.write(f"{n_hidden},{net_errs}\n")


def _sign(x):
    """+1 where x >= 0, else -1. A unit must realize a +-1 output for every
    pattern, so a zero field gives +1; perceptron.count_errors instead
    counts a zero field as an error, because a separation certificate
    needs every stability strictly positive."""
    return np.where(np.asarray(x) >= 0.0, 1, -1)


def hidden_states(model: NetworkModel, X):
    """States sigma_h = sign(w_h . xi) of every hidden unit, as +-1 ints.

    X is one pattern, giving an (H,) array, or a (P, dim) matrix, giving
    (P, H): row mu holds the states of pattern mu.
    """
    X = np.asarray(X, dtype=float)
    W = np.column_stack([u.w for u in model.hidden])
    if X.shape[-1:] != W.shape[:1]:
        raise ValueError(f"patterns of shape {X.shape} do not have the "
                         f"{W.shape[0]} components the hidden units expect")
    return _sign(X @ W)


def network_output(model: NetworkModel, X):
    """zeta = sign(W . (1, sigma_1..H)) in {-1, +1}: an int for one
    pattern, a length-P array for a (P, dim) matrix."""
    sigma = hidden_states(model, X)
    reps = np.concatenate([np.ones(sigma.shape[:-1] + (1,)), sigma], axis=-1)
    zeta = _sign(reps @ model.output.w)
    return int(zeta) if zeta.ndim == 0 else zeta


def internal_targets(prev_targets, prev_states):
    """Componentwise product tau_h * sigma_h: the parity recursion."""
    t = np.asarray(prev_targets)
    s = np.asarray(prev_states)
    if t.shape != s.shape:
        raise ValueError(f"targets ({t.shape}) and states ({s.shape}) differ in length")
    return t * s


def grow_network(patterns, config: TrainingConfig):
    """Append annealed-trained hidden units until the output unit is exact.

    Postcondition on success: zero network errors on ``patterns`` and
    H <= max(1, P - 1). Raises GrowthStallError when a new unit cannot
    strictly reduce its predecessor's internal error count, when the output
    unit over an errorless unit's states errs, or when that cap is hit
    first.
    """
    if not patterns:
        raise ValueError("cannot grow a network on an empty pattern set")
    ps = PatternSet.of(patterns)
    Xi, tau, P = ps.Xi, ps.tau, len(ps)
    cap = max(1, P - 1)

    trace = GrowthTrace()
    units = []
    states = []            # realized sigma_h per unit, over the training set
    targets = tau.copy()
    prev_errors = None

    while True:
        # a stall's traceback keeps this frame alive; keep no anneal trace in it
        w = minimerror_train(PatternSet(Xi, targets, ps.mu), config)[0]
        sigma = _sign(Xi @ w.w)
        errs = int(np.sum(sigma != targets))
        trace.units.append(errs)
        if prev_errors is not None and errs >= prev_errors:
            raise GrowthStallError(
                f"unit {len(units) + 1} has {errs} internal errors, "
                f"not fewer than its predecessor's {prev_errors}", trace)
        units.append(w)
        states.append(sigma)

        if errs == 0:
            # internal representations (1, sigma_1..H), one row per pattern
            reps = np.column_stack([np.ones(P), *states])
            out_w = minimerror_train(PatternSet(reps, tau, ps.mu), config)[0]
            model = NetworkModel(hidden=tuple(units), output=out_w)
            net_errs = int(np.count_nonzero(network_output(model, Xi) != tau))
            trace.output_attempts.append((len(units), net_errs))
            if net_errs == 0:
                return model, trace
            # a further unit would learn all-+1 targets and could not have
            # fewer than this unit's zero errors
            raise GrowthStallError(
                f"output unit over {len(units)} hidden units has {net_errs} "
                f"network errors after an errorless unit", trace)

        if len(units) >= cap:
            raise GrowthStallError(
                f"hidden-unit cap {cap} reached with nonzero errors", trace)
        prev_errors = errs
        targets = internal_targets(targets, states[-1])


def save_network(model: NetworkModel, stream):
    """Header ``H=<n>``, then one weight block per hidden unit, then the
    output block (H+1 lines)."""
    stream.write(f"H={len(model.hidden)}\n")
    for w in (*model.hidden, model.output):
        save_weights(w, stream)


def load_network(text) -> NetworkModel:
    """The model ``save_network`` wrote; a number outside the grammar raises
    ValueError naming the ``H=`` header or the value's 1-based line."""
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or not lines[0][1].startswith("H="):
        raise ValueError("network file must start with an H=<n> header")
    try:
        H = read_number(lines[0][1][2:], int)
    except ValueError as exc:
        raise ValueError(f"bad H= header: {exc}") from None
    values = []
    for lineno, v in lines[1:]:
        try:
            values.append(read_number(v))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if H < 1:
        raise ValueError("network must declare at least one hidden unit")
    body = len(values) - (H + 1)
    if body <= 0 or body % H != 0:
        raise ValueError(f"network file has {len(values)} values, "
                         f"inconsistent with H={H}")
    dim = body // H
    hidden = tuple(
        WeightVector(np.array(values[k * dim:(k + 1) * dim]))
        for k in range(H)
    )
    output = WeightVector(np.array(values[H * dim:]))
    return NetworkModel(hidden=hidden, output=output)
