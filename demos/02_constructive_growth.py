"""Growing a hidden layer until the training set is learned exactly.

The growth rule is the first-layer construction of a parity machine: each
new hidden unit learns targets tau_{h+1} = tau_h * sigma_h, i.e. it is
asked to flag the previous unit's mistakes. Unrolling gives the parity
identity tau = (prod sigma_k) * tau_{h+1}, so once some unit is errorless
on its own targets, the true labels are a fixed function of the realized
hidden states and an output perceptron finishes the job. XOR is the
classic minimal example: one hyperplane cannot cut it, two can.

Run:  python demos/02_constructive_growth.py
"""

import numpy as np

from monoplane import (
    PatternSet, TrainingConfig, grow_network, hidden_states, internal_targets,
    network_output,
)


def xor_patterns():
    rows = [(0, 0, +1), (0, 1, -1), (1, 0, -1), (1, 1, +1)]
    Xi = np.array([[1.0, (a - 0.5) / 0.5, (b - 0.5) / 0.5] for a, b, _ in rows])
    return PatternSet(Xi=Xi, tau=np.array([t for _, _, t in rows]),
                      mu=np.arange(1, len(rows) + 1))


def main():
    pats = xor_patterns()
    print("XOR over {-1,+1}^2, labels:", pats.tau.tolist())

    cfg = TrainingConfig(t_initial=1.0, t_min=1e-4, t_decay=0.995,
                         learning_rate=0.05, max_epochs=3000, seed=1)
    model, trace = grow_network(pats, cfg)

    print(f"\ngrown network: H = {len(model.hidden)} hidden units")
    print("internal-error sequence:", trace.units)
    for n_hidden, net_errs in trace.output_attempts:
        print(f"output unit trained over {n_hidden} hidden states -> "
              f"{net_errs} network errors")

    print("\nper-pattern bookkeeping (parity identity):")
    tau = pats.tau
    states = hidden_states(model, pats.Xi)
    targets = tau.copy()
    prod = np.ones(len(pats), dtype=int)
    print(f"  tau    : {tau}")
    for h in range(states.shape[1]):
        targets = internal_targets(targets, states[:, h])
        prod *= states[:, h]
        print(f"  sigma_{h + 1}: {states[:, h]}   residual target: {targets}")
        assert np.array_equal(tau, prod * targets)
    print("  identity tau = (prod sigma) * residual holds at every step")

    outputs = network_output(model, pats.Xi)
    print(f"\nnetwork outputs: {outputs.tolist()}  -> "
          f"{np.count_nonzero(outputs != tau)} errors")


if __name__ == "__main__":
    main()
