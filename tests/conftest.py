import math

import numpy as np
import pytest

from cvbench import fock


@pytest.fixture
def state_stack():
    """Builder of a (5, cutoff, cutoff) stack of test states.

    Coherent projectors at several phases, plus a full-rank displaced
    thermal state.
    """
    def build(cutoff):
        kets = fock.coherent_amplitudes([0.0, 0.9 - 0.4j, -0.7j, 1.3], cutoff).T
        stack = kets[:, :, None] * kets.conj()[:, None, :]
        mixed = fock.gaussian_state_fock([0.5, -0.8], [[0.9, 0.1], [0.1, 0.7]], cutoff)
        return np.concatenate([stack, mixed.matrix[None]])
    return build


@pytest.fixture
def per_node_average():
    """`fock.average_fidelity_fock` as the operator loop it replaces.

    The input projectors |r><r| of the prior rule go through `applier` as
    operators, in stacks of about 2**21 entries (64 projectors at cutoff 180,
    one stack up to cutoff 40; a map acts on each operator of a stack as on
    that operator alone), and the fidelities are summed in rule order; the
    error is the closed-form truncation bound plus its roundoff floor.
    Takes any map FockOperator -> FockOperator, phase-covariant or not.
    """
    def average(applier, eta, lam, cutoff):
        radii, weights = fock.prior_rule(eta, lam, cutoff)
        step = max(1, (1 << 21) // cutoff ** 2)
        total = 0.0
        for start in range(0, cutoff, step):
            r = radii[start:start + step]
            kets_in = fock.FockVector(fock.coherent_amplitudes(r, cutoff).T)
            kets_out = fock.FockVector(fock.coherent_amplitudes(math.sqrt(eta) * r, cutoff).T)
            fids = fock.fidelity_pure(kets_out, applier(kets_in.projector()))
            for w, f in zip(weights[start:start + step], fids):
                total += w * f
        tau_in, tau_out = (1.0 + lam) ** -cutoff, (eta / (lam + eta)) ** cutoff
        error = 2 * math.sqrt(tau_in) + 2 * math.sqrt(tau_out) + tau_out \
            + cutoff ** 2 * np.finfo(float).eps
        return total, error
    return average
