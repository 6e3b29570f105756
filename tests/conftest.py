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
