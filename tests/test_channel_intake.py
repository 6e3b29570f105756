"""One channel intake: complete positivity and gain match, each decided in one place.

Every public entry point that takes a channel refuses one that is not
completely positive with the same NotCompletelyPositive and message (the
CLI's exit 3 with it is in test_cli.py).  `is_gain_matched` is exactly the
set of channels the Gaussian engine takes at the flat prior.
"""

import itertools
import math

import numpy as np
import pytest

from cvbench.certify import certify_by_fidelity, detect_gaussian_qd, synthesize_dataset
from cvbench.errors import DomainError, InvalidInput, NotCompletelyPositive
from cvbench.gaussian import (E2, GaussianChannel, GaussianState, apply_channel,
                              average_fidelity_gaussian, is_gain_matched)
from cvbench.schemes import channel_form, fock_applier

CP_MESSAGE = "channel (K, M) fails the complete-positivity criterion"

# isotropic gain 2 with too little noise, and an anisotropic displaced one
NOT_CP = [GaussianChannel(2.0 * E2, E2),
          GaussianChannel(np.array([[2.0, 0.1], [0.0, 1.5]]), 0.1 * E2, np.array([0.2, 0.0]))]

ENTRY_POINTS = {
    "apply_channel": lambda ch: apply_channel(ch, GaussianState.vacuum()),
    "average_fidelity_gaussian": lambda ch: average_fidelity_gaussian(ch, 4.0, 0.3),
    "certify_by_fidelity": lambda ch: certify_by_fidelity(ch, 4.0, 0.3),
    "synthesize_dataset": lambda ch: synthesize_dataset(ch, [1.0, 1j], 10, 0.3),
    "channel_form": channel_form,
    "detect_gaussian_qd": detect_gaussian_qd,
    "fock_applier": fock_applier,
}


@pytest.mark.parametrize("channel", NOT_CP, ids=["isotropic", "anisotropic"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_cp_channel_alike(entry, channel):
    with pytest.raises(NotCompletelyPositive) as info:
        ENTRY_POINTS[entry](channel)
    assert str(info.value) == CP_MESSAGE


# ---------------------------------------------------------------------------
# gain match


def gain_match_cases():
    """Seeded CP channels on both sides of every tolerance of `is_gain_matched`.

    Each case is (channel, eta, whether it is within every tolerance): gain
    k = +-sqrt(eta) offset by (1 +- 0.5) * 1e-12 * max(1, sqrt(eta)), an
    off-diagonal K entry and a displacement of (1 +- 0.5) * 1e-12.
    """
    rng = np.random.default_rng(2024)
    cases = []
    for eta in np.concatenate([[1.0], rng.uniform(0.05, 9.0, size=6)]):
        root = math.sqrt(eta)
        for sign, gain_off, disp_off, skew in itertools.product(
                (1.0, -1.0), (0.0, 0.5, 1.5, -0.5, -1.5), (0.0, 0.5, 1.5), (0.0, 0.5, 1.5)):
            k = sign * (root + gain_off * 1e-12 * max(1.0, root))
            K = k * E2 + np.array([[0.0, skew * 1e-12 * max(1.0, abs(k))], [0.0, 0.0]])
            det_k = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
            noise = abs(det_k - 1.0) / 2.0 + rng.uniform(0.0, 0.3)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            disp = disp_off * 1e-12 * np.array([math.cos(phase), math.sin(phase)])
            within = sign > 0 and abs(gain_off) < 1 and disp_off < 1 and skew < 1
            cases.append((GaussianChannel(K, noise * E2, disp), float(eta), within))
    return cases


def test_gain_match_is_exactly_where_the_engine_takes_the_flat_prior():
    for channel, eta, within in gain_match_cases():
        try:
            average_fidelity_gaussian(channel, eta, 0.0)
            takes_flat_prior = True
        except DomainError:
            takes_flat_prior = False
        assert is_gain_matched(channel, eta) == takes_flat_prior == within, (channel, eta)


def test_gain_match_refuses_a_bad_task_gain():
    with pytest.raises(InvalidInput, match="eta must be positive and finite"):
        is_gain_matched(GaussianChannel.identity(), -1.0)
