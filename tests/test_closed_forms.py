"""The scalar closed forms of `cvbench.gaussian` against numpy reference copies.

The references are the numpy forms the closed forms replace: the
complete-positivity test on `np.linalg.eigvalsh` of M's symmetric part, and
the fidelities on 2x2 matrix products and `np.linalg.solve`.  Verdicts must
agree exactly, on seeded channels and on channels within a hair of each of
the test's three 1e-12 tolerances.  Values must agree bit for bit where
numpy's products leave no rounding to choose (diagonal K, no displacement),
and otherwise to a relative 4e-16 times the conditioning of the determinant
and the exponent: numpy's 2x2 products go through the BLAS, whose kernels
may fuse a multiply-add that an unfused scalar sum rounds once more.
"""

import math

import numpy as np
import pytest

from cvbench.gaussian import (GaussianChannel, GaussianState, average_fidelity_gaussian,
                              fidelity_to_coherent, is_cp_channel, is_gain_matched)

VACUUM = 0.5 * np.eye(2)
TOL = 1e-12
REL = 4e-16


def ref_is_cp(K, M):
    if abs(M[0, 1] - M[1, 0]) > TOL:
        return False
    if np.linalg.eigvalsh(0.5 * (M + M.T))[0] < -TOL:
        return False
    det_m = max(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0], 0.0)
    det_k = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    return math.sqrt(det_m) >= 0.5 * abs(det_k - 1.0) - TOL


def ref_average_fidelity(K, M, disp, eta, lam):
    """(value, conditioning) of the numpy form, gain-matched branch included."""
    sigma = VACUUM + (K @ VACUUM @ K.T + M)
    if is_gain_matched(GaussianChannel(K, M, disp), eta):
        det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
        kappa = (abs(sigma[0, 0] * sigma[1, 1]) + abs(sigma[0, 1] * sigma[1, 0])) / det
        return float(1.0 / math.sqrt(det)), kappa
    A = K - math.sqrt(eta) * np.eye(2)
    R = lam * sigma + A @ A.T
    det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
    expo = -0.5 * lam * float(disp @ np.linalg.solve(R, disp))
    kappa = (abs(R[0, 0] * R[1, 1]) + abs(R[0, 1] * R[1, 0])) / det * (1.0 + abs(expo))
    return float(lam / math.sqrt(det) * math.exp(expo)), kappa


def ref_fidelity_to_coherent(d, gamma, beta):
    sigma = VACUUM + gamma
    delta = d - math.sqrt(2.0) * np.array([beta.real, beta.imag])
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    expo = -0.5 * float(delta @ np.linalg.solve(sigma, delta))
    kappa = (abs(sigma[0, 0] * sigma[1, 1]) + abs(sigma[0, 1] * sigma[1, 0])) / det \
        * (1.0 + abs(expo))
    return float(math.exp(expo) / math.sqrt(det)), kappa


def rotated(low, high, theta):
    """The symmetric matrix of principal values (low, high) at angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c * low + s * s * high, c * s * (low - high)],
                     [c * s * (low - high), s * s * low + c * c * high]])


def seeded_channels(n=2400, seed=2026):
    """(K, M, disp) of CP channels and of channels that fail each CP condition.

    K is diagonal for one in three, and one in two has no displacement.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        K = 0.4 * rng.standard_normal((2, 2)) + rng.uniform(0.4, 1.4) * np.eye(2)
        if i % 3 == 0:
            K = np.diag(np.diag(K))
        floor = abs(K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0] - 1.0) / 2.0
        low, high = np.sort(rng.uniform(0.02, 1.5, 2))
        M = rotated(low, high, rng.uniform(0.0, math.pi) if i % 3 else 0.0)
        # scale M so that sqrt(det M) sits between 0.8 and 2 floors: about one
        # in eight channels fails the determinant condition
        M *= max(floor, 0.01) * rng.uniform(0.8, 2.0) / math.sqrt(low * high)
        kind = i % 8
        if kind == 6:                      # a negative principal value
            M = rotated(-rng.uniform(1e-6, 0.3), high, rng.uniform(0.0, math.pi))
        elif kind == 7:                    # asymmetric M
            M = M + np.array([[0.0, 1.0], [0.0, 0.0]]) * rng.uniform(1e-11, 1e-3)
        disp = np.zeros(2) if i % 2 else 0.5 * rng.standard_normal(2)
        out.append((K, M, disp))
    return out


def boundary_channels():
    """Channels within eps of each 1e-12 tolerance of the CP test, on either side."""
    out = []
    for eps in (1e-13, 1e-14, 2e-15):
        for sign in (-1.0, 1.0):
            for theta in (0.0, 0.3, 1.1, math.pi / 2):
                for high in (0.4, 1.0, 3.0):
                    # smaller principal value of M at -1e-12 +- eps
                    M = rotated(-TOL + sign * eps, high, theta)
                    out.append((np.eye(2), M, np.zeros(2)))
            for base in (0.0, 0.3, -0.6):
                # asymmetry |M01 - M10| at 1e-12 +- eps
                M = np.array([[1.0, base], [base + TOL + sign * eps, 1.0]])
                out.append((np.eye(2), M, np.zeros(2)))
            for g in (0.5, 0.9, 1.3, 2.0):
                # sqrt(det M) - |det K - 1|/2 at -1e-12 +- eps
                m = abs(g * g - 1.0) / 2.0 - TOL + sign * eps
                out.append((g * np.eye(2), m * np.eye(2), np.zeros(2)))
    return out


CHANNELS = seeded_channels()
BOUNDARY = boundary_channels()


def test_seeded_channels_cover_every_verdict():
    verdicts = [ref_is_cp(K, M) for K, M, _ in CHANNELS]
    assert 0.6 * len(CHANNELS) < sum(verdicts) < 0.9 * len(CHANNELS)


@pytest.mark.parametrize("cases", [CHANNELS, BOUNDARY], ids=["seeded", "boundary"])
def test_cp_verdict_matches_the_eigvalsh_reference(cases):
    for K, M, disp in cases:
        assert is_cp_channel(GaussianChannel(K, M, disp)) == ref_is_cp(K, M), (K, M)


def test_boundary_channels_sit_on_both_sides_of_each_tolerance():
    verdicts = [ref_is_cp(K, M) for K, M, _ in BOUNDARY]
    assert len(BOUNDARY) == 2 * 3 * (12 + 3 + 4)
    assert sum(verdicts) == len(BOUNDARY) // 2


def test_average_fidelity_matches_the_solve_reference():
    rng = np.random.default_rng(7)
    exact = 0
    for K, M, disp in CHANNELS + BOUNDARY:
        channel = GaussianChannel(K, M, disp)
        if not is_cp_channel(channel):
            continue
        eta, lam = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.05, 1.0))
        got = average_fidelity_gaussian(channel, eta, lam)
        want, kappa = ref_average_fidelity(K, M, disp, eta, lam)
        if K[0, 1] == K[1, 0] == 0.0 and not disp.any():
            assert got == want, (K, M, eta, lam)
            exact += 1
        assert abs(got - want) <= REL * kappa * want, (K, M, disp, eta, lam)
    assert exact > 200


def test_gain_matched_fidelity_matches_bit_for_bit():
    for g in (0.3, 0.8, 1.0, 1.7):
        for m in abs(g * g - 1.0) / 2.0 + np.array([0.0, 0.2, 1.3]):
            K, M, disp = g * np.eye(2), np.diag([m, m + 0.1]), np.zeros(2)
            for lam in (0.0, 0.3):
                want, _ = ref_average_fidelity(K, M, disp, g * g, lam)
                assert average_fidelity_gaussian(GaussianChannel(K, M), g * g, lam) == want


def test_fidelity_to_coherent_matches_the_solve_reference():
    rng = np.random.default_rng(11)
    for i in range(2000):
        low = rng.uniform(0.25, 2.0)
        high = rng.uniform(0.25 / low, 3.0) + 0.25 / low
        gamma = rotated(low, high, rng.uniform(0.0, math.pi) if i % 2 else 0.0)
        beta = complex(*rng.standard_normal(2))
        d = math.sqrt(2.0) * np.array([beta.real, beta.imag])
        if i % 3:
            d = d + rng.standard_normal(2)
        got = fidelity_to_coherent(GaussianState(d, gamma), beta)
        want, kappa = ref_fidelity_to_coherent(d, gamma, beta)
        if i % 3 == 0:
            assert got == want, (gamma, beta)
        assert abs(got - want) <= REL * kappa * want, (d, gamma, beta)


@pytest.mark.parametrize("disp", [[1e308, 1e308], [-1e308, 1e308], [1e308, 0.0],
                                  [0.0, -1e308], [1e200, -1e200]])
def test_huge_displacements_give_zero_not_nan(disp):
    channel = GaussianChannel(0.7 * np.eye(2), 0.6 * np.eye(2), disp)
    assert average_fidelity_gaussian(channel, 0.5, 0.3) == 0.0
    state = GaussianState(disp, VACUUM)
    assert fidelity_to_coherent(state, 0.0) == 0.0
