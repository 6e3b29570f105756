import math

import numpy as np
import pytest

from cvbench.ensembles import GaussianPrior, gauss_rule
from cvbench.errors import DomainError, InvalidInput, NotCompletelyPositive
from cvbench.gaussian import (E2, GaussianChannel, GaussianState,
                              apply_channel, average_fidelity_gaussian,
                              characteristic_function, coherent_mean, compose,
                              fidelity_to_coherent, is_cp_channel,
                              is_physical_state, isotropic_part)

rng = np.random.default_rng(23)


def random_cp_channel(generator):
    """A generic one-mode Gaussian channel, padded well inside the CP region."""
    K = generator.normal(scale=0.8, size=(2, 2))
    A = generator.normal(scale=0.4, size=(2, 2))
    floor = abs(np.linalg.det(K) - 1.0) / 2.0
    M = A @ A.T + (floor + 0.05) * E2
    disp = generator.normal(scale=0.5, size=2)
    return GaussianChannel(K, M, disp)


random_channels = [random_cp_channel(rng) for _ in range(12)]


def loss_channel(T):
    return GaussianChannel(math.sqrt(T) * E2, (1.0 - T) / 2.0 * E2)


def amp_channel(G):
    return GaussianChannel(math.sqrt(G) * E2, (G - 1.0) / 2.0 * E2)


# ---------------------------------------------------------------------------
# states


def test_vacuum_and_coherent_states():
    vac = GaussianState.vacuum()
    assert np.array_equal(vac.gamma, E2 / 2.0)
    assert np.array_equal(vac.d, np.zeros(2))
    coh = GaussianState.coherent(0.3 - 0.7j)
    assert np.allclose(coh.d, [math.sqrt(2) * 0.3, -math.sqrt(2) * 0.7])
    assert np.array_equal(coh.gamma, E2 / 2.0)
    assert np.allclose(coherent_mean(1j), [0.0, math.sqrt(2)])


def test_physicality():
    assert is_physical_state(E2 / 2.0)
    assert is_physical_state(np.diag([1.0, 0.25]))   # squeezed, det = 1/4
    assert not is_physical_state(np.diag([0.4, 0.4]))
    assert not is_physical_state(0.4 * E2)


def test_characteristic_function_vacuum_and_displacement():
    vac = GaussianState.vacuum()
    z = np.array([1.0, 0.0])
    assert characteristic_function(vac, z) == pytest.approx(math.exp(-0.25))
    coh = GaussianState.coherent(1.0)
    val = characteristic_function(coh, z)
    assert abs(val) == pytest.approx(math.exp(-0.25))
    assert np.angle(val) == pytest.approx(math.sqrt(2.0))


def test_state_json_roundtrip():
    st = GaussianState(np.array([0.3, -1.2]), np.array([[0.8, 0.1], [0.1, 0.7]]))
    again = GaussianState.from_json(st.to_json())
    assert np.array_equal(st.d, again.d)
    assert np.array_equal(st.gamma, again.gamma)
    assert again == st


@pytest.mark.parametrize("spec, message", [
    ({"d": [1, 0], "gamma": [[0.5, 0], [0, 0.5]], "D": [1, 0]},
     "Gaussian state JSON does not take field 'D'"),
    ({"d": [1, 0], "gamma": [[0.5, 0], [0, 0.5]], "type": "state", "Gamma": 1},
     "Gaussian state JSON does not take fields 'Gamma', 'type'"),
    (["d", "gamma"], "Gaussian state JSON must be a JSON object"),
])
def test_state_json_refuses_unknown_fields(spec, message):
    with pytest.raises(InvalidInput, match=message):
        GaussianState.from_json(spec)


@pytest.mark.parametrize("same, other", [
    (GaussianState.vacuum, lambda: GaussianState.coherent(0.5)),
    (GaussianChannel.identity, lambda: GaussianChannel(E2, np.zeros((2, 2)), [0.0, 1e-300])),
], ids=["state", "channel"])
def test_states_and_channels_compare_by_value_and_stay_unhashable(same, other):
    a, b = same(), same()
    assert a is not b
    assert (a == b) is True and (a != b) is False
    assert (a == other()) is False and (a != other()) is True
    assert a != "not a Gaussian object"
    assert GaussianState.vacuum() != GaussianChannel.identity()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


# ---------------------------------------------------------------------------
# channels


def test_identity_channel_is_neutral():
    ident = GaussianChannel.identity()
    st = GaussianState.coherent(0.5 + 0.2j)
    out = apply_channel(ident, st)
    assert np.array_equal(out.d, st.d)
    assert np.array_equal(out.gamma, st.gamma)


def test_loss_keeps_coherent_states_coherent():
    out = apply_channel(loss_channel(0.36), GaussianState.coherent(2.0 - 1.0j))
    target = GaussianState.coherent(0.6 * (2.0 - 1.0j))
    assert np.allclose(out.d, target.d)
    assert np.allclose(out.gamma, E2 / 2.0)


def test_amp_adds_the_minimal_noise():
    out = apply_channel(amp_channel(4.0), GaussianState.vacuum())
    # Output quadrature variance G/2 + (G-1)/2 = (2G-1)/2.
    assert np.allclose(out.gamma, 3.5 * E2)


def test_cp_criterion():
    assert is_cp_channel(loss_channel(0.5))
    assert is_cp_channel(amp_channel(3.0))
    assert is_cp_channel(GaussianChannel.identity())
    # Quantum-limited amplification sits exactly on the boundary.
    assert is_cp_channel(GaussianChannel(math.sqrt(2) * E2, 0.5 * E2))
    assert not is_cp_channel(GaussianChannel(math.sqrt(2) * E2, 0.3 * E2))
    assert not is_cp_channel(GaussianChannel(2.0 * E2, np.zeros((2, 2))))
    # M must stay symmetric PSD.
    assert not is_cp_channel(GaussianChannel(E2, np.array([[0.1, 0.3], [0.3, 0.1]])))


def test_apply_rejects_unphysical_channel():
    bad = GaussianChannel(2.0 * E2, np.zeros((2, 2)))
    with pytest.raises(NotCompletelyPositive):
        apply_channel(bad, GaussianState.vacuum())


@pytest.mark.parametrize("i", range(8))
def test_composition_matches_sequential_application(i):
    first, second = random_channels[i], random_channels[i + 1]
    st = GaussianState(rng.normal(size=2), np.diag([0.9, 0.6]))
    via_compose = apply_channel(compose(second, first), st)
    sequential = apply_channel(second, apply_channel(first, st))
    assert np.allclose(via_compose.d, sequential.d, atol=1e-13)
    assert np.allclose(via_compose.gamma, sequential.gamma, atol=1e-13)


@pytest.mark.parametrize("i", range(6))
def test_composition_is_associative(i):
    a, b, c = random_channels[i], random_channels[i + 3], random_channels[i + 5]
    left = compose(c, compose(b, a))
    right = compose(compose(c, b), a)
    assert np.allclose(left.K, right.K, atol=1e-13)
    assert np.allclose(left.M, right.M, atol=1e-13)
    assert np.allclose(left.disp, right.disp, atol=1e-13)


@pytest.mark.parametrize("i", range(8))
def test_composition_preserves_cp(i):
    composed = compose(random_channels[i], random_channels[i + 2])
    assert is_cp_channel(composed)


def test_loss_then_amp_is_the_classical_heterodyne_map():
    chain = compose(amp_channel(2.0), loss_channel(0.5))
    assert np.allclose(chain.K, E2, atol=1e-15)
    assert np.allclose(chain.M, E2, atol=1e-15)


def test_channel_json_roundtrip():
    ch = random_channels[0]
    again = GaussianChannel.from_json(ch.to_json())
    assert np.array_equal(ch.K, again.K)
    assert np.array_equal(ch.M, again.M)
    assert np.array_equal(ch.disp, again.disp)
    # A dict without displacement means none.
    spec = {"K": [[1, 0], [0, 1]], "M": [[0, 0], [0, 0]]}
    assert np.array_equal(GaussianChannel.from_json(spec).disp, np.zeros(2))


@pytest.mark.parametrize("spec, field", [
    ({"K": [[1, 0], [0, 1]], "M": "x"}, "'M'"),
    ({"K": [[1, 0], [0, 1]], "M": [[1, 0], [0]]}, "'M'"),
    ({"K": {"a": 1}, "M": [[0, 0], [0, 0]]}, "'K'"),
    ({"K": [[1, 0], [0, 1]], "M": [[0, 0], [0, 0]], "disp": "ab"}, "'disp'"),
    ({"M": [[0, 0], [0, 0]]}, "'K'"),
])
def test_channel_json_names_a_missing_or_malformed_field(spec, field):
    with pytest.raises(InvalidInput, match=field):
        GaussianChannel.from_json(spec)


@pytest.mark.parametrize("spec, message", [
    # a misspelt displacement used to read as none
    ({"K": [[1, 0], [0, 1]], "M": [[0, 0], [0, 0]], "Disp": [1, 0]}, "field 'Disp'"),
    ({"K": [[1, 0], [0, 1]], "M": [[0, 0], [0, 0]], "D": 1, "type": "gaussian"},
     "fields 'D', 'type'"),
    (["K", "M"], "must be a JSON object"),
])
def test_channel_json_refuses_unknown_fields(spec, message):
    with pytest.raises(InvalidInput, match=message):
        GaussianChannel.from_json(spec)


def test_isotropic_part_tolerance_is_relative():
    assert isotropic_part(3.0 * E2) == 3.0
    # 1e-12 relative to max(1, |diagonal|): 2e-12 skew passes on a gain of 3
    # but not on a unit gain, and a 1e-10 diagonal mismatch never does.
    assert isotropic_part(np.array([[3.0, 2e-12], [0.0, 3.0]])) == 3.0
    assert isotropic_part(np.array([[1.0, 2e-12], [0.0, 1.0]])) is None
    assert isotropic_part(np.diag([1.0, 1.0 + 1e-10])) is None
    assert isotropic_part(-0.5 * E2) == -0.5


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_to_coherent_basics():
    coh = GaussianState.coherent(0.4 + 0.9j)
    assert fidelity_to_coherent(coh, 0.4 + 0.9j) == pytest.approx(1.0, abs=1e-15)
    # Two coherent states overlap as exp(-|a-b|^2).
    assert fidelity_to_coherent(coh, 0.0) == pytest.approx(
        math.exp(-abs(0.4 + 0.9j) ** 2), rel=1e-13)
    thermal = GaussianState(np.zeros(2), (0.5 + 0.7) * E2)
    assert fidelity_to_coherent(thermal, 0.0) == pytest.approx(1.0 / 1.7, rel=1e-13)


def test_average_fidelity_matched_channels():
    # Pure loss measured at its own gain re-prepares coherent states exactly.
    assert average_fidelity_gaussian(loss_channel(0.3), 0.3, 0.0) == 1.0
    assert average_fidelity_gaussian(loss_channel(0.3), 0.3, 0.7) == 1.0
    # Quantum-limited gain measured at its own gain: sigma = (G + ...)/2.
    for G in (1.5, 2.0, 4.0):
        got = average_fidelity_gaussian(amp_channel(G), G, 0.4)
        assert got == pytest.approx(1.0 / G, rel=1e-14)


def test_average_fidelity_flat_prior_needs_matched_channel():
    with pytest.raises(DomainError):
        average_fidelity_gaussian(loss_channel(0.5), 1.0, 0.0)


def test_average_fidelity_isotropic_closed_form_vs_quadrature():
    # Compare the closed form with a dense prior quadrature of the per-alpha
    # fidelity of an isotropic channel.
    for eta, lam, T in [(1.0, 0.2, 0.5), (0.7, 0.6, 0.9), (2.0, 0.1, 0.4)]:
        ch = loss_channel(T)
        closed = average_fidelity_gaussian(ch, eta, lam)
        rule = gauss_rule(GaussianPrior(lam), 60, 48)
        vals = np.array([fidelity_to_coherent(
            apply_channel(ch, GaussianState.coherent(a)), math.sqrt(eta) * a)
            for a in rule.nodes])
        assert closed == pytest.approx(float(rule.weights @ vals), rel=1e-9)


def test_average_fidelity_with_displacement():
    ch = GaussianChannel(math.sqrt(0.5) * E2, 0.25 * E2, np.array([0.6, -0.2]))
    eta, lam = 1.0, 0.5
    closed = average_fidelity_gaussian(ch, eta, lam)
    rule = gauss_rule(GaussianPrior(lam), 60, 48)
    vals = np.array([fidelity_to_coherent(
        apply_channel(ch, GaussianState.coherent(a)), math.sqrt(eta) * a)
        for a in rule.nodes])
    assert closed == pytest.approx(float(rule.weights @ vals), rel=1e-9)


@pytest.mark.parametrize("i", range(6))
def test_average_fidelity_anisotropic_quadrature(i):
    # Cross-check the closed form for generic channels against a
    # straightforward dense evaluation of the same integral.
    ch = random_channels[i]
    eta, lam = 0.8, 0.5
    got = average_fidelity_gaussian(ch, eta, lam)
    rule = gauss_rule(GaussianPrior(lam), 80, 64)
    vals = np.array([fidelity_to_coherent(
        apply_channel(ch, GaussianState.coherent(a)), math.sqrt(eta) * a)
        for a in rule.nodes])
    assert got == pytest.approx(float(rule.weights @ vals), rel=1e-6, abs=1e-9)


def trapezoid_average_fidelity(ch, eta, lam, points=1201):
    """Cartesian trapezoid of the prior average over the mean vector x = sqrt(2) alpha.

    The integrand is the prior density lam/(2 pi) exp(-lam |x|^2 / 2) times
    the overlap of the output state (K x + disp, K K^T/2 + M) with the coherent
    target of mean sqrt(eta) x, over +-10 prior widths per axis.
    """
    half = 10.0 / math.sqrt(lam)
    x = np.linspace(-half, half, points)
    w = np.full(points, x[1] - x[0])
    w[[0, -1]] /= 2.0
    X, Y = np.meshgrid(x, x, indexing="ij")
    A = ch.K - math.sqrt(eta) * E2
    dx = A[0, 0] * X + A[0, 1] * Y + ch.disp[0]
    dy = A[1, 0] * X + A[1, 1] * Y + ch.disp[1]
    sigma = 0.5 * E2 + 0.5 * ch.K @ ch.K.T + ch.M
    s = np.linalg.inv(sigma)
    quad_form = s[0, 0] * dx ** 2 + 2.0 * s[0, 1] * dx * dy + s[1, 1] * dy ** 2
    integrand = (lam / (2.0 * math.pi)) * np.exp(-0.5 * lam * (X ** 2 + Y ** 2)
                                                 - 0.5 * quad_form)
    return float(w @ integrand @ w) / math.sqrt(np.linalg.det(sigma))


@pytest.mark.parametrize("lam", [1e-3, 1e-2])
@pytest.mark.parametrize("eta", [0.3, 2.5])
@pytest.mark.parametrize("i", range(4))
def test_average_fidelity_anisotropic_small_prior_width(i, eta, lam):
    # Near the CLI's flat-prior proxy the prior is far wider than the
    # per-alpha fidelity, which is where a prior-shaped rule loses accuracy.
    ch = random_channels[i]
    got = average_fidelity_gaussian(ch, eta, lam)
    assert got == pytest.approx(trapezoid_average_fidelity(ch, eta, lam), rel=1e-6)


@pytest.mark.parametrize("eta, lam", [(math.inf, 0.3), (math.nan, 0.3),
                                       (1.0, math.inf), (1.0, math.nan)])
def test_average_fidelity_rejects_non_finite_task_parameters(eta, lam):
    with pytest.raises(InvalidInput, match="finite"):
        average_fidelity_gaussian(GaussianChannel(0.7 * E2, 0.3 * E2), eta, lam)


def test_average_fidelity_canonical_single_quadrature_noise():
    ch = GaussianChannel(E2, np.diag([0.5, 0.0]))
    got = average_fidelity_gaussian(ch, 1.0, 0.3)
    assert got == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
