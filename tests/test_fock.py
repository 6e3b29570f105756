import math

import numpy as np
import pytest

from cvbench import ensembles, fock, proofcheck, schemes
from cvbench.errors import CutoffTooSmall, InvalidInput
from cvbench.gaussian import (E2, GaussianChannel, GaussianState,
                              apply_channel, average_fidelity_gaussian)

rng = np.random.default_rng(31)


def random_physical_gamma(generator):
    theta = generator.uniform(0, 2 * math.pi)
    r = generator.uniform(0.0, 0.8)
    extra = generator.uniform(0.0, 0.6, size=2)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    core = np.diag([0.5 * math.exp(2 * r) + extra[0],
                    0.5 * math.exp(-2 * r) + extra[1]])
    return rot @ core @ rot.T


# ---------------------------------------------------------------------------
# kets and basic operators


def test_coherent_amplitudes_formula():
    alpha = 0.7 - 0.3j
    ket = fock.coherent_ket(alpha, 25)
    expected = np.empty(25, complex)
    expected[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, 25):
        expected[n] = expected[n - 1] * alpha / math.sqrt(n)
    assert np.allclose(ket, expected, atol=1e-15)
    assert np.vdot(ket, ket).real == pytest.approx(1.0, abs=1e-12)


def _coherent_amplitudes_by_rows(alphas, cutoff):
    # the row-stacked cumulative product the batch builder must reproduce
    alphas = np.asarray(alphas, dtype=complex).ravel()
    if cutoff == 1:
        amps = np.ones((1, alphas.size), dtype=complex)
    else:
        ratios = alphas[None, :] / np.sqrt(np.arange(1, cutoff, dtype=float))[:, None]
        amps = np.vstack([np.ones((1, alphas.size)), np.cumprod(ratios, axis=0)])
    return amps * np.exp(-0.5 * np.abs(alphas) ** 2)[None, :]


@pytest.mark.parametrize("count", [1, 1600])
@pytest.mark.parametrize("cutoff", [1, 2, 24, 40])
def test_coherent_amplitudes_bit_identical_to_row_cumprod(cutoff, count):
    draw = np.random.default_rng(cutoff * 7 + count)
    alphas = 3.0 * (draw.standard_normal(count) + 1j * draw.standard_normal(count))
    got = fock.coherent_amplitudes(alphas, cutoff)
    expected = _coherent_amplitudes_by_rows(alphas, cutoff)
    assert got.shape == (cutoff, count)
    assert got.dtype == complex
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_coherent_amplitudes_rejects_empty_cutoff():
    with pytest.raises(InvalidInput):
        fock.coherent_amplitudes([0.5], 0)


def test_coherent_ket_guards_cutoff():
    with pytest.raises(CutoffTooSmall, match=r"\|alpha\|\^2 = 25 exceeds cutoff 10"):
        fock.coherent_ket(5.0, 10)
    with pytest.raises(CutoffTooSmall):
        fock.coherent_ket(3.0, 10)
    # Explicitly unguarded call returns the sub-normalized truncation.
    ket = fock.coherent_ket(3.0, 10, weight_tol=None)
    assert np.vdot(ket, ket).real < 0.7


def test_coherent_batch_matches_single_kets():
    alphas = np.array([0.3, -1.0 + 0.5j, 2.0j])
    batch = fock.coherent_amplitudes(alphas, 30)
    for i, a in enumerate(alphas):
        single = fock.coherent_ket(a, 30, weight_tol=None)
        assert np.allclose(batch[:, i], single, atol=1e-15)


def test_coherent_overlaps():
    a, b = 0.9, -0.4 + 0.6j
    ka = fock.coherent_ket(a, 40)
    kb = fock.coherent_ket(b, 40)
    got = np.vdot(ka, kb)
    expected = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
    assert abs(got - expected) < 1e-12


def test_ladder_and_number_operators():
    a = fock.annihilation(12)
    n = fock.number_operator(12)
    comm = a @ a.conj().T - a.conj().T @ a
    # Truncation corrupts only the last diagonal entry of [a, a^dag].
    assert np.allclose(comm[:-1, :-1], np.eye(11))
    assert np.allclose(n, a.conj().T @ a)
    x = fock.quadrature_operator(12, 0)
    p = fock.quadrature_operator(12, 1)
    assert np.allclose(x, (a + a.conj().T) / math.sqrt(2))
    assert np.allclose(p, (a - a.conj().T) / (1j * math.sqrt(2)))


def test_displacement_builds_coherent_states():
    alpha = 0.8 + 0.4j
    d = fock.displacement(alpha, 35)
    assert np.allclose(d @ d.conj().T, np.eye(35), atol=1e-10)
    vac = np.zeros(35)
    vac[0] = 1.0
    # A BCH-ordering global phase is allowed; the physical state must match.
    overlap = np.vdot(d @ vac, fock.coherent_ket(alpha, 35))
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_rotation_is_a_number_phase():
    theta = 0.7
    r = fock.rotation(theta, 15)
    n = np.arange(15)
    assert np.allclose(np.diag(r), np.exp(1j * theta * n) * 0 + np.diag(r))
    assert np.allclose(r @ r.conj().T, np.eye(15), atol=1e-12)
    # Photon statistics are rotation invariant.
    ket = fock.coherent_ket(1.1, 15, weight_tol=None)
    assert np.allclose(np.abs(r @ ket), np.abs(ket), atol=1e-12)


def test_squeeze_keeps_minimal_uncertainty():
    s = fock.squeeze(0.5, 50)
    vac = np.zeros(50)
    vac[0] = 1.0
    rho = np.outer(s @ vac, (s @ vac).conj())
    mean, cov = fock.mean_and_covariance(rho)
    assert np.allclose(mean, 0.0, atol=1e-10)
    assert np.linalg.det(cov) == pytest.approx(0.25, rel=1e-6)
    variances = np.sort(np.linalg.eigvalsh(cov))
    assert variances[0] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-6)
    assert variances[1] == pytest.approx(0.5 * math.exp(1.0), rel=1e-6)


# ---------------------------------------------------------------------------
# states


def test_thermal_state_occupations():
    lam = 0.8
    th = fock.thermal_state(lam, 60)
    n = np.arange(60)
    expected = lam / (1 + lam) * (1 + lam) ** (-n.astype(float))
    assert np.allclose(np.diag(th).real, expected, atol=1e-15)
    assert np.trace(th).real == pytest.approx(1.0, abs=1e-6)
    mean_n = fock.expectation(th, fock.number_operator(60)).real
    assert mean_n == pytest.approx(1.0 / lam, rel=1e-4)


def test_gaussian_state_fock_reproduces_moments():
    for i in range(6):
        gamma = random_physical_gamma(rng)
        d = rng.normal(scale=1.0, size=2)
        rho = fock.gaussian_state_fock(d, gamma, 45)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
        mean, cov = fock.mean_and_covariance(rho)
        assert np.allclose(mean, d, atol=1e-6)
        assert np.allclose(cov, gamma, atol=1e-6)


def test_gaussian_state_fock_vacuum_and_coherent():
    vac = fock.gaussian_state_fock(np.zeros(2), E2 / 2, 20)
    assert vac[0, 0].real == pytest.approx(1.0, abs=1e-12)
    coh = fock.gaussian_state_fock(np.array([math.sqrt(2), 0.0]), E2 / 2, 30)
    ket = fock.coherent_ket(1.0, 30)
    assert fock.fidelity_pure(ket, coh) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# channels on truncated states


def test_loss_is_trace_preserving_and_maps_coherent_to_coherent():
    alpha, T = 1.2 - 0.4j, 0.6
    ket = fock.coherent_ket(alpha, 40)
    rho = np.outer(ket, ket.conj())
    out = fock.apply_loss(rho, T)
    assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-13)
    target = fock.coherent_ket(math.sqrt(T) * alpha, 40)
    assert fock.fidelity_pure(target, out) == pytest.approx(1.0, abs=1e-10)


def test_loss_scales_thermal_occupation():
    lam, T = 0.9, 0.5
    out = fock.apply_loss(fock.thermal_state(lam, 80), T)
    expected = fock.thermal_state(lam / T, 80)
    # Compare on a comfortably converged leading block.
    assert np.allclose(out[:40, :40], expected[:40, :40], atol=1e-8)


def test_amp_adds_minimal_noise():
    G = 2.0
    vac = np.diag([1.0] + [0.0] * 59)
    out = fock.apply_amp(vac, G)
    mean_n = fock.expectation(out, fock.number_operator(60)).real
    assert mean_n == pytest.approx(G - 1.0, rel=1e-6)
    mean, cov = fock.mean_and_covariance(out)
    assert np.allclose(cov, (G - 0.5) * E2, atol=1e-6)
    alpha = 0.7
    ket = fock.coherent_ket(alpha, 60)
    out = fock.apply_amp(np.outer(ket, ket.conj()), G)
    mean, _ = fock.mean_and_covariance(out)
    assert np.allclose(mean, [math.sqrt(2 * G) * alpha, 0.0], atol=1e-6)


def test_loss_then_amp_is_the_classical_map():
    # T = 1/2 then G = 2 equals heterodyne-and-re-prepare at unit gain: the
    # coherent input survives with one extra unit of added noise.
    ket = fock.coherent_ket(0.9, 50)
    rho = np.outer(ket, ket.conj())
    out = fock.apply_amp(fock.apply_loss(rho, 0.5), 2.0)
    mean, cov = fock.mean_and_covariance(out)
    assert np.allclose(mean, [0.9 * math.sqrt(2), 0.0], atol=1e-7)
    assert np.allclose(cov, 1.5 * E2, atol=1e-7)


def test_identity_shortcuts():
    ket = fock.coherent_ket(0.5, 25)
    rho = np.outer(ket, ket.conj())
    assert np.array_equal(fock.apply_loss(rho, 1.0), rho)
    assert np.array_equal(fock.apply_amp(rho, 1.0), rho)
    for kind in ("loss", "amp"):
        family = fock.KrausFamily(kind, 1.0)
        assert np.array_equal(fock.OffsetMap(family)(rho), rho)


def test_mixture_of_displacements_adds_single_axis_noise():
    vac = np.diag([1.0] + [0.0] * 39)
    noisy = fock.gaussian_mixture_of_displacements(vac, 0.5, axis=0)
    mean, cov = fock.mean_and_covariance(noisy)
    assert np.allclose(mean, 0.0, atol=1e-9)
    assert np.allclose(cov, np.diag([1.0, 0.5]), atol=1e-7)
    noisy = fock.gaussian_mixture_of_displacements(vac, 0.25, axis=1)
    _, cov = fock.mean_and_covariance(noisy)
    assert np.allclose(cov, np.diag([0.5, 0.75]), atol=1e-7)


@pytest.mark.parametrize("axis", [0, 1])
def test_mixture_kernel_matches_the_einsum_reference(axis):
    from numpy.polynomial.hermite import hermgauss

    rho = fock.gaussian_state_fock([0.7, -0.4], [[0.9, 0.2], [0.2, 0.6]], 30)
    variance = 0.35
    x, w = hermgauss(20)
    evals, evecs = fock._quad_eigh(30, 1 - axis)
    sign = -1.0 if axis == 0 else 1.0
    phases = np.exp(1j * sign * np.outer(math.sqrt(2.0 * variance) * x, evals))
    kernel = np.einsum("s,si,sj->ij", w / math.sqrt(math.pi), phases, phases.conj())
    inner = evecs.conj().T @ rho @ evecs
    expected = evecs @ (kernel * inner) @ evecs.conj().T
    got = fock.gaussian_mixture_of_displacements(rho, variance, axis=axis)
    assert np.abs(got - expected).max() <= 1e-14


@pytest.mark.parametrize("kernel", [
    lambda rho: fock.apply_loss(rho, 0.63),
    lambda rho: fock.apply_amp(rho, 1.8),
])
def test_kraus_kernels_on_a_stack_equal_each_slice_bit_for_bit(kernel, state_stack):
    stack = state_stack(24)
    got = kernel(stack)
    assert got.shape == stack.shape
    for i, m in enumerate(stack):
        assert np.array_equal(got[i], kernel(m))


def _apply_loss_by_kraus_loop(matrix, T):
    # one Kraus operator A_k per number k of lost photons, summed term by term
    n = matrix.shape[-1]
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    ln_t, ln_r = math.log(T), math.log1p(-T)
    out = np.zeros_like(matrix)
    m = np.arange(n, dtype=float)
    for k in range(n):
        mm = m[: n - k]
        a = np.exp(0.5 * (lg[k:n] - lg[: n - k] - lg[k] + mm * ln_t + k * ln_r))
        out[..., : n - k, : n - k] += a[:, None] * matrix[..., k:, k:] * a[None, :]
    return out


def _apply_amp_by_kraus_loop(matrix, G):
    # one Kraus operator B_k per number k of added photons, summed term by term
    n = matrix.shape[-1]
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    ln_g, ln_gm1 = math.log(G), math.log(G - 1.0)
    out = np.zeros_like(matrix)
    nn = np.arange(n, dtype=float)
    for k in range(n):
        m = nn[: n - k]
        b = np.exp(0.5 * (k * ln_gm1 - (k + 1) * ln_g - lg[k] + lg[k:n] - lg[: n - k] - m * ln_g))
        out[..., k:, k:] += b[:, None] * matrix[..., : n - k, : n - k] * b[None, :]
    return out


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("cutoff", [1, 2, 24, 40])
@pytest.mark.parametrize("kernel, reference", [
    (lambda rho: fock.apply_loss(rho, 0.63), lambda x: _apply_loss_by_kraus_loop(x, 0.63)),
    (lambda rho: fock.apply_loss(rho, 0.05), lambda x: _apply_loss_by_kraus_loop(x, 0.05)),
    (lambda rho: fock.apply_amp(rho, 1.8), lambda x: _apply_amp_by_kraus_loop(x, 1.8)),
    (lambda rho: fock.apply_amp(rho, 7.5), lambda x: _apply_amp_by_kraus_loop(x, 7.5)),
], ids=["loss-0.63", "loss-0.05", "amp-1.8", "amp-7.5"])
def test_kraus_kernels_match_the_per_operator_loop(kernel, reference, cutoff, hermitian):
    generator = np.random.default_rng(cutoff)
    x = generator.standard_normal((4, cutoff, cutoff)) \
        + 1j * generator.standard_normal((4, cutoff, cutoff))
    if hermitian:
        x = x @ x.conj().transpose(0, 2, 1)
    expected = reference(x)
    got = kernel(x)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("kernel, weight", [
    # loss: binomial C(m, j) T^j (1-T)^(m-j) over j <= m
    (lambda rho: fock.apply_loss(rho, 0.7),
     lambda j, m: math.comb(m, j) * 0.7 ** j * 0.3 ** (m - j) if j <= m else 0.0),
    # amplifier: negative binomial C(j, m) (G-1)^(j-m) / G^(j+1) over j >= m
    (lambda rho: fock.apply_amp(rho, 1.6),
     lambda j, m: math.comb(j, m) * 0.6 ** (j - m) / 1.6 ** (j + 1) if j >= m else 0.0),
], ids=["loss", "amp"])
def test_kraus_kernels_keep_a_number_state_diagonal(kernel, weight):
    m, cutoff = 5, 60
    out = kernel(np.diag(np.eye(cutoff)[m]))
    expected = np.array([weight(j, m) for j in range(cutoff)])
    assert np.all(out[~np.eye(cutoff, dtype=bool)] == 0.0)
    assert np.abs(np.diag(out) - expected).max() <= 1e-14


@pytest.mark.parametrize("offset", [-5, -1, 2, 7])
@pytest.mark.parametrize("kernel", [
    lambda rho: fock.apply_loss(rho, 0.55),
    lambda rho: fock.apply_amp(rho, 1.4),
], ids=["loss", "amp"])
def test_kraus_kernels_map_one_offset_onto_the_same_offset(kernel, offset):
    cutoff = 24
    amps = np.random.default_rng(5).standard_normal(cutoff - abs(offset)) + 0.5j
    out = kernel(np.diag(amps, k=-offset))
    rows, cols = np.indices(out.shape)
    assert np.all(out[rows - cols != offset] == 0.0)
    assert np.abs(np.diagonal(out, offset=-offset)).min() > 0.0


@pytest.mark.parametrize("axis", [0, 1])
def test_mixture_on_a_stack_equals_each_slice(axis, state_stack):
    stack = state_stack(24)
    got = fock.gaussian_mixture_of_displacements(stack, 0.4, axis)
    for i, m in enumerate(stack):
        one = fock.gaussian_mixture_of_displacements(m, 0.4, axis)
        assert np.abs(got[i] - one).max() <= 1e-15


# Every operator-level entry point as f(rho, kets): rho is one operator or a
# stack, kets the matching ket or stack of kets, which only fidelity_pure reads.
OPERATOR_ENTRY_POINTS = {
    "OffsetMap": lambda rho, kets: fock.OffsetMap(
        fock.KrausFamily("loss", 0.7), fock.DisplacementMixture(0.3, 1, 0.2j))(rho),
    "apply_loss": lambda rho, kets: fock.apply_loss(rho, 0.63),
    "apply_amp": lambda rho, kets: fock.apply_amp(rho, 1.8),
    "gaussian_mixture_of_displacements":
        lambda rho, kets: fock.gaussian_mixture_of_displacements(rho, 0.4, 1),
    "apply_mp_fock": lambda rho, kets: schemes.apply_mp_fock(schemes.HeterodyneMP(0.8), rho),
    "fidelity_pure": lambda rho, kets: fock.fidelity_pure(kets, rho),
    "expectation":
        lambda rho, kets: fock.expectation(rho, fock.number_operator(np.shape(rho)[-1])),
    "mean_and_covariance": lambda rho, kets: fock.mean_and_covariance(rho),
    "trace_distance": lambda rho, kets: fock.trace_distance(rho, np.flip(rho, (-2, -1))),
}


@pytest.mark.parametrize("entry", OPERATOR_ENTRY_POINTS.values(), ids=OPERATOR_ENTRY_POINTS)
def test_operator_entry_points_map_a_plain_stack_as_its_slices(entry, state_stack):
    stack = state_stack(24)
    kets = fock.coherent_amplitudes([0.2, 1.0 - 0.5j, -0.6j, 1.5, 0.5], 24).T
    got = entry(stack, kets)
    for i in range(len(stack)):
        one = entry(stack[i], kets[i])
        for whole, part in zip(got if isinstance(got, tuple) else (got,),
                               one if isinstance(one, tuple) else (one,)):
            assert isinstance(whole, np.ndarray) and whole.shape[0] == len(stack)
            assert np.array_equal(whole[i], part)


@pytest.mark.parametrize("bad", [np.zeros((3, 4)), np.zeros((1, 2, 2, 2)), np.zeros((2, 0, 0))],
                         ids=["non-square", "4-d", "empty"])
@pytest.mark.parametrize("entry", OPERATOR_ENTRY_POINTS.values(), ids=OPERATOR_ENTRY_POINTS)
def test_operator_entry_points_refuse_a_malformed_operator(entry, bad):
    with pytest.raises(InvalidInput) as refused:
        entry(bad, np.ones(bad.shape[-1:], dtype=complex))
    assert str(refused.value) == "matrix must be square, or a stack of square matrices"


@pytest.mark.parametrize("build, shape", [
    (lambda: fock.coherent_ket(0.3 - 0.2j, 9), (9,)),
    (lambda: fock.thermal_state(0.5, 9), (9, 9)),
    (lambda: fock.gaussian_state_fock([0.5, -0.8], [[0.9, 0.1], [0.1, 0.7]], 9), (9, 9)),
    (lambda: proofcheck.outcome_score_operator(fock.coherent_amplitudes([0.3, 1.2j], 9).T,
                                               0.8, 0.4), (2, 9, 9)),
], ids=["coherent_ket", "thermal_state", "gaussian_state_fock", "outcome_score_operator"])
def test_state_builders_return_plain_complex_arrays(build, shape):
    out = build()
    assert type(out) is np.ndarray and out.dtype == complex and out.shape == shape


def test_fidelity_pure_on_stacks_equals_each_pair(state_stack):
    stack = state_stack(20)
    kets = fock.coherent_amplitudes([0.2, 1.0 - 0.5j, -0.6j, 1.5, 0.5], 20).T
    got = fock.fidelity_pure(kets, stack)
    assert got.shape == (5,)
    for i in range(5):
        assert abs(got[i] - fock.fidelity_pure(kets[i], stack[i])) <= 1e-15
    with pytest.raises(InvalidInput, match="stack mismatch"):
        fock.fidelity_pure(kets[:4], stack)
    with pytest.raises(InvalidInput, match="stack mismatch"):
        fock.fidelity_pure(kets[0], stack)
    with pytest.raises(InvalidInput, match="cutoff mismatch"):
        fock.fidelity_pure(kets[:, :19], stack)


def test_fidelity_pure_checks_every_pair_of_a_stack(state_stack):
    stack = state_stack(20)
    kets = fock.coherent_amplitudes([0.2, 1.0, -0.6j, 1.5, 0.5], 20).T
    skewed = stack.copy()
    skewed[3] *= 1.0 + 0.1j
    with pytest.raises(InvalidInput, match="not Hermitian"):
        fock.fidelity_pure(kets, skewed)
    inflated = stack.copy()
    inflated[2] *= 1.5
    with pytest.raises(InvalidInput, match=r"outside \[0, 1\]"):
        fock.fidelity_pure(kets, inflated)
    corrupted = stack.copy()
    corrupted[1, 0, 0] = math.nan
    with pytest.raises(InvalidInput, match=r"outside \[0, 1\]"):
        fock.fidelity_pure(kets, corrupted)


def test_mixture_preserves_trace_and_hermiticity():
    rho = fock.thermal_state(1.5, 30)
    out = fock.gaussian_mixture_of_displacements(rho, 0.3, axis=0)
    assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-9)
    assert np.allclose(out, out.conj().T, atol=1e-12)


def test_mixture_of_zero_variance_is_one_identity():
    weights, unitaries = fock.mixture_unitaries(0.0, 1, 12)
    assert weights.tolist() == [1.0]
    assert np.array_equal(unitaries, np.eye(12)[None])
    ket = fock.coherent_ket(0.5 - 0.2j, 12)
    rho = np.outer(ket, ket.conj())
    assert np.array_equal(fock.gaussian_mixture_of_displacements(rho, 0.0, 0), rho)


@pytest.mark.parametrize("axis", [0, 1])
def test_mixture_with_a_mean_applies_as_its_unitaries(axis, state_stack):
    # the Hadamard product against the 20 conjugations it replaces
    beta, stack = 0.4 - 0.2j, state_stack(24)
    weights, unitaries = fock.mixture_unitaries(0.35, axis, 24)
    unitaries = fock.displacement(beta, 24) @ unitaries
    expected = sum(w * (u @ stack @ u.conj().T) for w, u in zip(weights, unitaries))
    got = fock.DisplacementMixture(0.35, axis, beta).apply(stack)
    assert np.abs(got - expected).max() <= 1e-14


MIXTURE_FACTORS = [fock.DisplacementMixture(0.35, 0), fock.DisplacementMixture(0.35, 1),
                   fock.DisplacementMixture(0.35, 1, 0.4 - 0.2j),
                   fock.DisplacementMixture(0.0, 0, 0.3 + 0.5j)]


@pytest.mark.parametrize("cutoff", [1, 2, 24, 40])
@pytest.mark.parametrize("mixture", MIXTURE_FACTORS, ids=repr)
def test_mixture_real_kernels_are_the_real_part_of_its_kernels(mixture, cutoff,
                                                               complex_mixture_kernels):
    blocks, full = mixture.kernel_blocks(cutoff), complex_mixture_kernels(mixture, cutoff)
    for d in range(cutoff):
        real = blocks(d, 1)[0]
        assert real.dtype == float
        assert np.abs(real - full(d).real).max() <= 1e-15


@pytest.mark.parametrize("axis", [0, 1])
def test_mixture_without_a_mean_folds_its_shifts(axis):
    # the kernels of exp(-isX) and exp(isX) agree, so the 10 positive shifts
    # at double weight give the kernels of all 20
    cutoff = 30
    mixture = fock.DisplacementMixture(0.35, axis)
    weights, unitaries = mixture.unitaries(cutoff)
    assert weights.size == 10 and unitaries.shape == (10, cutoff, cutoff)
    all_weights, all_unitaries = fock.mixture_unitaries(0.35, axis, cutoff)
    folded = mixture.kernel_blocks(cutoff)
    for d in range(cutoff):
        m = cutoff - d
        products = all_unitaries[:, d:, d:] * all_unitaries[:, :m, :m].conj()
        assert np.abs(folded(d, 1)[0]
                      - np.tensordot(all_weights, products.real, 1)).max() <= 1e-14


def test_mixture_with_a_mean_keeps_every_shift():
    # the rotation by pi maps D(beta) onto D(-beta): no two shifts agree
    mixture = fock.DisplacementMixture(0.35, 0, 0.4 - 0.2j)
    weights, unitaries = mixture.unitaries(12)
    all_weights, all_unitaries = fock.mixture_unitaries(0.35, 0, 12)
    assert np.array_equal(weights, all_weights)
    assert np.array_equal(unitaries, fock.displacement(0.4 - 0.2j, 12) @ all_unitaries)


def test_real_kernels_refuse_a_mixture_beside_another_complex_factor():
    mixture = fock.DisplacementMixture(0.35, 1)
    for offset_map in (fock.OffsetMap(mixture, mixture),
                       fock.OffsetMap(fock.KrausFamily("loss", 0.6), mixture,
                                      fock.DisplacementMixture(0.2, 0, 0.3j))):
        with pytest.raises(InvalidInput, match="at most one displacement mixture"):
            fock.average_fidelity_fock(offset_map, 0.9, 0.3, cutoff=8)


KRAUS_RANGE_MESSAGES = {
    "loss": r"transmissivity must be in \(0, 1\]",
    "amp": "amplifier gain must be >= 1 and finite",
    "heterodyne": "re-preparation gain must be >= 0 and finite",
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_fock_parameters_are_refused(value):
    ket = fock.coherent_ket(0.5, 12)
    rho = np.outer(ket, ket.conj())
    with pytest.raises(InvalidInput, match="amplifier gain must be >= 1 and finite"):
        fock.apply_amp(rho, value)
    with pytest.raises(InvalidInput, match="noise variance must be >= 0 and finite"):
        fock.gaussian_mixture_of_displacements(rho, value, 0)
    with pytest.raises(InvalidInput, match="noise variance must be >= 0 and finite"):
        fock.mixture_unitaries(value, 0, 12)
    with pytest.raises(InvalidInput, match="noise variance must be >= 0 and finite"):
        fock.DisplacementMixture(value, 0)
    with pytest.raises(InvalidInput, match="lambda must be positive and finite"):
        fock.thermal_state(value, 12)
    for kind, message in KRAUS_RANGE_MESSAGES.items():
        with pytest.raises(InvalidInput, match=message):
            fock.KrausFamily(kind, value)
    for beta in (value, complex(0.3, value)):
        with pytest.raises(InvalidInput, match="mean beta must be finite"):
            fock.DisplacementMixture(0.3, 0, beta)


@pytest.mark.parametrize("kind, value, message", [
    ("loss", 0.0, KRAUS_RANGE_MESSAGES["loss"]), ("loss", 1.5, KRAUS_RANGE_MESSAGES["loss"]),
    ("amp", 0.5, KRAUS_RANGE_MESSAGES["amp"]),
    ("heterodyne", -1.0, KRAUS_RANGE_MESSAGES["heterodyne"]),
    ("foo", 1.0, "unknown Kraus family 'foo'"),
])
def test_kraus_families_refuse_parameters_out_of_range(kind, value, message):
    with pytest.raises(InvalidInput, match=message):
        fock.KrausFamily(kind, value)


@pytest.mark.parametrize("build, message", [
    (lambda: fock.annihilation(0), "cutoff must be at least 1"),
    (lambda: fock.quadrature_operator(4, 2), r"axis must be 0 \(x_plus\) or 1 \(x_minus\)"),
    (lambda: fock.gaussian_state_fock(np.zeros(2), np.diag([1.0, -1.0]), 8),
     "covariance must be positive definite"),
    (lambda: fock.gaussian_state_fock(np.zeros(2), 0.4 * E2, 8),
     "covariance violates the uncertainty bound det >= 1/4"),
], ids=["annihilation-cutoff-0", "quadrature-axis-2", "gaussian-indefinite",
        "gaussian-below-uncertainty"])
def test_operator_and_state_builders_refuse_what_they_cannot_build(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


# ---------------------------------------------------------------------------
# metrics


def test_fidelity_pure_against_closed_form():
    lam = 0.7
    alpha = 0.6
    rho = fock.thermal_state(lam, 70)
    ket = fock.coherent_ket(alpha, 70)
    nbar = 1.0 / lam
    expected = 1.0 / (1 + nbar) * math.exp(-abs(alpha) ** 2 / (1 + nbar))
    assert fock.fidelity_pure(ket, rho) == pytest.approx(expected, rel=1e-8)


def test_trace_distance():
    k0 = np.diag([1.0, 0.0, 0.0])
    k1 = np.diag([0.0, 1.0, 0.0])
    assert fock.trace_distance(k0, k1) == pytest.approx(1.0, abs=1e-12)
    assert fock.trace_distance(k0, k0) == pytest.approx(0.0, abs=1e-12)
    mix = 0.5 * (k0 + k1)
    assert fock.trace_distance(k0, mix) == pytest.approx(0.5, abs=1e-12)
    for other in (np.eye(4), np.stack([k0, k1])):
        with pytest.raises(InvalidInput, match="trace distance needs one shape"):
            fock.trace_distance(k0, other)


def test_select_cutoff_is_the_smallest_with_both_weights_in_budget():
    for eta, lam, expected in ((1.0, 0.2, 127), (1.0, 0.3, 88), (1.4, 0.3, 119)):
        cutoff = fock.select_cutoff(eta, lam)
        assert cutoff == expected
        assert max(fock.truncated_prior_weights(eta, lam, cutoff)) <= 1e-10
        assert max(fock.truncated_prior_weights(eta, lam, cutoff - 1)) > 1e-10


def test_select_cutoff_refuses_to_grow_without_bound():
    # At the flat-prior proxy lambda = 1e-3 the truncated prior weight falls
    # to 1e-10 only from N ~ 23,000 on, far above the cap of 180.
    with pytest.raises(CutoffTooSmall, match="cutoff"):
        fock.select_cutoff(1.0, 1e-3)
    with pytest.raises(CutoffTooSmall, match="cutoff"):
        fock.select_cutoff(2.0, 0.2)  # the output side needs 242


@pytest.mark.parametrize("eta", [0.3, 1.0, 1.4655, 1.5, 2.0, 7.3, 1e4])
def test_narrowest_auto_lambda_is_the_narrowest_width_that_fits_the_cap(eta):
    lam = fock.narrowest_auto_lambda(eta)
    assert fock.select_cutoff(eta, lam) == 180
    with pytest.raises(CutoffTooSmall):
        fock.select_cutoff(eta, lam * (1 - 1e-9))


def test_truncated_prior_weights_are_the_prior_averaged_tails():
    eta, lam, cutoff = 0.7, 0.4, 9
    t, w = np.polynomial.laguerre.laggauss(120)
    abs2 = t / lam  # Gauss-Laguerre nodes and weights of the prior's |alpha|^2
    kets = [fock.coherent_amplitudes(np.sqrt(g * abs2), cutoff) for g in (1.0, eta)]
    tails = [w @ (1.0 - np.sum(np.abs(k) ** 2, axis=0)) for k in kets]
    assert tails == pytest.approx(fock.truncated_prior_weights(eta, lam, cutoff), rel=1e-9)


# ---------------------------------------------------------------------------
# tables built once per cutoff


def _log_factorials(n):
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def _loss_table_in_full(cutoff, T):
    if T == 1.0:
        return np.eye(cutoff)
    lg = _log_factorials(cutoff)
    i = np.arange(cutoff)
    lost = i - i[:, None]
    log_t = 0.5 * (lg - lg[:, None] - lg[np.abs(lost)] + i[:, None] * math.log(T)
                   + lost * math.log1p(-T))
    return np.exp(np.where(lost >= 0, log_t, -np.inf))


def _heterodyne_table_in_full(cutoff, gain, log_width):
    if gain == 0.0:
        c = np.zeros((cutoff, cutoff))
        c[0] = np.exp(-0.5 * (np.arange(cutoff) + 1) * log_width)
        return c
    lg = _log_factorials(2 * cutoff)
    l, m = np.arange(cutoff)[:, None], np.arange(cutoff)
    return np.exp(0.5 * (lg[m + l] - lg[l] - lg[m] - (m + l + 1) * log_width)
                  + l * math.log(gain))


def _prior_kernels_in_full(eta, lam, cutoff):
    width = lam + 1.0 + eta
    scale = 2.0 ** round(math.log2(3 * cutoff / math.e))
    h = np.arange(3 * cutoff) / scale
    h[0] = 1.0
    np.cumprod(h, out=h)
    ratios = (scale / width) / np.arange(1, 2 * cutoff)
    p = np.cumprod(np.sqrt(np.concatenate(([lam / width], eta * ratios))))
    q = np.cumprod(np.sqrt(np.concatenate(([1.0], ratios))))
    pairs = [np.ndarray((cutoff, cutoff), float, x, strides=(x.itemsize, x.itemsize))
             * x[:cutoff] for x in (p, q)]
    return pairs[0], h, pairs[1]


@pytest.mark.parametrize("cutoff", [1, 2, 24, 40, 180])
def test_cached_tables_give_the_full_formulas_bit_for_bit(cutoff):
    for T in (1e-300, 0.3, 0.5, 0.97, 1.0):
        assert np.array_equal(fock._loss_table(cutoff, T), _loss_table_in_full(cutoff, T))
    for g in (0.0, 0.4, 1.0, 2.7):
        for log_width in (math.log1p(g * g), 1.3):
            assert np.array_equal(fock._heterodyne_table(cutoff, g, log_width),
                                  _heterodyne_table_in_full(cutoff, g, log_width))
    for eta, lam in ((0.9, 0.3), (1.3, 0.7), (3.0, 0.05)):
        for got, want in zip(fock._prior_kernels(eta, lam, cutoff),
                             _prior_kernels_in_full(eta, lam, cutoff)):
            assert np.array_equal(got, want)
    # the block schedule: as many offsets as fit _KERNEL_BLOCK entries, and
    # each block's Hankel view w[k, i, j] = h[i + j + d0 + k]
    tables = fock._cutoff_tables(cutoff)
    assert fock._cutoff_tables(cutoff) is tables
    d0 = 0
    for start, count, w in tables.blocks:
        width = cutoff - d0
        assert (start, count) == (d0, min(width, max(1, fock._KERNEL_BLOCK // width ** 2)))
        k, i, j = np.ogrid[:count, :width, :width]
        assert np.array_equal(w, tables.hankel[i + j + d0 + k])
        d0 += count
    assert d0 == cutoff


def test_cutoff_tables_at_the_cap_hold_what_their_docstring_states():
    # 1.08 MB an entry at cutoff 180, at most 16 entries
    tables = fock._cutoff_tables(fock._MAX_AUTO_CUTOFF)
    held = sum(a.nbytes for a in tables if isinstance(a, np.ndarray))
    assert 1.07e6 <= held <= 1.09e6
    assert fock._cutoff_tables.cache_info().maxsize == 16


def _cutoff_table_arrays(cutoff):
    tables = fock._cutoff_tables(cutoff)
    return [a for a in tables if isinstance(a, np.ndarray)] + [w for *_, w in tables.blocks]


@pytest.mark.parametrize("cached", [
    lambda: fock._quad_eigh(24, 1),
    lambda: ensembles.laguerre_rule(24),
    lambda: _cutoff_table_arrays(24),
], ids=["quad_eigh", "laguerre_rule", "cutoff_tables"])
def test_every_cached_array_is_read_only(cached):
    # a cache shares its arrays with every later call, so a write must raise
    # rather than corrupt the next caller's values
    arrays = cached()
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


# ---------------------------------------------------------------------------
# ensemble averaging


def test_average_fidelity_identity_channel():
    # The estimate, about 4 sqrt(1.5^-N) here, bounds the truncation
    # rigorously but loosely: 9.1e-3 at N = 30, where the true gap is 9.8e-6.
    # It falls below 5e-4 from N = 48 on.
    avg = fock.average_fidelity_fock(fock.OffsetMap(), 1.0, 0.5, cutoff=48)
    assert avg.error < 5e-4
    assert avg.value == pytest.approx(1.0, abs=5e-4 + avg.error)


def test_average_fidelity_matches_gaussian_engine_for_loss():
    eta, lam, T = 0.8, 0.4, 0.55
    channel = GaussianChannel(math.sqrt(T) * E2, (1 - T) / 2 * E2)
    exact = average_fidelity_gaussian(channel, eta, lam)
    avg = fock.average_fidelity_fock(fock.OffsetMap(fock.KrausFamily("loss", T)), eta, lam,
                                     cutoff=36)
    assert abs(avg.value - exact) <= 1e-4 + avg.error


def test_average_fidelity_reports_honest_error_when_truncated():
    # Tiny cutoff: the value cannot be trusted and the error term must say so.
    avg = fock.average_fidelity_fock(fock.OffsetMap(), 1.0, 0.2, cutoff=6)
    assert avg.error > 1e-3


@pytest.mark.parametrize("eta, lam", [(0.9, 0.3), (1.3, 0.7), (3.0, 0.05)])
@pytest.mark.parametrize("cutoff", [1, 2, 24, 40, 180])
def test_prior_kernels_match_the_recurrence_and_the_rule(cutoff, eta, lam,
                                                         recurrence_kernels, prior_rule):
    # W_d[i, j] = P[d, i] h[i + j + d] Q[d, j] against W_d by the offset
    # recurrence, and up to cutoff 40 against the N-node rule's weighted sum of
    # u_d v_d^T, which is exact on the truncated space up to its own rounding
    left, hankel, right = fock._prior_kernels(eta, lam, cutoff)
    radii, weights = prior_rule(eta, lam, cutoff)
    phi = fock.coherent_amplitudes(radii, cutoff).real
    psi = fock.coherent_amplitudes(math.sqrt(eta) * radii, cutoff).real
    top = lam / (lam + 1.0 + eta)     # W_0[0, 0], the largest entry
    for d, want in enumerate(recurrence_kernels(eta, lam, cutoff)):
        n = cutoff - d
        levels = np.arange(n)
        got = left[d, :n, None] * hankel[d + np.add.outer(levels, levels)] * right[d, None, :n]
        assert np.abs(got - want).max() <= 1e-15 * top
        assert np.allclose(got, want, rtol=5e-14, atol=0.0)
        if cutoff <= 40:
            rule = (psi[d:] * psi[:n] * weights) @ (phi[d:] * phi[:n]).T
            assert np.abs(got - rule).max() <= 1e-14


class _Inflated:
    """The identity scaled by 1.5, as an `OffsetMap` factor."""

    def apply(self, matrix):
        return 1.5 * matrix

    def kernel_blocks(self, cutoff):
        identity = fock.KrausFamily("loss", 1.0).kernel_blocks(cutoff)
        return lambda d0, count: 1.5 * identity(d0, count)


def test_average_fidelity_refuses_a_node_fidelity_above_one():
    # the identity scaled by 1.5 puts every node's fidelity near 1.5
    inflated = fock.OffsetMap(_Inflated())
    with pytest.raises(InvalidInput, match=r"outside \[0, 1\]"):
        fock.average_fidelity_fock(inflated, 1.0, 0.8, cutoff=12)


@pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf])
def test_average_fidelity_refuses_a_non_finite_pair_sum(monkeypatch, total):
    monkeypatch.setattr(fock.KrausFamily, "pair_sum", lambda self, p, hankel, q: total)
    with pytest.raises(InvalidInput, match=r"outside \[0, 1\]"):
        fock.average_fidelity_fock(fock.OffsetMap(fock.KrausFamily("loss", 0.5)),
                                   1.0, 0.8, cutoff=12)


class _Corrupted:
    """The identity with one NaN in its kernels, as an `OffsetMap` factor."""

    def apply(self, matrix):
        return matrix

    def kernel_blocks(self, cutoff):
        identity = fock.KrausFamily("loss", 1.0).kernel_blocks(cutoff)

        def block(d0, count):
            out = identity(d0, count)
            out[0, 0, 0] = math.nan
            return out
        return block


def test_average_fidelity_refuses_a_nan_block_contraction():
    corrupted = fock.OffsetMap(fock.KrausFamily("loss", 0.5), _Corrupted())
    with pytest.raises(InvalidInput, match=r"outside \[0, 1\]"):
        fock.average_fidelity_fock(corrupted, 1.0, 0.8, cutoff=12)


def test_average_fidelity_refuses_a_map_without_offset_kernels():
    with pytest.raises(InvalidInput, match="OffsetMap"):
        fock.average_fidelity_fock(lambda rho: rho, 1.0, 0.8, cutoff=12)


# Lone Kraus families, which the engine averages by their pair sums: loss and
# the amplifier at the identity and away from it, and heterodyne at gain 0,
# at a moderate gain and at a gain that leaves it almost nothing.
LONE_FAMILIES = [fock.KrausFamily("loss", T) for T in (0.3, 0.7, 1.0)] \
    + [fock.KrausFamily("amp", G) for G in (1.0, 1.6)] \
    + [fock.KrausFamily("heterodyne", g) for g in (0.0, 0.8, 1e10)]


def _family_id(family):
    return f"{family.kind}-{family.parameter:g}"


@pytest.mark.parametrize("cutoff", [1, 2, 3, 24, 80, 180])
@pytest.mark.parametrize("family", LONE_FAMILIES, ids=_family_id)
def test_pair_sum_of_a_lone_family_matches_the_block_contraction(family, cutoff):
    # the identity in front makes a chain of two factors, which the engine
    # contracts a block of offsets at a time through the same family's kernels
    for eta, lam in ((0.9, 0.3), (1.3, 0.7)):
        alone = fock.average_fidelity_fock(fock.OffsetMap(family), eta, lam, cutoff=cutoff)
        chained = fock.average_fidelity_fock(
            fock.OffsetMap(fock.KrausFamily("loss", 1.0), family), eta, lam, cutoff=cutoff)
        assert abs(alone.value - chained.value) <= 1e-15


@pytest.mark.parametrize("cutoff", [1, 2, 24])
@pytest.mark.parametrize("family", LONE_FAMILIES, ids=_family_id)
def test_pair_sum_of_a_lone_family_matches_the_operator_loop(family, cutoff,
                                                             per_node_average):
    # the family's map applied to the prior rule's input projectors; the
    # rule's weights carry their own rounding, up to 3e-14 at cutoff 24
    eta, lam = 0.9, 0.3
    offset_map = fock.OffsetMap(family)
    got = fock.average_fidelity_fock(offset_map, eta, lam, cutoff=cutoff)
    value, error = per_node_average(offset_map, eta, lam, cutoff)
    assert abs(got.value - value) <= 5e-14
    assert abs(got.error - error) <= 1e-15


def test_only_a_lone_kraus_family_skips_the_kernel_blocks(monkeypatch):
    def refuse(offset_map, cutoff):
        raise AssertionError("kernel blocks built")
    monkeypatch.setattr(fock.OffsetMap, "real_kernel_blocks", refuse)
    for offset_map in [fock.OffsetMap()] + [fock.OffsetMap(f) for f in LONE_FAMILIES]:
        assert 0.0 <= fock.average_fidelity_fock(offset_map, 0.9, 0.3, cutoff=24).value <= 1.0
    chain = fock.OffsetMap(fock.KrausFamily("loss", 0.6), fock.KrausFamily("amp", 1.3))
    with pytest.raises(AssertionError, match="kernel blocks built"):
        fock.average_fidelity_fock(chain, 0.9, 0.3, cutoff=24)


def test_offset_map_kernels_compose_its_factors_in_order():
    loss, amp = fock.KrausFamily("loss", 0.6), fock.KrausFamily("amp", 1.7)
    chain = fock.OffsetMap(loss, amp).real_kernel_blocks(9)
    for d in (0, 3, 8):
        expected = amp.kernel_blocks(9)(d, 1)[0] @ loss.kernel_blocks(9)(d, 1)[0]
        assert np.array_equal(chain(d, 1)[0], expected)
    assert np.array_equal(fock.OffsetMap().real_kernel_blocks(9)(2, 1)[0], np.eye(7))


class _Plain:
    """A factor of no library class that forwards both methods to another."""

    def __init__(self, inner):
        self.inner = inner

    def apply(self, matrix):
        return self.inner.apply(matrix)

    def kernel_blocks(self, cutoff):
        return self.inner.kernel_blocks(cutoff)


# One factor of each kind: a block of its kernels is built at once from a
# Kraus family's table, one offset at a time from a displacement mixture, and
# read through its two methods alone from a factor of any other class.
BLOCK_FACTORS = [fock.KrausFamily("loss", 0.6), fock.KrausFamily("amp", 1.7),
                 fock.KrausFamily("heterodyne", 0.8), fock.KrausFamily("heterodyne", 0.0),
                 fock.DisplacementMixture(0.35, 1, 0.4 - 0.2j),
                 _Plain(fock.KrausFamily("loss", 0.6))]


def _block_slices(offset_map, cutoff):
    """(offset, its kernel as a slice of a block, the block) over blocks of 1, 2, 3 and
    all remaining offsets from every first offset."""
    blocks = offset_map.real_kernel_blocks(cutoff)
    for d0 in range(cutoff):
        for count in sorted({1, 2, 3, cutoff - d0}):
            if count > cutoff - d0:
                continue
            stack = blocks(d0, count)
            assert stack.shape == (count, cutoff - d0, cutoff - d0)
            for k in range(count):
                width = cutoff - d0 - k
                assert not stack[k, width:].any() and not stack[k, :, width:].any()
                yield d0 + k, stack[k, :width, :width]


@pytest.mark.parametrize("cutoff", [1, 2, 3, 24, 65])
@pytest.mark.parametrize("factor", BLOCK_FACTORS, ids=["loss", "amp", "heterodyne",
                                                    "heterodyne-0", "mixture", "plain"])
def test_real_kernels_are_the_block_builders_slices_bit_for_bit(factor, cutoff):
    # each slice of a block is that offset's kernel built alone, a block of one
    offset_map = fock.OffsetMap(factor)
    blocks = offset_map.real_kernel_blocks(cutoff)
    for d, kernel in _block_slices(offset_map, cutoff):
        assert np.array_equal(kernel, blocks(d, 1)[0])


@pytest.mark.parametrize("cutoff", [1, 3, 24, 65])
def test_chained_blocks_compose_each_offsets_kernels(cutoff, operator_kernels):
    # a chain's stacks compose by batched matrix products over the padded
    # width, whose sums BLAS may group differently from the unpadded product
    loss, amp, het = (fock.KrausFamily("loss", 0.6), fock.KrausFamily("amp", 1.7),
                      fock.KrausFamily("heterodyne", 0.8))
    for offset_map in (fock.OffsetMap(), fock.OffsetMap(loss, amp),
                       fock.OffsetMap(loss, het, amp)):
        one = operator_kernels(offset_map, cutoff)
        for d, kernel in _block_slices(offset_map, cutoff):
            assert np.abs(kernel - one(d)).max() <= 1e-16


def test_average_fidelity_validates_inputs():
    identity = fock.OffsetMap()
    with pytest.raises(InvalidInput):
        fock.average_fidelity_fock(identity, 0.0, 0.5)
    with pytest.raises(InvalidInput):
        fock.average_fidelity_fock(identity, 1.0, 0.0)
    for eta in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="finite"):
            fock.average_fidelity_fock(identity, eta, 0.5)
    for cutoff in (0, -3, 181):
        with pytest.raises(InvalidInput, match="cutoff"):
            fock.average_fidelity_fock(identity, 1.0, 0.5, cutoff=cutoff)
