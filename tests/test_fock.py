import math

import numpy as np
import pytest

from cvbench import fock
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
    assert np.allclose(ket.amplitudes, expected, atol=1e-15)
    assert ket.norm_squared == pytest.approx(1.0, abs=1e-12)
    assert ket.truncated_weight == pytest.approx(0.0, abs=1e-12)


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
    with pytest.raises(CutoffTooSmall):
        fock.coherent_ket(3.0, 10)
    # Explicitly unguarded call returns the sub-normalized truncation.
    ket = fock.coherent_ket(3.0, 10, weight_tol=None)
    assert ket.norm_squared < 0.7


def test_coherent_batch_matches_single_kets():
    alphas = np.array([0.3, -1.0 + 0.5j, 2.0j])
    batch = fock.coherent_amplitudes(alphas, 30)
    for i, a in enumerate(alphas):
        single = fock.coherent_ket(a, 30, weight_tol=None)
        assert np.allclose(batch[:, i], single.amplitudes, atol=1e-15)


def test_coherent_overlaps():
    a, b = 0.9, -0.4 + 0.6j
    ka = fock.coherent_ket(a, 40)
    kb = fock.coherent_ket(b, 40)
    got = np.vdot(ka.amplitudes, kb.amplitudes)
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
    overlap = np.vdot(d @ vac, fock.coherent_ket(alpha, 35).amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_rotation_is_a_number_phase():
    theta = 0.7
    r = fock.rotation(theta, 15)
    n = np.arange(15)
    assert np.allclose(np.diag(r), np.exp(1j * theta * n) * 0 + np.diag(r))
    assert np.allclose(r @ r.conj().T, np.eye(15), atol=1e-12)
    # Photon statistics are rotation invariant.
    ket = fock.coherent_ket(1.1, 15, weight_tol=None).amplitudes
    assert np.allclose(np.abs(r @ ket), np.abs(ket), atol=1e-12)


def test_squeeze_keeps_minimal_uncertainty():
    s = fock.squeeze(0.5, 50)
    vac = np.zeros(50)
    vac[0] = 1.0
    rho = fock.FockOperator(np.outer(s @ vac, (s @ vac).conj()))
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
    assert np.allclose(np.diag(th.matrix).real, expected, atol=1e-15)
    assert th.trace == pytest.approx(1.0, abs=1e-6)
    mean_n = fock.expectation(th, fock.number_operator(60)).real
    assert mean_n == pytest.approx(1.0 / lam, rel=1e-4)


def test_gaussian_state_fock_reproduces_moments():
    for i in range(6):
        gamma = random_physical_gamma(rng)
        d = rng.normal(scale=1.0, size=2)
        rho = fock.gaussian_state_fock(d, gamma, 45)
        assert rho.trace == pytest.approx(1.0, abs=1e-8)
        mean, cov = fock.mean_and_covariance(rho)
        assert np.allclose(mean, d, atol=1e-6)
        assert np.allclose(cov, gamma, atol=1e-6)


def test_gaussian_state_fock_vacuum_and_coherent():
    vac = fock.gaussian_state_fock(np.zeros(2), E2 / 2, 20)
    assert vac.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)
    coh = fock.gaussian_state_fock(np.array([math.sqrt(2), 0.0]), E2 / 2, 30)
    ket = fock.coherent_ket(1.0, 30)
    assert fock.fidelity_pure(ket, coh) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# channels on truncated states


def test_loss_is_trace_preserving_and_maps_coherent_to_coherent():
    alpha, T = 1.2 - 0.4j, 0.6
    rho = fock.coherent_ket(alpha, 40).projector()
    out = fock.apply_loss(rho, T)
    assert out.trace == pytest.approx(rho.trace, abs=1e-13)
    target = fock.coherent_ket(math.sqrt(T) * alpha, 40)
    assert fock.fidelity_pure(target, out) == pytest.approx(1.0, abs=1e-10)


def test_loss_scales_thermal_occupation():
    lam, T = 0.9, 0.5
    out = fock.apply_loss(fock.thermal_state(lam, 80), T)
    expected = fock.thermal_state(lam / T, 80)
    # Compare on a comfortably converged leading block.
    assert np.allclose(out.matrix[:40, :40], expected.matrix[:40, :40],
                       atol=1e-8)


def test_amp_adds_minimal_noise():
    G = 2.0
    vac = fock.FockOperator(np.diag([1.0] + [0.0] * 59))
    out = fock.apply_amp(vac, G)
    mean_n = fock.expectation(out, fock.number_operator(60)).real
    assert mean_n == pytest.approx(G - 1.0, rel=1e-6)
    mean, cov = fock.mean_and_covariance(out)
    assert np.allclose(cov, (G - 0.5) * E2, atol=1e-6)
    alpha = 0.7
    out = fock.apply_amp(fock.coherent_ket(alpha, 60).projector(), G)
    mean, _ = fock.mean_and_covariance(out)
    assert np.allclose(mean, [math.sqrt(2 * G) * alpha, 0.0], atol=1e-6)


def test_loss_then_amp_is_the_classical_map():
    # T = 1/2 then G = 2 equals heterodyne-and-re-prepare at unit gain: the
    # coherent input survives with one extra unit of added noise.
    rho = fock.coherent_ket(0.9, 50).projector()
    out = fock.apply_amp(fock.apply_loss(rho, 0.5), 2.0)
    mean, cov = fock.mean_and_covariance(out)
    assert np.allclose(mean, [0.9 * math.sqrt(2), 0.0], atol=1e-7)
    assert np.allclose(cov, 1.5 * E2, atol=1e-7)


def test_identity_shortcuts():
    rho = fock.coherent_ket(0.5, 25).projector()
    assert np.array_equal(fock.apply_loss(rho, 1.0).matrix, rho.matrix)
    assert np.array_equal(fock.apply_amp(rho, 1.0).matrix, rho.matrix)


def test_mixture_of_displacements_adds_single_axis_noise():
    vac = fock.FockOperator(np.diag([1.0] + [0.0] * 39))
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
    inner = evecs.conj().T @ rho.matrix @ evecs
    expected = evecs @ (kernel * inner) @ evecs.conj().T
    got = fock.gaussian_mixture_of_displacements(rho, variance, axis=axis).matrix
    assert np.abs(got - expected).max() <= 1e-14


@pytest.mark.parametrize("kernel", [
    lambda rho: fock.apply_loss(rho, 0.63),
    lambda rho: fock.apply_amp(rho, 1.8),
])
def test_kraus_kernels_on_a_stack_equal_each_slice_bit_for_bit(kernel, state_stack):
    stack = state_stack(24)
    got = kernel(fock.FockOperator(stack)).matrix
    assert got.shape == stack.shape
    for i, m in enumerate(stack):
        assert np.array_equal(got[i], kernel(fock.FockOperator(m)).matrix)


def _apply_loss_by_kraus_loop(matrix, T):
    # one Kraus operator A_k per number k of lost photons, summed term by term
    n = matrix.shape[-1]
    lg = fock._lgamma_table(n + 1)
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
    lg = fock._lgamma_table(n + 1)
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
    got = kernel(fock.FockOperator(x)).matrix
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
    out = kernel(fock.FockOperator(np.diag(np.eye(cutoff)[m]))).matrix
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
    out = kernel(fock.FockOperator(np.diag(amps, k=-offset))).matrix
    rows, cols = np.indices(out.shape)
    assert np.all(out[rows - cols != offset] == 0.0)
    assert np.abs(np.diagonal(out, offset=-offset)).min() > 0.0


@pytest.mark.parametrize("axis", [0, 1])
def test_mixture_on_a_stack_equals_each_slice(axis, state_stack):
    stack = state_stack(24)
    got = fock.gaussian_mixture_of_displacements(fock.FockOperator(stack), 0.4, axis).matrix
    for i, m in enumerate(stack):
        one = fock.gaussian_mixture_of_displacements(fock.FockOperator(m), 0.4, axis).matrix
        assert np.abs(got[i] - one).max() <= 1e-15


def test_operator_stacks(state_stack):
    stack = fock.FockOperator(state_stack(12))
    assert stack.cutoff == 12
    traces = stack.trace
    assert traces.shape == (5,)
    for i, m in enumerate(stack.matrix):
        assert abs(traces[i] - fock.FockOperator(m).trace) <= 1e-15
    assert np.array_equal(stack.trace_deficit, 1.0 - traces)
    with pytest.raises(InvalidInput, match="single operator"):
        stack.to_json()
    for bad in (np.zeros((2, 3, 4)), np.zeros((1, 2, 2, 2)), np.zeros((2, 0, 0))):
        with pytest.raises(InvalidInput, match="square"):
            fock.FockOperator(bad)


def test_vector_stacks():
    alphas = [0.3, 1.2j, -2.5 + 1.0j]
    kets = fock.FockVector(fock.coherent_amplitudes(alphas, 9).T)
    assert kets.cutoff == 9
    projectors = kets.projector().matrix
    for i, alpha in enumerate(alphas):
        one = fock.coherent_ket(alpha, 9, weight_tol=None)
        assert kets.truncated_weight[i] == pytest.approx(one.truncated_weight, abs=1e-15)
        assert np.array_equal(projectors[i], one.projector().matrix)


def test_fidelity_pure_on_stacks_equals_each_pair(state_stack):
    stack = fock.FockOperator(state_stack(20))
    kets = fock.FockVector(fock.coherent_amplitudes([0.2, 1.0 - 0.5j, -0.6j, 1.5, 0.5], 20).T)
    got = fock.fidelity_pure(kets, stack)
    assert got.shape == (5,)
    for i in range(5):
        one = fock.fidelity_pure(fock.FockVector(kets.amplitudes[i]),
                                 fock.FockOperator(stack.matrix[i]))
        assert abs(got[i] - one) <= 1e-15
    with pytest.raises(InvalidInput, match="stack mismatch"):
        fock.fidelity_pure(fock.FockVector(kets.amplitudes[:4]), stack)
    with pytest.raises(InvalidInput, match="stack mismatch"):
        fock.fidelity_pure(fock.FockVector(kets.amplitudes[0]), stack)


def test_fidelity_pure_checks_every_pair_of_a_stack(state_stack):
    stack = state_stack(20)
    kets = fock.FockVector(fock.coherent_amplitudes([0.2, 1.0, -0.6j, 1.5, 0.5], 20).T)
    skewed = stack.copy()
    skewed[3] *= 1.0 + 0.1j
    with pytest.raises(InvalidInput, match="not Hermitian"):
        fock.fidelity_pure(kets, fock.FockOperator(skewed))
    inflated = stack.copy()
    inflated[2] *= 1.5
    with pytest.raises(InvalidInput, match=r"outside \[0, 1\]"):
        fock.fidelity_pure(kets, fock.FockOperator(inflated))


def test_mixture_preserves_trace_and_hermiticity():
    rho = fock.thermal_state(1.5, 30)
    out = fock.gaussian_mixture_of_displacements(rho, 0.3, axis=0)
    assert out.trace == pytest.approx(rho.trace, abs=1e-9)
    assert np.allclose(out.matrix, out.matrix.conj().T, atol=1e-12)


def test_mixture_of_zero_variance_is_one_identity():
    weights, unitaries = fock.mixture_unitaries(0.0, 1, 12)
    assert weights.tolist() == [1.0]
    assert np.array_equal(unitaries, np.eye(12)[None])
    rho = fock.coherent_ket(0.5 - 0.2j, 12).projector()
    assert np.array_equal(fock.gaussian_mixture_of_displacements(rho, 0.0, 0).matrix, rho.matrix)


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
def test_mixture_real_kernels_are_the_real_part_of_its_kernels(mixture, cutoff):
    real, full = mixture.real_kernels(cutoff), mixture(cutoff)
    for d in range(cutoff):
        assert real(d).dtype == float
        assert np.abs(real(d) - full(d).real).max() <= 1e-15


@pytest.mark.parametrize("axis", [0, 1])
def test_mixture_without_a_mean_folds_its_shifts(axis):
    # the kernels of exp(-isX) and exp(isX) agree, so the 10 positive shifts
    # at double weight give the kernels of all 20
    cutoff = 30
    mixture = fock.DisplacementMixture(0.35, axis)
    weights, unitaries = mixture.unitaries(cutoff)
    assert weights.size == 10 and unitaries.shape == (10, cutoff, cutoff)
    all_weights, all_unitaries = fock.mixture_unitaries(0.35, axis, cutoff)
    folded = mixture.real_kernels(cutoff)
    for d in range(cutoff):
        m = cutoff - d
        products = all_unitaries[:, d:, d:] * all_unitaries[:, :m, :m].conj()
        assert np.abs(folded(d) - np.tensordot(all_weights, products.real, 1)).max() <= 1e-14


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
                       fock.OffsetMap(lambda n: fock._loss_kernels(n, 0.6), mixture,
                                      lambda n: mixture(n))):
        with pytest.raises(InvalidInput, match="mixture"):
            fock.average_fidelity_fock(offset_map, 0.9, 0.3, cutoff=8)
    # a plain factor with complex kernels, alone, still gives its real part
    own = fock.average_fidelity_fock(fock.OffsetMap(mixture), 0.9, 0.3, cutoff=24)
    plain = fock.average_fidelity_fock(fock.OffsetMap(lambda n: mixture(n)), 0.9, 0.3,
                                       cutoff=24)
    assert abs(own.value - plain.value) <= 1e-15


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_fock_parameters_are_refused(value):
    rho = fock.coherent_ket(0.5, 12).projector()
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
    k0 = fock.FockOperator(np.diag([1.0, 0.0, 0.0]))
    k1 = fock.FockOperator(np.diag([0.0, 1.0, 0.0]))
    assert fock.trace_distance(k0, k1) == pytest.approx(1.0, abs=1e-12)
    assert fock.trace_distance(k0, k0) == pytest.approx(0.0, abs=1e-12)
    mix = fock.FockOperator(0.5 * (k0.matrix + k1.matrix))
    assert fock.trace_distance(k0, mix) == pytest.approx(0.5, abs=1e-12)


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


def test_operator_serialization_roundtrip():
    rho = fock.thermal_state(1.0, 8)
    again = fock.FockOperator.from_json(rho.to_json())
    assert np.array_equal(rho.matrix, again.matrix)


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
    avg = fock.average_fidelity_fock(
        fock.OffsetMap(lambda n: fock._loss_kernels(n, T)), eta, lam, cutoff=36)
    assert abs(avg.value - exact) <= 1e-4 + avg.error


def test_average_fidelity_reports_honest_error_when_truncated():
    # Tiny cutoff: the value cannot be trusted and the error term must say so.
    avg = fock.average_fidelity_fock(fock.OffsetMap(), 1.0, 0.2, cutoff=6)
    assert avg.error > 1e-3


def test_average_fidelity_refuses_a_node_fidelity_above_one():
    # the identity scaled by 1.5 puts every node's fidelity near 1.5
    inflated = fock.OffsetMap(lambda n: lambda d: 1.5 * np.eye(n - d))
    with pytest.raises(InvalidInput, match=r"outside \[0, 1\]"):
        fock.average_fidelity_fock(inflated, 1.0, 0.8, cutoff=12)


def test_average_fidelity_refuses_a_map_without_offset_kernels():
    with pytest.raises(InvalidInput, match="OffsetMap"):
        fock.average_fidelity_fock(lambda rho: rho, 1.0, 0.8, cutoff=12)


def test_offset_map_kernels_compose_its_factors_in_order():
    loss = lambda n: fock._loss_kernels(n, 0.6)
    amp = lambda n: fock._amp_kernels(n, 1.7)
    chain = fock.OffsetMap(loss, amp).real_kernels(9)
    for d in (0, 3, 8):
        expected = amp(9)(d) @ loss(9)(d)
        assert np.array_equal(chain(d), expected)
    assert np.array_equal(fock.OffsetMap().real_kernels(9)(2), np.eye(7))


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
