import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from cvbench import ensembles, fock, proofcheck
from cvbench.bounds import classical_bound
from cvbench.ensembles import GaussianPrior, gauss_rule
from cvbench.errors import InvalidInput
from cvbench.proofcheck import (circulant_eigenvalues, circulant_identity_check,
                                circulant_matrix, circulant_shift,
                                outcome_score_operator, score_bound_check,
                                two_copy_check, two_copy_operator)

rng = np.random.default_rng(47)

random_points = [(int(rng.integers(2, 9)), float(rng.uniform(0.0, 2.0)),
                  float(rng.uniform(0.1, 2.0))) for _ in range(10)]
random_points += [(4, 0.0, 1.3), (7, 0.0, 0.6)]  # zero prior width is legal here


# ---------------------------------------------------------------------------
# circulant identities


def test_shift_matrix_cycles_basis_vectors():
    c = circulant_shift(4)
    e = np.eye(4)
    for j in range(4):
        assert np.array_equal(c @ e[:, j], e[:, (j - 1) % 4])
    assert np.array_equal(np.linalg.matrix_power(c, 4), np.eye(4))


def test_circulant_matrix_explicit_form():
    m = circulant_matrix(3, 2.0, 0.5)
    expected = np.array([[2.0, -0.5, 0.0],
                         [0.0, 2.0, -0.5],
                         [-0.5, 0.0, 2.0]])
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("p,lam,eta", random_points)
def test_closed_form_spectrum_matches_dense_solver(p, lam, eta):
    closed = np.sort_complex(circulant_eigenvalues(p, lam + eta, eta))
    dense = np.sort_complex(np.linalg.eigvals(circulant_matrix(p, lam + eta, eta)))
    assert np.allclose(closed, dense, atol=1e-10 * (lam + 2 * eta + 1))


def test_determinant_factorizes_small_integer_case():
    assert np.linalg.det(circulant_matrix(3, 2.0, 1.0)) == pytest.approx(7.0, rel=1e-12)


def test_determinant_factorizes_generic_case():
    got = np.linalg.det(circulant_matrix(5, 1.3, 0.4))
    assert got == pytest.approx(1.3 ** 5 - 0.4 ** 5, rel=1e-12)


def test_shifted_spectrum_at_zero_prior_width():
    chi = circulant_eigenvalues(2, 1.0, 1.0)
    assert sorted(np.round(chi.real, 12)) == [0.0, 2.0]
    assert np.allclose(chi.imag, 0.0, atol=1e-12)


def test_product_identity_example():
    chi = circulant_eigenvalues(4, 0.5 + 0.7, 0.7)
    assert np.prod(1.0 + chi).real == pytest.approx(2.2 ** 4 - 0.7 ** 4, rel=1e-12)
    assert np.prod(1.0 + chi).imag == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p,lam,eta", random_points)
def test_modulus_floor_is_attained_at_the_real_eigenvalue(p, lam, eta):
    chi = circulant_eigenvalues(p, lam + eta, eta)
    floor = np.abs(1.0 + chi).min()
    assert floor == pytest.approx(1.0 + lam, rel=1e-12)


@pytest.mark.parametrize("p", range(2, 9))
def test_mirrored_orientation_matches_only_for_even_copy_counts(p):
    report = circulant_identity_check(p, 0.4, 0.9)
    assert report.passed
    assert report.mirrored_spectrum_matches == (p % 2 == 0)


@pytest.mark.parametrize("p,lam,eta", random_points)
def test_identity_check_passes_everywhere_it_should(p, lam, eta):
    report = circulant_identity_check(p, lam, eta)
    assert report.passed
    assert report.eigenvalue_mismatch <= report.tolerance
    assert report.det_residual <= report.tolerance
    assert report.product_residual <= report.tolerance
    assert report.prefactor_residual <= report.tolerance
    assert report.modulus_floor_slack >= -report.tolerance


def test_identity_check_report_serializes():
    blob = circulant_identity_check(3, 0.5, 0.5).to_json()
    assert blob["copies"] == 3
    assert blob["passed"] is True
    assert set(blob) >= {"det_residual", "product_residual", "modulus_floor_slack"}


def test_circulant_domain_guards():
    with pytest.raises(InvalidInput):
        circulant_identity_check(3, -0.1, 1.0)
    with pytest.raises(InvalidInput):
        circulant_identity_check(3, 0.5, 0.0)
    with pytest.raises(InvalidInput):
        circulant_shift(0)
    with pytest.raises(InvalidInput):
        circulant_eigenvalues(-2, 1.0, 1.0)


@pytest.mark.parametrize("p", [0, 513, 1024, 2.0])
def test_identity_check_rejects_copy_counts_outside_its_range(p):
    with pytest.raises(InvalidInput, match="1..512"):
        circulant_identity_check(p, 0.2, 1.0)


def test_identity_check_refuses_a_growth_factor_past_the_float_range():
    # 12^285 ~ 1e307 still fits a float, 12^286 does not
    assert circulant_identity_check(285, 1.0, 10.0).passed
    with pytest.raises(InvalidInput, match="overflows"):
        circulant_identity_check(286, 1.0, 10.0)


# ---------------------------------------------------------------------------
# score-operator bound


def polar_rule_score_operators(probes, eta, lam):
    """Reference: the score operator of each probe row by a (2c+8)^2 polar rule.

    Reweighted from width lam + 1 + eta to the prior, the rule integrates the
    polynomial-times-Gaussian score integrand with no quadrature error.
    """
    cutoff = probes.shape[-1]
    points = 2 * cutoff + 8
    rule = gauss_rule(GaussianPrior(lam + 1.0 + eta), radial_points=points,
                      angular_points=points)
    k_in = fock.coherent_amplitudes(rule.nodes, cutoff)
    k_out = fock.coherent_amplitudes(math.sqrt(eta) * rule.nodes, cutoff)
    scored = rule.weights_for(lam) * np.abs(probes.conj() @ k_in) ** 2
    return np.stack([(k_out * v) @ k_out.conj().T for v in scored])


def seeded_probes(seed, count, cutoff):
    probe_rng = np.random.default_rng(seed)
    raw = (probe_rng.standard_normal((count, cutoff))
           + 1j * probe_rng.standard_normal((count, cutoff)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


score_points = [(int(c), float(e), float(l)) for c, e, l in zip(
    [1, 2, 3, 5, 8, 13, 20, 27, 34, 40],
    np.random.default_rng(11).uniform(0.3, 3.0, 10),
    np.random.default_rng(12).uniform(0.05, 1.5, 10))]


@pytest.mark.parametrize("cutoff, eta, lam", score_points)
def test_closed_form_score_operator_matches_the_polar_rule(cutoff, eta, lam):
    probes = seeded_probes([cutoff, 1], 6, cutoff)
    reference = polar_rule_score_operators(probes, eta, lam)
    stacked = outcome_score_operator(probes, eta, lam)
    assert stacked.shape == (6, cutoff, cutoff)
    scale = np.max(np.abs(reference), axis=(1, 2))
    assert np.all(np.max(np.abs(stacked - reference), axis=(1, 2)) <= 1e-12 * scale)
    for probe, ref, top in zip(probes, reference, scale):
        single = outcome_score_operator(probe, eta, lam)
        assert np.max(np.abs(single - ref)) <= 1e-12 * top


def test_score_bound_check_builds_no_quadrature_rule(monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("a quadrature rule was built on the score side")
    monkeypatch.setattr(ensembles, "gauss_rule", must_not_build)
    monkeypatch.setattr(ensembles, "laguerre_rule", must_not_build)
    assert score_bound_check(1.3, 0.4, trials=8, cutoff=24, seed=2).passed


def test_score_operator_is_hermitian_psd():
    probe = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    probe /= np.linalg.norm(probe)
    op = outcome_score_operator(probe, 1.2, 0.4)
    assert op.shape == (8, 8)
    assert np.allclose(op, op.conj().T)
    assert np.linalg.eigvalsh(op).min() >= -1e-14


def test_vacuum_score_trace_and_top_eigenvalue():
    eta, lam = 1.0, 1.0
    op = outcome_score_operator(np.eye(20)[0], eta, lam)
    # total credit mass: prior overlap with the vacuum, lam / (1 + lam)
    assert np.trace(op).real == pytest.approx(0.5, abs=1e-8)
    top = np.linalg.eigvalsh(op)[-1]
    # the vacuum saturates the bound: lam / (1 + lam + eta)
    assert top == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert top <= classical_bound(eta, lam) * lam / (1.0 + lam) + 1e-12


def test_score_operator_domain_guards():
    with pytest.raises(InvalidInput):
        outcome_score_operator(np.eye(4)[0], 1.0, 0.0)
    with pytest.raises(InvalidInput):
        outcome_score_operator(np.eye(4)[0], 0.0, 0.5)
    with pytest.raises(InvalidInput):
        outcome_score_operator(np.array([]), 1.0, 0.5)
    with pytest.raises(InvalidInput, match="one or two axes"):
        outcome_score_operator(np.ones((2, 3, 3)), 1.0, 0.5)


def offset_kernel_score_operators(probes, eta, lam):
    """lam times the heterodyne offset kernels applied to each probe's projector."""
    n = probes.shape[-1]
    c = fock._heterodyne_table(n, math.sqrt(eta), math.log1p(lam + eta))
    kernels = lambda d: c[:n - d, d:] * c[d:, :n - d]   # A_d[l, m] = c[l, m+d] c[l+d, m]
    projectors = probes[..., :, None] * probes.conj()[..., None, :]
    return lam * fock.apply_offset_kernels(projectors, kernels)


@pytest.mark.parametrize("eta, lam", [(0.6, 0.3), (1.7, 1.1), (1.2, 0.4)])
@pytest.mark.parametrize("cutoff", [1, 2, 14, 64, 180])
def test_kraus_score_operator_matches_the_offset_kernel_build(cutoff, eta, lam):
    probes = seeded_probes([cutoff, 2], 2 if cutoff == 180 else 5, cutoff)
    probes[0] = np.eye(cutoff)[0]                       # the vacuum
    built = outcome_score_operator(probes, eta, lam)
    reference = offset_kernel_score_operators(probes, eta, lam)
    scale = np.max(np.abs(reference), axis=(1, 2))
    assert np.all(np.max(np.abs(built - reference), axis=(1, 2)) <= 1e-15 * scale)


@pytest.mark.parametrize("count, cutoff", [(25, 14), (70, 64)])
def test_kraus_score_stack_slices_are_bit_equal_to_single_builds(count, cutoff):
    # 70 probes at cutoff 64 span three image blocks
    probes = seeded_probes([cutoff, 3], count, cutoff)
    stacked = outcome_score_operator(probes, 1.3, 0.5)
    for probe, operator in zip(probes, stacked):
        assert np.array_equal(outcome_score_operator(probe, 1.3, 0.5), operator)


def test_heterodyne_images_are_the_kraus_operators_on_the_ket():
    # img[l, s] = c[l, s - l] phi[s - l], each K_s phi a column
    cutoff, gain, log_width = 5, 0.8, math.log1p(1.3)
    phi = seeded_probes([cutoff, 4], 1, cutoff)[0]
    c = fock._heterodyne_table(cutoff, gain, log_width)
    img = fock.heterodyne_images(cutoff, gain, log_width)(phi)
    assert img.shape == (cutoff, 2 * cutoff - 1)
    for s in range(2 * cutoff - 1):
        column = [c[l, s - l] * phi[s - l] if 0 <= s - l < cutoff else 0.0
                  for l in range(cutoff)]
        assert np.array_equal(img[:, s], column)


def test_score_check_peak_stays_within_its_operator_stack():
    trials, cutoff = 500, 64
    tracemalloc.start()
    try:
        assert score_bound_check(1.2, 0.4, trials=trials, cutoff=cutoff).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entry = np.dtype(complex).itemsize
    operators = (trials + 1) * cutoff ** 2 * entry
    images = 2 * proofcheck._IMAGE_BLOCK * entry       # one block and its conjugate
    probes = 8 * (trials + 1) * cutoff * entry         # the probes and their temporaries
    assert peak <= operators + images + probes + (1 << 20)
    assert peak < 95.7 * 2 ** 20                       # the offset-kernel build's peak


def test_report_dicts_equal_their_asdict_versions():
    probe = seeded_probes([6, 5], 1, 6)[0]
    reports = [circulant_identity_check(5, 0.3, 1.1),
               score_bound_check(0.9, 0.4, trials=7, cutoff=9, seed=4),
               two_copy_check(probe, 0.9, 0.4, cutoff=10)]
    for report in reports:
        blob, reference = report.to_json(), dataclasses.asdict(report)
        assert list(blob.items()) == list(reference.items())
        assert json.dumps(blob) == json.dumps(reference)


@pytest.mark.parametrize("eta,lam", [(0.5, 0.2), (1.0, 0.2), (1.0, 1.0), (2.0, 0.7)])
def test_score_bound_holds_on_random_probes(eta, lam):
    report = score_bound_check(eta, lam, trials=30, cutoff=16, seed=5)
    assert report.passed
    assert report.max_violation <= report.tolerance
    # probe 0 is the vacuum and sits exactly on the bound
    assert abs(report.vacuum_saturation_gap) < 1e-9


def test_score_bound_checks_are_seeded():
    a = score_bound_check(1.0, 0.3, trials=12, cutoff=10, seed=9)
    b = score_bound_check(1.0, 0.3, trials=12, cutoff=10, seed=9)
    assert a.max_violation == b.max_violation
    assert a.worst_probe == b.worst_probe


def test_scaled_down_bound_is_flagged_by_the_vacuum():
    eta, lam = 1.0, 0.2
    report = score_bound_check(eta, lam, trials=10, cutoff=14, seed=3,
                               bound_scale=0.9)
    assert not report.passed
    assert report.worst_probe == 0
    expected = 0.1 * lam / (1.0 + lam + eta)
    assert report.max_violation == pytest.approx(expected, rel=1e-6)
    blob = report.to_json()
    assert blob["bound_scale"] == 0.9 and blob["passed"] is False


def test_score_bound_check_rejects_negative_trials():
    with pytest.raises(InvalidInput):
        score_bound_check(1.0, 0.5, trials=-1)


def test_score_bound_check_rejects_too_many_trials():
    with pytest.raises(InvalidInput, match="0..500"):
        score_bound_check(1.0, 0.5, trials=501)


@pytest.mark.parametrize("cutoff", [0, -3, 65])
def test_score_bound_check_rejects_cutoffs_outside_its_range(cutoff):
    with pytest.raises(InvalidInput, match="1..64"):
        score_bound_check(1.0, 0.5, trials=2, cutoff=cutoff)


# ---------------------------------------------------------------------------
# two-copy consistency

random_probes = []
for _ in range(10):
    raw = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    random_probes.append(raw / np.linalg.norm(raw))


def test_two_copy_matches_frobenius_for_the_vacuum():
    report = two_copy_check(np.eye(6)[0], 1.0, 1.0)
    assert report.passed
    assert report.rel_difference < 1e-3


def test_two_copy_matches_frobenius_for_one_photon():
    report = two_copy_check(np.eye(6)[1], 0.5, 0.5)
    assert report.passed


def test_two_copy_accepts_fock_vectors():
    report = two_copy_check(fock.coherent_ket(0.4, 12), 1.0, 0.8)
    assert report.passed


@pytest.mark.parametrize("probe", random_probes)
def test_two_copy_matches_on_random_low_probes(probe):
    report = two_copy_check(probe, 0.8, 0.6, cutoff=12)
    assert report.rel_difference <= report.tolerance
    assert report.frobenius_sq > 0


def test_two_copy_operator_is_hermitian():
    b = two_copy_operator(0.9, 0.5, 5)
    assert b.shape == (25, 25)
    assert np.allclose(b, b.conj().T)
    assert np.linalg.eigvalsh(b).min() >= -1e-12


def test_two_copy_cutoff_and_probe_guards():
    with pytest.raises(InvalidInput):
        two_copy_operator(1.0, 0.5, 17)
    with pytest.raises(InvalidInput):
        two_copy_operator(1.0, 0.5, 0)
    with pytest.raises(InvalidInput):
        two_copy_check(np.ones(9) / 3.0, 1.0, 0.5, cutoff=8)
    with pytest.raises(InvalidInput, match="one probe"):
        two_copy_check(np.eye(4)[:2], 1.0, 0.5, cutoff=8)


# the check's exact value against the dense operator, built by its own recurrence
contraction_points = [(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.1, 1.0)))
                      for _ in range(2)]
contraction_points += [(float(rng.uniform(2.0, 4.0)), float(rng.uniform(0.1, 2.0)))
                       for _ in range(2)]


@pytest.mark.parametrize("cutoff", [1, 2, 5, 10, 16])
@pytest.mark.parametrize("eta, lam", contraction_points)
def test_two_copy_contraction_matches_the_dense_operator(cutoff, eta, lam):
    probe_rng = np.random.default_rng([cutoff, int(1e6 * eta)])
    for _ in range(3):
        raw = probe_rng.standard_normal(cutoff) + 1j * probe_rng.standard_normal(cutoff)
        amps = raw / np.linalg.norm(raw)
        pair = np.kron(amps, amps)
        dense = (pair.conj() @ two_copy_operator(eta, lam, cutoff) @ pair).real
        value = proofcheck._two_copy_value(amps, eta, lam)
        assert abs(value - dense) <= 1e-12 * dense


@pytest.mark.parametrize("eta, lam", [(1.0, 0.2), (0.3, 1.7), (15.0, 0.2), (2e-3, 40.0)])
def test_two_copy_value_of_the_vacuum_is_the_closed_form(eta, lam):
    value = proofcheck._two_copy_value(np.ones(1, dtype=complex), eta, lam)
    exact = lam ** 2 / ((1.0 + lam) * (1.0 + lam + 2.0 * eta))
    assert abs(value - exact) <= 1e-15 * exact


@pytest.mark.parametrize("levels", [16, 64])
def test_trailing_zero_levels_leave_the_two_copy_value_unchanged(levels):
    probe_rng = np.random.default_rng([levels, 11])
    for support in (1, 3, 6):
        raw = probe_rng.standard_normal(support) + 1j * probe_rng.standard_normal(support)
        amps = raw / np.linalg.norm(raw)
        padded = np.pad(amps, (0, levels - support))
        value = proofcheck._two_copy_value(amps, 1.3, 0.4)
        assert abs(proofcheck._two_copy_value(padded, 1.3, 0.4) - value) <= 1e-15 * value
        assert two_copy_check(padded, 1.3, 0.4, cutoff=levels) == two_copy_check(
            amps, 1.3, 0.4, cutoff=levels)


@pytest.mark.parametrize("eta, lam, support", [
    (0.9, 0.5, 6), (10.0, 0.2, 6), (10.0, 0.2, 20), (20.0, 0.3, 6), (0.5, 1.0, 40),
    (1.0, 0.3, 64)])
def test_two_copy_value_is_the_score_operators_frobenius_norm(eta, lam, support):
    # 400 output levels leave the score side's truncation below 1e-10 here
    probe_rng = np.random.default_rng([support, int(10 * eta)])
    raw = probe_rng.standard_normal(support) + 1j * probe_rng.standard_normal(support)
    amps = raw / np.linalg.norm(raw)
    score = outcome_score_operator(np.pad(amps, (0, 400 - support)), eta, lam)
    frob = np.sum(np.abs(score) ** 2)
    value = proofcheck._two_copy_value(amps, eta, lam)
    assert abs(value - frob) <= 1e-10 * frob


@pytest.mark.parametrize("eta, lam", [(0.9, 0.5), (2.0, 0.3)])
def test_dense_two_copy_trace_rises_toward_the_full_trace(eta, lam):
    # Tr B = E_a E_b exp(-eta |a - b|^2) = lam / (lam + 2 eta)
    traces = [np.trace(two_copy_operator(eta, lam, c)) for c in range(1, 17)]
    assert np.all(np.diff(traces) > 0)
    full = lam / (lam + 2.0 * eta)
    assert traces[-1] < full
    assert full - traces[-1] <= 1e-2 * (full - traces[0])


def test_two_copy_check_builds_no_ket_rule_or_dense_operator(monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("the two-copy check built a ket, a rule or the dense operator")
    for module, name in ((fock, "coherent_amplitudes"), (fock, "coherent_ket"),
                         (ensembles, "gauss_rule"), (ensembles, "laguerre_rule"),
                         (proofcheck, "two_copy_operator")):
        monkeypatch.setattr(module, name, must_not_build)
    probe_rng = np.random.default_rng(2)
    raw = probe_rng.standard_normal(6) + 1j * probe_rng.standard_normal(6)
    assert two_copy_check(raw / np.linalg.norm(raw), 1.0, 0.2, cutoff=16).passed


@pytest.mark.parametrize("cutoff", [0, 65])
def test_two_copy_check_rejects_cutoffs_outside_its_range(cutoff):
    with pytest.raises(InvalidInput, match="1..64"):
        two_copy_check(np.ones(1, dtype=complex), 1.0, 0.5, cutoff)


@pytest.mark.parametrize("eta, lam", [(0.0, 0.5), (1.0, 0.0), (float("nan"), 0.5)])
def test_two_copy_value_rejects_nonpositive_widths(eta, lam):
    with pytest.raises(InvalidInput):
        proofcheck._two_copy_value(np.ones(4, dtype=complex), eta, lam)


def test_score_side_levels_follow_the_support_eta_and_lambda():
    # the top Fock level's squared tail share falls below 1e-3 / 100, never
    # fewer levels than the probe's support
    assert proofcheck._score_levels(1.0, 0.2, 1) == 8
    assert proofcheck._score_levels(1.0, 0.2, 6) == 18
    assert proofcheck._score_levels(3.0, 0.2, 6) == 44
    assert proofcheck._score_levels(10.0, 0.2, 6) == 136
    assert proofcheck._score_levels(10.0, 0.2, 20) == 307
    assert proofcheck._score_levels(1.5, 0.3, 6) == 23
    assert proofcheck._score_levels(0.5, 0.3, 64) == 64


@pytest.mark.parametrize("eta, lam", [(20.0, 0.2), (1e308, 0.2), (1.0, 0.0)])
def test_score_side_refuses_what_it_cannot_resolve(eta, lam):
    with pytest.raises(InvalidInput):
        proofcheck._score_levels(eta, lam, 16)


# (eta, lam) points of the levels rule's check: moderate gains, and high ones
# for the supports whose levels stay within the cap
share_points = [(0.5, 0.3), (1.0, 0.2), (1.5, 0.6), (3.0, 0.2), (6.0, 1.0)]


@pytest.mark.parametrize("eta, lam", share_points + [(10.0, 0.2), (18.0, 0.2)])
def test_score_levels_drop_a_small_share_on_every_support(eta, lam):
    # the score side's truncated share of the exact value stays below a
    # hundredth of the tolerance, for the top Fock level and seeded probes
    probe_rng = np.random.default_rng([int(10 * eta), int(10 * lam)])
    checked = 0
    for support in range(1, 65):
        try:
            levels = proofcheck._score_levels(eta, lam, support)
        except InvalidInput:
            assert eta >= 10.0       # only the high gains run past the cap
            continue
        top = np.eye(support, dtype=complex)[-1]
        raw = probe_rng.standard_normal(support) + 1j * probe_rng.standard_normal(support)
        for amps in (top, raw / np.linalg.norm(raw)):
            score = outcome_score_operator(np.pad(amps, (0, levels - support)), eta, lam)
            value = proofcheck._two_copy_value(amps, eta, lam)
            assert (value - np.sum(np.abs(score) ** 2)) / value <= 1e-5
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("eta, lam, support", [(10.0, 0.2, 20), (3.0, 0.2, 30)])
def test_two_copy_check_passes_on_wide_probes(eta, lam, support):
    probe_rng = np.random.default_rng(3)
    raw = probe_rng.standard_normal(support) + 1j * probe_rng.standard_normal(support)
    report = two_copy_check(raw / np.linalg.norm(raw), eta, lam, cutoff=32)
    assert report.passed
    assert report.score_cutoff == proofcheck._score_levels(eta, lam, support)


@pytest.mark.parametrize("eta", [3.0, 6.0, 10.0])
def test_two_copy_check_passes_above_unit_gain_at_cutoff_16(eta):
    rng_probe = np.random.default_rng(0)
    raw = rng_probe.standard_normal(6) + 1j * rng_probe.standard_normal(6)
    report = two_copy_check(raw / np.linalg.norm(raw), eta, 0.2, cutoff=16)
    assert report.passed
    assert report.cutoff == 16
    assert report.score_cutoff == proofcheck._score_levels(eta, 0.2, 6)
    assert report.to_json()["score_cutoff"] == report.score_cutoff
