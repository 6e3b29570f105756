import math

import numpy as np
import pytest

from cvbench import fock
from cvbench.bounds import classical_bound
from cvbench.errors import InvalidInput
from cvbench.proofcheck import (circulant_eigenvalues, circulant_identity_check,
                                circulant_matrix, circulant_shift,
                                matched_quadrature, outcome_score_operator,
                                score_bound_check, two_copy_check,
                                two_copy_operator)

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


def test_matched_rule_integrates_these_kernels_exactly():
    eta, lam, cutoff = 0.7, 0.3, 10
    probe = np.zeros(cutoff)
    probe[2] = 1.0
    default = outcome_score_operator(probe, eta, lam)
    dense = outcome_score_operator(
        probe, eta, lam, rule=matched_quadrature(eta, lam, cutoff,
                                                 radial_points=90,
                                                 angular_points=96))
    assert np.max(np.abs(default.matrix - dense.matrix)) < 1e-13


def test_score_operator_is_hermitian_psd():
    probe = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    probe /= np.linalg.norm(probe)
    op = outcome_score_operator(probe, 1.2, 0.4)
    assert op.matrix.shape == (8, 8)
    assert np.allclose(op.matrix, op.matrix.conj().T)
    assert np.linalg.eigvalsh(op.matrix).min() >= -1e-14


def test_vacuum_score_trace_and_top_eigenvalue():
    eta, lam = 1.0, 1.0
    op = outcome_score_operator(np.eye(20)[0], eta, lam)
    # total credit mass: prior overlap with the vacuum, lam / (1 + lam)
    assert np.trace(op.matrix).real == pytest.approx(0.5, abs=1e-8)
    top = np.linalg.eigvalsh(op.matrix)[-1]
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
