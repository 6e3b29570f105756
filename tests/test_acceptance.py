"""End-to-end behavior gates for the toolkit.

Each test prints one PASS/FAIL line with the observed deviation so a plain
`pytest -s tests/test_acceptance.py` doubles as a numerical report.  The
tests are ordered from bound arithmetic up through the full certification
pipeline; the slow ones carry explicit wall-clock budgets.
"""

import math
import time

import numpy as np
import pytest

from cvbench import certify, fock, schemes
from cvbench.bounds import classical_bound
from cvbench.ensembles import GaussianPrior, gauss_rule
from cvbench.gaussian import (E2, GaussianChannel, GaussianState,
                              apply_channel, average_fidelity_gaussian,
                              compose, fidelity_to_coherent, is_cp_channel)
from cvbench.proofcheck import (circulant_eigenvalues, circulant_matrix,
                                score_bound_check)
from cvbench.schemes import (CanonicalB1, CanonicalC, Compose, HeterodyneMP,
                             PureLoss, QuantumLimitedAmp, fock_applier,
                             mp_average_fidelity, optimize_mp_gain, to_gaussian)

GRID8 = [1.2, -1.2, 1.2j, -1.2j, 1.8, -1.8, 1.8j, -1.8j]


def report(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    return ok


def test_flat_prior_bound_takes_its_known_values():
    devs = [abs(classical_bound(1.0, 0.0) - 0.5)]
    devs += [abs(classical_bound(eta, 0.0) - 1.0 / (1.0 + eta))
             for eta in (0.25, 0.5, 2.0)]
    worst = max(devs)
    assert report(worst <= 1e-15, "flat-prior bound equals 1/(1+eta)",
                  f"max deviation {worst:.1e}")


def test_optimal_heterodyne_strategy_attains_the_bound():
    worst = 0.0
    for eta in np.linspace(0.25, 2.0, 5):
        for lam in np.linspace(0.05, 1.0, 5):
            g = math.sqrt(eta) / (1.0 + lam)
            worst = max(worst, abs(mp_average_fidelity(g, eta, lam)
                                   - classical_bound(eta, lam)))
    ok = worst <= 1e-12

    t0 = time.monotonic()
    fock_dev = 0.0
    for eta, lam in ((1.0, 0.2), (0.5, 0.3)):
        g = math.sqrt(eta) / (1.0 + lam)
        avg = fock.average_fidelity_fock(fock_applier(HeterodyneMP(g)),
                                         eta, lam, cutoff=60)
        fock_dev = max(fock_dev, abs(avg.value - classical_bound(eta, lam)))
    elapsed = time.monotonic() - t0
    ok = ok and fock_dev <= 1e-4 and elapsed < 120.0
    assert report(ok, "optimal measure-and-prepare attains the bound",
                  f"closed-form dev {worst:.1e}, truncated-engine dev "
                  f"{fock_dev:.1e} in {elapsed:.0f}s")


def test_numerical_gain_search_never_beats_the_bound():
    rng = np.random.default_rng(2024)
    worst_excess, worst_arg = -np.inf, 0.0
    for _ in range(20):
        eta = float(rng.uniform(0.25, 2.0))
        lam = float(rng.uniform(0.05, 1.0))
        g_best, f_best = optimize_mp_gain(eta, lam)
        worst_excess = max(worst_excess, f_best - classical_bound(eta, lam))
        worst_arg = max(worst_arg, abs(g_best - math.sqrt(eta) / (1.0 + lam)))
    ok = worst_excess <= 1e-12 and worst_arg <= 1e-6
    assert report(ok, "numerical gain search respects the bound",
                  f"max excess {worst_excess:.1e}, argmax dev {worst_arg:.1e}")


def test_single_quadrature_noise_channel_beats_every_classical_strategy():
    target = math.sqrt(2.0 / 3.0)
    channel = to_gaussian(CanonicalB1())
    closed_dev = abs(average_fidelity_gaussian(channel, 1.0, 0.05) - target)

    t0 = time.monotonic()
    avg = fock.average_fidelity_fock(
        fock_applier(CanonicalB1()), 1.0, 2.0, cutoff=40)
    elapsed = time.monotonic() - t0
    fock_dev = abs(avg.value - target)

    margins = [target - classical_bound(1.0, lam) for lam in (1e-3, 0.05)]
    ok = (closed_dev <= 1e-9 and fock_dev <= 1e-3 and elapsed < 60.0
          and all(m > 0 for m in margins))
    assert report(ok, "single-quadrature noise channel beats the bound",
                  f"closed-form dev {closed_dev:.1e}, truncated dev "
                  f"{fock_dev:.1e} in {elapsed:.0f}s, margins "
                  f"{min(margins):.3f}..{max(margins):.3f}")


def test_gain_plus_isotropic_noise_family_matches_its_closed_form():
    worst = 0.0
    verdict_ok = True
    for eta in (0.25, 0.5, 1.0, 1.5, 2.0):
        for ntilde in (0.0, 0.1, 0.5, 0.9, 1.0, 1.3):
            closed = 2.0 / (1.0 + eta + abs(1.0 - eta) + 2.0 * ntilde)
            engine = average_fidelity_gaussian(
                to_gaussian(CanonicalC(eta, ntilde)), eta, 0.7)
            worst = max(worst, abs(engine - closed))
            detected = certify.detect_gaussian_qd(CanonicalC(eta, ntilde),
                                                  lam=1e-3)
            verdict_ok &= detected.is_quantum_domain == (ntilde < min(1.0, eta))
    boundary = max(abs(certify.detect_gaussian_qd(
        CanonicalC(eta, min(1.0, eta)), lam=1e-3).margin_zero_width)
        for eta in (0.25, 0.5, 1.0, 1.5, 2.0))
    ok = worst <= 1e-9 and verdict_ok and boundary <= 1e-6
    assert report(ok, "isotropic-noise family matches its closed form",
                  f"max engine dev {worst:.1e}, boundary margin {boundary:.1e}")


def test_loss_then_amplifier_equals_measure_and_prepare():
    chain = to_gaussian(Compose([PureLoss(0.5), QuantumLimitedAmp(2.0)]))
    het = to_gaussian(HeterodyneMP(1.0))
    exact = (np.array_equal(chain.K, het.K) and np.array_equal(chain.M, het.M)
             and np.array_equal(chain.disp, het.disp))

    worst_td = 0.0
    chain_fock = fock_applier(Compose([PureLoss(0.5), QuantumLimitedAmp(2.0)]))
    het_fock = fock_applier(HeterodyneMP(1.0))
    for alpha in (1.0, 0.8 - 0.4j):
        ket = fock.coherent_ket(alpha, 40)
        rho = np.outer(ket, ket.conj())
        worst_td = max(worst_td, fock.trace_distance(chain_fock(rho),
                                                     het_fock(rho)))
    ok = exact and worst_td <= 1e-4
    assert report(ok, "loss-then-amplifier equals unit-gain measure-and-prepare",
                  f"Gaussian forms {'identical' if exact else 'DIFFER'}, "
                  f"max trace distance {worst_td:.1e}")


def test_no_probe_state_beats_the_score_bound():
    t0 = time.monotonic()
    worst = -np.inf
    all_passed = True
    for eta in (0.25, 0.5, 1.0, 2.0):
        for lam in (0.05, 0.1, 0.5, 1.0):
            rep = score_bound_check(eta, lam, trials=200, cutoff=20, seed=17)
            worst = max(worst, rep.max_violation)
            all_passed &= rep.passed
    elapsed = time.monotonic() - t0
    ok = all_passed and worst <= 1e-8 and elapsed < 300.0
    assert report(ok, "no probe state beats the score bound",
                  f"worst violation {worst:.1e} over 16x201 probes "
                  f"in {elapsed:.0f}s")


def test_circulant_determinant_and_product_identities():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.0, 2.0))
        eta = float(rng.uniform(0.1, 2.0))
        det_target = lam ** p - eta ** p
        det_dev = abs(np.linalg.det(circulant_matrix(p, lam, eta)) - det_target)
        det_dev /= max(1.0, abs(det_target))
        chi = circulant_eigenvalues(p, lam + eta, eta)
        prod_target = np.linalg.det(circulant_matrix(p, 1.0 + lam + eta, eta))
        prod_dev = abs(np.prod(1.0 + chi) - prod_target) / abs(prod_target)
        worst = max(worst, det_dev, prod_dev)
    assert report(worst <= 1e-10, "circulant determinant and product identities",
                  f"max relative residual {worst:.1e} over 100 draws, copies <= 8")


def test_certifier_separates_quantum_from_classical_data():
    t0 = time.monotonic()
    loss_ds = certify.synthesize_dataset(PureLoss(0.6), GRID8, 10_000, 0.1,
                                         seed=7, eta_declared=0.6)
    loss_rep = certify.certify_by_variance(loss_ds)

    mp_ds = certify.synthesize_dataset(HeterodyneMP(1.0 / 1.1), GRID8, 10_000,
                                       0.1, seed=8, eta_declared=1.0)
    mp_rep = certify.certify_by_variance(mp_ds)

    rng = np.random.default_rng(23)
    worst_slack = np.inf
    for i in range(50):
        K = rng.normal(0.0, 0.6, (2, 2))
        A = rng.normal(0.0, 0.3, (2, 2))
        M = A @ A.T + (abs(np.linalg.det(K) - 1.0) / 2.0 + 0.05) * E2
        channel = GaussianChannel(K, M)
        eta = float(rng.uniform(0.3, 1.5))
        ds = certify.synthesize_dataset(channel, GRID8, 1000, 0.1,
                                        seed=100 + i, eta_declared=eta)
        value, _ = certify.delta_bar(ds, eta)
        se = certify.bootstrap_se(ds, eta)
        fbar = sum(w * fidelity_to_coherent(
            apply_channel(channel, GaussianState.coherent(a)),
            math.sqrt(eta) * a)
            for w, a in zip(ds.probe_weights(), GRID8))
        worst_slack = min(worst_slack, (value + 3 * se) - 2.0 * (1.0 - fbar))
    elapsed = time.monotonic() - t0
    ok = (loss_rep.certified and not mp_rep.certified and worst_slack >= 0.0
          and elapsed < 180.0)
    assert report(ok, "certifier separates quantum from classical data",
                  f"loss {loss_rep.verdict}, optimal strategy {mp_rep.verdict}, "
                  f"deviation-vs-fidelity slack >= {worst_slack:.2e} over 50 "
                  f"channels in {elapsed:.0f}s")


def test_multicopy_bound_reduces_to_a_rescaled_single_copy():
    worst = 0.0
    monotone = True
    for lam in (0.2, 1.0):
        values = [classical_bound(1.0, lam, n) for n in range(1, 65)]
        rescaled = [classical_bound(1.0 / n, lam / n) for n in range(1, 65)]
        worst = max(worst, max(abs(a - b) for a, b in zip(values, rescaled)))
        monotone &= all(b > a for a, b in zip(values, values[1:]))
        monotone &= values[-1] > 0.98 and values[-1] < 1.0
    ok = worst <= 1e-14 and monotone
    assert report(ok, "multi-copy bound is the rescaled single-copy bound",
                  f"max deviation {worst:.1e} up to 64 copies, "
                  f"increasing toward 1")


def test_structural_invariants_hold():
    rng = np.random.default_rng(59)

    def random_cp(gen):
        K = gen.normal(0.0, 0.7, (2, 2))
        A = gen.normal(0.0, 0.4, (2, 2))
        M = A @ A.T + (abs(np.linalg.det(K) - 1.0) / 2.0 + 0.02) * E2
        return GaussianChannel(K, M, disp=gen.normal(0.0, 0.5, 2))

    assoc_dev = 0.0
    cp_ok = True
    for _ in range(6):
        a, b, c = (random_cp(rng) for _ in range(3))
        left, right = compose(c, compose(b, a)), compose(compose(c, b), a)
        assoc_dev = max(assoc_dev,
                        np.max(np.abs(left.K - right.K)),
                        np.max(np.abs(left.M - right.M)),
                        np.max(np.abs(left.disp - right.disp)))
        cp_ok &= is_cp_channel(left) and is_cp_channel(right)

    moment_dev = 0.0
    alpha = 0.6 - 0.2j
    for model in (PureLoss(0.55), QuantumLimitedAmp(1.7), CanonicalB1(),
                  CanonicalC(0.8, 0.35), HeterodyneMP(0.9)):
        ket = fock.coherent_ket(alpha, 42)
        out = fock_applier(model)(np.outer(ket, ket.conj()))
        mean, cov = fock.mean_and_covariance(out)
        expected = apply_channel(to_gaussian(model),
                                 GaussianState.coherent(alpha))
        moment_dev = max(moment_dev, np.max(np.abs(mean - expected.d)),
                         np.max(np.abs(cov - expected.gamma)))

    norm_dev = max(abs(gauss_rule(GaussianPrior(float(rng.uniform(0.05, 2.0))),
                                  int(rng.integers(8, 30)),
                                  int(rng.integers(8, 30))).weights.sum() - 1.0)
                   for _ in range(10))

    ok = (assoc_dev <= 1e-12 and cp_ok and moment_dev <= 1e-5
          and norm_dev <= 1e-10)
    assert report(ok, "composition, positivity, moments and normalization hold",
                  f"associativity {assoc_dev:.1e}, moments {moment_dev:.1e}, "
                  f"rule normalization {norm_dev:.1e}")
