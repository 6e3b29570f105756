import numpy as np
import pytest

from cvbench.bounds import (TaskSpec, classical_bound, quadrature_threshold,
                            quantum_amp_bound)
from cvbench.errors import DomainError, InvalidInput

rng = np.random.default_rng(11)
random_tasks = [(float(e), float(l)) for e, l in
                zip(10.0 ** rng.uniform(-1, 1, 40), rng.uniform(0.0, 2.0, 40))]


def test_flat_prior_values():
    assert classical_bound(1.0, 0.0) == 0.5
    assert classical_bound(0.25) == 1.0 / 1.25
    assert classical_bound(2.0) == 1.0 / 3.0
    assert classical_bound(1.0, 1.0) == 2.0 / 3.0


@pytest.mark.parametrize("eta,lam", random_tasks)
def test_bound_in_unit_interval(eta, lam):
    f = classical_bound(eta, lam)
    assert 0.0 < f < 1.0


def test_monotone_in_prior_width_and_gain():
    lams = np.linspace(0.0, 3.0, 25)
    vals = [classical_bound(1.3, l) for l in lams]
    assert np.all(np.diff(vals) > 0)
    etas = np.linspace(0.1, 4.0, 25)
    vals = [classical_bound(e, 0.4) for e in etas]
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("eta,lam", random_tasks[:15])
def test_threshold_is_twice_the_infidelity_gap(eta, lam):
    # 2 eta / (1 + lam + eta) and 2 (1 - F) are the same number.
    assert quadrature_threshold(eta, lam) == pytest.approx(
        2.0 * (1.0 - classical_bound(eta, lam)), abs=1e-15)


def test_threshold_values():
    assert quadrature_threshold(1.0, 0.0) == 1.0
    assert quadrature_threshold(2.0, 0.0) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_multi_copy_bound():
    # N copies of gain eta behave like one copy of a task with both the gain
    # and the prior width divided by N.
    for n in (1, 2, 5, 17, 64):
        for eta, lam in random_tasks[:10]:
            direct = classical_bound(eta, lam, n)
            reduced = classical_bound(eta / n, lam / n)
            assert direct == pytest.approx(reduced, abs=1e-14)
    vals = [classical_bound(1.0, 0.3, n) for n in range(1, 65)]
    assert np.all(np.diff(vals) > 0)
    assert classical_bound(1.0, 0.0, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert vals[-1] < 1.0


def test_amplification_ceiling():
    assert quantum_amp_bound(2.0) == 0.5
    assert quantum_amp_bound(4.0) == 0.25
    # The ceiling only binds above unit gain, and always sits above what a
    # classical strategy can do there.
    for eta in (1.1, 1.5, 3.0, 8.0):
        assert classical_bound(eta, 0.0) < quantum_amp_bound(eta) <= 1.0
    with pytest.raises(DomainError):
        quantum_amp_bound(1.0)
    with pytest.raises(DomainError):
        quantum_amp_bound(0.5)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_bad_gain(bad):
    with pytest.raises(InvalidInput):
        classical_bound(bad)


def test_rejects_bad_prior_and_copies():
    with pytest.raises(InvalidInput):
        classical_bound(1.0, -0.1)
    with pytest.raises(InvalidInput):
        classical_bound(1.0, 0.1, 0)
    with pytest.raises(InvalidInput):
        classical_bound(1.0, 0.1, 1.5)


def test_task_spec_carries_the_same_numbers():
    task = TaskSpec(eta=2.0, lam=0.5)
    assert task.classical_bound == classical_bound(2.0, 0.5)
    assert task.quadrature_threshold == quadrature_threshold(2.0, 0.5)
    with pytest.raises(InvalidInput):
        TaskSpec(eta=-1.0)


def test_bounds_broadcast_over_arrays_entry_for_entry():
    eta = np.array([e for e, _ in random_tasks])[:, None, None]
    lam = np.array([0.0] + [l for _, l in random_tasks[:9]])[None, :, None]
    n = np.array([1, 2, 7])
    bound, thresh = classical_bound(eta, lam, n), quadrature_threshold(eta, lam)
    assert bound.shape == (40, 10, 3) and thresh.shape == (40, 10, 1)
    for i, j, k in np.ndindex(bound.shape):
        e, l = float(eta[i, 0, 0]), float(lam[0, j, 0])
        assert bound[i, j, k] == classical_bound(e, l, int(n[k]))
        assert thresh[i, j, 0] == quadrature_threshold(e, l)
    assert type(classical_bound(1.0, 0.5)) is float
    assert type(classical_bound(np.float64(1.0), 0.5, np.int64(2))) is float


def test_array_validation_names_the_first_bad_entry():
    with pytest.raises(InvalidInput, match=r"eta must be positive and finite, got nan"):
        classical_bound(np.array([1.0, np.nan, -1.0]))
    with pytest.raises(InvalidInput, match=r"lambda must be >= 0 and finite, got -0.5"):
        quadrature_threshold(1.0, np.array([[0.1], [-0.5]]))
    with pytest.raises(InvalidInput, match=r"copy count must be >= 1, got 0"):
        classical_bound(1.0, 0.0, np.array([3, 0]))
    with pytest.raises(InvalidInput, match="copy count must be an integer"):
        classical_bound(1.0, 0.0, np.array([1.0, 2.0]))
    with pytest.raises(InvalidInput, match="copy count must be an integer"):
        classical_bound(1.0, 0.0, np.array([True]))


def test_an_overflowing_denominator_is_refused_with_its_values():
    with pytest.raises(InvalidInput, match=r"overflows a float at 1 copies, "
                                           r"lambda 1e\+308 and eta 1e\+308"):
        classical_bound(1e308, 1e308)
    with pytest.raises(InvalidInput, match=r"at 3 copies, lambda 9e\+307 and eta 1e\+308"):
        classical_bound(np.array([1.0, 1e308])[:, None], np.array([0.5, 9e307]),
                        np.array([3]))
    with pytest.raises(InvalidInput, match="overflows a float"):
        classical_bound(1.0, 0.0, 10 ** 400)
    # the largest gains whose sum still fits keep their exact values
    assert classical_bound(1e308, 0.5) == 1.5 / (1.5 + 1e308)
    assert quadrature_threshold(1e308) == 2.0
    assert quadrature_threshold(np.finfo(float).max) == 2.0


def test_quadrature_threshold_keeps_its_bits_wherever_they_were_normal():
    # 2 (eta / d) replaced (2 eta) / d so that 2 eta cannot overflow; the two
    # differ only where the quotient eta / d is subnormal, below 2 * tiny
    draws = np.random.default_rng(2026)
    eta = 10.0 ** draws.uniform(-320.0, 308.2, 10 ** 6)
    lam = np.where(draws.random(10 ** 6) < 0.1, 0.0,
                   10.0 ** draws.uniform(-320.0, 308.2, 10 ** 6))
    fits = 1.0 + lam + eta < np.inf
    eta, lam = eta[fits], lam[fits]
    with np.errstate(over="ignore"):
        old = 2.0 * eta / (1.0 + lam + eta)
    new = quadrature_threshold(eta, lam)
    normal = (old >= 2.0 * np.finfo(float).tiny) & (old < np.inf)
    assert np.array_equal(new[normal], old[normal])
    assert np.all((new >= 0.0) & (new <= 2.0))
    subnormal = old < 2.0 * np.finfo(float).tiny
    assert np.count_nonzero(subnormal) > 0
    assert np.all(np.abs(new - old)[subnormal] <= 2.0 * np.nextafter(0.0, 1.0))
    assert np.count_nonzero(old == np.inf) > 0  # the draws reach the overflow
