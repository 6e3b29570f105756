import numpy as np
import pytest

from cvbench.ensembles import GaussianPrior, gauss_rule, laguerre_rule
from cvbench.errors import InvalidInput

rng = np.random.default_rng(5)
lams = [0.05, 0.2, 0.5, 1.0, 2.7]


@pytest.mark.parametrize("lam", lams)
def test_rule_normalization(lam):
    rule = gauss_rule(GaussianPrior(lam))
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    assert rule.lam == lam


@pytest.mark.parametrize("lam", lams)
def test_rule_reproduces_prior_moments(lam):
    rule = gauss_rule(GaussianPrior(lam))
    abs2 = np.abs(rule.nodes) ** 2
    # E|a|^2 = 1/lam, E|a|^4 = 2/lam^2 for this prior.
    assert rule.weights @ abs2 == pytest.approx(1.0 / lam, rel=1e-12)
    assert rule.weights @ abs2 ** 2 == pytest.approx(2.0 / lam ** 2, rel=1e-11)
    # First moment vanishes by phase symmetry.
    assert abs(rule.weights @ rule.nodes) < 1e-14 / lam


def test_rule_kills_low_harmonics():
    rule = gauss_rule(GaussianPrior(0.7), radial_points=6, angular_points=12)
    for k in range(1, 12):
        harmonic = rule.weights @ np.exp(1j * k * np.angle(rule.nodes))
        assert abs(harmonic) < 1e-13


def test_rule_integrates_gaussians():
    # E[exp(-c |a|^2)] = lam / (lam + c): smooth but not polynomial, so this
    # exercises actual convergence rather than algebraic exactness.
    lam = 0.8
    rule = gauss_rule(GaussianPrior(lam), radial_points=40, angular_points=8)
    for c in (0.3, 1.0, 2.5):
        got = rule.weights @ np.exp(-c * np.abs(rule.nodes) ** 2)
        assert got == pytest.approx(lam / (lam + c), rel=1e-9)


def test_input_validation():
    with pytest.raises(InvalidInput):
        GaussianPrior(0.0)
    with pytest.raises(InvalidInput):
        GaussianPrior(-1.0)
    with pytest.raises(InvalidInput):
        gauss_rule(GaussianPrior(1.0), radial_points=1)
    with pytest.raises(InvalidInput):
        gauss_rule(GaussianPrior(1.0), angular_points=3)


@pytest.mark.parametrize("points", [1, 2, 24, 40, 180])
def test_laguerre_rule_is_laggauss_and_read_only(points):
    nodes, weights = laguerre_rule(points)
    expected = np.polynomial.laguerre.laggauss(points)
    assert np.array_equal(nodes.view(np.int64), expected[0].view(np.int64))
    assert np.array_equal(weights.view(np.int64), expected[1].view(np.int64))
    assert laguerre_rule(points)[0] is nodes
    for array in (nodes, weights):
        with pytest.raises(ValueError):
            array[0] = 1.0
