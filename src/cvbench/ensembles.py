"""Coherent-state ensembles: Gaussian priors and quadrature rules.

The prior over complex amplitudes is p(alpha) = (lam/pi) exp(-lam |alpha|^2),
so E|alpha|^2 = 1/lam and the real and imaginary parts are independent
normals of variance 1/(2 lam).  lam -> 0 is the (improper) flat limit and is
not representable as a rule; closed forms handle that case upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import InvalidInput


@lru_cache(maxsize=32)
def laguerre_rule(points: int):
    """Gauss-Laguerre nodes and weights, `numpy.polynomial.laguerre.laggauss(points)`,
    computed once per size; the arrays are read-only, since every caller shares them."""
    nodes, weights = laggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic Gaussian prior of width parameter lam > 0."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise InvalidInput(f"prior width lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating integrals against a Gaussian prior.

    `sum(weights * f(nodes))` approximates `integral p(alpha) f(alpha) d^2alpha`
    for the prior of width `lam`.
    """

    nodes: np.ndarray
    weights: np.ndarray
    lam: float

    def weights_for(self, lam: float) -> np.ndarray:
        """Weights importance-reweighted from the rule's prior width to lam."""
        t = np.abs(self.nodes) ** 2
        return self.weights * (lam / self.lam) * np.exp((self.lam - lam) * t)


def gauss_rule(prior: GaussianPrior, radial_points: int = 24,
               angular_points: int = 32) -> QuadratureRule:
    """Product rule: Gauss-Laguerre in |alpha|^2, uniform in the phase.

    Substituting t = lam |alpha|^2 turns the radial integral into
    integral_0^inf e^-t f dt, handled exactly by Gauss-Laguerre for
    polynomial f up to degree 2*radial_points - 1; the angular part is a
    trapezoid over equispaced phases, exact for harmonics below
    angular_points.  Weights are positive and sum to 1.
    """
    if radial_points < 2:
        raise InvalidInput("need at least 2 radial points")
    if angular_points < 4:
        raise InvalidInput("need at least 4 angular points")
    t, w_rad = laguerre_rule(radial_points)
    radii = np.sqrt(t / prior.lam)
    theta = 2.0 * math.pi * np.arange(angular_points) / angular_points
    phases = np.exp(1j * theta)
    nodes = (radii[:, None] * phases[None, :]).ravel()
    weights = np.repeat(w_rad / angular_points, angular_points)
    return QuadratureRule(nodes, weights, prior.lam)
