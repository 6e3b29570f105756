"""Exact calculus of one-mode Gaussian states and Gaussian channels.

Quadrature convention used throughout the package:

    x_plus  = (a + a^dag) / sqrt(2)
    x_minus = (a - a^dag) / (sqrt(2) i)

so the vacuum covariance matrix is E2/2 (determinant 1/4) and a coherent
state |alpha> has mean vector sqrt(2) * (Re alpha, Im alpha).  A state
(d, gamma) is physical iff gamma is symmetric, positive definite and
det(gamma) >= 1/4.  A channel acts as

    gamma' = K gamma K^T + M,     d' = K d + disp,

and is completely positive iff M is symmetric PSD with
sqrt(det M) >= |det K - 1| / 2 (one-mode case, where K Delta K^T =
det(K) Delta for the symplectic form Delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInput

E2 = np.eye(2)

#: Symplectic form for one mode in the (x_plus, x_minus) ordering.
DELTA = np.array([[0.0, -1.0], [1.0, 0.0]])

#: Covariance matrix of the vacuum (and of every coherent state).
VACUUM_GAMMA = 0.5 * np.eye(2)

_SYM_TOL = 1e-12
_DET_TOL = 1e-12
_ISO_TOL = 1e-12


def coherent_mean(alpha):
    """Mean quadrature vector sqrt(2)*(Re alpha, Im alpha) of |alpha>."""
    alpha = complex(alpha)
    return math.sqrt(2.0) * np.array([alpha.real, alpha.imag])


def _as_matrix(m, name):
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise InvalidInput(f"{name} must be a 2x2 real matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput(f"{name} must be finite")
    return m


def _as_vector(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise InvalidInput(f"{name} must be a length-2 real vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInput(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class GaussianState:
    """First and second moments (d, gamma) of a one-mode Gaussian state."""

    d: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _as_vector(self.d, "mean vector d"))
        object.__setattr__(self, "gamma", _as_matrix(self.gamma, "covariance gamma"))

    @classmethod
    def vacuum(cls):
        return cls(np.zeros(2), VACUUM_GAMMA.copy())

    @classmethod
    def coherent(cls, alpha):
        return cls(coherent_mean(alpha), VACUUM_GAMMA.copy())

    def to_json(self):
        return {"d": self.d.tolist(), "gamma": self.gamma.tolist()}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(np.array(obj["d"], dtype=float), np.array(obj["gamma"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"state JSON needs 'd' and 'gamma' fields: {exc}") from exc


@dataclass(frozen=True)
class GaussianChannel:
    """One-mode Gaussian channel (K, M) with an optional displacement."""

    K: np.ndarray
    M: np.ndarray
    disp: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        object.__setattr__(self, "K", _as_matrix(self.K, "gain matrix K"))
        object.__setattr__(self, "M", _as_matrix(self.M, "noise matrix M"))
        object.__setattr__(self, "disp", _as_vector(self.disp, "displacement"))

    @classmethod
    def identity(cls):
        return cls(np.eye(2), np.zeros((2, 2)))

    def to_json(self):
        return {"K": self.K.tolist(), "M": self.M.tolist(), "disp": self.disp.tolist()}

    @classmethod
    def from_json(cls, obj):
        try:
            disp = obj.get("disp", [0.0, 0.0])
            return cls(np.array(obj["K"], dtype=float), np.array(obj["M"], dtype=float),
                       np.array(disp, dtype=float))
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"channel JSON needs 'K' and 'M' fields: {exc}") from exc


def is_physical_state(gamma) -> bool:
    """Whether gamma is a valid one-mode covariance matrix.

    Checks symmetry (to 1e-12), positive definiteness, and the uncertainty
    bound det(gamma) >= 1/4 - 1e-12.
    """
    gamma = _as_matrix(gamma, "covariance gamma")
    if abs(gamma[0, 1] - gamma[1, 0]) > _SYM_TOL:
        return False
    det = gamma[0, 0] * gamma[1, 1] - gamma[0, 1] * gamma[1, 0]
    # For a symmetric 2x2 matrix, gamma[0,0] > 0 together with det > 0 is
    # positive definiteness; the uncertainty bound subsumes det > 0.
    return gamma[0, 0] > 0.0 and det >= 0.25 - _DET_TOL


def is_cp_channel(channel: GaussianChannel) -> bool:
    """Complete-positivity test for a one-mode Gaussian channel (K, M)."""
    K, M = channel.K, channel.M
    if abs(M[0, 1] - M[1, 0]) > _SYM_TOL:
        return False
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if eigs[0] < -_DET_TOL:
        return False
    det_m = max(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0], 0.0)
    det_k = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    return math.sqrt(det_m) >= 0.5 * abs(det_k - 1.0) - _DET_TOL


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Propagate a Gaussian state through a Gaussian channel."""
    if not is_physical_state(state.gamma):
        raise InvalidInput("input covariance is not a physical one-mode state")
    if not is_cp_channel(channel):
        raise InvalidInput("channel (K, M) violates complete positivity")
    gamma = channel.K @ state.gamma @ channel.K.T + channel.M
    d = channel.K @ state.d + channel.disp
    return GaussianState(d, gamma)


def compose(second: GaussianChannel, first: GaussianChannel) -> GaussianChannel:
    """Channel obtained by applying `first`, then `second`."""
    K = second.K @ first.K
    M = second.K @ first.M @ second.K.T + second.M
    disp = second.K @ first.disp + second.disp
    return GaussianChannel(K, M, disp)


def characteristic_function(state: GaussianState, z) -> complex:
    """Gaussian characteristic function exp(i d.z - z.gamma.z / 2)."""
    z = _as_vector(z, "phase-space argument z")
    return complex(np.exp(1j * float(state.d @ z) - 0.5 * float(z @ state.gamma @ z)))


def fidelity_to_coherent(state: GaussianState, beta) -> float:
    """Overlap <beta| rho |beta> of a Gaussian state with a coherent state.

    Closed form: [det(gamma_c + gamma)]^(-1/2)
                 * exp(-delta . (gamma_c + gamma)^(-1) . delta / 2)
    with gamma_c = E2/2 and delta the mean-vector mismatch.
    """
    if not is_physical_state(state.gamma):
        raise InvalidInput("covariance is not a physical one-mode state")
    sigma = VACUUM_GAMMA + state.gamma
    delta = state.d - coherent_mean(beta)
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    expo = -0.5 * float(delta @ np.linalg.solve(sigma, delta))
    return float(math.exp(expo) / math.sqrt(det))


def isotropic_part(m):
    """Return s for m = s*E2, or None if m is not isotropic.

    The one test for "proportional to the identity" in the package: each
    entry must match to 1e-12 relative to max(1, |m00|, |m11|).  Callers
    apply their own sign rule to s.
    """
    scale = max(1.0, abs(m[0, 0]), abs(m[1, 1]))
    if (abs(m[0, 0] - m[1, 1]) <= _ISO_TOL * scale
            and abs(m[0, 1]) <= _ISO_TOL * scale
            and abs(m[1, 0]) <= _ISO_TOL * scale):
        return float(m[0, 0])
    return None


def average_fidelity_gaussian(channel: GaussianChannel, eta: float, lam: float) -> float:
    """Average fidelity of a Gaussian channel against the scaling task.

    The task sends |alpha> to |sqrt(eta) alpha> with alpha drawn from the
    Gaussian prior p(alpha) = (lam/pi) exp(-lam |alpha|^2).  The per-alpha
    fidelity is Gaussian in the mean vector sqrt(2) alpha, so the average is
    an exact Gaussian integral.  With Sigma = gamma_c + gamma' (gamma' the
    output covariance of a coherent probe), A = K - sqrt(eta) E2, b = disp:

        lam / sqrt(det R) * exp(-lam b.R^(-1).b / 2),   R = lam Sigma + A A^T.

    By Woodbury this equals lam / sqrt(det Q det Sigma) * exp(h.Q^(-1).h / 4
    - b.S.b / 2) with S = Sigma^(-1), Q = lam E2 + A^T S A, h = sqrt(2) A^T S b,
    but the R form has no cancellation in the exponent.  For K = g*E2 and
    Sigma = s*E2 it is lam / (lam*s + c^2) * exp(-lam |b|^2 / (2 (lam*s + c^2)))
    with c = g - sqrt(eta).

    In the gain-matched case (K = sqrt(eta)*E2 with no displacement) the
    average is det(Sigma)^(-1/2), independent of lam.  lam = 0 denotes the
    flat-prior limit and is accepted only in that case; anything else
    diverges and raises DomainError.  A non-finite eta or lam is refused.
    """
    if not (eta > 0 and math.isfinite(eta)):
        raise InvalidInput(f"task gain eta must be positive and finite, got {eta}")
    if not (lam >= 0 and math.isfinite(lam)):
        raise InvalidInput(f"prior width lambda must be >= 0 and finite, got {lam}")
    if not is_cp_channel(channel):
        raise InvalidInput("channel (K, M) violates complete positivity")

    gamma_out = channel.K @ VACUUM_GAMMA @ channel.K.T + channel.M
    sigma = VACUUM_GAMMA + gamma_out
    sqrt_eta = math.sqrt(eta)
    g = isotropic_part(channel.K)
    disp2 = float(channel.disp @ channel.disp)

    matched = (g is not None and g >= 0 and abs(g - sqrt_eta) <= 1e-12 * max(1.0, sqrt_eta)
               and disp2 <= 1e-24)
    if matched:
        det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
        return float(1.0 / math.sqrt(det))
    if lam == 0:
        raise DomainError(
            "flat prior (lambda = 0) diverges unless the channel is exactly "
            f"gain-matched with no displacement; here K gain {g if g is not None else channel.K} "
            f"vs sqrt(eta) = {sqrt_eta} and |disp|^2 = {disp2}")

    A = channel.K - sqrt_eta * E2
    R = lam * sigma + A @ A.T
    det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
    b = channel.disp
    expo = -0.5 * lam * float(b @ np.linalg.solve(R, b))
    return float(lam / math.sqrt(det) * math.exp(expo))
