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

The one-mode algebra is evaluated as scalar closed forms on the entries:
each 2x2 array is read once with `tolist`, products are summed in the
order of numpy's matrix products, and M's principal values and the
quadratic form b.R^(-1).b replace `np.linalg.eigvalsh` and
`np.linalg.solve`.  These functions run a few times per CLI call, each
time with cold caches in a long-running process: there, on a 2-CPU
x86-64 VM, a 2x2 `eigvalsh` through numpy's wrapper took 145 us (19 us
warm) and a 2x2 `solve` 109 us, against about 12 us for a whole scalar
form.  Values match numpy's bit for bit wherever each entry of a product
has one nonzero term, as for every tagged channel model; otherwise a BLAS
kernel that fuses a multiply-add can put numpy's value an ulp away.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import _check_task
from .errors import DomainError, InvalidInput, NotCompletelyPositive

E2 = np.eye(2)

#: Symplectic form for one mode in the (x_plus, x_minus) ordering.
DELTA = np.array([[0.0, -1.0], [1.0, 0.0]])

#: Covariance matrix of the vacuum (and of every coherent state).
VACUUM_GAMMA = 0.5 * np.eye(2)

_SYM_TOL = 1e-12
_DET_TOL = 1e-12
_ISO_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)


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


def _equal_arrays(a, b):
    """Value equality of two objects of one type whose fields are all arrays."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _refuse_unknown_fields(obj, allowed, what: str) -> None:
    """Refuse a non-object, or an object with fields outside `allowed`, naming them.

    The one unknown-field check of the JSON readers; `what` names the object.
    """
    if not isinstance(obj, dict):
        raise InvalidInput(f"{what} must be a JSON object, got {reprlib.repr(obj)}")
    unknown = sorted(set(obj) - set(allowed), key=str)
    if unknown:
        raise InvalidInput(f"{what} does not take field{'s' * (len(unknown) > 1)} "
                           + ", ".join(map(repr, unknown)))


# eq=False: the generated __eq__ would compare arrays inside tuples, and the
# generated __hash__ would hash them; these compare by value and hash not at all.
@dataclass(frozen=True, eq=False)
class GaussianState:
    """First and second moments (d, gamma) of a one-mode Gaussian state."""

    d: np.ndarray
    gamma: np.ndarray

    __eq__ = _equal_arrays
    __hash__ = None

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
        """The state of a `to_json` object; a missing or unknown field raises InvalidInput."""
        _refuse_unknown_fields(obj, ("d", "gamma"), "Gaussian state JSON")
        try:
            return cls(np.array(obj["d"], dtype=float), np.array(obj["gamma"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"state JSON needs 'd' and 'gamma' fields: {exc}") from exc


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """One-mode Gaussian channel (K, M) with an optional displacement."""

    K: np.ndarray
    M: np.ndarray
    disp: np.ndarray = field(default_factory=lambda: np.zeros(2))

    __eq__ = _equal_arrays
    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "K", _as_matrix(self.K, "gain matrix K"))
        object.__setattr__(self, "M", _as_matrix(self.M, "noise matrix M"))
        object.__setattr__(self, "disp", _as_vector(self.disp, "displacement"))

    @classmethod
    def identity(cls):
        return cls(np.eye(2), np.zeros((2, 2)))

    @classmethod
    def _isotropic(cls, k: float, m: float):
        """The channel K = k I, M = m I without displacement, from two finite floats.

        Built without `__post_init__`'s array checks, which the two scalars
        make redundant; the refusals name the field as those checks do.
        """
        if not math.isfinite(k):
            raise InvalidInput("gain matrix K must be finite")
        if not math.isfinite(m):
            raise InvalidInput("noise matrix M must be finite")
        chan = object.__new__(cls)
        object.__setattr__(chan, "K", k * E2)
        object.__setattr__(chan, "M", m * E2)
        object.__setattr__(chan, "disp", np.zeros(2))
        return chan

    def to_json(self):
        return {"K": self.K.tolist(), "M": self.M.tolist(), "disp": self.disp.tolist()}

    @classmethod
    def from_json(cls, obj):
        """The channel of a `to_json` object; "disp" defaults to zero.

        A missing, malformed or unknown field raises InvalidInput that names
        it, an unknown one as a field the raw channel model 'gaussian' of
        `schemes.model_from_json` does not take.
        """
        _refuse_unknown_fields(obj, ("K", "M", "disp"), "channel model 'gaussian'")

        def array(name, default=None):
            if name not in obj and default is None:
                raise InvalidInput(f"channel JSON needs 'K' and 'M' fields: '{name}' is missing")
            value = obj.get(name, default)
            try:
                return np.array(value, dtype=float)
            except (TypeError, ValueError):
                raise InvalidInput(f"Gaussian channel field '{name}' must be an array of "
                                   f"numbers, got {reprlib.repr(value)}") from None
        return cls(array("K"), array("M"), array("disp", [0.0, 0.0]))


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


def _entries(m) -> tuple:
    """The entries (m00, m01, m10, m11) of a 2x2 array as floats, read with one `tolist`."""
    (m00, m01), (m10, m11) = m.tolist()
    return m00, m01, m10, m11


def _principal_values(a: float, b: float, c: float) -> tuple:
    """Eigenvalues (low, high) of the symmetric matrix [[a, b], [b, c]].

    In the manner of LAPACK's dlae2: the one of larger magnitude is the mean
    of the diagonal plus or minus the radius hypot((a - c)/2, b), the other
    is the determinant over it, (a_max / big) a_min - (b / big) b, so
    neither cancels.  Halving before adding keeps finite entries from
    overflowing.
    """
    mid, rad = 0.5 * a + 0.5 * c, math.hypot(0.5 * a - 0.5 * c, b)
    if mid == 0.0:
        return -rad, rad
    big = mid + rad if mid > 0.0 else mid - rad
    a_max, a_min = (a, c) if abs(a) > abs(c) else (c, a)
    other = (a_max / big) * a_min - (b / big) * b
    return (other, big) if mid > 0.0 else (big, other)


def is_cp_channel(channel: GaussianChannel) -> bool:
    """Complete-positivity test for a one-mode Gaussian channel (K, M).

    M must be symmetric to 1e-12, the smaller principal value of its
    symmetric part at least -1e-12, and sqrt(det M) >= |det K - 1|/2 - 1e-12.
    """
    k00, k01, k10, k11 = _entries(channel.K)
    m00, m01, m10, m11 = _entries(channel.M)
    if abs(m01 - m10) > _SYM_TOL:
        return False
    if _principal_values(m00, 0.5 * (m01 + m10), m11)[0] < -_DET_TOL:
        return False
    det_m = max(m00 * m11 - m01 * m10, 0.0)
    det_k = k00 * k11 - k01 * k10
    return math.sqrt(det_m) >= 0.5 * abs(det_k - 1.0) - _DET_TOL


def _check_cp(channel: GaussianChannel) -> None:
    """The one refusal of a channel that is not completely positive (NotCompletelyPositive)."""
    if not is_cp_channel(channel):
        raise NotCompletelyPositive("channel (K, M) fails the complete-positivity criterion")


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Propagate a Gaussian state through a Gaussian channel."""
    if not is_physical_state(state.gamma):
        raise InvalidInput("input covariance is not a physical one-mode state")
    _check_cp(channel)
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


def _inverse_quadratic_form(r00: float, r01: float, r10: float, r11: float,
                            b0: float, b1: float) -> float:
    """b.R^(-1).b for a nonsingular 2x2 R, in the order of LAPACK's LU solve.

    Partial pivoting on the first column, R = P L U, then forward and back
    substitution and the dot product with b, in the order of LAPACK's dgesv
    behind `b @ np.linalg.solve(R, b)`.  b is first scaled by a power of
    two, exactly, so that the solve of two huge entries never forms
    inf - inf; a form past the float range comes out inf.
    """
    scale = max(abs(b0), abs(b1))
    if scale == 0.0:
        return 0.0
    shift = math.frexp(scale)[1]
    b0, b1 = math.ldexp(b0, -shift), math.ldexp(b1, -shift)
    c0, c1 = b0, b1
    if abs(r10) > abs(r00):
        r00, r01, r10, r11, c0, c1 = r10, r11, r00, r01, c1, c0
    low = r10 * (1.0 / r00)       # LAPACK scales the column by the pivot's reciprocal
    x1 = (c1 - low * c0) / (r11 - low * r01)
    x0 = (c0 - r01 * x1) / r00
    form = b0 * x0 + b1 * x1
    try:
        return math.ldexp(form, 2 * shift)
    except OverflowError:
        return math.copysign(math.inf, form)


def fidelity_to_coherent(state: GaussianState, beta) -> float:
    """Overlap <beta| rho |beta> of a Gaussian state with a coherent state.

    Closed form: [det(gamma_c + gamma)]^(-1/2)
                 * exp(-delta . (gamma_c + gamma)^(-1) . delta / 2)
    with gamma_c = E2/2 and delta the mean-vector mismatch.
    """
    if not is_physical_state(state.gamma):
        raise InvalidInput("covariance is not a physical one-mode state")
    g00, g01, g10, g11 = _entries(state.gamma)
    s00, s11 = 0.5 + g00, 0.5 + g11
    d0, d1 = state.d.tolist()
    beta = complex(beta)
    delta0, delta1 = d0 - _SQRT2 * beta.real, d1 - _SQRT2 * beta.imag
    det = s00 * s11 - g01 * g10
    expo = -0.5 * _inverse_quadratic_form(s00, g01, g10, s11, delta0, delta1)
    return math.exp(expo) / math.sqrt(det)


def isotropic_part(m):
    """Return s for m = s*E2, or None if m is not isotropic.

    The one test for "proportional to the identity" in the package: each
    entry must match to 1e-12 relative to max(1, |m00|, |m11|).  Callers
    apply their own sign rule to s.
    """
    m00, m01, m10, m11 = _entries(m)
    scale = max(1.0, abs(m00), abs(m11))
    if (abs(m00 - m11) <= _ISO_TOL * scale
            and abs(m01) <= _ISO_TOL * scale
            and abs(m10) <= _ISO_TOL * scale):
        return m00
    return None


def _squared_norm(v) -> float:
    v0, v1 = v.tolist()
    return v0 * v0 + v1 * v1


def is_gain_matched(channel: GaussianChannel, eta: float) -> bool:
    """Whether K = s E2 with s within 1e-12 max(1, sqrt(eta)) of sqrt(eta), and |disp|^2 <= 1e-24.

    These channels' average fidelity is prior-independent: the only ones
    `average_fidelity_gaussian` takes at lam = 0.  A bad eta is refused.
    """
    _check_task(eta, 0.0)
    sqrt_eta = math.sqrt(eta)
    g = isotropic_part(channel.K)
    return (g is not None and g >= 0 and abs(g - sqrt_eta) <= 1e-12 * max(1.0, sqrt_eta)
            and _squared_norm(channel.disp) <= 1e-24)


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

    In the gain-matched case (`is_gain_matched`) the average is
    det(Sigma)^(-1/2), independent of lam.  lam = 0 denotes the flat-prior
    limit and is accepted only in that case; anything else diverges and
    raises DomainError.  A non-finite eta or lam, or a non-CP channel, is
    refused, and so is a channel whose entries overflow the closed form
    (InvalidInput).
    """
    _check_task(eta, lam)
    _check_cp(channel)

    k00, k01, k10, k11 = _entries(channel.K)
    m00, m01, m10, m11 = _entries(channel.M)
    # Sigma = gamma_c + (K gamma_c) K^T + M, with K gamma_c = K / 2 exactly
    h00, h01, h10, h11 = 0.5 * k00, 0.5 * k01, 0.5 * k10, 0.5 * k11
    s00 = 0.5 + (h00 * k00 + h01 * k01 + m00)
    s01 = h00 * k10 + h01 * k11 + m01
    s10 = h10 * k00 + h11 * k01 + m10
    s11 = 0.5 + (h10 * k10 + h11 * k11 + m11)
    if is_gain_matched(channel, eta):
        return _checked_fidelity(1.0, s00 * s11 - s01 * s10, 0.0)
    sqrt_eta = math.sqrt(eta)
    if lam == 0:
        g = isotropic_part(channel.K)
        raise DomainError(
            "flat prior (lambda = 0) diverges unless the channel is exactly "
            f"gain-matched with no displacement; here K gain {g if g is not None else channel.K} "
            f"vs sqrt(eta) = {sqrt_eta} and |disp|^2 = {_squared_norm(channel.disp)}")

    a00, a11 = k00 - sqrt_eta, k11 - sqrt_eta
    a_01_10 = a00 * k10 + k01 * a11          # (A A^T)01 = (A A^T)10
    r00 = lam * s00 + (a00 * a00 + k01 * k01)
    r01 = lam * s01 + a_01_10
    r10 = lam * s10 + a_01_10
    r11 = lam * s11 + (k10 * k10 + a11 * a11)
    det = r00 * r11 - r01 * r10
    b0, b1 = channel.disp.tolist()
    expo = -0.5 * lam * _inverse_quadratic_form(r00, r01, r10, r11, b0, b1) \
        if det > 0.0 else 0.0
    return _checked_fidelity(lam, det, expo)


def _checked_fidelity(lam: float, det: float, expo: float) -> float:
    """lam / sqrt(det) * exp(expo), refused (InvalidInput) when overflow in the
    channel's entries left det not positive or the value NaN."""
    if det > 0.0:
        fidelity = lam / math.sqrt(det) * math.exp(expo)
        if fidelity == fidelity:
            return fidelity
    raise InvalidInput("the channel's entries K, M or disp overflow the closed-form "
                       "fidelity")
