"""Truncated Fock-space oracle for one bosonic mode.

Everything here works on a hard photon-number truncation `cutoff` (dimension
of the vectors and matrices).  Truncation losses are never papered over:
state constructors report their truncated weight, channel maps leave the
output trace deficit observable rather than renormalizing, and the prior
average evaluates the truncated problem exactly (one Gauss-Laguerre node per
level) and bounds the truncation itself in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss

from .errors import ConvergenceError, CutoffTooSmall, InvalidInput

_SQRT2 = math.sqrt(2.0)

_MIXTURE_POINTS = 20  # Gauss-Hermite points of a displacement-noise mixture
_MIXTURE_NODES, _MIXTURE_WEIGHTS = hermgauss(_MIXTURE_POINTS)
_MIXTURE_WEIGHTS /= math.sqrt(math.pi)  # a probability rule for N(0, 1/2)
# average_fidelity_fock's chunk budget: its (nodes, cutoff, cutoff) stack of
# input projectors stays within this many bytes, or holds a single node.
_BATCH_BYTES = 1 << 20
_CUTOFF_WEIGHT_TOL = 1e-10  # truncated prior weight select_cutoff aims for
# The widest cutoff average_fidelity_fock (and `cvbench simulate`) accepts:
# numpy's laggauss returns NaN weights from 187 nodes on.
_MAX_AUTO_CUTOFF = 180


# ---------------------------------------------------------------------------
# basic operators


def annihilation(cutoff: int) -> np.ndarray:
    """Matrix of the annihilation operator a on the truncated space."""
    if cutoff < 1:
        raise InvalidInput("cutoff must be at least 1")
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def number_operator(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff, dtype=float)).astype(complex)


def quadrature_operator(cutoff: int, axis: int) -> np.ndarray:
    """x_plus (axis 0) or x_minus (axis 1) as a truncated Hermitian matrix."""
    a = annihilation(cutoff)
    if axis == 0:
        return (a + a.conj().T) / _SQRT2
    if axis == 1:
        return (a - a.conj().T) / (1j * _SQRT2)
    raise InvalidInput("axis must be 0 (x_plus) or 1 (x_minus)")


@lru_cache(maxsize=32)
def _quad_eigh(cutoff: int, axis: int):
    w, v = np.linalg.eigh(quadrature_operator(cutoff, axis))
    return w, v


@lru_cache(maxsize=32)
def _lgamma_table(n: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FockVector:
    """Pure state amplitudes over |0> ... |cutoff-1>, or a stack of them, one per row."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim not in (1, 2) or amp.shape[-1] < 1:
            raise InvalidInput("amplitudes must be a non-empty 1-d array or a stack of them")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def norm_squared(self):
        """<psi|psi>: a float, or one value per vector of a stack."""
        amp = self.amplitudes
        norms = np.einsum("...i,...i->...", amp.conj(), amp).real
        return float(norms) if amp.ndim == 1 else norms

    @property
    def truncated_weight(self):
        """Weight 1 - <psi|psi> lost to the truncation (for unit-norm targets)."""
        return 1.0 - self.norm_squared

    def projector(self) -> "FockOperator":
        """|psi><psi|, or the stack of projectors of a stack of vectors."""
        amp = self.amplitudes
        return FockOperator(amp[..., :, None] * amp.conj()[..., None, :])


@dataclass(frozen=True)
class FockOperator:
    """Dense operator (usually a density matrix) on the truncated space.

    `matrix` is one square matrix or a (B, cutoff, cutoff) stack of them.
    The channel kernels and `fidelity_pure` act on every operator of a stack
    at once, and `trace` / `trace_deficit` give one value per operator;
    JSON and the other functionals (`expectation`, `mean_and_covariance`,
    `trace_distance`) take a single operator.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
            raise InvalidInput("matrix must be square, or a stack of square matrices")
        object.__setattr__(self, "matrix", m)

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[-1]

    @property
    def trace(self):
        traces = np.trace(self.matrix, axis1=-2, axis2=-1).real
        return float(traces) if self.matrix.ndim == 2 else traces

    @property
    def trace_deficit(self):
        """1 - tr(rho): what the truncation has eaten so far."""
        return 1.0 - self.trace

    def to_json(self):
        if self.matrix.ndim != 2:
            raise InvalidInput("operator JSON holds a single operator, not a stack")
        stacked = np.stack([self.matrix.real, self.matrix.imag], axis=-1)
        return {"cutoff": self.cutoff, "matrix": stacked.tolist()}

    @classmethod
    def from_json(cls, obj):
        arr = np.array(obj["matrix"], dtype=float)
        if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInput("operator JSON must hold an NxNx2 [re, im] array")
        return cls(arr[..., 0] + 1j * arr[..., 1])


def coherent_amplitudes(alphas, cutoff: int) -> np.ndarray:
    """Batch of truncated coherent kets exp(-|a|^2/2) a^n / sqrt(n!), one per column.

    No weight guard is applied: far-out columns are simply sub-normalized.
    Quadrature code that accounts for truncated weight itself wants this.
    The result is a C-contiguous (cutoff, len(alphas)) array.
    """
    if cutoff < 1:
        raise InvalidInput("cutoff must be at least 1")
    alphas = np.asarray(alphas, dtype=complex).ravel()
    # one ket per row while building, so the running product over n walks
    # contiguous memory; a^n / sqrt(n!) is the cumulative product of a / sqrt(k)
    amps = np.empty((alphas.size, cutoff), dtype=complex)
    amps[:, 0] = 1.0
    np.divide(alphas[:, None], np.sqrt(np.arange(1, cutoff, dtype=float))[None, :],
              out=amps[:, 1:])
    np.cumprod(amps[:, 1:], axis=1, out=amps[:, 1:])
    amps *= np.exp(-0.5 * np.abs(alphas) ** 2)[:, None]
    return np.ascontiguousarray(amps.T)


def coherent_ket(alpha, cutoff: int, weight_tol: float | None = 1e-10) -> FockVector:
    """Truncated coherent state |alpha>.

    Parameters
    ----------
    alpha : complex
        Coherent amplitude.
    cutoff : int
        Truncation dimension.
    weight_tol : float or None
        Reject the build if the truncated weight exceeds this.  Passing None
        disables both the weight check and the |alpha|^2 > cutoff guard; the
        amplitudes kept are still exact, the vector is just sub-normalized
        (useful inside quadratures whose far tail nodes carry no weight).
    """
    alpha = complex(alpha)
    if weight_tol is not None and abs(alpha) ** 2 > cutoff:
        raise CutoffTooSmall(
            f"coherent amplitude |alpha|^2 = {abs(alpha)**2:.3g} exceeds cutoff {cutoff}; "
            f"raise the cutoff (mean photon number sets the scale)")
    ket = FockVector(coherent_amplitudes([alpha], cutoff)[:, 0])
    if weight_tol is not None and ket.truncated_weight > weight_tol:
        raise CutoffTooSmall(
            f"coherent state at alpha = {alpha} keeps only {ket.norm_squared:.12f} "
            f"of its weight at cutoff {cutoff} (tolerance {weight_tol:g})")
    return ket


def thermal_state(lam: float, cutoff: int) -> FockOperator:
    """Thermal state with Fock weights lam/(1+lam) * (1+lam)^-n (mean 1/lam)."""
    if not (lam > 0):
        raise InvalidInput(f"thermal parameter lambda must be positive, got {lam}")
    n = np.arange(cutoff, dtype=float)
    weights = lam / (1.0 + lam) * (1.0 + lam) ** (-n)
    return FockOperator(np.diag(weights).astype(complex))


def displacement(alpha, cutoff: int) -> np.ndarray:
    """Unitary matrix of the displacement operator D(alpha), truncated.

    Built from the eigendecomposition of the quadrature generators, so it is
    exactly unitary on the truncated space; it approximates the infinite-
    dimensional displacement up to edge effects near the cutoff.
    """
    alpha = complex(alpha)
    # D(alpha) shifts <x_plus> by sqrt(2) Re alpha and <x_minus> by sqrt(2) Im alpha:
    # exp(-i u x_minus) shifts x_plus by u, exp(i v x_plus) shifts x_minus by v.
    u = _SQRT2 * alpha.real
    v = _SQRT2 * alpha.imag
    w_m, v_m = _quad_eigh(cutoff, 1)
    out = (v_m * np.exp(-1j * u * w_m)) @ v_m.conj().T
    if v != 0.0:
        w_p, v_p = _quad_eigh(cutoff, 0)
        out = ((v_p * np.exp(1j * v * w_p)) @ v_p.conj().T) @ out
    return out


@lru_cache(maxsize=32)
def _squeeze_eigh(cutoff: int):
    a = annihilation(cutoff)
    h = -0.5j * (a @ a - a.conj().T @ a.conj().T)  # Hermitian generator
    return np.linalg.eigh(h)


def squeeze(r: float, cutoff: int) -> np.ndarray:
    """Squeezing unitary exp(r (a^2 - a^dag^2)/2), truncated."""
    w, v = _squeeze_eigh(cutoff)
    return (v * np.exp(1j * r * w)) @ v.conj().T


def rotation(theta: float, cutoff: int) -> np.ndarray:
    """Phase rotation exp(-i theta n)."""
    return np.diag(np.exp(-1j * theta * np.arange(cutoff)))


def gaussian_state_fock(d, gamma, cutoff: int) -> FockOperator:
    """Build an arbitrary Gaussian state (mean d, covariance gamma) in Fock space.

    Decomposes gamma = R diag(nu e^{2r}, nu e^{-2r}) R^T and applies
    displace . rotate . squeeze to a thermal state of symplectic eigenvalue
    nu.  Intended as an independent test oracle for the exact Gaussian
    calculus; moments of the result should be re-verified by the caller.
    """
    d = np.asarray(d, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    vals, vecs = np.linalg.eigh(gamma)  # ascending: vals[0] <= vals[1]
    if vals[0] <= 0:
        raise InvalidInput("covariance must be positive definite")
    nu = math.sqrt(vals[0] * vals[1])
    if nu < 0.5 - 1e-12:
        raise InvalidInput("covariance violates the uncertainty bound det >= 1/4")
    if np.linalg.det(vecs) < 0:
        vecs = vecs.copy()
        vecs[:, 1] = -vecs[:, 1]
    # squeezing by r > 0 shrinks x_plus, so the small eigenvalue sits on x_plus
    r = 0.25 * math.log(vals[1] / vals[0])
    theta = math.atan2(vecs[1, 0], vecs[0, 0])

    if nu <= 0.5 + 1e-14:
        rho = FockVector(np.eye(cutoff, dtype=complex)[:, 0]).projector().matrix
    else:
        # nu = n_mean + 1/2  ->  thermal parameter lam = 1/n_mean
        n_mean = nu - 0.5
        rho = thermal_state(1.0 / n_mean, cutoff).matrix

    s = squeeze(r, cutoff)
    rho = s @ rho @ s.conj().T
    rot = rotation(-theta, cutoff)
    rho = rot @ rho @ rot.conj().T
    alpha = complex(d[0], d[1]) / _SQRT2
    dis = displacement(alpha, cutoff)
    return FockOperator(dis @ rho @ dis.conj().T)


# ---------------------------------------------------------------------------
# channels


def apply_offset_kernels(matrix: np.ndarray,
                         kernel: Callable[[int], np.ndarray]) -> np.ndarray:
    """Apply a map that conserves the photon-number offset of each entry.

    The entries at offset d below the diagonal, (j + d, j), map onto the
    output entries at that offset through one (N-d) x (N-d) matrix
    `kernel(d)`, output index by input index; the entries (j, j + d) above
    it map through its complex conjugate, as a Hermiticity-preserving map
    requires (the loss, amplifier and heterodyne kernels are real).  `matrix`
    is one operator or a (B, N, N) stack; each operator gets its own matrix
    product, so a stack equals its slices bit for bit.  Entries are mapped as
    given, with no Hermitian symmetrization.
    """
    n = matrix.shape[-1]
    # the offset-d diagonals as strided views of the flattened matrices:
    # entries (j + d, j) start at d n, entries (j, j + d) at d, both step n + 1
    flat_in = matrix.reshape(-1, 1, n * n)
    flat_out = np.zeros_like(flat_in)
    for d in range(n):
        a_t = kernel(d).T
        lower = slice(d * n, None, n + 1)
        flat_out[..., lower] = flat_in[..., lower] @ a_t
        if d:
            upper = slice(d, (n - d) * n, n + 1)
            flat_out[..., upper] = flat_in[..., upper] @ a_t.conj()
    return flat_out.reshape(matrix.shape)


def _loss_kernels(cutoff: int, transmissivity: float) -> Callable[[int], np.ndarray]:
    """Offset kernels A_d[i, j] = t[i+d, j+d] t[i, j] of pure loss, from one log-space
    table of the Kraus amplitudes t[i, j] = <i|A_(j-i)|j> = sqrt(C(j, i) T^i (1-T)^(j-i))."""
    lg = _lgamma_table(cutoff)
    i = np.arange(cutoff)
    lost = i - i[:, None]
    log_t = 0.5 * (lg - lg[:, None] - lg[np.abs(lost)] + i[:, None] * math.log(transmissivity)
                   + lost * math.log1p(-transmissivity))
    t = np.exp(np.where(lost >= 0, log_t, -np.inf))
    return lambda d: t[d:, d:] * t[:cutoff - d, :cutoff - d]


def apply_loss(rho: FockOperator, transmissivity: float) -> FockOperator:
    """Pure attenuation of transmissivity T via its photon-loss Kraus family.

    Exactly trace preserving on the truncated space (loss never populates
    levels above the input's support).  Acts on each operator of a stack.
    """
    T = float(transmissivity)
    if not (0.0 < T <= 1.0):
        raise InvalidInput(f"transmissivity must be in (0, 1], got {T}")
    if T == 1.0:
        return FockOperator(rho.matrix.copy())
    return FockOperator(apply_offset_kernels(rho.matrix, _loss_kernels(rho.cutoff, T)))


def apply_amp(rho: FockOperator, gain: float) -> FockOperator:
    """Quantum-limited amplifier of gain G >= 1 via its Kraus family.

    It is the dual of loss at T = 1/G scaled by 1/G, so its offset kernels
    are loss's, transposed and divided by G.  Weight pushed past the cutoff
    is dropped, not renormalized, and shows in the output's `trace_deficit`;
    the entries kept are exact.  `average_fidelity_fock` does not read the
    deficit: because the kept entries are exact, its closed-form bound on
    cutting the input and target kets covers it.  Acts on each operator of
    a stack.
    """
    G = float(gain)
    if G < 1.0:
        raise InvalidInput(f"amplifier gain must be >= 1, got {G}")
    if G == 1.0:
        return FockOperator(rho.matrix.copy())
    loss = _loss_kernels(rho.cutoff, 1.0 / G)
    return FockOperator(apply_offset_kernels(rho.matrix, lambda d: loss(d).T / G))


def _mixture_phases(variance: float, axis: int, cutoff: int):
    """Phases exp(i sign s e), one row per mixture shift s over the eigenvalues e
    of the generator of shifts along `axis`, and that generator's eigenvectors."""
    shifts = math.sqrt(2.0 * variance) * _MIXTURE_NODES
    # generator: axis 0 noise displaces x_plus -> exp(-i s x_minus), and vice versa
    sign = -1.0 if axis == 0 else 1.0
    evals, evecs = _quad_eigh(cutoff, 1 - axis)
    return np.exp(1j * sign * np.outer(shifts, evals)), evecs


def gaussian_mixture_of_displacements(rho: FockOperator, variance: float,
                                      axis: int) -> FockOperator:
    """Classical Gaussian displacement noise along one quadrature axis.

    Mixes exp(-i s X) rho exp(i s X) over s ~ N(0, variance) with a 20-point
    Gauss-Hermite rule.  Exactly trace preserving (each conjugation is
    unitary on the truncated space).  The matrix products broadcast over a
    stack of operators.
    """
    if variance < 0:
        raise InvalidInput("noise variance must be >= 0")
    if variance == 0:
        return FockOperator(rho.matrix.copy())
    phases, evecs = _mixture_phases(variance, axis, rho.cutoff)
    # mixture kernel[i, j] = sum_s w_s exp(i sign s (e_i - e_j)); conjugating by
    # each unitary in the generator eigenbasis is then one Hadamard product
    kernel = (phases.T * _MIXTURE_WEIGHTS) @ phases.conj()
    inner = evecs.conj().T @ rho.matrix @ evecs
    return FockOperator(evecs @ (kernel * inner) @ evecs.conj().T)


def mixture_unitaries(variance: float, axis: int, cutoff: int):
    """(weights, unitaries W_s) with `gaussian_mixture_of_displacements` equal to
    rho -> sum_s weights[s] W_s rho W_s^dag; the unitaries are a (20, cutoff, cutoff) stack."""
    phases, evecs = _mixture_phases(variance, axis, cutoff)
    return _MIXTURE_WEIGHTS, (evecs * phases[:, None, :]) @ evecs.conj().T


# ---------------------------------------------------------------------------
# functionals


def fidelity_pure(psi: FockVector, rho: FockOperator):
    """<psi| rho |psi>, checked real and clipped into [0, 1].

    A single ket and operator give a float; a stack of kets and an equally
    long stack of operators give one fidelity per pair.  Clipping beyond
    1e-10 (or an imaginary part above 1e-12) is treated as a corrupted input
    rather than silently absorbed.
    """
    if psi.cutoff != rho.cutoff:
        raise InvalidInput(f"cutoff mismatch: vector {psi.cutoff} vs operator {rho.cutoff}")
    amp = psi.amplitudes
    if amp.shape[:-1] != rho.matrix.shape[:-2]:
        raise InvalidInput(f"stack mismatch: {amp.shape[:-1]} vectors vs "
                           f"{rho.matrix.shape[:-2]} operators")
    values = np.atleast_1d(np.einsum("...i,...i->...", amp.conj(),
                                     (rho.matrix @ amp[..., None])[..., 0]))
    real = values.real
    non_real = np.abs(values.imag) > 1e-12 * np.maximum(1.0, np.abs(real))
    if non_real.any():
        raise InvalidInput(f"fidelity came out non-real ({values[non_real][0]}); "
                           f"operator is not Hermitian")
    outside = (real < -1e-10) | (real > 1.0 + 1e-10)
    if outside.any():
        raise InvalidInput(f"fidelity {real[outside][0]} outside [0, 1] beyond rounding tolerance")
    fidelities = np.clip(real, 0.0, 1.0)
    return float(fidelities[0]) if amp.ndim == 1 else fidelities


def expectation(rho: FockOperator, op: np.ndarray) -> complex:
    return complex(np.trace(rho.matrix @ op))


def mean_and_covariance(rho: FockOperator):
    """Quadrature mean vector and covariance matrix of a Fock-space state.

    Moments are taken literally on the truncated operator (no renormalizing),
    so a large trace deficit shows up here as biased moments.
    """
    a = annihilation(rho.cutoff)
    exp_a = expectation(rho, a)
    exp_aa = expectation(rho, a @ a)
    exp_n = float(expectation(rho, a.conj().T @ a).real)
    mean = np.array([_SQRT2 * exp_a.real, _SQRT2 * exp_a.imag])
    xx = exp_aa.real + exp_n + 0.5 - mean[0] ** 2
    pp = -exp_aa.real + exp_n + 0.5 - mean[1] ** 2
    xp = exp_aa.imag - mean[0] * mean[1]
    return mean, np.array([[xx, xp], [xp, pp]])


def trace_distance(rho: FockOperator, sigma: FockOperator) -> float:
    """(1/2) ||rho - sigma||_1 on the truncated space."""
    if rho.cutoff != sigma.cutoff:
        raise InvalidInput("trace distance needs operators at one common cutoff")
    diff = rho.matrix - sigma.matrix
    eigs = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.abs(eigs).sum())


def select_cutoff(eta: float, lam: float) -> int:
    """Smallest cutoff N whose truncated prior weights both stay at or below 1e-10.

    Averaged over the prior of width lam, |alpha> keeps the weight
    (1 + lam)^-N at or above level N and |sqrt(eta) alpha> keeps
    (eta / (lam + eta))^N (`truncated_prior_weights`).  Raises CutoffTooSmall
    when that N exceeds 180.
    """
    # the smaller of 1 + lam and (lam + eta) / eta sets the slower decay
    need = -math.log(_CUTOFF_WEIGHT_TOL) / math.log1p(min(lam, lam / eta))
    if not need <= _MAX_AUTO_CUTOFF:
        raise CutoffTooSmall(
            f"a prior of width lambda = {lam:.6g} at task gain eta = {eta:.6g} needs a "
            f"cutoff of about {need:.0f}, above the limit {_MAX_AUTO_CUTOFF}; use a "
            f"larger lambda, or pass an explicit cutoff (--cutoff) and accept a "
            f"larger error estimate")
    return max(1, math.ceil(need))


def truncated_prior_weights(eta: float, lam: float, cutoff: int):
    """(tau_in, tau_out): the prior-averaged weight of |alpha> and of |sqrt(eta) alpha>
    at or above level `cutoff`, (1 + lam)^-N and (eta / (lam + eta))^N."""
    return (1.0 + lam) ** -cutoff, (eta / (lam + eta)) ** cutoff


def prior_rule(eta: float, lam: float, cutoff: int):
    """Radii and prior weights of the N-node rule that is exact on the truncated space.

    After the phase average, <sqrt(eta) r|Phi_N(|r><r|)|sqrt(eta) r> of a map
    truncated to N levels is exp(-(1 + eta) r^2) times a polynomial of degree
    at most 2N - 2 in r^2.  N Gauss-Laguerre nodes of the width
    lam + 1 + eta integrate it exactly; the weights carry the prior of width
    lam (as (lam / width) w exp((1 + eta) r^2), in log space).
    """
    width = lam + 1.0 + eta
    t, w = laggauss(cutoff)
    return np.sqrt(t / width), lam / width * np.exp(np.log(w) + (1.0 + eta) / width * t)


class FockAverage(NamedTuple):
    value: float
    error: float


def average_fidelity_fock(applier: Callable[[FockOperator], FockOperator],
                          eta: float, lam: float, cutoff: int | None = None,
                          max_error: float | None = None) -> FockAverage:
    """Prior-averaged task fidelity of a phase-covariant Fock-space map.

    Sends |r><r| through `applier` for the N = cutoff radii r of `prior_rule`
    and averages <sqrt(eta) r| rho' |sqrt(eta) r> with its weights.  For a map
    that is phase-covariant (or is the phase average of a channel's map, as
    `schemes.phase_averaged_applier` builds) this is the truncated problem's
    exact value: one real amplitude per radius carries the whole phase
    average.  Nodes are evaluated in chunks: `applier` receives a
    FockOperator holding a (B, cutoff, cutoff) stack of input projectors and
    must return the stack of outputs.  A chunk spans at most 1 MiB of
    projectors (40 nodes at cutoff 40), and the weighted fidelities are
    summed node by node in rule order.  The default cutoff comes from
    `select_cutoff`; no cutoff above 180 is accepted.

    The error estimate bounds the truncation.  With the truncated prior
    weights tau_in and tau_out (`truncated_prior_weights`) it is
    2 sqrt(tau_in) + 2 sqrt(tau_out) + tau_out, the gentle-measurement bound
    on cutting each input and target ket averaged over the prior with
    Jensen's inequality, which holds for maps whose output entries below the
    cutoff are exact.  A roundoff floor of cutoff^2 times the machine epsilon
    is added: the log-space kernel tables and the kets' running products
    lose a relative 1e-13 or so at the widest cutoffs.  Raises
    ConvergenceError when `max_error` is given and exceeded.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise InvalidInput("prior average needs a finite lambda > 0; use closed forms at lambda = 0")
    if not (eta > 0 and math.isfinite(eta)):
        raise InvalidInput(f"task gain eta must be positive and finite, got {eta}")
    if cutoff is None:
        cutoff = select_cutoff(eta, lam)
    elif not 1 <= cutoff <= _MAX_AUTO_CUTOFF:
        raise InvalidInput(f"cutoff must be between 1 and {_MAX_AUTO_CUTOFF}, got {cutoff}")

    radii, weights = prior_rule(eta, lam, cutoff)
    chunk = max(1, _BATCH_BYTES // (16 * cutoff * cutoff))
    total = 0.0
    for start in range(0, cutoff, chunk):
        r = radii[start:start + chunk]
        kets_in = FockVector(coherent_amplitudes(r, cutoff).T)
        kets_out = FockVector(coherent_amplitudes(math.sqrt(eta) * r, cutoff).T)
        fids = fidelity_pure(kets_out, applier(kets_in.projector()))
        for wf in weights[start:start + chunk] * fids:
            total += wf  # one running sum in node order, whatever the chunk size
    tau_in, tau_out = truncated_prior_weights(eta, lam, cutoff)
    roundoff = cutoff * cutoff * np.finfo(float).eps
    err = 2.0 * math.sqrt(tau_in) + 2.0 * math.sqrt(tau_out) + tau_out + roundoff
    if max_error is not None and err > max_error:
        raise ConvergenceError(
            f"fidelity average did not converge: at lambda = {lam:g} and cutoff {cutoff} "
            f"the prior keeps weight tau_in = {tau_in:.3g} at or above the cutoff; value "
            f"{total:.9g} with error estimate {err:.3g} exceeds the requested bound "
            f"{max_error:g}", value=total, error=err)
    return FockAverage(total, err)
