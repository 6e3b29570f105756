"""Truncated Fock-space oracle for one bosonic mode.

Everything here works on a hard photon-number truncation `cutoff` (dimension
of the vectors and matrices).  Truncation losses are never papered over:
state constructors report their truncated weight, channel maps leave the
output trace deficit observable rather than renormalizing, and the prior
average evaluates the truncated problem exactly (one Gauss-Laguerre node per
level) and bounds the truncation itself in closed form.  The prior average
takes a phase-covariant map as an `OffsetMap`, its kernels per photon-number
offset, and contracts each offset's kernel against the kets of every node at
once; a map that is one `KrausFamily` it contracts as line sums of the
family's table instead.  It never forms an operator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .bounds import _check_prior
from .ensembles import laguerre_rule
from .errors import ConvergenceError, CutoffTooSmall, InvalidInput

_SQRT2 = math.sqrt(2.0)

_MIXTURE_POINTS = 20  # Gauss-Hermite points of a displacement-noise mixture
_MIXTURE_NODES, _MIXTURE_WEIGHTS = hermgauss(_MIXTURE_POINTS)
_MIXTURE_WEIGHTS /= math.sqrt(math.pi)  # a probability rule for N(0, 1/2)
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
    if not (0 < lam < math.inf):
        raise InvalidInput(f"thermal parameter lambda must be positive and finite, got {lam}")
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


class OffsetMap:
    """A phase-covariant map given by its offset kernels (see `apply_offset_kernels`).

    `factors` are applied in order; each takes a cutoff N and returns the
    function d -> A_d of its (N-d) x (N-d) kernels.  No factors is the
    identity.  Calling the map on a FockOperator (one operator or a stack)
    applies the factors one after another; `real_kernels` gives the real
    part of the whole chain's kernels, Re(A_d^(k) ... A_d^(1)), one offset
    at a time, which is what `average_fidelity_fock` contracts, unless the
    map is one `KrausFamily` alone.
    """

    def __init__(self, *factors: Callable[[int], Callable[[int], np.ndarray]]):
        self.factors = factors

    def real_kernels(self, cutoff: int) -> Callable[[int], np.ndarray]:
        """d -> Re(A_d^(k) ... A_d^(1)), the real part of the chain's kernels.

        A `DisplacementMixture` factor gives its own real kernels, built in
        real arithmetic; every other factor gives its kernels.  The real part
        of a product is the product with one factor's real part only while
        every other factor is real, so a mixture next to any other complex
        kernel (a second mixture, or a plain factor with complex kernels)
        raises InvalidInput rather than compose a wrong real part.
        """
        mixtures = sum(isinstance(f, DisplacementMixture) for f in self.factors)
        if mixtures > 1:
            raise InvalidInput("the real kernels of a map hold at most one displacement "
                               f"mixture, got {mixtures}")
        chain = [f.real_kernels(cutoff) if isinstance(f, DisplacementMixture) else f(cutoff)
                 for f in self.factors]

        def real(d):
            out = np.eye(cutoff - d) if not chain else chain[0](d)
            for kernel in chain[1:]:
                out = kernel(d) @ out
            if not np.iscomplexobj(out):
                return out
            if mixtures:
                raise InvalidInput("a displacement mixture's real kernels compose only "
                                   "with real kernels, got a complex one")
            return out.real
        return real

    def __call__(self, rho: FockOperator) -> FockOperator:
        out = rho.matrix.copy() if not self.factors else rho.matrix
        for factor in self.factors:
            out = apply_offset_kernels(out, factor(rho.cutoff))
        return FockOperator(out)


def _loss_table(cutoff: int, transmissivity: float) -> np.ndarray:
    """Pure loss's Kraus amplitudes t[i, j] = <i|A_(j-i)|j> = sqrt(C(j, i) T^i (1-T)^(j-i)),
    built in log space (A_k loses k photons; t is upper triangular)."""
    lg = _lgamma_table(cutoff)
    i = np.arange(cutoff)
    lost = i - i[:, None]
    log_t = 0.5 * (lg - lg[:, None] - lg[np.abs(lost)] + i[:, None] * math.log(transmissivity)
                   + lost * math.log1p(-transmissivity))
    return np.exp(np.where(lost >= 0, log_t, -np.inf))


def _loss_kernels(cutoff: int, transmissivity: float) -> Callable[[int], np.ndarray]:
    """Offset kernels A_d[i, j] = t[i+d, j+d] t[i, j] of pure loss (`_loss_table`)."""
    t = _loss_table(cutoff, transmissivity)
    return lambda d: t[d:, d:] * t[:cutoff - d, :cutoff - d]


def _amp_kernels(cutoff: int, gain: float) -> Callable[[int], np.ndarray]:
    """Offset kernels of the quantum-limited amplifier of gain G > 1: the dual of
    loss at T = 1/G scaled by 1/G, so loss's kernels transposed and divided by G."""
    loss = _loss_kernels(cutoff, 1.0 / gain)
    return lambda d: loss(d).T / gain


def _heterodyne_table(cutoff: int, gain: float, log_width: float) -> np.ndarray:
    """The log-space table c[l, m] = sqrt(C(m+l, l)) g^l w^(-(m+l+1)/2), given g and log w.

    Gain 0 leaves row 0 alone, w^(-(m+1)/2): all ones at w = 1.
    """
    if gain == 0.0:
        c = np.zeros((cutoff, cutoff))
        c[0] = np.exp(-0.5 * (np.arange(cutoff) + 1) * log_width)
        return c
    lg = _lgamma_table(2 * cutoff)
    l, m = np.arange(cutoff)[:, None], np.arange(cutoff)
    return np.exp(0.5 * (lg[m + l] - lg[l] - lg[m] - (m + l + 1) * log_width)
                  + l * math.log(gain))


def heterodyne_kernels(cutoff: int, gain: float,
                       log_width: float) -> Callable[[int], np.ndarray]:
    """Offset kernels A_d[l, n] = c[l, n+d] c[l+d, n] of the table c of `_heterodyne_table`.

    w = 1 + g^2 is heterodyne measure-and-prepare at gain g; g = sqrt(eta),
    w = 1 + lam + eta is the probe score operator of `proofcheck`, up to lam,
    which reads the same table through `heterodyne_images`.
    """
    c = _heterodyne_table(cutoff, gain, log_width)
    return lambda d: c[:cutoff - d, d:] * c[d:, :cutoff - d]


def heterodyne_images(cutoff: int, gain: float,
                      log_width: float) -> Callable[[np.ndarray], np.ndarray]:
    """phi -> the images K_s phi, s = 0 ... 2N-2, of the Kraus operators
    K_s = sum_l c[l, s-l] |l><s-l| on the table c of `_heterodyne_table`.

    A ket, or a (B, N) stack, maps to an (N, 2N-1) image matrix each,
    img[l, s] = c[l, s-l] phi[s-l]: row l holds c[l] * phi shifted right by l,
    written through one strided view, so img @ img^H = sum_s K_s |phi><phi| K_s^H.
    The K_s are Kraus operators of rho -> Phi(rho^T) for the map Phi of
    `heterodyne_kernels`, so on the conjugate ket this equals that map on
    |phi><phi|, with no offset loop.
    """
    c = _heterodyne_table(cutoff, gain, log_width)

    def images(phi):
        img = np.zeros(phi.shape[:-1] + (cutoff, 2 * cutoff - 1), dtype=complex)
        # row l's entry m goes to column l + m: flat index l (2N-1) + l + m = 2N l + m
        sheared = np.ndarray(img.shape[:-1] + (cutoff,), complex, img,
                             strides=img.strides[:-2] + (2 * cutoff * img.itemsize,
                                                         img.itemsize))
        np.multiply(c, phi[..., None, :], out=sheared)
        return img
    return images


def _diagonal_line_sums(x: np.ndarray, left: np.ndarray, right: np.ndarray,
                        first: int) -> np.ndarray:
    """sum_e sigma_e^2 over e = first ... N-1 per column b, where
    sigma_e = sum_i left[i, b] x[i, i+e] right[i+e, b] runs along x's e-th diagonal.

    `right` is read through a strided (lines, N, nodes) view of one zero-padded
    copy and the sums are one einsum, so the working memory is O(N) per node;
    no N x N array is formed per node.  The two read-only views come from the
    `np.ndarray` constructor: called cold, `as_strided` took five times as long.
    """
    n, nodes = left.shape
    lines = n - first
    # zero-padded copies pad[k] = right[k + first] and padded[i, k] = x[i, k + first]
    # make shifted[e, i] = right[i + e] and diagonals[e, i] = x[i, i + e] views
    pad = np.zeros((lines + n - 1, nodes))
    pad[-first:n - first] = right
    padded = np.zeros((n, lines + n - 1))
    padded[:, -first:n - first] = x
    shifted = np.ndarray((lines, n, nodes), float, pad,
                         strides=(pad.strides[0], *pad.strides))
    diagonals = np.ndarray((lines, n), float, padded,
                           strides=(padded.strides[1], sum(padded.strides)))
    shifted.flags.writeable = diagonals.flags.writeable = False
    sigma = np.einsum("ei,ib,eib->eb", diagonals, left, shifted)
    return np.einsum("eb,eb->b", sigma, sigma)


@dataclass(frozen=True)
class KrausFamily:
    """A map that is one family of photon-number-shift Kraus operators, as an `OffsetMap` factor.

    Pure loss of transmissivity T (kind "loss"), the quantum-limited
    amplifier of gain G ("amp") and heterodyne measure-and-prepare at gain g
    ("heterodyne") are each one such family, all of whose matrix elements
    come from one table: `_loss_table` (at 1/G for the amplifier) or
    `_heterodyne_table`.  Called with a cutoff, a family gives its offset
    kernels, as every factor does; `fidelities` reads the same table as line
    sums, which `average_fidelity_fock` contracts for a map that is exactly
    one family.
    """

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in ("loss", "amp", "heterodyne"):
            raise InvalidInput(f"unknown Kraus family {self.kind!r}")

    def __call__(self, cutoff: int) -> Callable[[int], np.ndarray]:
        p = self.parameter
        if self.kind == "loss":
            return _loss_kernels(cutoff, p)
        if self.kind == "amp":
            return _amp_kernels(cutoff, p)
        return heterodyne_kernels(cutoff, p, math.log1p(p * p))

    def fidelities(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """<psi| Phi(|phi><phi|) |psi> = sum_k <psi|K_k|phi>^2 for each column of real kets.

        The matrix elements of each Kraus operator K_k lie on one line of
        the table, so <psi|K_k|phi> is a line sum sigma:

          loss, table t:       sigma_e = sum_i psi_i t[i, i+e] phi_(i+e), e >= 0;
          amplifier, table t   sigma_e = sum_i phi_i t[i, i+e] psi_(i+e) / sqrt(G)
          at 1/G (the dual):   (K_e = A_e^T / sqrt(G));
          heterodyne, table c: sigma_s = sum_l psi_l c[l, s-l] phi_(s-l), along the
                               anti-diagonals of c, which are diagonals of c reversed.

        The heterodyne operators K_s = sum_l c[l, s-l] |l><s-l| are Kraus
        operators of rho -> Phi(rho^T), which is Phi on a real projector.
        """
        n, p = phi.shape[0], self.parameter
        if self.kind == "loss":
            return _diagonal_line_sums(_loss_table(n, p), psi, phi, 0)
        if self.kind == "amp":
            return _diagonal_line_sums(_loss_table(n, 1.0 / p), phi, psi, 0) / p
        c = _heterodyne_table(n, p, math.log1p(p * p))
        return _diagonal_line_sums(c[::-1], psi[::-1], phi, 1 - n)


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

    Its offset kernels are `_amp_kernels`.  Weight pushed past the cutoff
    is dropped, not renormalized, and shows in the output's `trace_deficit`;
    the entries kept are exact.  `average_fidelity_fock` does not read the
    deficit: because the kept entries are exact, its closed-form bound on
    cutting the input and target kets covers it.  Acts on each operator of
    a stack.
    """
    G = float(gain)
    if not (1.0 <= G < math.inf):
        raise InvalidInput(f"amplifier gain must be >= 1 and finite, got {G}")
    if G == 1.0:
        return FockOperator(rho.matrix.copy())
    return FockOperator(apply_offset_kernels(rho.matrix, _amp_kernels(rho.cutoff, G)))


def _check_variance(variance: float) -> None:
    if not (0.0 <= variance < math.inf):
        raise InvalidInput(f"noise variance must be >= 0 and finite, got {variance}")


def _shift_phases(shifts: np.ndarray, axis: int, cutoff: int):
    """(V, p) with exp(-i s X) = V diag(p[s]) V^dag for each shift s along `axis`.

    X = V diag(lambda) V^dag is the generator of shifts along `axis`
    (`_quad_eigh`): axis 0 noise displaces x_plus, so exp(-i s x_minus),
    and vice versa.
    """
    sign = -1.0 if axis == 0 else 1.0
    evals, evecs = _quad_eigh(cutoff, 1 - axis)
    return evecs, np.exp(1j * sign * np.outer(shifts, evals))


def _shift_unitaries(shifts: np.ndarray, axis: int, cutoff: int) -> np.ndarray:
    """The (len(shifts), cutoff, cutoff) stack of exp(-i s X) (`_shift_phases`)."""
    evecs, phases = _shift_phases(shifts, axis, cutoff)
    return (evecs * phases[:, None, :]) @ evecs.conj().T


def mixture_unitaries(variance: float, axis: int, cutoff: int):
    """(weights, unitaries W_s) of classical Gaussian displacement noise along one axis.

    rho -> sum_s weights[s] W_s rho W_s^dag with W_s = exp(-i s X) mixes the
    shifts s ~ N(0, variance) of one quadrature with a 20-point Gauss-Hermite
    rule, X being the generator of shifts along `axis`; the unitaries are a
    (20, cutoff, cutoff) stack.  Variance 0 is one identity, with weight 1.
    """
    _check_variance(variance)
    if variance == 0:
        return np.ones(1), np.eye(cutoff, dtype=complex)[None]
    return _MIXTURE_WEIGHTS, _shift_unitaries(math.sqrt(2.0 * variance) * _MIXTURE_NODES,
                                              axis, cutoff)


@dataclass(frozen=True)
class DisplacementMixture:
    """Displacement noise of one variance on one axis, then a mean, as an `OffsetMap` factor.

    The step rho -> sum_s w_s W_s rho W_s^dag with W_s = D(beta) exp(-i s X)
    over the 20 shifts of `mixture_unitaries` (one D(beta) alone at variance
    0).  Each view is built per call, and none is kept:

    * called with a cutoff, it gives the offset kernels of its phase average,
      A_d = sum_s w_s W_s[d:, d:] * conj(W_s[:N-d, :N-d]), complex;
    * `real_kernels` gives Re A_d, all that the prior average reads, in real
      arithmetic;
    * `apply` is the step itself on operators, as one Hadamard product.

    Without a mean, the kernels sum over the 10 positive shifts at double
    weight (`unitaries`).  That is exact: the phase average contains the
    rotation by pi, which maps exp(-i s X) onto exp(i s X), so A_d is the
    same for s and -s.  The rotation maps D(beta) onto D(-beta), so a
    mixture with a mean keeps all 20 shifts.
    """

    variance: float
    axis: int
    beta: complex = 0j

    def __post_init__(self):
        _check_variance(self.variance)

    def unitaries(self, cutoff: int):
        """(weights, W_s) that the offset kernels sum over: the 10 positive shifts at
        double weight without a mean, otherwise `mixture_unitaries` times D(beta)."""
        if self.beta or self.variance == 0:
            weights, u = mixture_unitaries(self.variance, self.axis, cutoff)
        else:
            half = _MIXTURE_POINTS // 2   # the nodes are symmetric, the positive ones last
            weights = 2.0 * _MIXTURE_WEIGHTS[half:]
            u = _shift_unitaries(math.sqrt(2.0 * self.variance) * _MIXTURE_NODES[half:],
                                 self.axis, cutoff)
        return weights, (displacement(self.beta, cutoff) @ u if self.beta else u)

    def __call__(self, cutoff: int) -> Callable[[int], np.ndarray]:
        weights, u = self.unitaries(cutoff)
        u_conj = u.conj()
        return lambda d: np.tensordot(weights,
                                      u[:, d:, d:] * u_conj[:, :cutoff - d, :cutoff - d], 1)

    def real_kernels(self, cutoff: int) -> Callable[[int], np.ndarray]:
        """d -> Re A_d as one einsum over the real stack X = [sqrt(w) Re W; sqrt(w) Im W]:
        Re(W[i+d, j+d] conj(W[i, j])) = Re W Re W + Im W Im W, so
        Re A_d = sum_s' X[s', d:, d:] * X[s', :N-d, :N-d]."""
        weights, u = self.unitaries(cutoff)
        k = weights.size
        root = np.sqrt(weights)[:, None, None]
        x = np.empty((2 * k, cutoff, cutoff))
        np.multiply(root, u.real, out=x[:k])
        np.multiply(root, u.imag, out=x[k:])
        return lambda d: np.einsum("sij,sij->ij", x[:, d:, d:], x[:, :cutoff - d, :cutoff - d])

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """sum_s w_s W_s matrix W_s^dag for one matrix or a (B, N, N) stack.

        With exp(-i s X) = V diag(p[s]) V^dag (`_shift_phases`) the sum is
        V~ (G * V^dag matrix V) V~^dag, one Hadamard product, with
        V~ = D(beta) V and G[k, l] = sum_s w_s p[s, k] conj(p[s, l]).
        Variance 0 is D(beta) matrix D(beta)^dag, a copy of the input
        without a mean.
        """
        n = matrix.shape[-1]
        if self.variance == 0:
            if not self.beta:
                return matrix.copy()
            disp = displacement(self.beta, n)
            return disp @ matrix @ disp.conj().T
        evecs, phases = _shift_phases(math.sqrt(2.0 * self.variance) * _MIXTURE_NODES,
                                      self.axis, n)
        g = np.einsum("s,sk,sl->kl", _MIXTURE_WEIGHTS, phases, phases.conj())
        outer = displacement(self.beta, n) @ evecs if self.beta else evecs
        return outer @ (g * (evecs.conj().T @ matrix @ evecs)) @ outer.conj().T


def gaussian_mixture_of_displacements(rho: FockOperator, variance: float,
                                      axis: int) -> FockOperator:
    """Classical Gaussian displacement noise along one quadrature axis.

    sum_s w_s W_s rho W_s^dag over the unitaries of `mixture_unitaries`,
    as `DisplacementMixture.apply` sums it.  Exactly trace preserving (each
    conjugation is unitary on the truncated space).  Acts on each operator
    of a stack.
    """
    return FockOperator(DisplacementMixture(variance, axis).apply(rho.matrix))


# ---------------------------------------------------------------------------
# functionals


def _clipped_fidelities(values: np.ndarray) -> np.ndarray:
    """Fidelities clipped into [0, 1]; one outside beyond 1e-10 is a corrupted input."""
    outside = (values < -1e-10) | (values > 1.0 + 1e-10)
    if outside.any():
        raise InvalidInput(f"fidelity {values[outside][0]} outside [0, 1] "
                           f"beyond rounding tolerance")
    return np.minimum(np.maximum(values, 0.0), 1.0)  # two ufuncs; np.clip's wrapper costs more


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
    fidelities = _clipped_fidelities(real)
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
    _check_prior(eta, lam)
    # the smaller of 1 + lam and (lam + eta) / eta sets the slower decay; a
    # lam / eta that underflows to 0 leaves no decay at all
    decay = math.log1p(min(lam, lam / eta))
    need = -math.log(_CUTOFF_WEIGHT_TOL) / decay if decay > 0 else math.inf
    if not need <= _MAX_AUTO_CUTOFF:
        raise CutoffTooSmall(
            f"a prior of width lambda = {lam:.6g} at task gain eta = {eta:.6g} needs a "
            f"cutoff of about {need:.0f}, above the limit {_MAX_AUTO_CUTOFF}; use a "
            f"larger lambda, or pass an explicit cutoff (--cutoff) and accept a "
            f"larger error estimate")
    return max(1, math.ceil(need))


def narrowest_auto_lambda(eta: float) -> float:
    """Smallest prior width whose `select_cutoff` at task gain eta fits 180.

    Inverts select_cutoff's closed form: both truncated weights reach 1e-10
    by level 180 once lam >= max(1, eta) * (10^(10/180) - 1).
    """
    rate = math.expm1(-math.log(_CUTOFF_WEIGHT_TOL) / _MAX_AUTO_CUTOFF)
    return max(1.0, eta) * rate * (1.0 + 1e-12)   # the margin absorbs rounding


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
    t, w = laguerre_rule(cutoff)
    return np.sqrt(t / width), lam / width * np.exp(np.log(w) + (1.0 + eta) / width * t)


class FockAverage(NamedTuple):
    value: float
    error: float


def average_fidelity_fock(offset_map: OffsetMap, eta: float, lam: float,
                          cutoff: int | None = None,
                          max_error: float | None = None) -> FockAverage:
    """Prior-averaged task fidelity of a phase-covariant Fock-space map.

    For the N = cutoff radii r of `prior_rule` it averages
    <sqrt(eta) r| Phi(|r><r|) |sqrt(eta) r> with the rule's weights.  For a
    phase-covariant map Phi (or the phase average of a channel's map, as
    `schemes.phase_averaged_applier` builds) this is the truncated problem's
    exact value: one real amplitude per radius carries the whole phase
    average.  Phi must be an `OffsetMap`; any other callable is refused.
    No operator is formed, and the kets phi (at r) and psi (at sqrt(eta) r)
    are real.  One of two contractions gives each node's fidelity:

    * a map that is exactly one `KrausFamily` (pure loss, the
      quantum-limited amplifier or heterodyne measure-and-prepare, alone)
      takes its line sums, F = sum_k <psi|K_k|phi>^2 over the family's
      Kraus operators K_k, O(N^2) per node (`KrausFamily.fidelities`);
    * every other map (a chain of factors, a displacement mixture, a
      kernel factor of any other kind) takes the offset loop over the
      composed kernels A_d of the map, O(N^3) per node:

        F = sum_d c_d  u_d . Re(A_d) v_d,   v_d = phi[d:] * phi[:N-d],
                                            u_d = psi[d:] * psi[:N-d],

      with c_0 = 1 and c_d = 2 for d >= 1.  Only Re A_d enters: the kets
      are real, and the entries above the diagonal map through conj(A_d),
      so they add the complex conjugate of the entries below it, and the
      imaginary parts cancel.  So the loop reads `OffsetMap.real_kernels`,
      which a displacement mixture builds in real arithmetic.  Every node
      is done at once, one offset at a time, with one kernel in memory.

    For a family both are the same finite sum of products of table entries
    and ket amplitudes, grouped by offset or by Kraus operator (expanding
    sum_k <psi|K_k|phi>^2 pairs the amplitudes of K_k whose levels differ
    by d, which is u_d . A_d v_d), so both give the truncated problem's
    exact value and differ by rounding only.  A node's
    fidelity outside [0, 1] beyond 1e-10 is an error; the weighted
    fidelities are summed node by node in rule order, and the sum is
    clipped into [0, 1]: near the cap the rule's weights sum to 1 + 9e-13,
    well inside the error estimate, and a rule built in log space would
    remove that excess at its source.  The default cutoff comes from
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
    if not isinstance(offset_map, OffsetMap):
        raise InvalidInput(
            f"the prior average needs a phase-covariant map given by its offset "
            f"kernels (an OffsetMap, e.g. from schemes.phase_averaged_applier), "
            f"got {offset_map!r}")
    _check_prior(eta, lam)
    if cutoff is None:
        cutoff = select_cutoff(eta, lam)
    elif not 1 <= cutoff <= _MAX_AUTO_CUTOFF:
        raise InvalidInput(f"cutoff must be between 1 and {_MAX_AUTO_CUTOFF}, got {cutoff}")

    radii, weights = prior_rule(eta, lam, cutoff)
    # one ket per column: level n in row n, so offset d pairs rows d: and :N-d
    phi = coherent_amplitudes(radii, cutoff).real
    psi = coherent_amplitudes(math.sqrt(eta) * radii, cutoff).real
    family = offset_map.factors[0] if len(offset_map.factors) == 1 else None
    if isinstance(family, KrausFamily):
        fids = family.fidelities(phi, psi)
    else:
        kernel = offset_map.real_kernels(cutoff)
        fids = np.zeros(cutoff)
        for d in range(cutoff):
            v = phi[d:] * phi[:cutoff - d]
            u = psi[d:] * psi[:cutoff - d]
            term = np.einsum("ib,ib->b", u, kernel(d) @ v)
            fids += term if d == 0 else 2.0 * term
    total = 0.0
    for wf in weights * _clipped_fidelities(fids):
        total += wf  # one running sum in node order
    total = min(max(total, 0.0), 1.0)
    tau_in, tau_out = truncated_prior_weights(eta, lam, cutoff)
    roundoff = cutoff * cutoff * sys.float_info.epsilon
    err = 2.0 * math.sqrt(tau_in) + 2.0 * math.sqrt(tau_out) + tau_out + roundoff
    if max_error is not None and err > max_error:
        raise ConvergenceError(
            f"fidelity average did not converge: at lambda = {lam:g} and cutoff {cutoff} "
            f"the prior keeps weight tau_in = {tau_in:.3g} at or above the cutoff; value "
            f"{total:.9g} with error estimate {err:.3g} exceeds the requested bound "
            f"{max_error:g}", value=total, error=err)
    return FockAverage(total, err)
