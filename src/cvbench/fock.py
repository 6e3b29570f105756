"""Truncated Fock-space oracle for one bosonic mode.

Everything here works on a hard photon-number truncation `cutoff` (dimension
of the vectors and matrices).  Kets and operators are bare complex arrays,
(N,) and (N, N), and each function that takes one also takes a (B, N) or
(B, N, N) stack, mapped as its slices.  Truncation losses are never papered
over: state constructors report their truncated weight, channel maps leave
the output trace deficit observable rather than renormalizing, and the prior
average evaluates the truncated problem exactly, with no quadrature rule,
and bounds the truncation itself in closed form.  A channel's map is an
`OffsetMap`, a chain of factors with two methods each: `apply`, the
factor's map on operators, and `kernel_blocks`, the real kernels of its
phase average per photon-number offset.  The prior average contracts a
block of offsets' kernels at a time against the prior's own kernels, which
have a closed form; a map that is one Kraus family alone it sums in closed
form over the family's Kraus pairs instead.  It never forms an operator.
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
from .errors import CutoffTooSmall, InvalidInput

_SQRT2 = math.sqrt(2.0)

_MIXTURE_POINTS = 20  # Gauss-Hermite points of a displacement-noise mixture
_MIXTURE_NODES, _MIXTURE_WEIGHTS = hermgauss(_MIXTURE_POINTS)
_MIXTURE_WEIGHTS /= math.sqrt(math.pi)  # a probability rule for N(0, 1/2)
_CUTOFF_WEIGHT_TOL = 1e-10  # truncated prior weight select_cutoff aims for
# The widest cutoff average_fidelity_fock (and `cvbench simulate`) accepts, a
# bound on the time and memory of one call: a displacement mixture at 180
# holds a stack of 20 unitaries of 180 x 180 entries, and a chain's kernels
# take about N^3 / 3 entries in all.
_MAX_AUTO_CUTOFF = 180
# Float64 entries of one block of offset kernels that average_fidelity_fock
# contracts at once: from kernel width 65 up a block is one offset.
_KERNEL_BLOCK = 1 << 13


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


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, each marked read-only: a cache shares them with every later call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _quad_eigh(cutoff: int, axis: int):
    return _read_only(*np.linalg.eigh(quadrature_operator(cutoff, axis)))


class _CutoffTables(NamedTuple):
    """The arrays of the Fock engine that depend on the cutoff N alone (`_cutoff_tables`)."""

    levels: np.ndarray            # the column i = 0 ... N-1, (N, 1)
    lost: np.ndarray              # j - i, (N, N)
    upper: np.ndarray             # j >= i, (N, N)
    loss_binomials: np.ndarray    # log C(j, i) = lg[j] - lg[i] - lg[|j - i|], (N, N)
    heterodyne_binomials: np.ndarray  # log C(m + l, l) = lg[m + l] - lg[l] - lg[m], (N, N)
    heterodyne_powers: np.ndarray     # m + l + 1, (N, N)
    scale: float                  # 2^m, near 3N / e
    hankel: np.ndarray            # h[k] = k! / scale^k, k < 3N
    counts: np.ndarray            # 1 ... 2N-1
    # (d0, count, w) per block of offsets average_fidelity_fock contracts:
    # w[k, i, j] = h[i + j + d0 + k], a (count, N-d0, N-d0) view of h
    blocks: tuple


@lru_cache(maxsize=16)
def _cutoff_tables(cutoff: int) -> _CutoffTables:
    """The arrays of `_loss_table`, `_heterodyne_table`, `_prior_products`,
    `_prior_kernels` and `average_fidelity_fock` that depend on the cutoff N
    alone, built once per N.

    Each of those functions adds only the arithmetic of its parameters, in
    the order of its full formula, so every value is the same to the bit as
    that formula evaluated from scratch.  Every array is read-only, since
    all later calls at N share it.  The cache keeps the 16 most recently
    used cutoffs.  One entry at N = 180, the widest cutoff the engine
    accepts, holds 1.08 MB: four (N, N) float tables, an (N, N) mask and
    O(N) vectors.  So the cache holds at most 17.3 MB.
    """
    lg = np.array([math.lgamma(k + 1.0) for k in range(2 * cutoff)])    # log k!
    i = np.arange(cutoff)
    lost = i - i[:, None]
    loss_binomials = lg[:cutoff] - lg[:cutoff, None] - lg[np.abs(lost)]
    l, m = i[:, None], i
    heterodyne_binomials = lg[m + l] - lg[l] - lg[m]
    scale = 2.0 ** round(math.log2(3 * cutoff / math.e))
    hankel = np.arange(3 * cutoff) / scale
    hankel[0] = 1.0
    np.cumprod(hankel, out=hankel)
    hankel.flags.writeable = False    # first, so that its views below are read-only too
    step = hankel.itemsize
    blocks = []
    d0 = 0
    while d0 < cutoff:
        width = cutoff - d0
        count = min(width, max(1, _KERNEL_BLOCK // (width * width)))
        blocks.append((d0, count, np.ndarray((count, width, width), float, hankel,
                                             offset=d0 * step, strides=(step, step, step))))
        d0 += count
    return _CutoffTables(
        *_read_only(l.astype(float), lost.astype(float), lost >= 0, loss_binomials,
                    heterodyne_binomials, (m + l + 1).astype(float)),
        scale, hankel, _read_only(np.arange(1, 2 * cutoff, dtype=float))[0], tuple(blocks))


# ---------------------------------------------------------------------------
# states


def _operator(rho) -> np.ndarray:
    """A caller's operator as a complex array: one square matrix, or a (B, N, N) stack."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise InvalidInput("matrix must be square, or a stack of square matrices")
    return m


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


def coherent_ket(alpha, cutoff: int, weight_tol: float | None = 1e-10) -> np.ndarray:
    """Truncated coherent state |alpha>, its (cutoff,) amplitudes.

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
    ket = coherent_amplitudes([alpha], cutoff)[:, 0]
    kept = float(np.einsum("...i,...i->...", ket.conj(), ket).real)
    if weight_tol is not None and 1.0 - kept > weight_tol:
        raise CutoffTooSmall(
            f"coherent state at alpha = {alpha} keeps only {kept:.12f} "
            f"of its weight at cutoff {cutoff} (tolerance {weight_tol:g})")
    return ket


def thermal_state(lam: float, cutoff: int) -> np.ndarray:
    """Thermal state with Fock weights lam/(1+lam) * (1+lam)^-n (mean 1/lam), as a matrix."""
    if not (0 < lam < math.inf):
        raise InvalidInput(f"thermal parameter lambda must be positive and finite, got {lam}")
    n = np.arange(cutoff, dtype=float)
    weights = lam / (1.0 + lam) * (1.0 + lam) ** (-n)
    return np.diag(weights).astype(complex)


def displacement(alpha, cutoff: int) -> np.ndarray:
    """Unitary matrix of the displacement operator D(alpha), truncated.

    The product of the shifts exp(-i u x_minus) of x_plus by u = sqrt(2) Re alpha
    and exp(i v x_plus) of x_minus by v = sqrt(2) Im alpha (`_shift_unitaries`),
    so it is exactly unitary on the truncated space; it approximates the
    infinite-dimensional displacement up to edge effects near the cutoff.
    """
    alpha = complex(alpha)
    out = _shift_unitaries([_SQRT2 * alpha.real], 0, cutoff)[0]
    v = _SQRT2 * alpha.imag
    if v != 0.0:
        out = _shift_unitaries([v], 1, cutoff)[0] @ out
    return out


def squeeze(r: float, cutoff: int) -> np.ndarray:
    """Squeezing unitary exp(r (a^2 - a^dag^2)/2), truncated."""
    a = annihilation(cutoff)
    w, v = np.linalg.eigh(-0.5j * (a @ a - a.conj().T @ a.conj().T))  # Hermitian generator
    return (v * np.exp(1j * r * w)) @ v.conj().T


def rotation(theta: float, cutoff: int) -> np.ndarray:
    """Phase rotation exp(-i theta n)."""
    return np.diag(np.exp(-1j * theta * np.arange(cutoff)))


def gaussian_state_fock(d, gamma, cutoff: int) -> np.ndarray:
    """The density matrix of a Gaussian state (mean d, covariance gamma) in Fock space.

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
        rho = np.diag(np.eye(cutoff, dtype=complex)[0])
    else:
        # nu = n_mean + 1/2  ->  thermal parameter lam = 1/n_mean
        n_mean = nu - 0.5
        rho = thermal_state(1.0 / n_mean, cutoff)

    s = squeeze(r, cutoff)
    rho = s @ rho @ s.conj().T
    rot = rotation(-theta, cutoff)
    rho = rot @ rho @ rot.conj().T
    alpha = complex(d[0], d[1]) / _SQRT2
    dis = displacement(alpha, cutoff)
    return dis @ rho @ dis.conj().T


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
    """A channel's Fock map as a chain of factors, applied in order.

    Every factor has two methods: `apply(matrix)`, its own map on one
    operator or a (B, N, N) stack, and `kernel_blocks(cutoff)`, the real
    offset kernels (see `apply_offset_kernels`) of its phase average, a
    block of offsets at a time.  Calling the map on an operator (one
    matrix or a stack) applies the factors one after another;
    `real_kernel_blocks` composes their kernels, which is what
    `average_fidelity_fock` contracts.  The prior is phase-invariant, so a
    map and its phase average have the same average fidelity, and one
    object serves both.  No factors is the identity, as
    `KrausFamily("loss", 1.0)`.  `average_fidelity_fock` reads a map of one
    `KrausFamily` alone through its pair sums (`KrausFamily.pair_sum`), not
    its kernels: only chains and mixtures, whose kernels do not factor into
    pairs of one table's entries, go through `real_kernel_blocks`.
    """

    def __init__(self, *factors):
        self.factors = factors or (KrausFamily("loss", 1.0),)

    def real_kernel_blocks(self, cutoff: int) -> Callable[[int, int], np.ndarray]:
        """(d0, count) -> the stack of Re(A_d^(k) ... A_d^(1)), d = d0 ... d0+count-1.

        The stack is (count, N-d0, N-d0), with the kernel of offset d in the
        top left corner of its slice and zeros past N-d, so the factors'
        stacks compose with one batched matrix product each.  A Kraus
        family's kernels are real; a displacement mixture's are the real
        part of complex ones.  The real part of a product is the product of
        the real parts only while one factor at most is complex, so a chain
        of more than one mixture raises InvalidInput rather than compose a
        wrong real part.
        """
        mixtures = sum(isinstance(f, DisplacementMixture) for f in self.factors)
        if mixtures > 1:
            raise InvalidInput("the real kernels of a map hold at most one displacement "
                               f"mixture, got {mixtures}")
        chain = [f.kernel_blocks(cutoff) for f in self.factors]

        def real(d0, count):
            out = chain[0](d0, count)
            for block in chain[1:]:
                out = block(d0, count) @ out
            return out
        return real

    def __call__(self, rho) -> np.ndarray:
        out = _operator(rho)
        for factor in self.factors:
            out = factor.apply(out)
        return out


def _shifted(m: np.ndarray, count: int, rows: int, cols: int) -> np.ndarray:
    """The (count, a, b) stack s[k, i, j] = m[i + k rows, j + k cols] of an (a, b) array,
    zero past m's edge, for rows and cols 0 or 1.

    One offset is m itself; more read one zero-padded copy through a strided
    view, made by the `np.ndarray` constructor: called cold, `as_strided`
    took five times as long.
    """
    if count == 1:
        return m[None]
    a, b = m.shape
    pad = np.zeros((a + (count - 1) * rows, b + (count - 1) * cols))
    pad[:a, :b] = m
    s0, s1 = pad.strides
    return np.ndarray((count, a, b), float, pad, strides=(rows * s0 + cols * s1, s0, s1))


def _loss_table(cutoff: int, transmissivity: float) -> np.ndarray:
    """Pure loss's Kraus amplitudes t[i, j] = <i|A_(j-i)|j> = sqrt(C(j, i) T^i (1-T)^(j-i)),
    built in log space (A_k loses k photons; t is upper triangular).  T = 1 is the identity.

    The log binomials, the exponents i and j - i and the triangle j >= i
    depend on the cutoff alone: they come from `_cutoff_tables`, built once
    per cutoff for the 16 most recent cutoffs.  Each call adds the terms in
    T and takes the exponential over the triangle alone, so every value is
    bit for bit that of the full formula.
    """
    if transmissivity == 1.0:
        return np.eye(cutoff)
    tables = _cutoff_tables(cutoff)
    log_t = tables.loss_binomials + tables.levels * math.log(transmissivity)
    log_t += tables.lost * math.log1p(-transmissivity)
    log_t *= 0.5
    return np.exp(log_t, out=np.zeros((cutoff, cutoff)), where=tables.upper)


def _diagonal_pair_sum(t: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                       hankel: np.ndarray) -> float:
    """sum_delta sum_(a, b) u_delta[a] u_delta[b] h[a + b + delta] over the upper diagonals
    u_delta[a] = m[a, a + delta] of m = diag(rows) t diag(cols), for an (N, N) table t.

    m is written into one zero-padded (N, 2N) array, whose strided view
    u[delta, a] = pad[a, a + delta] holds the diagonals.  The Hankel matrices
    H_delta[a, b] = h[a + b + delta] are column windows of one (N, 2N-1)
    Hankel matrix g[a, c] = h[a + c], read as an (N, N, N) strided view, so
    the sum is one batched matrix-vector product and one dot product, and no
    (N, N, N) array is formed.  Each window has unit column stride, so BLAS
    takes the products, which an einsum over a strided view of h does not.
    """
    n = t.shape[0]
    pad = np.zeros((n, 2 * n))
    np.multiply(t, rows[:, None], out=pad[:, :n])
    pad[:, :n] *= cols
    step = pad.itemsize
    u = np.ascontiguousarray(np.ndarray((n, n), float, pad, strides=(step, (2 * n + 1) * step)))
    g = np.ndarray((n, 2 * n - 1), float, hankel, strides=(step, step)).copy()
    stack = np.ndarray((n, n, n), float, g, strides=(step, g.strides[0], step))
    return float(np.vdot(u, stack @ u[:, :, None]))


def _sheared(img: np.ndarray, cutoff: int) -> np.ndarray:
    """The view s[..., l, m] = img[..., l, l + m] of an (..., N, 2N-1) array: row l's
    entry m sits at flat index l (2N-1) + l + m = 2N l + m."""
    return np.ndarray(img.shape[:-1] + (cutoff,), img.dtype, img,
                      strides=img.strides[:-2] + (2 * cutoff * img.itemsize, img.itemsize))


def _antidiagonal_pair_sum(c: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                           hankel: np.ndarray) -> float:
    """sum_sigma h[sigma] S_sigma^2 over the anti-diagonal sums S_sigma of
    diag(rows) c diag(cols), for an (N, N) table c: one sheared write into an
    (N, 2N-1) array (`_sheared`) and one column sum."""
    n = c.shape[0]
    img = np.zeros((n, 2 * n - 1))
    sheared = _sheared(img, n)
    np.multiply(c, rows[:, None], out=sheared)
    sheared *= cols
    sums = img.sum(axis=0)
    return float(np.dot(hankel[:2 * n - 1], sums * sums))


def _table_blocks(t: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """Offset kernels A_d[i, j] = t[i+d, j+d] t[i, j] of an (N, N) table t, a block
    of offsets d0 ... d0+count-1 at a time (`_shifted` zero-pads the shifted table)."""
    cutoff = t.shape[0]

    def block(d0, count):
        width = cutoff - d0
        return _shifted(t[d0:, d0:], count, 1, 1) * t[:width, :width]
    return block


def _heterodyne_table(cutoff: int, gain: float, log_width: float) -> np.ndarray:
    """The log-space table c[l, m] = sqrt(C(m+l, l)) g^l w^(-(m+l+1)/2), given g and log w.

    Gain 0 leaves row 0 alone, w^(-(m+1)/2): all ones at w = 1.  The log
    binomials and the exponents m + l + 1 and l depend on the cutoff alone:
    they come from `_cutoff_tables`, built once per cutoff for the 16 most
    recent cutoffs.  Each call adds the terms in g and w, so every value is
    bit for bit that of the full formula.
    """
    tables = _cutoff_tables(cutoff)
    if gain == 0.0:
        c = np.zeros((cutoff, cutoff))
        c[0] = np.exp(-0.5 * tables.heterodyne_powers[0] * log_width)
        return c
    c = tables.heterodyne_powers * log_width
    np.subtract(tables.heterodyne_binomials, c, out=c)
    c *= 0.5
    c += tables.levels * math.log(gain)
    return np.exp(c, out=c)


def _heterodyne_blocks(cutoff: int, gain: float,
                       log_width: float) -> Callable[[int, int], np.ndarray]:
    """Offset kernels A_d[l, n] = c[l, n+d] c[l+d, n] of the table c of `_heterodyne_table`,
    a block of offsets d0 ... d0+count-1 at a time (`_shifted` zero-pads both shifts)."""
    c = _heterodyne_table(cutoff, gain, log_width)

    def block(d0, count):
        width = cutoff - d0
        return _shifted(c[:width, d0:], count, 0, 1) * _shifted(c[d0:, :width], count, 1, 0)
    return block


def heterodyne_images(cutoff: int, gain: float,
                      log_width: float) -> Callable[[np.ndarray], np.ndarray]:
    """phi -> the images K_s phi, s = 0 ... 2N-2, of the Kraus operators
    K_s = sum_l c[l, s-l] |l><s-l| on the table c of `_heterodyne_table`.

    A ket, or a (B, N) stack, maps to an (N, 2N-1) image matrix each,
    img[l, s] = c[l, s-l] phi[s-l]: row l holds c[l] * phi shifted right by l,
    written through one strided view, so img @ img^H = sum_s K_s |phi><phi| K_s^H.
    The K_s are Kraus operators of rho -> Phi(rho^T) for the map Phi with
    the offset kernels A_d[l, n] = c[l, n+d] c[l+d, n] (`_heterodyne_blocks`),
    so on the conjugate ket this equals that map on |phi><phi|, with no
    offset loop.  w = 1 + g^2 is heterodyne measure-and-prepare at gain g
    (`KrausFamily`); g = sqrt(eta), w = 1 + lam + eta is the probe score
    operator of `proofcheck`, up to lam.
    """
    c = _heterodyne_table(cutoff, gain, log_width)

    def images(phi):
        img = np.zeros(phi.shape[:-1] + (cutoff, 2 * cutoff - 1), dtype=complex)
        np.multiply(c, phi[..., None, :], out=_sheared(img, cutoff))
        return img
    return images


# Each Kraus family's parameter: what it is, and the range it must lie in.
_FAMILY_RANGES = {
    "loss": ("transmissivity", "in (0, 1]", lambda p: 0.0 < p <= 1.0),
    "amp": ("amplifier gain", ">= 1 and finite", lambda p: 1.0 <= p < math.inf),
    "heterodyne": ("re-preparation gain", ">= 0 and finite", lambda p: 0.0 <= p < math.inf),
}


def check_family_parameter(kind: str, p: float, name: str = None) -> None:
    """Refuse a Kraus family's parameter outside its range, or an unknown family.

    The refusal calls the parameter `name`, by default what it is (the
    transmissivity, or the amplifier or re-preparation gain).
    """
    if kind not in _FAMILY_RANGES:
        raise InvalidInput(f"unknown Kraus family {kind!r}")
    what, rule, within = _FAMILY_RANGES[kind]
    if not within(p):
        raise InvalidInput(f"{name or what} must be {rule}, got {p}")


@dataclass(frozen=True)
class KrausFamily:
    """A map that is one family of photon-number-shift Kraus operators, as an `OffsetMap` factor.

    Pure loss of transmissivity T (kind "loss"), the quantum-limited
    amplifier of gain G ("amp") and heterodyne measure-and-prepare at gain g
    ("heterodyne") are each one such family, all of whose matrix elements
    come from one table: `_loss_table` (at 1/G for the amplifier) or
    `_heterodyne_table`.  A family is its own phase average: `kernel_blocks`
    gives a block of its real offset kernels from the table at once, and
    `apply` maps operators through them.  Its parameter passes the one check
    `check_family_parameter`: T in (0, 1], G >= 1 or g >= 0, finite; T = 1
    and G = 1 are the identity.
    """

    kind: str
    parameter: float

    def __post_init__(self):
        check_family_parameter(self.kind, self.parameter)

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """The family's map on one matrix or a (B, N, N) stack (`apply_offset_kernels`)."""
        blocks = self.kernel_blocks(matrix.shape[-1])
        return apply_offset_kernels(matrix, lambda d: blocks(d, 1)[0])

    def kernel_blocks(self, cutoff: int) -> Callable[[int, int], np.ndarray]:
        """(d0, count) -> the zero-padded (count, N-d0, N-d0) stack of the kernels of
        offsets d0 ... d0+count-1 (see `OffsetMap.real_kernel_blocks`).

        Each stack is one multiply of two strided views of the table: loss
        t[i+d, m+d] t[i, m]; the amplifier of gain G as loss at 1/G,
        transposed, over G (its dual), read from a transposed copy of the
        table so that its stacks are C-contiguous; heterodyne c[l, n+d] c[l+d, n].
        """
        p = self.parameter
        if self.kind == "heterodyne":
            return _heterodyne_blocks(cutoff, p, math.log1p(p * p))
        if self.kind == "loss":
            return _table_blocks(_loss_table(cutoff, p))
        dual = _table_blocks(np.ascontiguousarray(_loss_table(cutoff, 1.0 / p).T))
        return lambda d0, count: dual(d0, count) / p

    def pair_sum(self, p: np.ndarray, hankel: np.ndarray, q: np.ndarray) -> float:
        """F = sum_d c_d <A_d, W_d> of the family alone, regrouped by Kraus pairs.

        W_d[i, j] = p[i] p[i+d] h[i+j+d] q[j] q[j+d] are the prior's kernels
        (`_prior_kernels`), given by the first N running products p and q and
        the Hankel array h.  Each term of A_d W_d multiplies two entries of
        one table scaled to diag(p) . diag(q), a Kraus pair, and summing over
        ordered pairs counts c_0 = 1 and c_d = 2:

        - loss, A_d[i, j] = t[i+d, j+d] t[i, j]: both entries lie on one
          diagonal delta = j - i of m = diag(p) t diag(q), so with u_delta
          that diagonal, F = sum_delta sum_(a, b) u_delta[a] u_delta[b] h[a+b+delta]
          (`_diagonal_pair_sum`), O(N^3);
        - the amplifier of gain G: the same on the loss table at 1/G, with p
          and q swapped, over G (its kernels are that table's, transposed,
          over G);
        - heterodyne, A_d[l, n] = c[l, n+d] c[l+d, n]: both entries lie on one
          anti-diagonal sigma = l + n + d of diag(p) c diag(q), so the pair
          sum is a perfect square, F = sum_sigma h[sigma] S_sigma^2 over its
          anti-diagonal sums S_sigma (`_antidiagonal_pair_sum`), O(N^2).
        """
        g = self.parameter
        n = p.size
        if self.kind == "heterodyne":
            return _antidiagonal_pair_sum(_heterodyne_table(n, g, math.log1p(g * g)), p, q,
                                          hankel)
        if self.kind == "loss":
            return _diagonal_pair_sum(_loss_table(n, g), p, q, hankel)
        return _diagonal_pair_sum(_loss_table(n, 1.0 / g), q, p, hankel) / g


def apply_loss(rho, transmissivity: float) -> np.ndarray:
    """Pure attenuation of transmissivity T via its photon-loss Kraus family.

    Exactly trace preserving on the truncated space (loss never populates
    levels above the input's support).
    """
    return KrausFamily("loss", float(transmissivity)).apply(_operator(rho))


def apply_amp(rho, gain: float) -> np.ndarray:
    """Quantum-limited amplifier of gain G >= 1 via its Kraus family.

    Its offset kernels are those of loss at 1/G, transposed, over G (see
    `KrausFamily.kernel_blocks`).  Weight pushed past the cutoff is dropped,
    not renormalized, and shows as a trace below the input's; the entries
    kept are exact.  `average_fidelity_fock` does not read the
    deficit: because the kept entries are exact, its closed-form bound on
    cutting the input and target kets covers it.
    """
    return KrausFamily("amp", float(gain)).apply(_operator(rho))


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
    0).  `apply` is the step itself on operators, as one Hadamard product.
    Its phase average has the complex offset kernels
    A_d = sum_s w_s W_s[d:, d:] * conj(W_s[:N-d, :N-d]); `kernel_blocks`
    gives Re A_d, all that the prior average reads, in real arithmetic.
    Each is built per call, and nothing is kept.

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
        if not np.isfinite(self.beta):
            raise InvalidInput(f"displacement mean beta must be finite, got {self.beta}")

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

    def kernel_blocks(self, cutoff: int) -> Callable[[int, int], np.ndarray]:
        """(d0, count) -> the zero-padded (count, N-d0, N-d0) stack of Re A_d0 ... Re A_(d0+count-1)
        (see `OffsetMap.real_kernel_blocks`), one einsum per offset over the real stack
        X = [sqrt(w) Re W; sqrt(w) Im W], written into its slice of the stack:
        Re(W[i+d, j+d] conj(W[i, j])) = Re W Re W + Im W Im W, so
        Re A_d = sum_s' X[s', d:, d:] * X[s', :N-d, :N-d]."""
        weights, u = self.unitaries(cutoff)
        k = weights.size
        root = np.sqrt(weights)[:, None, None]
        x = np.empty((2 * k, cutoff, cutoff))
        np.multiply(root, u.real, out=x[:k])
        np.multiply(root, u.imag, out=x[k:])

        def block(d0, count):
            width = cutoff - d0
            out = np.zeros((count, width, width))
            for j, d in enumerate(range(d0, d0 + count)):
                np.einsum("sij,sij->ij", x[:, d:, d:], x[:, :cutoff - d, :cutoff - d],
                          out=out[j, :width - j, :width - j])
            return out
        return block

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


def gaussian_mixture_of_displacements(rho, variance: float, axis: int) -> np.ndarray:
    """Classical Gaussian displacement noise along one quadrature axis.

    sum_s w_s W_s rho W_s^dag over the unitaries of `mixture_unitaries`,
    as `DisplacementMixture.apply` sums it.  Exactly trace preserving (each
    conjugation is unitary on the truncated space).
    """
    return DisplacementMixture(variance, axis).apply(_operator(rho))


# ---------------------------------------------------------------------------
# functionals


def _clipped_fidelity(value: float) -> float:
    """A fidelity clipped into [0, 1].  One outside beyond 1e-10, or not finite,
    is a corrupted input: a NaN fails both comparisons, so it is refused too."""
    if not -1e-10 <= value <= 1.0 + 1e-10:
        raise InvalidInput(f"fidelity {value} outside [0, 1] beyond rounding tolerance")
    return 0.0 if value <= 0.0 else min(value, 1.0)


def fidelity_pure(psi, rho):
    """<psi| rho |psi>, checked real and clipped into [0, 1].

    A single ket and operator give a float; a stack of kets and an equally
    long stack of operators give one fidelity per pair.  A value outside
    [0, 1] beyond 1e-10 or not finite (`_clipped_fidelity`), or an imaginary
    part above 1e-12, is treated as a corrupted input rather than silently
    absorbed.
    """
    rho = _operator(rho)
    amp = np.atleast_1d(np.asarray(psi, dtype=complex))
    if amp.shape[-1] != rho.shape[-1]:
        raise InvalidInput(f"cutoff mismatch: vector {amp.shape[-1]} vs operator {rho.shape[-1]}")
    if amp.shape[:-1] != rho.shape[:-2]:
        raise InvalidInput(f"stack mismatch: {amp.shape[:-1]} vectors vs "
                           f"{rho.shape[:-2]} operators")
    values = np.atleast_1d(np.einsum("...i,...i->...", amp.conj(),
                                     (rho @ amp[..., None])[..., 0]))
    real = values.real
    non_real = np.abs(values.imag) > 1e-12 * np.maximum(1.0, np.abs(real))
    if non_real.any():
        raise InvalidInput(f"fidelity came out non-real ({values[non_real][0]}); "
                           f"operator is not Hermitian")
    fidelities = [_clipped_fidelity(value) for value in real.tolist()]
    return fidelities[0] if amp.ndim == 1 else np.array(fidelities)


def expectation(rho, op: np.ndarray):
    """tr(rho op): a complex number, or one per operator of a stack."""
    return np.trace(_operator(rho) @ op, axis1=-2, axis2=-1)


def mean_and_covariance(rho):
    """Quadrature mean vector and covariance matrix of a Fock-space state (or a stack of each).

    Moments are taken literally on the truncated operator (no renormalizing),
    so a large trace deficit shows up here as biased moments.
    """
    rho = _operator(rho)
    a = annihilation(rho.shape[-1])
    exp_a = expectation(rho, a)
    exp_aa = expectation(rho, a @ a)
    exp_n = expectation(rho, a.conj().T @ a).real
    mean = np.stack([_SQRT2 * exp_a.real, _SQRT2 * exp_a.imag], axis=-1)
    xx = exp_aa.real + exp_n + 0.5 - mean[..., 0] ** 2
    pp = -exp_aa.real + exp_n + 0.5 - mean[..., 1] ** 2
    xp = exp_aa.imag - mean[..., 0] * mean[..., 1]
    return mean, np.stack([xx, xp, xp, pp], axis=-1).reshape(mean.shape + (2,))


def trace_distance(rho, sigma):
    """(1/2) ||rho - sigma||_1 on the truncated space: a float, or one per pair of a stack."""
    rho, sigma = _operator(rho), _operator(sigma)
    if rho.shape != sigma.shape:
        raise InvalidInput(f"trace distance needs one shape, got {rho.shape} and {sigma.shape}")
    diff = rho - sigma
    eigs = np.linalg.eigvalsh(0.5 * (diff + diff.conj().swapaxes(-2, -1)))
    return 0.5 * np.abs(eigs).sum(axis=-1)


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


def _prior_products(eta: float, lam: float, cutoff: int):
    """(p, q), the 2N running products of the prior's kernels (`_prior_kernels`)."""
    tables = _cutoff_tables(cutoff)
    width = lam + 1.0 + eta
    ratios = (tables.scale / width) / tables.counts
    p = np.cumprod(np.sqrt(np.concatenate(([lam / width], eta * ratios))))
    q = np.cumprod(np.sqrt(np.concatenate(([1.0], ratios))))
    return p, q


def _prior_kernels(eta: float, lam: float, cutoff: int):
    """(P, h, Q) with W_d[i, j] = P[d, i] h[i + j + d] Q[d, j]: the prior's kernels.

    W_d[i, j] is the prior average of u_d[i] v_d[j] (`average_fidelity_fock`).
    With t = r^2 of density lam exp(-lam t) and s = lam + 1 + eta, the integral
    of t^k exp(-s t) is k! / s^(k+1), so

      W_d[i, j] = lam eta^(i+d/2) (i+j+d)! / (s^(i+j+d+1) sqrt(i! (i+d)! j! (j+d)!)):

    the Hankel array h[k] = k! / 2^(m k) between P[d, i] = p[i] p[i+d] and
    Q[d, j] = q[j] q[j+d], where p[i] = sqrt(lam / s) (2^m eta / s)^(i/2) / sqrt(i!)
    and q[j] = (2^m / s)^(j/2) / sqrt(j!).  All three are running products.
    The power of two 2^m, near 3N / e, keeps them in float range up to k = 3N
    and scales exactly, so the only constant that compounds over k is 2^m / s,
    rounded once: a log-space form, whose exponents of size k each round,
    was up to 9e-16 off a 40-digit contraction at N = 40, these products
    2e-16.  P and Q are (N, N) and h holds 3N entries, so a strided view
    reads the Hankel block of any offsets.  Past N - d, row d of P and Q
    holds finite values of the same formula, which meet the zeros that pad
    a block of kernels.  h and 2^m depend on N alone: they come, read-only,
    from `_cutoff_tables`, built once per cutoff for the 16 most recent
    cutoffs, and P and Q take the same operations as the full formula, so
    every value is bit for bit its own.  p and q come from
    `_prior_products`, which the pair sums of a lone Kraus family
    (`KrausFamily.pair_sum`) read as they are: those need no P or Q.
    """
    p, q = _prior_products(eta, lam, cutoff)
    # row d holds x[i + d], a strided view, times x[i]
    pairs = [np.ndarray((cutoff, cutoff), float, x, strides=(x.itemsize, x.itemsize))
             * x[:cutoff] for x in (p, q)]
    return pairs[0], _cutoff_tables(cutoff).hankel, pairs[1]


class FockAverage(NamedTuple):
    value: float
    error: float


def average_fidelity_fock(offset_map: OffsetMap, eta: float, lam: float,
                          cutoff: int | None = None,
                          max_error: float | None = None) -> FockAverage:
    """Prior-averaged task fidelity of a Fock-space map, given as an `OffsetMap`.

    It averages <sqrt(eta) r| Phi(|r><r|) |sqrt(eta) r> over the prior of
    width lam on the truncated space, exactly up to rounding and with no
    quadrature rule, for Phi the phase average of the map.  The prior is
    phase-invariant, so that is the prior average of the map's own task
    fidelity: one real amplitude per radius carries the whole phase average.
    Phi must be an `OffsetMap` (as `schemes.fock_applier` builds); any other
    callable is refused.  No operator is formed.  For the real kets phi at r
    and psi at sqrt(eta) r, Phi's composed kernels A_d give

      F(r) = sum_d c_d  u_d . Re(A_d) v_d,   v_d = phi[d:] * phi[:N-d],
                                             u_d = psi[d:] * psi[:N-d],

    with c_0 = 1 and c_d = 2 for d >= 1.  Only Re A_d enters: the kets are
    real, and the entries above the diagonal map through conj(A_d), so they
    add the complex conjugate of the entries below it.  The prior average of
    u_d v_d^T is W_d, in closed form (`_prior_kernels`), so the average is
    one contraction, F = sum_d c_d <Re A_d, W_d>.

    A map that is one `KrausFamily` alone (pure loss, the quantum-limited
    amplifier, heterodyne measure-and-prepare, or the identity `OffsetMap()`)
    is averaged in closed form by its Kraus pairs (`KrausFamily.pair_sum`):
    O(N^2) for heterodyne, one batched Hankel matrix-vector product for loss
    and the amplifier, with no kernel formed.  Every other map (a chain of
    factors, or a displacement mixture) is contracted through
    `OffsetMap.real_kernel_blocks`, since its kernels do not factor into
    pairs of one table's entries.  That reads a block of offsets
    d0 ... d0+c-1 at a time: the chain's zero-padded (c, N-d0, N-d0) kernel
    stack times the Hankel view of W's block, then one batched
    matrix-vector product and one dot product with W's two diagonal
    factors; the blocks' sums are added exactly.  A block holds at most
    _KERNEL_BLOCK kernel entries, so the widest cutoffs keep one kernel in
    memory.  On either path a total outside [0, 1] beyond 1e-10, or not
    finite, is an error; the total is clipped into [0, 1]
    (`_clipped_fidelity`).  The default cutoff comes from `select_cutoff`;
    no cutoff above 180 is accepted.

    The error estimate bounds the truncation.  With the truncated prior
    weights tau_in and tau_out (`truncated_prior_weights`) it is
    2 sqrt(tau_in) + 2 sqrt(tau_out) + tau_out, the gentle-measurement bound
    on cutting each input and target ket averaged over the prior with
    Jensen's inequality, which holds for maps whose output entries below the
    cutoff are exact.  A roundoff floor of cutoff^2 times the machine epsilon
    is added: the log-space kernel tables lose a relative 1e-13 or so at the
    widest cutoffs.  Raises CutoffTooSmall when `max_error` is given and
    exceeded.
    """
    if not isinstance(offset_map, OffsetMap):
        raise InvalidInput(
            f"the prior average needs a map given by its offset-kernel factors "
            f"(an OffsetMap, e.g. from schemes.fock_applier), "
            f"got {offset_map!r}")
    _check_prior(eta, lam)
    if cutoff is None:
        cutoff = select_cutoff(eta, lam)
    elif not 1 <= cutoff <= _MAX_AUTO_CUTOFF:
        raise InvalidInput(f"cutoff must be between 1 and {_MAX_AUTO_CUTOFF}, got {cutoff}")

    factors = offset_map.factors
    if len(factors) == 1 and isinstance(factors[0], KrausFamily):
        p, q = _prior_products(eta, lam, cutoff)
        total = factors[0].pair_sum(p[:cutoff], _cutoff_tables(cutoff).hankel, q[:cutoff])
    else:
        left, _, right = _prior_kernels(eta, lam, cutoff)
        left[0] *= 0.5    # c_0 = 1 and c_d = 2: the sum is doubled below, exactly
        blocks = offset_map.real_kernel_blocks(cutoff)
        sums = []
        # w is the Hankel block of W_d0 ... W_(d0+count-1) (`_cutoff_tables`)
        for d0, count, w in _cutoff_tables(cutoff).blocks:
            width = cutoff - d0
            rows = (blocks(d0, count) * w) @ right[d0:d0 + count, :width, None]
            sums.append(np.vdot(left[d0:d0 + count, :width], rows))
        total = 2.0 * math.fsum(sums)
    total = _clipped_fidelity(total)
    tau_in, tau_out = truncated_prior_weights(eta, lam, cutoff)
    roundoff = cutoff * cutoff * sys.float_info.epsilon
    err = 2.0 * math.sqrt(tau_in) + 2.0 * math.sqrt(tau_out) + tau_out + roundoff
    if max_error is not None and err > max_error:
        raise CutoffTooSmall(
            f"fidelity average did not converge: at lambda = {lam:g} and cutoff {cutoff} "
            f"the prior keeps weight tau_in = {tau_in:.3g} of the inputs |alpha> and "
            f"tau_out = {tau_out:.3g} of the targets |sqrt(eta) alpha> at or above the "
            f"cutoff; value {total:.9g} with error estimate {err:.3g} exceeds the "
            f"requested bound {max_error:g}")
    return FockAverage(total, err)
