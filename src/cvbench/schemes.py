"""Channel models: canonical Gaussian families and measure-and-prepare schemes.

A `ChannelModel` is a small tagged description (pure loss, quantum-limited
amplification, the two canonical Gaussian noise forms, heterodyne
measure-and-prepare, or a composition).  Every model lowers to an exact
Gaussian channel via `to_gaussian` and to a truncated Fock-space map via
`fock_applier`: loss followed by amplification, exact below the cutoff, plus
a one-axis displacement mixture for anisotropic noise (CanonicalB1).
Heterodyne measure-and-prepare has its own closed-form matrix elements
(`apply_mp_fock`), derived from the measurement, not from (K, M).  The Fock
engine's prior average consumes the phase average of that map
(`phase_averaged_applier`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import fock
from .bounds import classical_bound
from .errors import (ConvergenceError, InvalidInput, NotCompletelyPositive,
                     UnsupportedTask)
from .gaussian import (E2, GaussianChannel, compose as compose_channels,
                       is_cp_channel, isotropic_part)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PureLoss:
    """Beamsplitter attenuation of transmissivity T in (0, 1]."""

    T: float

    def __post_init__(self):
        if not (0.0 < self.T <= 1.0):
            raise InvalidInput(f"transmissivity must be in (0, 1], got {self.T}")


@dataclass(frozen=True)
class QuantumLimitedAmp:
    """Phase-insensitive amplifier of gain G >= 1 at the quantum noise limit."""

    G: float

    def __post_init__(self):
        if not (self.G >= 1.0):
            raise InvalidInput(f"amplifier gain must be >= 1, got {self.G}")


@dataclass(frozen=True)
class CanonicalB1:
    """Unit-gain channel adding 1/2 unit of classical noise to one quadrature."""


@dataclass(frozen=True)
class CanonicalC:
    """Attenuation/amplification of gain eta with ntilde added thermal-like noise."""

    eta: float
    ntilde: float

    def __post_init__(self):
        if not (self.eta > 0):
            raise InvalidInput(f"channel gain eta must be positive, got {self.eta}")
        if not (self.ntilde >= 0):
            raise InvalidInput(f"added noise ntilde must be >= 0, got {self.ntilde}")


@dataclass(frozen=True)
class HeterodyneMP:
    """Heterodyne measurement followed by re-preparation of |g * outcome>."""

    g: float

    def __post_init__(self):
        if not (self.g >= 0):
            raise InvalidInput(f"re-preparation gain must be >= 0, got {self.g}")


@dataclass(frozen=True)
class Compose:
    """Sequential composition; parts are applied in list order."""

    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise InvalidInput("composition needs at least one part")
        for p in self.parts:
            if not isinstance(p, _MODEL_TYPES):
                raise InvalidInput(f"not a channel model: {p!r}")


ChannelModel = Union[PureLoss, QuantumLimitedAmp, CanonicalB1, CanonicalC,
                     HeterodyneMP, Compose]
_MODEL_TYPES = (PureLoss, QuantumLimitedAmp, CanonicalB1, CanonicalC,
                HeterodyneMP, Compose)

_JSON_TAGS = {
    PureLoss: "pure_loss",
    QuantumLimitedAmp: "quantum_limited_amp",
    CanonicalB1: "canonical_b1",
    CanonicalC: "canonical_c",
    HeterodyneMP: "heterodyne_mp",
    Compose: "compose",
}


def model_to_json(model: ChannelModel) -> dict:
    tag = _JSON_TAGS[type(model)]
    if isinstance(model, PureLoss):
        return {"type": tag, "T": model.T}
    if isinstance(model, QuantumLimitedAmp):
        return {"type": tag, "G": model.G}
    if isinstance(model, CanonicalB1):
        return {"type": tag}
    if isinstance(model, CanonicalC):
        return {"type": tag, "eta": model.eta, "ntilde": model.ntilde}
    if isinstance(model, HeterodyneMP):
        return {"type": tag, "g": model.g}
    return {"type": tag, "parts": [model_to_json(p) for p in model.parts]}


def model_from_json(obj) -> ChannelModel:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidInput("channel model JSON must be an object with a 'type' tag")
    tag = obj["type"]
    try:
        if tag == "pure_loss":
            return PureLoss(float(obj["T"]))
        if tag == "quantum_limited_amp":
            return QuantumLimitedAmp(float(obj["G"]))
        if tag == "canonical_b1":
            return CanonicalB1()
        if tag == "canonical_c":
            return CanonicalC(float(obj["eta"]), float(obj["ntilde"]))
        if tag == "heterodyne_mp":
            return HeterodyneMP(float(obj["g"]))
        if tag == "compose":
            return Compose([model_from_json(p) for p in obj["parts"]])
    except KeyError as exc:
        raise InvalidInput(f"channel model '{tag}' is missing field {exc}") from exc
    raise InvalidInput(f"unknown channel model type {tag!r}")


def _iso_params(model):
    """(k_squared, added_noise) for isotropic models, None otherwise.

    Folding compositions in these scalar parameters (one square root at the
    very end) keeps algebraically equal channels bit-for-bit equal, e.g.
    amplification after loss with G = 1/T reproduces the unit-gain classical
    noise channel exactly.
    """
    if isinstance(model, PureLoss):
        return model.T, (1.0 - model.T) / 2.0
    if isinstance(model, QuantumLimitedAmp):
        return model.G, (model.G - 1.0) / 2.0
    if isinstance(model, CanonicalC):
        return model.eta, model.ntilde + abs(1.0 - model.eta) / 2.0
    if isinstance(model, HeterodyneMP):
        return model.g * model.g, (1.0 + model.g * model.g) / 2.0
    if isinstance(model, Compose):
        k2, m = 1.0, 0.0
        for part in model.parts:
            sub = _iso_params(part)
            if sub is None:
                return None
            k2_p, m_p = sub
            k2, m = k2 * k2_p, k2_p * m + m_p
        return k2, m
    return None


def to_gaussian(model: ChannelModel) -> GaussianChannel:
    """Exact Gaussian form (K, M) of a channel model."""
    iso = _iso_params(model)
    if iso is not None:
        k2, m = iso
        return GaussianChannel(math.sqrt(k2) * E2, m * E2)
    if isinstance(model, CanonicalB1):
        return GaussianChannel(E2.copy(), np.diag([0.5, 0.0]))
    if isinstance(model, Compose):
        chan = GaussianChannel.identity()
        for part in model.parts:
            chan = compose_channels(to_gaussian(part), chan)
        return chan
    raise InvalidInput(f"not a channel model: {model!r}")


def qd_by_parameters(model: ChannelModel) -> bool:
    """Quantum-domain classification of the canonical Gaussian families."""
    if isinstance(model, CanonicalB1):
        return True
    if isinstance(model, CanonicalC):
        return model.ntilde < min(1.0, model.eta)
    if isinstance(model, PureLoss):
        return True  # ntilde = 0 attenuation
    if isinstance(model, QuantumLimitedAmp):
        return True
    raise InvalidInput(f"no canonical quantum-domain classification for {model!r}")


def canonical_c_fidelity(eta: float, ntilde: float) -> float:
    """Gain-matched average fidelity 2 / (1 + eta + |1 - eta| + 2 ntilde) of CanonicalC.

    Prior-independent, since the channel's gain equals the task's.
    """
    return 2.0 / (1.0 + eta + abs(1.0 - eta) + 2.0 * ntilde)


# ---------------------------------------------------------------------------
# measure-and-prepare closed forms


def optimal_mp_gain(eta: float, lam: float) -> float:
    """Re-preparation gain maximizing the heterodyne strategy: sqrt(eta)/(1+lam)."""
    if eta <= 0:
        raise InvalidInput(f"task gain eta must be positive, got {eta}")
    if lam < 0:
        raise InvalidInput(f"prior width lambda must be >= 0, got {lam}")
    return math.sqrt(eta) / (1.0 + lam)


def mp_average_fidelity(g: float, eta: float, lam: float) -> float:
    """Average task fidelity of the heterodyne measure-and-prepare scheme.

    Closed form lam / [lam (1 + g^2) + (g - sqrt(eta))^2], a sum of
    non-negative terms (the equivalent difference form
    (1 + g^2)(1 + lam + eta) - (1 + g sqrt(eta))^2 loses ~1e-14 to
    cancellation near the optimum).  The lam -> 0 limit is 1/(1 + eta) at
    matched gain and 0 otherwise.
    """
    if g < 0:
        raise InvalidInput(f"re-preparation gain must be >= 0, got {g}")
    if eta <= 0:
        raise InvalidInput(f"task gain eta must be positive, got {eta}")
    if lam < 0:
        raise InvalidInput(f"prior width lambda must be >= 0, got {lam}")
    sqrt_eta = math.sqrt(eta)
    if lam == 0:
        return 1.0 / (1.0 + eta) if g == sqrt_eta else 0.0
    den = lam * (1.0 + g * g) + (g - sqrt_eta) ** 2
    return lam / den


def optimize_mp_gain(eta: float, lam: float, grid=None):
    """Numerically locate the best heterodyne gain; returns (g_best, fidelity).

    Coarse grid search over [0, 3 sqrt(eta)] followed by golden-section
    refinement.  The peak is locally quadratic, so value-only search resolves
    the argmax to about sqrt(eps) ~ 1e-7 at best; the fidelity itself is good
    to ~1e-15.  The optimum never exceeds the classical bound (up to
    roundoff), which callers are welcome to assert.
    """
    if lam <= 0:
        raise InvalidInput("gain optimization needs lambda > 0 (otherwise the optimum is trivial)")
    if grid is None:
        grid = np.linspace(0.0, 3.0 * math.sqrt(eta), 1201)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 3:
        raise InvalidInput("gain grid needs at least 3 points")
    vals = np.array([mp_average_fidelity(g, eta, lam) for g in grid])
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    g_best = _golden_max(lambda g: mp_average_fidelity(g, eta, lam), lo, hi, tol=1e-10)
    return g_best, mp_average_fidelity(g_best, eta, lam)


def _golden_max(f, a, b, tol):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Fock-space realizations


def apply_mp_fock(scheme: HeterodyneMP, rho: fock.FockOperator,
                  max_trace_deficit: float | None = 1e-4) -> fock.FockOperator:
    """Heterodyne measure-and-prepare applied to a truncated state, in closed form.

    Measuring beta with density <beta|rho|beta>/pi and re-preparing |g beta>
    has the exact matrix elements

        <k|Phi(|m><n|)|l> = delta(m+l, n+k) g^(k+l) (m+l)! / ((1+g^2)^(m+l+1) sqrt(m! n! k! l!)),

    which conserve the offset d = m - n = k - l (see `fock.apply_offset_kernels`)
    with kernels A_d[l, n] = c[l, n+d] c[l+d, n] of one log-space table
    c[l, m] = sqrt(C(m+l, l)) g^l (1+g^2)^(-(m+l+1)/2).  The kernel comes from
    the outcome integral, not from the channel's (K, M), so it stays an
    independent check of `to_gaussian`.  Re-prepared weight past the cutoff
    is dropped, not renormalized: a trace deficit beyond `max_trace_deficit`
    in any state raises (None turns the check off).
    """
    if not isinstance(scheme, HeterodyneMP):
        raise InvalidInput("apply_mp_fock expects a HeterodyneMP scheme")
    g, n = scheme.g, rho.cutoff
    if g == 0.0:
        out = np.zeros(rho.matrix.shape, dtype=complex)
        out[..., 0, 0] = np.trace(rho.matrix, axis1=-2, axis2=-1)  # every outcome prepares |0>
    else:
        lg = fock._lgamma_table(2 * n)
        l, m = np.arange(n)[:, None], np.arange(n)
        c = np.exp(0.5 * (lg[m + l] - lg[l] - lg[m] - (m + l + 1) * math.log1p(g * g))
                   + l * math.log(g))
        out = fock.apply_offset_kernels(rho.matrix, lambda d: c[:n - d, d:] * c[d:, :n - d])
    result = fock.FockOperator(out)
    if max_trace_deficit is not None:
        deficit = np.atleast_1d(rho.trace - result.trace)
        worst = int(np.argmax(deficit))
        if deficit[worst] > max_trace_deficit:
            raise ConvergenceError(
                f"re-prepared states reach past the cutoff: trace fell by "
                f"{deficit[worst]:.3g} (> {max_trace_deficit:g}); raise the cutoff",
                value=float(np.atleast_1d(result.trace)[worst]),
                error=float(deficit[worst]))
    return result


def fock_applier(model: ChannelModel | GaussianChannel):
    """Truncated-space realization of a model as a map FockOperator -> FockOperator.

    The map takes one operator or a stack of them (see `fock.FockOperator`).
    Heterodyne measure-and-prepare uses its own closed-form matrix elements
    (`apply_mp_fock`) and a composition applies its parts in order.  Every
    other model, and a raw GaussianChannel, is realized from its exact
    Gaussian form by `fock_applier_for_gaussian`: loss, then a
    quantum-limited amplifier, then a displacement mixture on one axis for
    anisotropic noise only.  `fock.average_fidelity_fock` wants the phase
    average of this map, which `phase_averaged_applier` builds.
    """
    if isinstance(model, HeterodyneMP):
        # Ensemble-averaging code feeds in states near the truncation edge on
        # purpose and accounts for the weight lost past the cutoff itself, so
        # the applier must not trip on a trace deficit of its own.
        return lambda rho: apply_mp_fock(model, rho, max_trace_deficit=None)
    if isinstance(model, Compose):
        parts = [fock_applier(p) for p in model.parts]

        def apply_seq(rho):
            for f in parts:
                rho = f(rho)
            return rho
        return apply_seq
    return fock_applier_for_gaussian(
        model if isinstance(model, GaussianChannel) else to_gaussian(model))


def _loss_amp_realization(channel: GaussianChannel):
    """(T, G, remainder, axis, beta) of the Gaussian channel's Fock realization.

    Covers K = k I with diagonal added noise at or above the floor |1 - k^2|/2.
    The isotropic noise m = min(M00, M11) is pure loss T = k^2/G followed by a
    quantum-limited amplifier of gain G = m + (1 + k^2)/2 (Caruso, Giovannetti
    and Holevo, NJP 8, 310, 2006), exact below the cutoff; an anisotropic
    remainder is displacement noise of that variance on `axis`, and beta is
    the mean as a coherent amplitude.  Channels needing phase-space rotation
    or squeezing pre-processing raise UnsupportedTask.
    """
    if not is_cp_channel(channel):
        raise NotCompletelyPositive(
            "channel (K, M) fails the complete-positivity criterion")
    M, disp = channel.M, channel.disp
    k = isotropic_part(channel.K)
    if k is None or k <= 0:
        raise UnsupportedTask(
            "truncated realization covers K proportional to the identity only")
    if abs(M[0, 1]) > 1e-12 or abs(M[1, 0]) > 1e-12:
        raise UnsupportedTask(
            "rotated added-noise matrices are not covered; diagonalize first")
    k2 = k * k
    floor = abs(1.0 - k2) / 2.0
    extra = np.array([M[0, 0], M[1, 1]]) - floor
    if extra.min() < -1e-9:
        raise UnsupportedTask(
            "noise below the quantum-limited floor on one axis needs squeezing, "
            "which is not covered")
    # Roundoff in k = sqrt(T) leaves ~1e-17 of "extra" noise on a quantum-limited
    # channel; it is dropped, so such a channel is one exact loss or gain.
    extra = np.where(extra > 1e-12, extra, 0.0)
    # G = m + (1 + k^2)/2 = max(1, k^2) + min(extra), so G >= 1 and T <= 1 exactly
    gain = max(1.0, k2) + extra.min()
    axis = int(np.argmax(extra))
    beta = (disp[0] + 1j * disp[1]) / _SQRT2
    return k2 / gain, gain, extra[axis] - extra.min(), axis, beta


def fock_applier_for_gaussian(channel: GaussianChannel):
    """Truncated realization of a raw Gaussian channel, where one exists here.

    Loss, then a quantum-limited amplifier, then a classical displacement
    mixture on one axis for an anisotropic remainder only, and a final
    displacement by the mean (`_loss_amp_realization` says what is covered).
    """
    T, gain, remainder, axis, beta = _loss_amp_realization(channel)

    def apply(rho):
        out = fock.apply_amp(fock.apply_loss(rho, T), gain)
        if remainder > 0:
            out = fock.gaussian_mixture_of_displacements(out, remainder, axis=axis)
        if abs(beta) > 0:
            dmat = fock.displacement(beta, out.cutoff)
            out = fock.FockOperator(dmat @ out.matrix @ dmat.conj().T)
        return out

    return apply


def phase_averaged_applier(model: ChannelModel | GaussianChannel):
    """Phase average of a model's Fock realization, as `fock.average_fidelity_fock` needs.

    The average over rotations U = exp(-i theta n) of U^dag Phi(U rho U^dag) U
    keeps the part of the map that conserves the photon-number offset, so
    one real amplitude per radius gives the channel's full phase average.
    Phase-covariant models (loss, amplification, CanonicalC, heterodyne
    measure-and-prepare and their compositions) are their own phase average.
    Every other model, compositions containing one included, and a raw
    GaussianChannel are realized from their exact Gaussian form: the
    loss-then-amplifier part of `fock_applier_for_gaussian`, then the phase
    average of rho -> sum_s w_s W_s rho W_s^dag over the unitaries
    W_s = D(beta) exp(-i s X) of the displacement mixture and the mean,
    applied as the offset kernels A_d = sum_s w_s W_s[d:, d:] * conj(W_s[:N-d, :N-d]),
    built once per cutoff.
    """
    if _iso_params(model) is not None:
        return fock_applier(model)
    T, gain, remainder, axis, beta = _loss_amp_realization(
        model if isinstance(model, GaussianChannel) else to_gaussian(model))

    @lru_cache(maxsize=1)
    def kernels(n):
        # a remainder of 0 gives 20 copies of the identity, up to roundoff
        weights, unitaries = fock.mixture_unitaries(remainder, axis, n)
        if abs(beta) > 0:
            unitaries = fock.displacement(beta, n) @ unitaries
        return [np.einsum("s,sij,sij->ij", weights, unitaries[:, d:, d:],
                          unitaries[:, :n - d, :n - d].conj()) for d in range(n)]

    def apply(rho):
        out = fock.apply_amp(fock.apply_loss(rho, T), gain).matrix
        if remainder > 0 or abs(beta) > 0:
            out = fock.apply_offset_kernels(out, kernels(rho.cutoff).__getitem__)
        return fock.FockOperator(out)

    return apply
