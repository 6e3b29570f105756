"""Channel models: canonical Gaussian families and measure-and-prepare schemes.

A `ChannelModel` is a small tagged description (pure loss, quantum-limited
amplification, the two canonical Gaussian noise forms, heterodyne
measure-and-prepare, or a composition).  Every model lowers to an exact
Gaussian channel via `to_gaussian`, and once to its Fock realization
(`_realization`): offset-kernel factors (`fock.KrausFamily`), loss followed
by amplification, exact below the cutoff, or heterodyne measure-and-prepare's
closed-form outcome-integral kernels, derived from the measurement, not from (K, M);
then, for anisotropic noise or a mean, one factor that mixes displacement
unitaries (`fock.DisplacementMixture`).  `fock_applier` gives that
realization as one `fock.OffsetMap`: it maps operators, and its kernels are
what the Fock engine's prior average contracts.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import fock
from .bounds import _check_prior, _check_task, _require, _unwrap
from .errors import CutoffTooSmall, InvalidInput, UnsupportedTask
from .gaussian import (E2, GaussianChannel, _check_cp, _entries, _principal_values,
                       _refuse_unknown_fields, compose as compose_channels, isotropic_part)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# The largest displacement-noise variance and mean entry the Fock realization
# takes: past them its mixture's sqrt(2 variance), or D(beta)'s phases disp * x
# over a truncated quadrature spectrum below sqrt(2 * 180 + 1) < 20, overflow
# and the kernels turn NaN.
_MAX_MIXTURE_VARIANCE = sys.float_info.max / 2.0
_MAX_MEAN = sys.float_info.max / 20.0


@dataclass(frozen=True)
class PureLoss:
    """Beamsplitter attenuation of transmissivity T in (0, 1]."""

    T: float

    def __post_init__(self):
        fock.check_family_parameter("loss", self.T, _field(self, "T"))


@dataclass(frozen=True)
class QuantumLimitedAmp:
    """Phase-insensitive amplifier of gain G >= 1 at the quantum noise limit."""

    G: float

    def __post_init__(self):
        fock.check_family_parameter("amp", self.G, _field(self, "G"))


@dataclass(frozen=True)
class CanonicalB1:
    """Unit-gain channel adding 1/2 unit of classical noise to one quadrature."""


@dataclass(frozen=True)
class CanonicalC:
    """Attenuation/amplification of gain eta with ntilde added thermal-like noise."""

    eta: float
    ntilde: float

    def __post_init__(self):
        if not (0 < self.eta < math.inf):
            raise InvalidInput(f"{_field(self, 'eta')} must be positive and finite, "
                               f"got {self.eta}")
        if not (0 <= self.ntilde < math.inf):
            raise InvalidInput(f"{_field(self, 'ntilde')} must be >= 0 and finite, "
                               f"got {self.ntilde}")


@dataclass(frozen=True)
class HeterodyneMP:
    """Heterodyne measurement followed by re-preparation of |g * outcome>."""

    g: float

    def __post_init__(self):
        fock.check_family_parameter("heterodyne", self.g, _field(self, "g"))
        if self.g * self.g == math.inf:
            raise InvalidInput(f"{_field(self, 'g')} must be at most "
                               f"{math.sqrt(sys.float_info.max):.6g}, past which the channel's "
                               f"gain g^2 overflows, got {self.g}")


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
    GaussianChannel: "gaussian",      # read only: a raw channel is written untagged
}


def _field(model, name: str) -> str:
    """A model's field as its refusals name it, in the form of `model_from_json`'s."""
    return f"channel model '{_JSON_TAGS[type(model)]}' field '{name}'"


def model_to_json(model: ChannelModel | GaussianChannel) -> dict:
    if isinstance(model, GaussianChannel):
        return model.to_json()
    if isinstance(model, Compose):
        return {"type": "compose", "parts": [model_to_json(p) for p in model.parts]}
    return {"type": _JSON_TAGS[type(model)],
            **{f.name: getattr(model, f.name) for f in fields(model)}}


def model_from_json(obj) -> ChannelModel | GaussianChannel:
    """The model, or raw channel, of a `model_to_json` object.

    A raw channel is tagged "gaussian", or untagged with "K" and "M" fields.
    A model is its tag, then one field per parameter: anything `float` reads,
    or for a composition's "parts" a list of model objects.  A missing,
    malformed or unknown field raises InvalidInput that names it.
    """
    if not isinstance(obj, dict):
        raise InvalidInput("channel model JSON must be an object with a 'type' tag")
    tag = obj.get("type")
    if tag is None and "K" in obj and "M" in obj:
        tag = "gaussian"
    if tag is None:
        raise InvalidInput("channel model JSON must be an object with a 'type' tag")
    cls = next((c for c, t in _JSON_TAGS.items() if t == tag), None)
    if cls is None:
        raise InvalidInput(f"unknown channel model type {tag!r}")
    if cls is GaussianChannel:
        return GaussianChannel.from_json({k: v for k, v in obj.items() if k != "type"})
    names = [f.name for f in fields(cls)]
    _refuse_unknown_fields(obj, ("type", *names), f"channel model '{tag}'")
    values = []
    for name in names:
        if name not in obj:
            raise InvalidInput(f"channel model '{tag}' is missing field '{name}'")
        value = obj[name]
        if cls is Compose:
            if not isinstance(value, (list, tuple)):
                raise InvalidInput(f"channel model 'compose' field 'parts' must be a list "
                                   f"of channel models, got {reprlib.repr(value)}")
            values.append([model_from_json(p) for p in value])
            continue
        try:
            values.append(float(value))
        except (TypeError, ValueError):
            raise InvalidInput(f"channel model '{tag}' field '{name}' must be a number, "
                               f"got {reprlib.repr(value)}") from None
    return cls(*values)


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


def to_gaussian(model: ChannelModel | GaussianChannel) -> GaussianChannel:
    """Exact Gaussian form (K, M) of a channel model; a raw channel is returned as is."""
    if isinstance(model, GaussianChannel):
        return model
    iso = _iso_params(model)
    if iso is not None:
        k2, m = iso
        if not (math.isfinite(k2) and math.isfinite(m)):    # each field alone is in range
            names = " and ".join(f"'{f.name}'" for f in fields(model))
            raise InvalidInput(f"channel model '{_JSON_TAGS[type(model)]}' gives a gain k^2 = "
                               f"{k2:g} and a noise m = {m:g} (K = k I, M = m I) from "
                               f"field{'s' * (' and ' in names)} {names}; both must be finite")
        return GaussianChannel._isotropic(math.sqrt(k2), m)
    if isinstance(model, CanonicalB1):
        return GaussianChannel(E2.copy(), np.diag([0.5, 0.0]))
    if isinstance(model, Compose):
        chan = GaussianChannel.identity()
        for part in model.parts:
            part = to_gaussian(part)
            try:    # a product past the float range is refused as non-finite
                with np.errstate(over="ignore", invalid="ignore"):
                    chan = compose_channels(part, chan)
            except InvalidInput as exc:
                raise InvalidInput(f"channel model 'compose' field 'parts' composes to a "
                                   f"channel past the float range: {exc}") from None
        return chan
    raise InvalidInput(f"not a channel model: {model!r}")


@dataclass(frozen=True)
class ChannelForm:
    """Normal form of a CP channel with K = k I, k > 0 (see `channel_form`).

    `extra` is the added noise above the quantum-limited floor |1 - k^2|/2
    along M's principal axes: along (x_plus, x_minus) unless `rotated`,
    otherwise in ascending order.
    """

    k2: float
    extra: np.ndarray
    rotated: bool
    disp: np.ndarray


def channel_form(channel: ChannelModel | GaussianChannel,
                 gauss: GaussianChannel | None = None) -> ChannelForm:
    """The one reduction behind gain inference, classification and the Fock realization.

    Refuses a channel that is not completely positive (NotCompletelyPositive)
    and one whose K is not k I with k > 0 (UnsupportedTask).  Isotropic
    models give k^2 and their noise as exact scalars (`_iso_params`); other
    models and raw channels are read through (K, M), with M diagonal up to
    1e-12 counting as unrotated.  `gauss` is the channel's `to_gaussian`,
    when the caller has built it already.
    """
    gauss = to_gaussian(channel) if gauss is None else gauss
    _check_cp(gauss)
    iso = _iso_params(channel)
    if iso is not None:
        (k2, m), rotated = iso, False
        low = high = m
    else:
        k = isotropic_part(gauss.K)
        k2 = k * k if k is not None and k > 0 else 0.0
        m00, m01, m10, m11 = _entries(gauss.M)
        rotated = abs(m01) > 1e-12 or abs(m10) > 1e-12
        low, high = _principal_values(m00, 0.5 * (m01 + m10), m11) if rotated else (m00, m11)
    if not k2 > 0:
        raise UnsupportedTask("only channels with K = k I and k > 0 are covered")
    floor = abs(1.0 - k2) / 2.0
    return ChannelForm(k2, np.array([low - floor, high - floor]), rotated, gauss.disp)


def canonical_c_fidelity(eta: float, ntilde: float) -> float:
    """Gain-matched average fidelity 2 / (1 + eta + |1 - eta| + 2 ntilde) of CanonicalC.

    Prior-independent, since the channel's gain equals the task's.
    Broadcasts over arrays.  Evaluated halved, as
    1 / ((1 + eta)/2 + |1 - eta|/2 + ntilde): halving is exact, so this is
    the same float wherever the doubled sum is finite, and the denominator
    overflows only where eta + ntilde does, which gives 0.
    """
    _require((eta > 0) & (eta < np.inf), eta, "task gain eta must be positive and finite")
    _require((ntilde >= 0) & (ntilde < np.inf), ntilde,
             "added noise ntilde must be >= 0 and finite")
    with np.errstate(over="ignore"):
        return _unwrap(1.0 / (0.5 * (1.0 + eta) + 0.5 * np.abs(1.0 - eta) + ntilde))


def canonical_c_quantum_domain(eta: float, ntilde: float) -> bool:
    """Whether CanonicalC(eta, ntilde) is quantum-domain: ntilde < min(1, eta).

    Broadcasts over arrays.  A bare comparison: it validates nothing.
    """
    return _unwrap(ntilde < np.minimum(1.0, eta))


# ---------------------------------------------------------------------------
# measure-and-prepare closed forms


def optimal_mp_gain(eta: float, lam: float) -> float:
    """Re-preparation gain maximizing the heterodyne strategy: sqrt(eta)/(1+lam).

    Broadcasts over arrays.
    """
    _check_task(eta, lam)
    return _unwrap(np.sqrt(eta) / (1.0 + lam))


def mp_average_fidelity(g: float, eta: float, lam: float) -> float:
    """Average task fidelity of the heterodyne measure-and-prepare scheme.

    Closed form lam / [lam (1 + g^2) + (g - sqrt(eta))^2], a sum of
    non-negative terms (the equivalent difference form
    (1 + g^2)(1 + lam + eta) - (1 + g sqrt(eta))^2 loses ~1e-14 to
    cancellation near the optimum).  The lam -> 0 limit is 1/(1 + eta) at
    matched gain and 0 otherwise.  Broadcasts over arrays.
    """
    _require((g >= 0) & (g < np.inf), g, "re-preparation gain must be >= 0 and finite")
    _check_task(eta, lam)
    return _mp_fidelity(g, eta, lam)


def _mp_fidelity(g, eta, lam):
    """`mp_average_fidelity` of a gain and a task already checked."""
    sqrt_eta = np.sqrt(eta)
    # float_power calls the C library's pow, as Python's ** does on floats;
    # ** 2 on an array squares instead, and the two differ in the last bit
    # for about 0.1 % of inputs.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = lam / (lam * (1.0 + g * g) + np.float_power(g - sqrt_eta, 2.0))
    flat = np.where(g == sqrt_eta, 1.0 / (1.0 + eta), 0.0)
    return _unwrap(np.where(lam == 0, flat, value))


def optimize_mp_gain(eta: float, lam: float):
    """Numerically locate the best heterodyne gain; returns (g_best, fidelity).

    Coarse grid search over [0, 3 sqrt(eta)] followed by golden-section
    refinement.  The peak is locally quadratic, so value-only search resolves
    the argmax to about sqrt(eps) ~ 1e-7 at best; the fidelity itself is good
    to ~1e-15.  The optimum never exceeds the classical bound (up to
    roundoff), which callers are welcome to assert.
    """
    _check_prior(eta, lam)
    grid = np.linspace(0.0, 3.0 * math.sqrt(eta), 1201)
    i = int(np.argmax(_mp_fidelity(grid, eta, lam)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    g_best = _golden_max(lambda g: _mp_fidelity(g, eta, lam), lo, hi, tol=1e-10)
    return g_best, _mp_fidelity(g_best, eta, lam)


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


def apply_mp_fock(scheme: HeterodyneMP, rho,
                  max_trace_deficit: float | None = 1e-4) -> np.ndarray:
    """Heterodyne measure-and-prepare applied to a truncated state, in closed form.

    Measuring beta with density <beta|rho|beta>/pi and re-preparing |g beta>
    has the exact matrix elements

        <k|Phi(|m><n|)|l> = delta(m+l, n+k) g^(k+l) (m+l)! / ((1+g^2)^(m+l+1) sqrt(m! n! k! l!)),

    which conserve the offset d = m - n = k - l (see `fock.apply_offset_kernels`):
    `apply` of the heterodyne `fock.KrausFamily` maps them, at width 1 + g^2;
    at gain 0, where every outcome prepares |0>, its table's one row puts the
    trace on |0><0|.  The kernel comes from the outcome integral, not from
    the channel's (K, M), so it stays an independent check of `to_gaussian`.  Re-prepared
    weight past the cutoff is dropped, not renormalized: a trace deficit
    beyond `max_trace_deficit` in any state raises (None turns the check off).
    """
    if not isinstance(scheme, HeterodyneMP):
        raise InvalidInput("apply_mp_fock expects a HeterodyneMP scheme")
    rho = fock._operator(rho)
    result = fock.KrausFamily("heterodyne", scheme.g).apply(rho)
    if max_trace_deficit is not None:
        before, after = (np.atleast_1d(np.trace(m, axis1=-2, axis2=-1).real) for m in (rho, result))
        deficit = before - after
        worst = int(np.argmax(deficit))
        if deficit[worst] > max_trace_deficit:
            raise CutoffTooSmall(
                f"re-prepared states reach past the cutoff: trace fell by "
                f"{deficit[worst]:.3g} (> {max_trace_deficit:g}); raise the cutoff")
    return result


def _loss_amp_realization(form: ChannelForm):
    """(T, G, remainder, axis, beta) of a channel form's Fock realization.

    Covers diagonal added noise at or above the floor on both axes.  The
    isotropic part of the extra noise is pure loss T = k^2/G followed by a
    quantum-limited amplifier of gain G = max(1, k^2) + min(extra) (Caruso,
    Giovannetti and Holevo, NJP 8, 310, 2006), exact below the cutoff; an
    anisotropic remainder is displacement noise of that variance on `axis`,
    and beta is the mean as a coherent amplitude.  Channels needing
    phase-space rotation or squeezing pre-processing raise UnsupportedTask;
    a remainder past `_MAX_MIXTURE_VARIANCE` or a displacement entry past
    `_MAX_MEAN` raises InvalidInput naming M or disp.
    """
    if form.rotated:
        raise UnsupportedTask(
            "a rotated noise matrix M is not covered; diagonalize first")
    extra = form.extra.tolist()
    if min(extra) < -1e-9:
        raise UnsupportedTask(
            "noise matrix M below the quantum-limited floor on one axis needs "
            "squeezing, which is not covered")
    # Roundoff in a raw channel's k^2 leaves ~1e-17 of "extra" noise on a
    # quantum-limited channel; it is dropped, so such a channel is one exact
    # loss or gain.  G >= 1 and T <= 1 hold exactly.
    e0, e1 = (e if e > 1e-12 else 0.0 for e in extra)
    low, axis = min(e0, e1), 0 if e0 >= e1 else 1
    gain = max(1.0, form.k2) + low
    remainder = max(e0, e1) - low
    if remainder > _MAX_MIXTURE_VARIANCE:
        raise InvalidInput(
            f"noise matrix M leaves an added variance of {remainder:.3g} on axis {axis}, "
            f"past the {_MAX_MIXTURE_VARIANCE:.3g} that the Fock realization's "
            f"displacement mixture can represent")
    d0, d1 = form.disp.tolist()
    if max(abs(d0), abs(d1)) > _MAX_MEAN:
        raise InvalidInput(
            f"displacement disp = [{d0:.3g}, {d1:.3g}] is past the "
            f"{_MAX_MEAN:.3g} that the Fock realization's D(beta) can represent")
    # the bits of numpy's (d0 + 1j d1) / sqrt(2), which multiplies by the reciprocal
    beta = complex(d0 * _INV_SQRT2, d1 * _INV_SQRT2)
    return form.k2 / gain, gain, remainder, axis, beta


def _realization(model: ChannelModel | GaussianChannel,
                 gauss: GaussianChannel | None = None) -> list:
    """The factors of a model's Fock realization, in order (see `fock_applier`).

    Each factor is an offset-kernel factor (see `fock.OffsetMap`).  Heterodyne
    measure-and-prepare gives its outcome-integral `fock.KrausFamily`, whose
    kernels come from its table a block of offsets at a time, and a
    composition of isotropic parts chains its parts' factors.  Every other model, and a raw
    GaussianChannel, gives loss T then the quantum-limited amplifier G of its
    normal form (`_loss_amp_realization`), each left out at 1, and then, for
    an anisotropic remainder or a mean beta, one `fock.DisplacementMixture`:
    the step rho -> sum_s w_s W_s rho W_s^dag with W_s = D(beta) exp(-i s X),
    one D(beta) alone when only the mean is left.  The mixture comes last,
    so at most one factor has complex kernels.  `gauss` is the model's
    `to_gaussian`, when the caller has built it already.
    """
    if isinstance(model, HeterodyneMP):
        return [fock.KrausFamily("heterodyne", model.g)]
    if isinstance(model, Compose) and _iso_params(model) is not None:
        # isotropic parts have no mixture step
        return [f for part in model.parts for f in _realization(part)]
    T, gain, remainder, axis, beta = _loss_amp_realization(channel_form(model, gauss))
    factors = []
    if T < 1.0:
        factors.append(fock.KrausFamily("loss", T))
    if gain > 1.0:
        factors.append(fock.KrausFamily("amp", gain))
    if remainder > 0 or abs(beta) > 0:
        factors.append(fock.DisplacementMixture(remainder, axis, beta))
    return factors


def fock_applier(model: ChannelModel | GaussianChannel,
                 gauss: GaussianChannel | None = None) -> fock.OffsetMap:
    """Truncated-space realization of a model: one `fock.OffsetMap` of its factors.

    The factors are those of `_realization`: loss, then a quantum-limited
    amplifier, or the heterodyne outcome integral, exact below the cutoff,
    then at most one displacement mixture.  Called on an operator (one
    matrix or a stack), the map applies them in order; the mixture is
    applied as operators, one Hadamard product per state
    (`fock.DisplacementMixture.apply`).  `fock.average_fidelity_fock` reads
    the real kernels of the map's phase average from the same object: the
    prior is phase-invariant, so the map and its phase average have the same
    average fidelity.  `gauss` is the model's `to_gaussian`, when the caller
    has built it already.
    """
    return fock.OffsetMap(*_realization(model, gauss))
