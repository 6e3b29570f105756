"""Quantum-domain certification from measured or modeled channel data.

Two certification routes, sharing one report format:

* variance route -- homodyne samples of both quadratures at each probe
  amplitude yield the average squared deviation from the target output.
  Every measure-and-prepare strategy is floored at the quadrature threshold
  2*eta/(1 + lam + eta), so a statistically significant dip below the floor
  certifies genuinely quantum transmission.  The dip must beat k standard
  errors (bootstrap by default) before a verdict is issued.
* fidelity route -- an average-fidelity estimate, or the exact value for a
  Gaussian channel model, is compared against the classical bound
  (1 + lam)/(1 + lam + eta) directly.

A deviation dataset also implies the fidelity floor 1 - deviation/2, which
gives a third, tagged route for data collected without state tomography.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .bounds import classical_bound, quadrature_threshold
from .errors import (DatasetError, InvalidInput, NotCompletelyPositive,
                     UnsupportedTask)
from .gaussian import (E2, GaussianChannel, GaussianState, apply_channel,
                       average_fidelity_gaussian, coherent_mean, is_cp_channel,
                       isotropic_part)
from . import schemes

_LABELS = ("plus", "minus")
_LADDER = (1e-3, 0.01, 0.05, 0.1, 0.2)
_MARGIN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuadratureRecord:
    """Homodyne samples of one quadrature at one probe amplitude.

    quad_label "plus" means the (a + a^dag)/sqrt(2) axis was measured,
    "minus" the (a - a^dag)/(sqrt(2) i) axis.
    """

    alpha: complex
    quad_label: str
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.quad_label not in _LABELS:
            raise DatasetError(
                f"quadrature label must be one of {_LABELS}, got {self.quad_label!r}")
        samples = np.asarray(self.samples, dtype=float).ravel()
        if samples.size == 0:
            raise DatasetError(f"record at alpha = {self.alpha} has no samples")
        if not np.isfinite(samples).all():
            raise DatasetError(f"record at alpha = {self.alpha} has non-finite samples")
        object.__setattr__(self, "samples", samples)


@dataclass(eq=False)
class ExperimentDataset:
    """A set of quadrature records taken under a Gaussian probe ensemble.

    Every distinct probe amplitude must come with samples of both quadrature
    axes; the statistic below needs the pair.  `weights`, when given, sets
    the probe weights explicitly (aligned with `probe_amplitudes`); the
    default weighting follows the prior of width `lam` restricted to the
    probe grid.
    """

    records: list
    lam: float
    eta_declared: Optional[float] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (isinstance(self.lam, (int, float)) and self.lam > 0
                and math.isfinite(self.lam)):
            raise DatasetError(f"prior width lambda must be positive, got {self.lam}")
        if self.eta_declared is not None and not (self.eta_declared > 0):
            raise DatasetError(f"declared gain must be positive, got {self.eta_declared}")
        self.records = list(self.records)
        if not self.records:
            raise DatasetError("dataset has no records")
        seen = {}
        for rec in self.records:
            if not isinstance(rec, QuadratureRecord):
                raise DatasetError(f"not a quadrature record: {rec!r}")
            seen.setdefault(rec.alpha, set()).add(rec.quad_label)
        missing = [a for a, labels in seen.items() if len(labels) < 2]
        if missing:
            raise DatasetError(
                f"both quadratures are required at every probe; missing one at "
                f"{missing[:3]}{'...' if len(missing) > 3 else ''}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).ravel()
            if w.size != len(seen):
                raise DatasetError(
                    f"got {w.size} weights for {len(seen)} distinct probe amplitudes")
            if not (np.isfinite(w).all() and (w > 0).all()):
                raise DatasetError("probe weights must be positive and finite")
            self.weights = w / w.sum()

    def probe_amplitudes(self) -> list:
        out, seen = [], set()
        for rec in self.records:
            if rec.alpha not in seen:
                seen.add(rec.alpha)
                out.append(rec.alpha)
        return out

    def probe_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        alphas = np.array(self.probe_amplitudes())
        w = np.exp(-self.lam * np.abs(alphas) ** 2)
        return w / w.sum()

    def grouped(self) -> list:
        """[(alpha, {label: concatenated samples})] in first-appearance order."""
        table = {}
        for rec in self.records:
            table.setdefault(rec.alpha, {}).setdefault(rec.quad_label, []).append(rec.samples)
        return [(a, {lab: np.concatenate(chunks) for lab, chunks in labs.items()})
                for a, labs in ((a, table[a]) for a in self.probe_amplitudes())]

    def sample_count(self) -> int:
        return sum(rec.samples.size for rec in self.records)

    def mean_square_displacement(self) -> float:
        """Prior-weighted mean of |d_alpha|^2 = 2 |alpha|^2 over the grid."""
        alphas = np.array(self.probe_amplitudes())
        return float(self.probe_weights() @ (2.0 * np.abs(alphas) ** 2))


def _targets(alpha: complex, eta: float):
    t = math.sqrt(eta) * coherent_mean(alpha)
    return {"plus": t[0], "minus": t[1]}


def delta_bar(ds: ExperimentDataset, eta: float):
    """Average squared deviation statistic and its analytic standard error.

    For each probe, v(alpha) sums the mean squared deviations of both
    quadratures from the target sqrt(eta) alpha; the statistic is the
    weighted grid average of v minus 1 (the coherent-state floor, so a
    perfect transformation scores 0).
    """
    if not (eta > 0):
        raise InvalidInput(f"gain eta must be positive, got {eta}")
    weights = ds.probe_weights()
    total, var = 0.0, 0.0
    for w, (alpha, groups) in zip(weights, ds.grouped()):
        targets = _targets(alpha, eta)
        for label in _LABELS:
            sq = (groups[label] - targets[label]) ** 2
            total += w * sq.mean()
            if sq.size > 1:
                var += w * w * sq.var(ddof=1) / sq.size
    return total - 1.0, math.sqrt(var)


def bootstrap_se(ds: ExperimentDataset, eta: float, n_boot: int = 1000,
                 seed: int = 0) -> float:
    """Bootstrap standard error of the deviation statistic.

    Resamples within each (probe, quadrature) group, which treats the probe
    grid itself as fixed -- the certification statement is conditional on the
    grid, so only shot noise is resampled.
    """
    if n_boot < 2:
        raise InvalidInput(f"bootstrap needs at least 2 resamples, got {n_boot}")
    rng = np.random.default_rng(seed)
    weights = ds.probe_weights()
    totals = np.zeros(n_boot)
    for w, (alpha, groups) in zip(weights, ds.grouped()):
        targets = _targets(alpha, eta)
        for label in _LABELS:
            sq = (groups[label] - targets[label]) ** 2
            n = sq.size
            done = 0
            while done < n_boot:          # chunked to bound temporary memory
                block = min(256, n_boot - done)
                idx = rng.integers(0, n, size=(block, n))
                totals[done:done + block] += w * sq[idx].mean(axis=1)
                done += block
    return float(np.std(totals, ddof=1))


def estimate_gain(ds: ExperimentDataset) -> float:
    """Estimate the channel gain from the sample means themselves.

    Through-origin least squares of quadrature means against the probe's
    own quadrature components, jointly over both axes; the squared slope is
    the gain.  Needs at least three distinct probe amplitudes so that the
    fit is not just an interpolation.
    """
    groups = ds.grouped()
    if len(groups) < 3:
        raise DatasetError("gain estimation needs at least 3 distinct probe amplitudes")
    num = den = 0.0
    for alpha, labs in groups:
        comp = {"plus": math.sqrt(2.0) * alpha.real, "minus": math.sqrt(2.0) * alpha.imag}
        for label in _LABELS:
            u, samples = comp[label], labs[label]
            num += u * samples.sum()
            den += samples.size * u * u
    if den <= 0:
        raise DatasetError("gain estimation needs probes away from the origin")
    slope = num / den
    return slope * slope


@dataclass(frozen=True)
class CertificationReport:
    method: str
    verdict: str
    statistic: float
    threshold: float
    margin: float
    se: float
    k: float
    eta: float
    lam: float
    eta_source: str
    eta_estimated: Optional[float] = None
    se_analytic: Optional[float] = None
    n_probes: Optional[int] = None
    n_samples: Optional[int] = None
    notes: tuple = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "QUANTUM_DOMAIN"

    def to_json(self) -> dict:
        out = asdict(self)
        out["notes"] = list(self.notes)
        return out


def _verdict(margin: float, k: float, se: float) -> str:
    return "QUANTUM_DOMAIN" if margin > k * se + _MARGIN_TOL else "NOT_CERTIFIED"


def _resolve_eta(ds: ExperimentDataset):
    notes = []
    estimated = None
    if ds.eta_declared is not None:
        eta, source = float(ds.eta_declared), "declared"
        try:
            estimated = estimate_gain(ds)
        except DatasetError:
            estimated = None
        if estimated is not None and abs(estimated - eta) / eta > 0.05:
            notes.append(
                f"estimated gain {estimated:.4g} differs from declared {eta:.4g} "
                f"by more than 5%; the declared value was used")
    else:
        estimated = estimate_gain(ds)
        eta, source = estimated, "estimated"
    return eta, source, estimated, notes


def _check_grid_strength(ds: ExperimentDataset, eta: float):
    """A too-narrow probe grid lets a classical cheat beat the threshold."""
    msd = ds.mean_square_displacement()
    needed = 2.0 / (ds.lam + eta)
    if msd < needed - 1e-9:
        raise DatasetError(
            f"probe grid too weak to exclude classical strategies: mean squared "
            f"displacement {msd:.4g} is below the required 2/(lambda + eta) = "
            f"{needed:.4g}; spread the probes further out or reweight them")


def certify_by_variance(ds: ExperimentDataset, k: float = 3.0, n_boot: int = 1000,
                        seed: int = 0) -> CertificationReport:
    """Certify from quadrature deviations against the classical floor.

    The verdict is QUANTUM_DOMAIN only when the statistic undershoots the
    threshold by more than k standard errors (bootstrap when n_boot > 0,
    else analytic); ties and near-ties stay NOT_CERTIFIED, so a channel
    sitting exactly on the classical optimum is never certified.
    """
    eta, source, estimated, notes = _resolve_eta(ds)
    _check_grid_strength(ds, eta)
    threshold = quadrature_threshold(eta, ds.lam)
    value, se_analytic = delta_bar(ds, eta)
    se = bootstrap_se(ds, eta, n_boot, seed) if n_boot > 0 else se_analytic
    margin = threshold - value
    return CertificationReport(
        method="variance", verdict=_verdict(margin, k, se), statistic=value,
        threshold=threshold, margin=margin, se=se, k=k, eta=eta, lam=ds.lam,
        eta_source=source, eta_estimated=estimated, se_analytic=se_analytic,
        n_probes=len(ds.probe_amplitudes()), n_samples=ds.sample_count(),
        notes=tuple(notes))


def certify_by_fidelity(value_or_channel, eta: float, lam: float, se: float = 0.0,
                        k: float = 3.0) -> CertificationReport:
    """Certify from an average-fidelity estimate, or exactly from a model.

    Accepts a float estimate (with optional standard error), a
    GaussianChannel, or a channel model; model values are exact, so se
    defaults to 0 and the margin test reduces to fidelity > bound.
    """
    if isinstance(value_or_channel, schemes._MODEL_TYPES):
        value_or_channel = schemes.to_gaussian(value_or_channel)
    if isinstance(value_or_channel, GaussianChannel):
        fbar, se = average_fidelity_gaussian(value_or_channel, eta, lam), 0.0
    else:
        fbar = float(value_or_channel)
        if not (0.0 <= fbar <= 1.0):
            raise InvalidInput(f"average fidelity must lie in [0, 1], got {fbar}")
    if se < 0:
        raise InvalidInput(f"standard error must be >= 0, got {se}")
    bound = classical_bound(eta, lam)
    margin = fbar - bound
    return CertificationReport(
        method="fidelity", verdict=_verdict(margin, k, se), statistic=fbar,
        threshold=bound, margin=margin, se=se, k=k, eta=eta, lam=lam,
        eta_source="declared")


def certify_by_fidelity_from_variance(ds: ExperimentDataset, k: float = 3.0,
                                      n_boot: int = 1000, seed: int = 0) -> CertificationReport:
    """Certify via the fidelity floor 1 - deviation/2 implied by the data.

    Useful when the experiment only recorded quadrature deviations but the
    report should speak in fidelity terms.  The floor holds probe by probe,
    and with a grid strong enough for the variance route the implied
    fidelity of any classical strategy stays at or below the bound.
    """
    eta, source, estimated, notes = _resolve_eta(ds)
    _check_grid_strength(ds, eta)
    value, se_analytic = delta_bar(ds, eta)
    se = bootstrap_se(ds, eta, n_boot, seed) if n_boot > 0 else se_analytic
    fbar_floor = 1.0 - value / 2.0
    bound = classical_bound(eta, ds.lam)
    margin = fbar_floor - bound
    return CertificationReport(
        method="fidelity_from_variance", verdict=_verdict(margin, k, se / 2.0),
        statistic=fbar_floor, threshold=bound, margin=margin, se=se / 2.0, k=k,
        eta=eta, lam=ds.lam, eta_source=source, eta_estimated=estimated,
        se_analytic=se_analytic / 2.0, n_probes=len(ds.probe_amplitudes()),
        n_samples=ds.sample_count(), notes=tuple(notes))


# ---------------------------------------------------------------------------
# model-side closed forms and synthetic data


def expected_deviation(channel: GaussianChannel, eta: float, alpha) -> float:
    """Closed-form v(alpha) for a Gaussian channel: Tr gamma' + mean offset^2."""
    out = apply_channel(channel, GaussianState.coherent(alpha))
    offset = out.d - math.sqrt(eta) * coherent_mean(alpha)
    return float(np.trace(out.gamma) + offset @ offset)


def average_deviation(channel: GaussianChannel, eta: float, lam: float) -> float:
    """Prior average of v(alpha): Tr gamma' + Tr(A A^T)/lam + |disp|^2.

    A = K - sqrt(eta) E2 is the gain mismatch; the 1/lam factor is the
    prior's mean squared displacement.
    """
    if not (lam > 0):
        raise InvalidInput(f"prior width lambda must be positive, got {lam}")
    gamma_out = channel.K @ (0.5 * E2) @ channel.K.T + channel.M
    a = channel.K - math.sqrt(eta) * E2
    return float(np.trace(gamma_out) + np.trace(a @ a.T) / lam
                 + channel.disp @ channel.disp)


def synthesize_dataset(channel, alphas, samples_per_quadrature: int, lam: float,
                       seed: int = 0, eta_declared: Optional[float] = None) -> ExperimentDataset:
    """Draw homodyne records from a Gaussian channel (or model) output.

    Sampling is exact: each quadrature is read from the Gaussian marginal of
    the channel output at that probe.  One generator seeds the whole dataset,
    so a (channel, alphas, n, seed) tuple pins the records bit for bit.
    """
    if isinstance(channel, schemes._MODEL_TYPES):
        channel = schemes.to_gaussian(channel)
    if samples_per_quadrature < 1:
        raise InvalidInput("need at least one sample per quadrature")
    rng = np.random.default_rng(seed)
    records = []
    for alpha in alphas:
        out = apply_channel(channel, GaussianState.coherent(alpha))
        for label, idx in (("plus", 0), ("minus", 1)):
            draws = rng.normal(out.d[idx], math.sqrt(out.gamma[idx, idx]),
                               size=samples_per_quadrature)
            records.append(QuadratureRecord(alpha, label, draws))
    return ExperimentDataset(records, lam=lam, eta_declared=eta_declared)


# ---------------------------------------------------------------------------
# Gaussian-channel classification


@dataclass(frozen=True)
class DetectionReport:
    """Quantum-domain classification of a recognized Gaussian channel."""

    family: str
    eta: float
    added_noise: float
    fbar: float
    is_quantum_domain: bool
    lam: float
    margin: float
    margin_zero_width: float
    ladder: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = asdict(self)
        out["ladder"] = {f"{l:g}": m for l, m in self.ladder.items()}
        return out


def detect_gaussian_qd(channel, lam: float = 1e-3) -> DetectionReport:
    """Classify a Gaussian channel against the classical bound.

    Recognizes the two canonical one-mode forms: gain with isotropic added
    noise (attenuation/amplification family; quantum domain iff the added
    thermal-like noise stays below min(1, eta)) and the unit-gain channel
    with half a unit of noise in a single quadrature (always quantum
    domain).  The matched-gain fidelity is prior-independent, so the margin
    is reported against a ladder of prior widths; the zero-width margin is
    exactly zero on the family boundary.

    Accepts a channel model (classified from its exact parameters) or a raw
    GaussianChannel.  Channels needing rotation or squeezing pre-processing
    raise UnsupportedTask.
    """
    if isinstance(channel, schemes._MODEL_TYPES):
        iso = schemes._iso_params(channel)
        if iso is not None:
            eta, m = iso
            return _family_c_report(eta, m, lam)
        if isinstance(channel, schemes.CanonicalB1):
            return _family_b_report(0.5, lam)
        channel = schemes.to_gaussian(channel)
    if not is_cp_channel(channel):
        raise NotCompletelyPositive("channel (K, M) fails the complete-positivity criterion")
    if float(channel.disp @ channel.disp) > 1e-18:
        raise UnsupportedTask("displaced channels are not classified; subtract "
                              "the displacement first")
    M = channel.M
    k = isotropic_part(channel.K)
    if k is None or k <= 0:
        raise UnsupportedTask("classification covers K proportional to the identity only")
    m_eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if abs(m_eigs[1] - m_eigs[0]) <= 1e-9:
        return _family_c_report(k * k, float(0.5 * (m_eigs[0] + m_eigs[1])), lam)
    if abs(k - 1.0) <= 1e-9 and abs(m_eigs[0]) <= 1e-9 and abs(m_eigs[1] - 0.5) <= 1e-9:
        return _family_b_report(float(m_eigs[1]), lam)
    raise UnsupportedTask(
        "added noise is neither isotropic nor the canonical single-quadrature "
        "half unit; reduce the channel first")


def _margin_ladder(fbar: float, eta: float, lam: float):
    ladder = {l: fbar - classical_bound(eta, l) for l in _LADDER}
    return fbar - classical_bound(eta, lam), fbar - classical_bound(eta, 0.0), ladder


def _family_c_report(eta: float, m: float, lam: float) -> DetectionReport:
    ntilde = m - abs(1.0 - eta) / 2.0
    if ntilde < -1e-9:
        raise NotCompletelyPositive(
            f"added noise {m:.4g} sits below the quantum-limited floor "
            f"{abs(1.0 - eta) / 2.0:.4g} for gain {eta:.4g}")
    ntilde = max(ntilde, 0.0)
    fbar = schemes.canonical_c_fidelity(eta, ntilde)
    margin, margin0, ladder = _margin_ladder(fbar, eta, lam)
    return DetectionReport(
        family="gain_with_isotropic_noise", eta=eta, added_noise=ntilde, fbar=fbar,
        is_quantum_domain=bool(ntilde < min(1.0, eta)), lam=lam, margin=margin,
        margin_zero_width=margin0, ladder=ladder)


def _family_b_report(noise: float, lam: float) -> DetectionReport:
    fbar = 1.0 / math.sqrt(1.0 + noise)
    margin, margin0, ladder = _margin_ladder(fbar, 1.0, lam)
    return DetectionReport(
        family="single_quadrature_noise", eta=1.0, added_noise=noise, fbar=fbar,
        is_quantum_domain=True, lam=lam, margin=margin,
        margin_zero_width=margin0, ladder=ladder)


# ---------------------------------------------------------------------------
# CSV interchange

_CSV_HEADER = ["alpha_re", "alpha_im", "quad_label", "value"]


def write_dataset_csv(ds: ExperimentDataset, path) -> None:
    """One row per sample: alpha_re, alpha_im, quad_label, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for rec in ds.records:
            for value in rec.samples:
                writer.writerow([repr(rec.alpha.real), repr(rec.alpha.imag),
                                 rec.quad_label, repr(float(value))])


def read_dataset_csv(path, lam: float, eta_declared: Optional[float] = None,
                     weights=None) -> ExperimentDataset:
    """Parse a sample-per-row CSV into a dataset; errors carry line numbers."""
    groups: dict = {}
    order: list = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("CSV file is empty", line=1) from None
        if [h.strip() for h in header] != _CSV_HEADER:
            raise DatasetError(
                f"CSV header must be {','.join(_CSV_HEADER)}, got {','.join(header)}",
                line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise DatasetError(f"expected 4 fields, got {len(row)}", line=lineno)
            try:
                re_part, im_part = float(row[0]), float(row[1])
                value = float(row[3])
            except ValueError as exc:
                raise DatasetError(f"non-numeric field: {exc}", line=lineno) from None
            label = row[2].strip()
            if label not in _LABELS:
                raise DatasetError(
                    f"quadrature label must be one of {_LABELS}, got {label!r}",
                    line=lineno)
            key = (re_part, im_part, label)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(value)
    if not order:
        raise DatasetError("CSV file has a header but no sample rows", line=2)
    records = [QuadratureRecord(complex(re, im), label, np.array(groups[(re, im, label)]))
               for re, im, label in order]
    return ExperimentDataset(records, lam=lam, eta_declared=eta_declared,
                             weights=weights)
