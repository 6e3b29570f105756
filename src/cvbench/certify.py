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

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import (_SMALL_LAM, _check_prior, _check_task, classical_bound,
                     quadrature_threshold)
from .errors import DatasetError, InvalidInput, UnsupportedTask
from .gaussian import (E2, GaussianChannel, GaussianState, apply_channel,
                       average_fidelity_gaussian, coherent_mean)
from . import schemes

_LABELS = ("plus", "minus")
_LADDER = (1e-3, 0.01, 0.05, 0.1, 0.2)
_MARGIN_TOL = 1e-12
_MAX_BOOT = 100_000     # bootstrap resamples; each costs one draw per sample
_BOOT_DRAWS = 1 << 17   # index draws per bootstrap block: 1 MiB, and as much again gathered
_BOOT_ROWS = 256        # resamples per block at most, the block of any group up to 512 samples


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
    probe grid.  The records are grouped once, at construction, into one
    sample array per (probe, axis); build a new dataset to change them.
    """

    records: list
    lam: float
    eta_declared: Optional[float] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (isinstance(self.lam, (int, float)) and self.lam > 0
                and math.isfinite(self.lam)):
            raise DatasetError(f"prior width lambda must be positive, got {self.lam}")
        if self.eta_declared is not None and not (self.eta_declared > 0
                                                  and math.isfinite(self.eta_declared)):
            raise DatasetError(
                f"declared gain must be positive and finite, got {self.eta_declared}")
        self.records = list(self.records)
        if not self.records:
            raise DatasetError("dataset has no records")
        table = {}          # alpha -> {label: [sample arrays]}, in first-appearance order
        for rec in self.records:
            if not isinstance(rec, QuadratureRecord):
                raise DatasetError(f"not a quadrature record: {rec!r}")
            table.setdefault(rec.alpha, {}).setdefault(rec.quad_label, []).append(rec.samples)
        missing = [a for a, labels in table.items() if len(labels) < 2]
        if missing:
            raise DatasetError(
                f"both quadratures are required at every probe; missing one at "
                f"{missing[:3]}{'...' if len(missing) > 3 else ''}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).ravel()
            if w.size != len(table):
                raise DatasetError(
                    f"got {w.size} weights for {len(table)} distinct probe amplitudes")
            if not (np.isfinite(w).all() and (w > 0).all()):
                raise DatasetError("probe weights must be positive and finite")
            self.weights = w / w.sum()
        # a key held by one record keeps that record's own array
        self._groups = [(a, {lab: chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                             for lab, chunks in labs.items()})
                        for a, labs in table.items()]

    def probe_amplitudes(self) -> list:
        return [a for a, _ in self._groups]

    def probe_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        alphas = np.array(self.probe_amplitudes())
        w = np.exp(-self.lam * np.abs(alphas) ** 2)
        return w / w.sum()

    def grouped(self) -> list:
        """[(alpha, {label: samples})] in first-appearance order, as grouped at construction."""
        return self._groups

    def sample_count(self) -> int:
        return sum(samples.size for _, labs in self._groups for samples in labs.values())

    def mean_square_displacement(self) -> float:
        """Prior-weighted mean of |d_alpha|^2 = 2 |alpha|^2 over the grid."""
        alphas = np.array(self.probe_amplitudes())
        return float(self.probe_weights() @ (2.0 * np.abs(alphas) ** 2))


def _squared_deviations(ds: ExperimentDataset, eta: float):
    """(probe weight, squared deviations from the target sqrt(eta) alpha) per
    probe and axis, in the dataset's order: the terms of the statistic."""
    for w, (alpha, groups) in zip(ds.probe_weights(), ds.grouped()):
        for label, target in zip(_LABELS, math.sqrt(eta) * coherent_mean(alpha)):
            yield w, (groups[label] - target) ** 2


def delta_bar(ds: ExperimentDataset, eta: float):
    """Average squared deviation statistic and its analytic standard error.

    For each probe, v(alpha) sums the mean squared deviations of both
    quadratures from the target sqrt(eta) alpha; the statistic is the
    weighted grid average of v minus 1 (the coherent-state floor, so a
    perfect transformation scores 0).
    """
    _check_task(eta, ds.lam)
    total, var = 0.0, 0.0
    for w, sq in _squared_deviations(ds, eta):
        total += w * sq.mean()
        if sq.size > 1:
            var += w * w * sq.var(ddof=1) / sq.size
    return total - 1.0, math.sqrt(var)


def check_boot_count(n_boot: int) -> None:
    """Refuse a bootstrap resample count outside 2.._MAX_BOOT."""
    if n_boot < 2:
        raise InvalidInput(f"bootstrap needs at least 2 resamples, got {n_boot}")
    if n_boot > _MAX_BOOT:
        raise InvalidInput(f"bootstrap takes at most {_MAX_BOOT} resamples, got {n_boot}")


def bootstrap_se(ds: ExperimentDataset, eta: float, n_boot: int = 1000,
                 seed: int = 0) -> float:
    """Bootstrap standard error of the deviation statistic.

    Resamples within each (probe, quadrature) group, which treats the probe
    grid itself as fixed -- the certification statement is conditional on the
    grid, so only shot noise is resampled.  n_boot runs from 2 to _MAX_BOOT.
    """
    _check_task(eta, ds.lam)
    check_boot_count(n_boot)
    rng = np.random.default_rng(seed)
    totals = np.zeros(n_boot)
    for w, sq in _squared_deviations(ds, eta):
        n = sq.size
        # Blocks of at most _BOOT_DRAWS draws (one resample when a group
        # is larger) bound the index array and its gather.  The stream is
        # drawn in order however it is split, and each resample's mean is
        # taken along its own row, so the blocking never changes the SE.
        rows = max(1, min(_BOOT_ROWS, _BOOT_DRAWS // n))
        done = 0
        while done < n_boot:
            block = min(rows, n_boot - done)
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
        out = dict(vars(self))
        out["notes"] = list(self.notes)
        return out


def _verdict(margin: float, k: float, se: float) -> str:
    for name, value in (("required margin k", k), ("standard error", se)):
        if not (value >= 0 and math.isfinite(value)):
            raise InvalidInput(f"{name} must be >= 0 and finite, got {value}")
    return "QUANTUM_DOMAIN" if margin > k * se + _MARGIN_TOL else "NOT_CERTIFIED"


def _resolve_eta(ds: ExperimentDataset):
    notes = []
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


def _certify_deviations(ds: ExperimentDataset, method: str, k: float, n_boot: int,
                        seed: int) -> CertificationReport:
    """Both data routes: gain, grid check, deviation statistic and its SE
    (analytic when n_boot is 0), compared as the variance route's statistic
    or as the fidelity route's floor 1 - statistic/2.  Shot noise can make
    the floor exceed 1; it is reported unclipped, with a note."""
    eta, source, estimated, notes = _resolve_eta(ds)
    # a too-narrow probe grid lets a classical cheat beat the threshold
    msd, needed = ds.mean_square_displacement(), 2.0 / (ds.lam + eta)
    if msd < needed - 1e-9:
        raise DatasetError(
            f"probe grid too weak to exclude classical strategies: mean squared "
            f"displacement {msd:.4g} is below the required 2/(lambda + eta) = "
            f"{needed:.4g}; spread the probes further out or reweight them")
    value, se_analytic = delta_bar(ds, eta)
    se = bootstrap_se(ds, eta, n_boot, seed) if n_boot != 0 else se_analytic
    if method == "variance":
        statistic, threshold = value, quadrature_threshold(eta, ds.lam)
        margin = threshold - value
    else:
        statistic, threshold = 1.0 - value / 2.0, classical_bound(eta, ds.lam)
        margin, se, se_analytic = statistic - threshold, se / 2.0, se_analytic / 2.0
        if statistic > 1.0:
            notes.append(
                f"the fidelity statistic {statistic:.6g} exceeds 1: it is an unclipped "
                f"shot-noise estimate, 1 - (variance statistic)/2, of an average "
                f"fidelity that is at most 1")
    return CertificationReport(
        method=method, verdict=_verdict(margin, k, se), statistic=statistic,
        threshold=threshold, margin=margin, se=se, k=k, eta=eta, lam=ds.lam,
        eta_source=source, eta_estimated=estimated, se_analytic=se_analytic,
        n_probes=len(ds.grouped()), n_samples=ds.sample_count(), notes=tuple(notes))


def certify_by_variance(ds: ExperimentDataset, k: float = 3.0, n_boot: int = 1000,
                        seed: int = 0) -> CertificationReport:
    """Certify from quadrature deviations against the classical floor.

    The verdict is QUANTUM_DOMAIN only when the statistic undershoots the
    threshold by more than k standard errors (analytic when n_boot is 0,
    else a bootstrap, which refuses fewer than 2 resamples); ties and
    near-ties stay NOT_CERTIFIED, so a channel sitting exactly on the
    classical optimum is never certified.
    """
    return _certify_deviations(ds, "variance", k, n_boot, seed)


def certify_by_fidelity(value_or_channel, eta: float, lam: float, se: float = 0.0,
                        k: float = 3.0) -> CertificationReport:
    """Certify from an average-fidelity estimate, or exactly from a model.

    Accepts a float estimate (with optional standard error), a
    GaussianChannel, or a channel model; model values are exact, so se
    defaults to 0 and the margin test reduces to fidelity > bound.
    """
    if isinstance(value_or_channel, numbers.Real):
        fbar = float(value_or_channel)
        if not (0.0 <= fbar <= 1.0):
            raise InvalidInput(f"average fidelity must lie in [0, 1], got {fbar}")
    else:
        fbar, se = average_fidelity_gaussian(schemes.to_gaussian(value_or_channel), eta, lam), 0.0
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
    return _certify_deviations(ds, "fidelity_from_variance", k, n_boot, seed)


# ---------------------------------------------------------------------------
# model-side closed forms and synthetic data


def expected_deviation(channel: GaussianChannel, eta: float, alpha) -> float:
    """Closed-form v(alpha) for a Gaussian channel: Tr gamma' + mean offset^2."""
    _check_task(eta, 0.0)   # one probe: no prior width to check
    out = apply_channel(channel, GaussianState.coherent(alpha))
    offset = out.d - math.sqrt(eta) * coherent_mean(alpha)
    return float(np.trace(out.gamma) + offset @ offset)


def average_deviation(channel: GaussianChannel, eta: float, lam: float) -> float:
    """Prior average of v(alpha): Tr gamma' + Tr(A A^T)/lam + |disp|^2.

    A = K - sqrt(eta) E2 is the gain mismatch; the 1/lam factor is the
    prior's mean squared displacement.
    """
    _check_prior(eta, lam)
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
        out = dict(vars(self))
        out["ladder"] = {f"{l:g}": m for l, m in self.ladder.items()}
        return out


def detect_gaussian_qd(channel, lam: float = _SMALL_LAM) -> DetectionReport:
    """Classify a Gaussian channel against the classical bound.

    Recognizes the two canonical one-mode forms in the channel's normal form
    (`schemes.channel_form`): gain with isotropic added noise
    (attenuation/amplification family; quantum domain iff the added
    thermal-like noise stays below min(1, eta)) and the unit-gain channel
    with half a unit of noise in a single quadrature (always quantum
    domain).  The matched-gain fidelity is prior-independent, so the margin
    is reported against a ladder of prior widths; the zero-width margin is
    exactly zero on the family boundary.

    Accepts a channel model (classified from its exact parameters) or a raw
    GaussianChannel.  Channels needing rotation or squeezing pre-processing
    raise UnsupportedTask.
    """
    form = schemes.channel_form(channel)
    if float(form.disp @ form.disp) > 1e-18:
        raise UnsupportedTask("displaced channels are not classified; subtract "
                              "the displacement first")
    eta, (low, high) = form.k2, np.sort(form.extra)
    if high - low <= 1e-9:
        ntilde = max(float(0.5 * (low + high)), 0.0)
        return _report("gain_with_isotropic_noise", eta, ntilde,
                       schemes.canonical_c_fidelity(eta, ntilde),
                       schemes.canonical_c_quantum_domain(eta, ntilde), lam)
    if abs(math.sqrt(eta) - 1.0) <= 1e-9 and abs(low) <= 1e-9 and abs(high - 0.5) <= 1e-9:
        return _report("single_quadrature_noise", 1.0, float(high),
                       1.0 / math.sqrt(1.0 + high), True, lam)
    raise UnsupportedTask(
        "added noise is neither isotropic nor the canonical single-quadrature "
        "half unit; reduce the channel first")


def _report(family: str, eta: float, noise: float, fbar: float, quantum: bool,
            lam: float) -> DetectionReport:
    ladder = {l: fbar - classical_bound(eta, l) for l in _LADDER}
    return DetectionReport(
        family=family, eta=eta, added_noise=noise, fbar=fbar,
        is_quantum_domain=quantum, lam=lam, margin=fbar - classical_bound(eta, lam),
        margin_zero_width=fbar - classical_bound(eta, 0.0), ladder=ladder)


# ---------------------------------------------------------------------------
# CSV interchange

_CSV_HEADER = ["alpha_re", "alpha_im", "quad_label", "value"]


def write_dataset_csv(ds: ExperimentDataset, path) -> None:
    """One row per sample: alpha_re, alpha_im, quad_label, value; rows end in CRLF."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        for rec in ds.records:
            prefix = f"{rec.alpha.real!r},{rec.alpha.imag!r},{rec.quad_label},"
            fh.write(prefix + ("\r\n" + prefix).join(map(repr, rec.samples.tolist())) + "\r\n")


# Lines parsed per chunk.  A chunk is held as Python strings at several times
# its size on disk: reading a 160k-row file peaks at 4.9 MiB of traced
# allocations with 4096 lines a chunk, 7.1 MiB with 16384.
_CHUNK_LINES = 4096


def _parse_row(line: str, lineno: int):
    """(alpha_re, alpha_im, label, value) of one data line; defines a valid row.

    Checks run in a fixed order -- field count, then the three numeric
    fields (parsed, then finite), then the label -- so one bad line always
    reports the same error.
    """
    row = line.rstrip("\r\n").split(",")
    if len(row) != 4:
        raise DatasetError(f"expected 4 fields, got {len(row)}", line=lineno)
    try:
        re_part, im_part = float(row[0]), float(row[1])
        value = float(row[3])
    except ValueError as exc:
        raise DatasetError(f"non-numeric field: {exc}", line=lineno) from None
    if not (math.isfinite(re_part) and math.isfinite(im_part) and math.isfinite(value)):
        raise DatasetError(f"non-finite field: {line.strip()!r}", line=lineno)
    label = row[2].strip()
    if label not in _LABELS:
        raise DatasetError(
            f"quadrature label must be one of {_LABELS}, got {label!r}", line=lineno)
    return re_part, im_part, label, value


def _parse_values(lines: list, lineno: int) -> list:
    """The values of the non-blank lines, raising at the first bad line."""
    return [_parse_row(line, lineno + i)[3] for i, line in enumerate(lines)
            if line.strip()]


def read_dataset_csv(path, lam: float, eta_declared: Optional[float] = None,
                     weights=None) -> ExperimentDataset:
    """Parse a sample-per-row CSV into a dataset; errors carry line numbers.

    The file starts with the header alpha_re,alpha_im,quad_label,value and
    holds one unquoted sample per row; lines end in LF, CRLF or CR, and
    blank or whitespace-only lines are skipped.  A quoted field is rejected.
    Rows sharing a probe and quadrature form one record, with its samples
    in file order; records follow the first appearance of each key, and
    spellings of one key (1.0 and 1.00, -0.0 and 0.0, padded labels) merge.

    The text is read `_CHUNK_LINES` lines at a time.  Each row costs one dictionary
    lookup on its raw alpha_re,alpha_im,quad_label prefix, and each chunk's
    values are converted to floats in one call and checked finite in one
    pass; a prefix is parsed only on its first row, by the same `_parse_row`
    that locates the first bad line of a chunk when its conversion or that
    check fails.
    """
    prefix_ids: dict = {}        # raw prefix text -> group id
    key_ids: dict = {}           # parsed (re, im, label) -> group id, first spelling kept
    id_chunks, value_chunks = [], []
    with open(path, newline="") as fh:
        header = fh.readline()
        if not header:
            raise DatasetError("CSV file is empty", line=1)
        fields = header.rstrip("\r\n").split(",")
        if [h.strip() for h in fields] != _CSV_HEADER:
            raise DatasetError(
                f"CSV header must be {','.join(_CSV_HEADER)}, got {','.join(fields)}",
                line=1)
        lineno = 2
        while lines := list(itertools.islice(fh, _CHUNK_LINES)):
            ids, values = [], []
            for i, line in enumerate(lines):
                prefix, _, value = line.rpartition(",")
                gid = prefix_ids.get(prefix)
                if gid is None:
                    if not line.strip():
                        continue
                    try:
                        re_part, im_part, label, _ = _parse_row(line, lineno + i)
                    except DatasetError:
                        _parse_values(lines[:i], lineno)  # an earlier bad value wins
                        raise
                    gid = prefix_ids[prefix] = key_ids.setdefault(
                        (re_part, im_part, label), len(key_ids))
                ids.append(gid)
                values.append(value)
            try:
                chunk = np.array(values, dtype=float)
            except ValueError:
                chunk = None
            if chunk is None or not np.isfinite(chunk).all():
                chunk = np.array(_parse_values(lines, lineno), dtype=float)
            value_chunks.append(chunk)
            id_chunks.append(np.array(ids, dtype=np.intp))
            lineno += len(lines)
    if not key_ids:
        raise DatasetError("CSV file has a header but no sample rows", line=2)
    ids, samples = np.concatenate(id_chunks), np.concatenate(value_chunks)
    id_chunks.clear()            # free the chunk arrays before the sort's copies
    value_chunks.clear()
    samples = samples[np.argsort(ids, kind="stable")]
    splits = np.cumsum(np.bincount(ids))[:-1]
    records = [QuadratureRecord(complex(re, im), label, part)
               for (re, im, label), part in zip(key_ids, np.split(samples, splits))]
    return ExperimentDataset(records, lam=lam, eta_declared=eta_declared,
                             weights=weights)
