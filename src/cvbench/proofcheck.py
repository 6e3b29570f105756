"""Numerical audits of the identities behind the classical fidelity bound.

Three independent checks, each reported with explicit residuals:

* circulant-matrix identities used by the multi-copy argument -- determinant
  factorization, the closed-form spectrum, a product identity for the shifted
  eigenvalues and the modulus floor that controls the bound's prefactor;
* an operator bound: for any probe state, the top eigenvalue of its outcome
  score operator never exceeds the classical bound times the probe's overlap
  with the prior's average state.  The operator is built in closed form, with
  no quadrature, in Kraus form: one image matrix per probe, read off the
  heterodyne table, and one batched product of the images with their
  adjoints.  Truncation only compresses the operator, so a violation found
  at finite cutoff is a genuine violation;
* a two-copy consistency identity tying the Frobenius norm of that operator
  to the expectation of a two-copy integral operator.  The expectation is a
  polar quadrature contracted in closed phase-circulant form: the probe's
  overlaps by one FFT per radius, the real and even coupling on half the
  phase offsets, the contraction on half the spectrum.  The operator's side
  keeps as many output levels as (eta, lambda) need; the sides share no
  construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .bounds import _check_prior, _check_task, classical_bound
from .ensembles import GaussianPrior, QuadratureRule, gauss_rule, laguerre_rule
from .errors import InvalidInput

_IDENTITY_TOL = 1e-10       # the circulant check's residuals
_SCORE_TOL = 1e-8           # the score check's largest violation
_TWO_COPY_REL_TOL = 1e-3    # the two-copy check's relative difference
# Widest cutoffs the builders accept.  The score side has no rule: the cap
# guards the two-copy check's polar rule, whose Gauss-Laguerre weights turn
# NaN from cutoff 92 on, and the score check's operator stack.  The dense
# two-copy operator grows with the fourth power of its cutoff.  The two-copy
# check's one score operator keeps at most _MAX_SCORE_LEVELS output levels,
# the widest truncation the Fock engine accepts: a bound on time and memory,
# not on any quadrature rule.
_MAX_SCORE_CUTOFF = 64
_MAX_TWO_COPY_CUTOFF = 16
_MAX_SCORE_LEVELS = fock._MAX_AUTO_CUTOFF
# Largest copy and probe counts the checks accept.  The circulant check
# diagonalizes dense copies x copies matrices; the score check stacks one
# cutoff x cutoff operator per probe (500 probes at cutoff 64 trace a 41 MiB peak).
_MAX_COPIES = 512
_MAX_TRIALS = 500
# Complex entries of the score operator's Kraus images built at once (4 MiB),
# so the images of a 500-probe stack never outweigh its operators
_IMAGE_BLOCK = 1 << 18


def circulant_shift(p: int) -> np.ndarray:
    """p x p cyclic shift: ones on the superdiagonal, wrapping at the corner."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise InvalidInput(f"copy count must be a positive integer, got {p!r}")
    c = np.zeros((p, p))
    idx = np.arange(p)
    c[idx, (idx + 1) % p] = 1.0
    return c


def circulant_matrix(p: int, diag: float, coupling: float) -> np.ndarray:
    """diag * I - coupling * C with C the cyclic shift."""
    return diag * np.eye(p) - coupling * circulant_shift(p)


def circulant_eigenvalues(p: int, diag: float, coupling: float) -> np.ndarray:
    """Closed-form spectrum diag - coupling * omega^j over the p-th roots of unity."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise InvalidInput(f"copy count must be a positive integer, got {p!r}")
    omega = np.exp(2j * math.pi * np.arange(p) / p)
    return diag - coupling * omega


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from any point of one multiset to the other."""
    d = np.abs(a[:, None] - b[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max())


@dataclass(frozen=True)
class CirculantReport:
    copies: int
    lam: float
    eta: float
    eigenvalue_mismatch: float
    det_residual: float
    product_residual: float
    prefactor_residual: float
    modulus_floor_slack: float
    mirrored_spectrum_matches: bool
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return dict(vars(self))


def circulant_identity_check(p: int, lam: float, eta: float) -> CirculantReport:
    """Verify the circulant identities at one (copies, lam, eta) point.

    Checks, all against numpy linear algebra on the literal matrix:

    * spectrum of (lam + eta) I - eta C equals lam + eta - eta omega^j;
    * det(lam I - eta C) = lam^p - eta^p;
    * prod_j (1 + chi_j) = (1 + lam + eta)^p - eta^p for the shifted spectrum;
    * min_j |1 + chi_j| >= 1 + lam (tight at j = 0);
    * lam^p / ((1+lam+eta)^p - eta^p) = |prod_j lam / (1 + chi_j)|.

    The mirror orientation lam + eta + eta omega^j describes the same
    multiset only when p is even; the report records whether it happened to
    match rather than silently flipping signs.
    """
    _check_task(eta, lam)
    if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= _MAX_COPIES:
        raise InvalidInput(f"copy count must be an integer in 1..{_MAX_COPIES}, got {p!r}")
    try:
        prod_target = (1.0 + lam + eta) ** p - eta ** p
    except OverflowError:
        raise InvalidInput(f"(1 + lambda + eta)^copies overflows a float at {p} copies, "
                           f"lambda {lam:g} and eta {eta:g}; use fewer copies") from None
    if not prod_target > 0:
        raise InvalidInput(f"(1 + lambda + eta)^copies - eta^copies rounds to 0 at {p} copies, "
                           f"lambda {lam:g} and eta {eta:g}: 1 + lambda is below the last "
                           f"bit of eta")
    tol = _IDENTITY_TOL
    chi = circulant_eigenvalues(p, lam + eta, eta)
    numeric = np.linalg.eigvals(circulant_matrix(p, lam + eta, eta))
    scale = lam + 2.0 * eta + 1.0
    mismatch = _hausdorff(numeric, chi) / scale
    mirrored = _hausdorff(numeric, (lam + eta) + eta * np.exp(
        2j * math.pi * np.arange(p) / p)) <= tol * scale

    det_target = lam ** p - eta ** p
    det_residual = abs(np.linalg.det(circulant_matrix(p, lam, eta)) - det_target)
    det_residual /= max(1.0, abs(det_target))

    product = np.prod(1.0 + chi)
    product_residual = abs(product - prod_target) / prod_target

    prefactor = lam ** p / prod_target
    prefactor_residual = abs(np.abs(np.prod(lam / (1.0 + chi))) - prefactor)
    prefactor_residual /= max(prefactor, np.finfo(float).tiny)

    floor_slack = float(np.abs(1.0 + chi).min() - (1.0 + lam))

    passed = (mismatch <= tol and det_residual <= tol and product_residual <= tol
              and prefactor_residual <= tol and floor_slack >= -tol)
    return CirculantReport(
        copies=p, lam=lam, eta=eta,
        eigenvalue_mismatch=float(mismatch),
        det_residual=float(det_residual),
        product_residual=float(product_residual),
        prefactor_residual=float(prefactor_residual),
        modulus_floor_slack=floor_slack,
        mirrored_spectrum_matches=bool(mirrored),
        tolerance=tol, passed=passed)


# ---------------------------------------------------------------------------
# operator bound on probe outcome scores


def _probe_amplitudes(phi) -> np.ndarray:
    """A probe's amplitudes, or a (B, levels) stack of them, one per row."""
    amps = np.atleast_1d(np.asarray(phi, dtype=complex))
    if amps.ndim > 2 or amps.shape[-1] == 0:
        raise InvalidInput(f"a probe needs one or two axes and a level, got shape {amps.shape}")
    return amps


def outcome_score_operator(phi, eta: float, lam: float) -> np.ndarray:
    """Score operator of a probe state under the coherent-input prior.

    S = integral p(alpha) |<alpha|phi>|^2 |sqrt(eta) alpha><sqrt(eta) alpha|
    over the prior.  Its top eigenvalue is the best average-fidelity credit
    any re-preparation can earn from the measurement outcome `phi`, which is
    what the classical bound caps.  The integral is done in closed form:

        <k|S|l> = sum_{m-n=k-l} phi_m conj(phi_n) lam eta^((k+l)/2) (m+l)!
                  / ((1+lam+eta)^(m+l+1) sqrt(m! n! k! l!)),

    lam times the heterodyne map at gain sqrt(eta) and width 1 + lam + eta
    applied to |phi><phi|: exactly the cutoff-compressed operator, and
    compression can only lower the top eigenvalue.  It is built in Kraus
    form, S = lam sum_s K_s |conj phi><conj phi| K_s^H, as lam img img^H
    of the images of `fock.heterodyne_images`, one (levels, 2 levels - 1)
    matrix per probe.  A (B, levels) stack of probes gives the matching
    operator stack, its images built _IMAGE_BLOCK elements at a time; each
    operator is its own matrix product, so a stack equals its slices bit
    for bit.
    """
    _check_prior(eta, lam)
    amps = _probe_amplitudes(phi)
    n = amps.shape[-1]
    images = fock.heterodyne_images(n, math.sqrt(eta), math.log1p(lam + eta))
    flat = amps.reshape(-1, n).conj()
    out = np.empty((flat.shape[0], n, n), dtype=complex)
    step = max(1, _IMAGE_BLOCK // (n * (2 * n - 1)))
    for start in range(0, flat.shape[0], step):
        img = images(flat[start:start + step])
        np.matmul(img, img.conj().swapaxes(1, 2), out=out[start:start + step])
    out *= lam
    return out.reshape(amps.shape + (n,))


@dataclass(frozen=True)
class ScoreBoundReport:
    eta: float
    lam: float
    cutoff: int
    random_trials: int
    seed: int
    bound_scale: float
    tolerance: float
    max_violation: float
    worst_probe: int
    vacuum_saturation_gap: float
    passed: bool

    def to_json(self) -> dict:
        return dict(vars(self))


def score_bound_check(eta: float, lam: float, trials: int = 50, cutoff: int = 20,
                      seed: int = 0, bound_scale: float = 1.0) -> ScoreBoundReport:
    """Check the score-operator bound on random probes plus the vacuum.

    For every probe phi the top eigenvalue of its score operator must stay
    below bound_scale * classical_bound(eta, lam) * <phi|rho_prior|phi>,
    where rho_prior is the prior's average state (thermal with mean 1/lam).
    Probe 0 is the vacuum, which saturates the honest bound exactly -- that
    makes `bound_scale` < 1 a built-in self-test: scaling the right-hand side
    down must produce a reported violation.
    """
    _check_prior(eta, lam)
    if not 0 <= trials <= _MAX_TRIALS:
        raise InvalidInput(f"trial count must be in 0..{_MAX_TRIALS}, got {trials}")
    if not 1 <= cutoff <= _MAX_SCORE_CUTOFF:
        raise InvalidInput(f"score-bound check supports cutoffs 1..{_MAX_SCORE_CUTOFF}, "
                           f"got {cutoff}")
    rng = np.random.default_rng(seed)
    probes = np.zeros((trials + 1, cutoff), dtype=complex)
    probes[0, 0] = 1.0
    raw = rng.standard_normal((trials, cutoff)) + 1j * rng.standard_normal((trials, cutoff))
    probes[1:] = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    scores = np.linalg.eigvalsh(outcome_score_operator(probes, eta, lam))[:, -1]

    thermal = lam / (1.0 + lam) ** (1.0 + np.arange(cutoff))
    rhs = bound_scale * classical_bound(eta, lam) * (np.abs(probes) ** 2 @ thermal)
    violations = scores - rhs
    worst = int(np.argmax(violations))
    max_violation = float(violations[worst])
    honest_rhs = classical_bound(eta, lam) * (np.abs(probes[0]) ** 2 @ thermal)
    return ScoreBoundReport(
        eta=eta, lam=lam, cutoff=cutoff, random_trials=trials, seed=seed,
        bound_scale=bound_scale, tolerance=_SCORE_TOL,
        max_violation=max_violation, worst_probe=worst,
        vacuum_saturation_gap=float(honest_rhs - scores[0]),
        passed=max_violation <= _SCORE_TOL)


# ---------------------------------------------------------------------------
# two-copy consistency


def matched_quadrature(eta: float, lam: float, cutoff: int) -> QuadratureRule:
    """The two-copy side's polar rule, (2 cutoff + 4)^2 nodes of width lam + 1 + eta:
    reweighted to the prior, it absorbs every Gaussian factor of each copy."""
    points = 2 * cutoff + 4
    return gauss_rule(GaussianPrior(lam + 1.0 + eta), radial_points=points,
                      angular_points=points)


def two_copy_operator(eta: float, lam: float, cutoff: int) -> np.ndarray:
    """Two-copy integral operator over independent prior draws.

    B = E_{a,b} [ exp(-eta |a - b|^2) |a><a| (x) |b><b| ], assembled on the
    truncated two-mode space as a cutoff^2 x cutoff^2 Hermitian matrix.  The
    Gaussian coupling between the copies is evaluated exactly; only the
    projectors are truncated.  This is the dense reference for the
    contraction `two_copy_check` uses; it is not on that check's path.
    """
    _check_prior(eta, lam)
    if not (1 <= cutoff <= _MAX_TWO_COPY_CUTOFF):
        raise InvalidInput(f"two-copy build supports cutoffs 1..{_MAX_TWO_COPY_CUTOFF} "
                           "(memory grows with the fourth power)")
    rule = matched_quadrature(eta, lam, cutoff)
    weights = rule.weights_for(lam)
    kets = fock.coherent_amplitudes(rule.nodes, cutoff)
    sep = np.abs(rule.nodes[:, None] - rule.nodes[None, :]) ** 2
    coupling = (weights[:, None] * weights[None, :]) * np.exp(-eta * sep)
    # V[s, m*cutoff + n] = kets[m, s] * conj(kets[n, s])
    v = (kets[:, None, :] * kets.conj()[None, :, :]).reshape(cutoff * cutoff, -1)
    pairwise = v @ coupling @ v.T
    tensor = pairwise.reshape(cutoff, cutoff, cutoff, cutoff)
    matrix = tensor.transpose(0, 2, 1, 3).reshape(cutoff ** 2, cutoff ** 2)
    return 0.5 * (matrix + matrix.conj().T)


@dataclass(frozen=True)
class TwoCopyReport:
    eta: float
    lam: float
    cutoff: int
    score_cutoff: int
    frobenius_sq: float
    two_copy_value: float
    rel_difference: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return dict(vars(self))


def _polar_overlaps(amps: np.ndarray, radii: np.ndarray, points: int) -> np.ndarray:
    """|<phi|r_i e^{2 pi i j/points}>|^2 on the polar rule, radius-major, phase minor.

    <phi|r e^{i theta}> = sum_n conj(phi_n) c_n(r) e^{i n theta} with c_n(r) the
    real coherent amplitudes of the radius, so one FFT of length `points` per
    radius gives every phase; its modulus is that of fft(phi_n c_n(r)).  No
    harmonic aliases while the probe has fewer levels than `points`.
    """
    kets = fock.coherent_amplitudes(radii, amps.size)
    return np.abs(np.fft.fft(amps[:, None] * kets, n=points, axis=0).T) ** 2


@lru_cache(maxsize=16)
def _phase_offset_tables(points: int):
    """(4 sin^2(pi d / A), T) over the A/2 + 1 phase offsets d of an A-point polar
    rule (A even), built once per A and read-only: the first as a (A/2 + 1, 1, 1)
    column, T the cosine transform from offsets to harmonics of `_two_copy_value`.

    T carries the weights of both sides: offsets and harmonics 1 ... A/2 - 1
    each stand for a conjugate pair.  The cache keeps 16 rule sizes; at the
    widest two-copy cutoff, 64 (A = 132), an entry holds 36 KB.
    """
    half = points // 2 + 1
    steps = np.arange(half)                          # offsets d, and harmonics
    four_sin_sq = 4.0 * (np.sin(math.pi / points * steps) ** 2)[:, None, None]
    pairs = np.full(half, 2.0)
    pairs[0] = pairs[-1] = 1.0
    transform = (np.cos(2.0 * math.pi / points * np.outer(steps, steps))
                 * np.outer(pairs, pairs) / points)
    return fock._read_only(four_sin_sq, transform)


def _two_copy_value(amps: np.ndarray, eta: float, lam: float, cutoff: int) -> float:
    """<phi|<phi| B |phi>|phi> of `two_copy_operator`, without building B.

    With q_s = w_s |<phi|a_s>|^2 the value is sum_{s,t} q_s q_t
    exp(-eta |a_s - a_t|^2).  On the polar rule a_{ij} = r_i e^{2 pi i j/A}
    the coupling g_{ik}(d) depends only on the radii and the phase offset
    d = j - l, and it is real and even in d.  So it is evaluated on the
    A/2 + 1 distinct offsets only, R^2 (A/2 + 1) exponentials, all of them at
    most 1, and its real spectrum is one cosine transform over them; q's
    spectrum is one rfft per radius.  The value sums the harmonics 0..A/2
    with weights 1, 2, ..., 2, 1, each a real quadratic form in q's spectrum.
    """
    _check_prior(eta, lam)
    if not 1 <= cutoff <= _MAX_SCORE_CUTOFF:
        raise InvalidInput(f"two-copy check supports cutoffs 1..{_MAX_SCORE_CUTOFF}, "
                           f"got {cutoff}")
    # the radii of `matched_quadrature` and, reweighted to the prior, the
    # weight of one of their `points` equally weighted phases
    points, width = 2 * cutoff + 4, lam + 1.0 + eta
    half = points // 2 + 1                           # points is even
    t, w = laguerre_rule(points)
    radii = np.sqrt(t / width)
    weights = w / points * (lam / width) * np.exp((width - lam) * radii ** 2)
    q = weights[:, None] * _polar_overlaps(amps, radii, points)
    four_sin_sq, transform = _phase_offset_tables(points)
    # |a_{i,0} - a_{k,d}|^2 = (r_i - r_k)^2 + 4 r_i r_k sin^2(pi d / A), (d, i, k)
    sep = (radii[:, None] - radii[None, :]) ** 2 + four_sin_sq * (
        radii[:, None] * radii[None, :])
    coupling = np.exp(-eta * sep)
    spectrum = (transform @ coupling.reshape(half, -1)).reshape(coupling.shape)
    # g is symmetric in (i, k), so f^H G f is the sum of the forms of Re f and Im f
    f = np.fft.rfft(q, axis=1)
    parts = np.stack([f.real.T, f.imag.T], axis=2)   # (harmonic, radius, 2)
    return float(np.sum(parts * (spectrum @ parts)))


def _score_levels(eta: float, lam: float, cutoff: int) -> int:
    """Output levels the two-copy check keeps of the score operator.

    Truncating the score operator's output at c levels drops a share of its
    squared Frobenius norm that decays as (eta / (1 + lam + eta))^c; the
    smallest c that puts that power below _TWO_COPY_REL_TOL / 100 is kept,
    and never fewer than the two-copy cutoff.
    """
    _check_prior(eta, lam)
    decay = math.log1p((1.0 + lam) / eta)            # -log(eta / (1 + lam + eta))
    needed = math.log(100.0 / _TWO_COPY_REL_TOL) / decay if decay > 0 else math.inf
    if not needed <= _MAX_SCORE_LEVELS:
        raise InvalidInput(
            f"the two-copy check's score side needs {needed:.4g} levels at eta {eta:g} "
            f"and lambda {lam:g} to resolve a relative tolerance of {_TWO_COPY_REL_TOL:g}; "
            f"it builds at most {_MAX_SCORE_LEVELS}")
    return max(cutoff, math.ceil(needed))


def two_copy_check(phi, eta: float, lam: float, cutoff: int = 12) -> TwoCopyReport:
    """Cross-check ||score operator||_F^2 against the two-copy operator.

    The squared Frobenius norm of a probe's score operator equals the
    expectation of the two-copy operator in |phi> (x) |phi>.  The score side
    is the closed form of `outcome_score_operator`, its output kept to
    `_score_levels` levels, which follow (eta, lam) so that the levels it
    drops stay far below the relative tolerance _TWO_COPY_REL_TOL.  The
    two-copy side is a polar quadrature at `cutoff` contracted in closed
    phase-circulant form (`_two_copy_value`):
    the overlaps cost one FFT per radius and the coupling R^2 (A/2 + 1)
    exponentials, against the cutoff^4 of the dense `two_copy_operator`.  The
    sides share no construction and truncate different factors, so agreement
    is a real consistency test of both.  Probes should live well inside the
    cutoff for the comparison to count.
    """
    amps = _probe_amplitudes(phi)
    if amps.ndim != 1 or amps.size > cutoff:
        raise InvalidInput(f"the two-copy check takes one probe on at most {cutoff} "
                           f"levels, got shape {amps.shape}")
    levels = _score_levels(eta, lam, cutoff)
    value = _two_copy_value(np.pad(amps, (0, cutoff - amps.size)), eta, lam, cutoff)
    score = outcome_score_operator(np.pad(amps, (0, levels - amps.size)), eta, lam)
    frob = float(np.sum(np.abs(score) ** 2))
    rel = abs(frob - value) / max(frob, value, 1e-300)
    return TwoCopyReport(eta=eta, lam=lam, cutoff=cutoff, score_cutoff=levels,
                         frobenius_sq=frob, two_copy_value=value, rel_difference=rel,
                         tolerance=_TWO_COPY_REL_TOL, passed=rel <= _TWO_COPY_REL_TOL)
