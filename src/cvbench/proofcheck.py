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
  to the expectation of a two-copy integral operator.  Through a 50:50 beam
  splitter that operator is a second quantization, so the expectation is
  exact: a trace over the probe's own levels, with no quadrature rule and no
  truncation.  The operator's side keeps as many output levels as the
  probe's support and (eta, lambda) need; the sides share no construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .bounds import _check_prior, _check_task, classical_bound
from .errors import InvalidInput

_IDENTITY_TOL = 1e-10       # the circulant check's residuals
_SCORE_TOL = 1e-8           # the score check's largest violation
_TWO_COPY_REL_TOL = 1e-3    # the two-copy check's relative difference
# Widest cutoffs the builders accept, bounds on time and memory: the score
# check's operator stack and the two-copy check's probe support.  The dense
# two-copy operator grows with the fourth power of its cutoff.  The two-copy
# check's one score operator keeps at most _MAX_SCORE_LEVELS output levels;
# at 318 the check takes about 16 ms and traces an 8.5 MiB peak.
_MAX_SCORE_CUTOFF = 64
_MAX_TWO_COPY_CUTOFF = 16
_MAX_SCORE_LEVELS = 320
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


def _beam_splitter_weights(eta: float, lam: float):
    """(lam^2 x1 x2, alpha, beta) of the two-copy operator B, x1 = 1/(1+lam) and
    x2 = 1/(1+lam+2 eta).

    A 50:50 beam splitter U maps |a>|b> to |u>|v> with u, v = (a +- b)/sqrt 2,
    so |a - b|^2 = 2 |v|^2 and B = U^H (D1 (x) D2) U for D1 = lam x1 x1^n, the
    prior's thermal state, and D2 = lam x2 x2^n.  U^H (x1^n_a (x) x2^n_b) U is
    the second quantization Gamma(M) of M = [[alpha, beta], [beta, alpha]],
    alpha = (x1 + x2)/2 and beta = (x1 - x2)/2, both >= 0: it maps a^H to
    alpha a^H + beta b^H and b^H to beta a^H + alpha b^H, and keeps |0, 0>.
    """
    x1, x2 = 1.0 / (1.0 + lam), 1.0 / (1.0 + lam + 2.0 * eta)
    # each factor in (0, 1], so no product overflows
    return (lam * x1) * (lam * x2), (1.0 + lam + eta) * x2 * x1, eta * x2 * x1


def _raise(psi: np.ndarray, first: float, second: float) -> np.ndarray:
    """(first a^H + second b^H) psi, psi[..., k, l] the amplitude of |k, l>.

    Levels pushed past the last are dropped: nothing lowers them again, so
    every kept amplitude is exact."""
    root = np.sqrt(np.arange(1.0, psi.shape[-1]))
    out = np.zeros_like(psi)
    out[..., 1:, :] = (first * root)[:, None] * psi[..., :-1, :]
    out[..., :, 1:] += (second * root) * psi[..., :, :-1]
    return out


def two_copy_operator(eta: float, lam: float, cutoff: int) -> np.ndarray:
    """Two-copy integral operator over independent prior draws.

    B = E_{a,b} [ exp(-eta |a - b|^2) |a><a| (x) |b><b| ] compressed to
    cutoff levels per mode, a real symmetric cutoff^2 x cutoff^2 matrix:
    lam^2 x1 x2 <k, l| Gamma(M) |m, n> (`_beam_splitter_weights`).  Column
    (m, n) is (alpha a^H + beta b^H)^m (beta a^H + alpha b^H)^n |0, 0> /
    sqrt(m! n!), built by the raising recurrence, so every entry is exact.
    This is the dense reference for the value `two_copy_check` uses; it is
    not on that check's path.
    """
    _check_prior(eta, lam)
    if not (1 <= cutoff <= _MAX_TWO_COPY_CUTOFF):
        raise InvalidInput(f"two-copy build supports cutoffs 1..{_MAX_TWO_COPY_CUTOFF} "
                           "(memory grows with the fourth power)")
    scale, alpha, beta = _beam_splitter_weights(eta, lam)
    columns = np.zeros((cutoff,) * 4)                # [m, n, k, l]
    columns[0, 0, 0, 0] = 1.0
    for n in range(1, cutoff):
        columns[0, n] = _raise(columns[0, n - 1], beta, alpha) / math.sqrt(n)
    for m in range(1, cutoff):
        columns[m] = _raise(columns[m - 1], alpha, beta) / math.sqrt(m)
    matrix = scale * columns.reshape(cutoff ** 2, cutoff ** 2).T
    return 0.5 * (matrix + matrix.T)


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


def _two_copy_value(amps: np.ndarray, eta: float, lam: float) -> float:
    """<phi|<phi| B |phi>|phi> of `two_copy_operator`, exactly, without building B.

    With f(z) = sum_m phi_m z^m / sqrt(m!), |phi>|phi> = f(a^H) f(b^H) |0, 0>,
    so the value is lam^2 x1 x2 <phi phi| f(alpha a^H + beta b^H)
    f(beta a^H + alpha b^H) |0, 0> (`_beam_splitter_weights`).  Expanding
    both powers binomially and pairing each raising with the bra leaves a
    trace over the probe's own c levels:

        value = lam^2 x1 x2 Tr[(A conj(H) B H)^2],

    H[j, i] = phi_{i+j} sqrt(C(i+j, j)) (zero from i + j = c on), A and B
    diagonal with alpha^j and beta^j.  No rule and no truncation: two c x c
    products.  Every weight is >= 0, so only the probe's phases cancel, and
    the value is at most that of |phi|, itself at most 1.  Trailing zero
    amplitudes cost time and change nothing.
    """
    _check_prior(eta, lam)
    scale, alpha, beta = _beam_splitter_weights(eta, lam)
    c = amps.size
    idx = np.arange(c)
    steps = np.arange(1.0, c)[:, None]
    binom = np.ones((c, c))                          # sqrt(C(i+j, j)), row j
    binom[1:] = np.cumprod(np.sqrt((idx + steps) / steps), axis=0)
    h = np.concatenate((amps, np.zeros(c)))[idx[:, None] + idx] * binom
    ahbh = ((alpha ** idx)[:, None] * h.conj() * beta ** idx) @ h
    return scale * float(np.sum(ahbh * ahbh.T).real)


def _score_levels(eta: float, lam: float, support: int) -> int:
    """Output levels the two-copy check keeps of the score operator.

    Of the probes on `support` levels, the Fock state on the top one reaches
    furthest up: its score operator is diagonal, t_k = C(support - 1 + k, k)
    r^k up to a constant at output level k, with r = eta / (1 + lam + eta),
    and truncating it at c levels drops the share sum_{k>=c} t_k^2 / sum_k t_k^2
    of its squared Frobenius norm.  The smallest c that puts that share below
    _TWO_COPY_REL_TOL / 100 is kept, and never fewer than `support`; the
    tests check on seeded probes of every support that no probe drops more.
    Past _MAX_SCORE_LEVELS the ratio t_{k+1} / t_k only falls toward r, so a
    geometric series bounds the sum there.
    """
    _check_prior(eta, lam)
    top = _MAX_SCORE_LEVELS
    log_r = -math.log1p((1.0 + lam) / eta)
    k = np.arange(1.0, top + 1)
    log_t = np.concatenate(([0.0], np.cumsum(log_r + np.log((support - 1 + k) / k))))
    # the largest ratio t_{k+1} / t_k past the last level, squared
    ratio_sq = math.exp(2.0 * (log_r + math.log((support + top) / (top + 1.0))))
    if ratio_sq < 1.0:
        sq = np.exp(2.0 * (log_t - log_t.max()))
        tail = np.cumsum(sq[::-1])[::-1] + sq[-1] * ratio_sq / (1.0 - ratio_sq)
        kept = np.flatnonzero(tail <= _TWO_COPY_REL_TOL / 100.0 * tail[0])
        if kept.size:
            return max(support, int(kept[0]))
    raise InvalidInput(
        f"the two-copy check's score side needs more than {top} levels at eta {eta:g} "
        f"and lambda {lam:g} for a probe on {support} levels to resolve a relative "
        f"tolerance of {_TWO_COPY_REL_TOL:g}; it builds at most {top}")


def two_copy_check(phi, eta: float, lam: float, cutoff: int = 12) -> TwoCopyReport:
    """Cross-check ||score operator||_F^2 against the two-copy operator.

    The squared Frobenius norm of a probe's score operator equals the
    expectation of the two-copy operator in |phi> (x) |phi>.  The score side
    is the closed form of `outcome_score_operator`, its output kept to
    `_score_levels` levels, which follow the probe's support and (eta, lam)
    so that the levels it drops stay far below the relative tolerance
    _TWO_COPY_REL_TOL.  The two-copy side is exact (`_two_copy_value`): a
    trace over the probe's own levels through the beam-splitter form of B,
    with no rule and no truncation.  The sides share no construction, so
    agreement is a real consistency test of both.  `cutoff`, 1..64, bounds
    the probe's levels; trailing zero amplitudes are dropped.
    """
    if not 1 <= cutoff <= _MAX_SCORE_CUTOFF:
        raise InvalidInput(f"two-copy check supports cutoffs 1..{_MAX_SCORE_CUTOFF}, "
                           f"got {cutoff}")
    amps = _probe_amplitudes(phi)
    if amps.ndim != 1 or amps.size > cutoff:
        raise InvalidInput(f"the two-copy check takes one probe on at most {cutoff} "
                           f"levels, got shape {amps.shape}")
    nonzero = np.flatnonzero(amps)
    amps = amps[:nonzero[-1] + 1] if nonzero.size else amps[:1]
    levels = _score_levels(eta, lam, amps.size)
    value = _two_copy_value(amps, eta, lam)
    score = outcome_score_operator(np.pad(amps, (0, levels - amps.size)), eta, lam)
    frob = float(np.sum(np.abs(score) ** 2))
    rel = abs(frob - value) / max(frob, value, 1e-300)
    return TwoCopyReport(eta=eta, lam=lam, cutoff=cutoff, score_cutoff=levels,
                         frobenius_sq=frob, two_copy_value=value, rel_difference=rel,
                         tolerance=_TWO_COPY_REL_TOL, passed=rel <= _TWO_COPY_REL_TOL)
