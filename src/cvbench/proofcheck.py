"""Numerical audits of the identities behind the classical fidelity bound.

Three independent checks, each reported with explicit residuals:

* circulant-matrix identities used by the multi-copy argument -- determinant
  factorization, the closed-form spectrum, a product identity for the shifted
  eigenvalues and the modulus floor that controls the bound's prefactor;
* an operator bound: for any probe state, the top eigenvalue of its outcome
  score operator never exceeds the classical bound times the probe's overlap
  with the prior's average state.  Truncation only compresses the operator,
  so a violation found at finite cutoff is a genuine violation;
* a two-copy consistency identity tying the Frobenius norm of the score
  operator to the expectation of a two-copy integral operator, contracted in
  closed phase-circulant form rather than assembled as a matrix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fock
from .bounds import classical_bound
from .ensembles import GaussianPrior, QuadratureRule, gauss_rule
from .errors import InvalidInput

_IDENTITY_TOL = 1e-10
# Widest cutoffs the builders accept.  The score check's matched rule has
# (2 cutoff + 8)^2 nodes, so one (cutoff x nodes) ket array is 18 MiB at 64,
# and its Gauss-Laguerre weights overflow to NaN from cutoff 90 on.  The
# two-copy operator grows with the fourth power of its cutoff.
_MAX_SCORE_CUTOFF = 64
_MAX_TWO_COPY_CUTOFF = 16
# Largest copy and probe counts the checks accept.  The circulant check
# diagonalizes dense copies x copies matrices; the score check stacks one
# cutoff x cutoff operator per probe (500 probes at cutoff 64 peak near 310 MiB).
_MAX_COPIES = 512
_MAX_TRIALS = 500


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
        return asdict(self)


def circulant_identity_check(p: int, lam: float, eta: float,
                             tol: float = _IDENTITY_TOL) -> CirculantReport:
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
    if not (lam >= 0) or not (eta > 0):
        raise InvalidInput("circulant identities are checked for lam >= 0, eta > 0")
    if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= _MAX_COPIES:
        raise InvalidInput(f"copy count must be an integer in 1..{_MAX_COPIES}, got {p!r}")
    try:
        prod_target = (1.0 + lam + eta) ** p - eta ** p
    except OverflowError:
        raise InvalidInput(f"(1 + lambda + eta)^copies overflows a float at {p} copies, "
                           f"lambda {lam:g} and eta {eta:g}; use fewer copies") from None
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


def matched_quadrature(eta: float, lam: float, cutoff: int,
                       radial_points: int | None = None,
                       angular_points: int | None = None) -> QuadratureRule:
    """Importance rule under which score-operator integrands are polynomial.

    Reweighting the prior of width lam to a rule of width lam + 1 + eta
    cancels the Gaussian part of coherent-overlap integrands exactly, so
    2*cutoff + 8 points per factor integrate the remaining polynomial with no
    quadrature error at all.
    """
    radial = 2 * cutoff + 8 if radial_points is None else radial_points
    angular = 2 * cutoff + 8 if angular_points is None else angular_points
    return gauss_rule(GaussianPrior(lam + 1.0 + eta), radial_points=radial,
                      angular_points=angular)


def _probe_amplitudes(phi, cutoff: int | None = None) -> np.ndarray:
    amps = phi.amplitudes if isinstance(phi, fock.FockVector) else \
        np.asarray(phi, dtype=complex).ravel()
    if amps.size == 0:
        raise InvalidInput("probe state has no amplitudes")
    if cutoff is not None:
        if amps.size > cutoff:
            raise InvalidInput(
                f"probe lives on {amps.size} levels but the build is cut at {cutoff}")
        amps = np.pad(amps, (0, cutoff - amps.size))
    return amps


def outcome_score_operator(phi, eta: float, lam: float,
                           rule: QuadratureRule | None = None) -> fock.FockOperator:
    """Score operator of a probe state under the coherent-input prior.

    Integrates p(alpha) |<alpha|phi>|^2 |sqrt(eta) alpha><sqrt(eta) alpha|
    over the prior.  Its top eigenvalue is the best average-fidelity credit
    any re-preparation can earn from the measurement outcome `phi`, which is
    what the classical bound caps.  With the default matched rule the result
    is exactly the cutoff-compressed operator (the quadrature is exact for
    these polynomial-times-Gaussian integrands), and compression can only
    lower the top eigenvalue.
    """
    if not (eta > 0) or not (lam > 0):
        raise InvalidInput("score operator needs eta > 0 and lam > 0")
    amps = _probe_amplitudes(phi)
    cutoff = amps.size
    if rule is None:
        rule = matched_quadrature(eta, lam, cutoff)
    weights = rule.weights_for(lam)
    k_in = fock.coherent_amplitudes(rule.nodes, cutoff)
    overlap_sq = np.abs(amps.conj() @ k_in) ** 2
    k_out = fock.coherent_amplitudes(math.sqrt(eta) * rule.nodes, cutoff)
    matrix = (k_out * (weights * overlap_sq)) @ k_out.conj().T
    return fock.FockOperator(0.5 * (matrix + matrix.conj().T))


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
        return asdict(self)


def score_bound_check(eta: float, lam: float, trials: int = 50, cutoff: int = 20,
                      seed: int = 0, bound_scale: float = 1.0,
                      tol: float = 1e-8) -> ScoreBoundReport:
    """Check the score-operator bound on random probes plus the vacuum.

    For every probe phi the top eigenvalue of its score operator must stay
    below bound_scale * classical_bound(eta, lam) * <phi|rho_prior|phi>,
    where rho_prior is the prior's average state (thermal with mean 1/lam).
    Probe 0 is the vacuum, which saturates the honest bound exactly -- that
    makes `bound_scale` < 1 a built-in self-test: scaling the right-hand side
    down must produce a reported violation.
    """
    if not 0 <= trials <= _MAX_TRIALS:
        raise InvalidInput(f"trial count must be in 0..{_MAX_TRIALS}, got {trials}")
    if not 1 <= cutoff <= _MAX_SCORE_CUTOFF:
        raise InvalidInput(f"score-bound check supports cutoffs 1..{_MAX_SCORE_CUTOFF}, "
                           f"got {cutoff}")
    rng = np.random.default_rng(seed)
    probes = np.zeros((trials + 1, cutoff), dtype=complex)
    probes[0, 0] = 1.0
    if trials:
        raw = rng.standard_normal((trials, cutoff)) + 1j * rng.standard_normal((trials, cutoff))
        probes[1:] = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    rule = matched_quadrature(eta, lam, cutoff)
    weights = rule.weights_for(lam)
    k_in = fock.coherent_amplitudes(rule.nodes, cutoff)
    k_out = fock.coherent_amplitudes(math.sqrt(eta) * rule.nodes, cutoff)
    overlap_sq = np.abs(probes.conj() @ k_in) ** 2        # (trials+1, nodes)
    # scored[t] = sum_s (overlap_sq * weights)[t, s] |k_out_s><k_out_s|, one GEMM
    # per probe (a single broadcast batch would hold trials x cutoff x nodes)
    k_out_h = k_out.conj().T
    scored = np.stack([(k_out * v) @ k_out_h for v in overlap_sq * weights])
    scores = np.linalg.eigvalsh(scored)[:, -1]

    thermal = lam / (1.0 + lam) ** (1.0 + np.arange(cutoff))
    rhs = bound_scale * classical_bound(eta, lam) * (np.abs(probes) ** 2 @ thermal)
    violations = scores - rhs
    worst = int(np.argmax(violations))
    max_violation = float(violations[worst])
    honest_rhs = classical_bound(eta, lam) * (np.abs(probes[0]) ** 2 @ thermal)
    return ScoreBoundReport(
        eta=eta, lam=lam, cutoff=cutoff, random_trials=trials, seed=seed,
        bound_scale=bound_scale, tolerance=tol,
        max_violation=max_violation, worst_probe=worst,
        vacuum_saturation_gap=float(honest_rhs - scores[0]),
        passed=max_violation <= tol)


# ---------------------------------------------------------------------------
# two-copy consistency


def two_copy_operator(eta: float, lam: float, cutoff: int,
                      rule: QuadratureRule | None = None) -> np.ndarray:
    """Two-copy integral operator over independent prior draws.

    B = E_{a,b} [ exp(-eta |a - b|^2) |a><a| (x) |b><b| ], assembled on the
    truncated two-mode space as a cutoff^2 x cutoff^2 Hermitian matrix.  The
    Gaussian coupling between the copies is evaluated exactly; only the
    projectors are truncated.  This is the dense reference for the
    contraction `two_copy_check` uses; it is not on that check's path.
    """
    if not (eta > 0) or not (lam > 0):
        raise InvalidInput("two-copy operator needs eta > 0 and lam > 0")
    if not (1 <= cutoff <= _MAX_TWO_COPY_CUTOFF):
        raise InvalidInput(f"two-copy build supports cutoffs 1..{_MAX_TWO_COPY_CUTOFF} "
                           "(memory grows with the fourth power)")
    if rule is None:
        rule = matched_quadrature(eta, lam, cutoff,
                                  radial_points=2 * cutoff + 4,
                                  angular_points=2 * cutoff + 4)
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
    frobenius_sq: float
    two_copy_value: float
    rel_difference: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def _two_copy_value(amps: np.ndarray, eta: float, lam: float, cutoff: int) -> float:
    """<phi|<phi| B |phi>|phi> of `two_copy_operator`, without building B.

    With q_s = w_s |<phi|a_s>|^2 the value is sum_{s,t} q_s q_t
    exp(-eta |a_s - a_t|^2).  On the polar rule a_{ij} = r_i e^{2 pi i j/A}
    the coupling depends only on (i, k, j - l), so one FFT along the phase
    axis contracts it in R^2 A exponentials, all of them at most 1.
    """
    if not (eta > 0) or not (lam > 0):
        raise InvalidInput("two-copy value needs eta > 0 and lam > 0")
    if not 1 <= cutoff <= _MAX_SCORE_CUTOFF:
        raise InvalidInput(f"two-copy check supports cutoffs 1..{_MAX_SCORE_CUTOFF}, "
                           f"got {cutoff}")
    points = 2 * cutoff + 4
    rule = matched_quadrature(eta, lam, cutoff, radial_points=points,
                              angular_points=points)
    kets = fock.coherent_amplitudes(rule.nodes, cutoff)
    q = rule.weights_for(lam) * np.abs(amps.conj() @ kets) ** 2
    grid = rule.nodes.reshape(points, points)        # radius-major, phase minor
    # coupling[i, k, d] = exp(-eta |a_{i,0} - a_{k,d}|^2); a_{i,0} = r_i
    coupling = np.exp(-eta * np.abs(grid[:, :1, None] - grid[None, :, :]) ** 2)
    spectrum = np.fft.fft(coupling, axis=2).real     # real: even in d
    f = np.fft.fft(q.reshape(points, points), axis=1)
    return float(np.einsum("im,ikm,km->", f, spectrum, f.conj()).real / points)


def two_copy_check(phi, eta: float, lam: float, cutoff: int = 12,
                   rel_tol: float = 1e-3) -> TwoCopyReport:
    """Cross-check ||score operator||_F^2 against the two-copy operator.

    The squared Frobenius norm of a probe's score operator equals the
    expectation of the two-copy operator in |phi> (x) |phi>.  The two sides
    are built with independent quadratures and truncate different factors, so
    agreement is a real consistency test of both constructions.  The two-copy
    side is contracted in closed phase-circulant form (`_two_copy_value`), so
    its cost grows with cutoff^3 rather than with the cutoff^4 of the dense
    `two_copy_operator`.  Probes should live well inside the cutoff for the
    comparison to be meaningful.
    """
    amps = _probe_amplitudes(phi, cutoff)
    value = _two_copy_value(amps, eta, lam, cutoff)
    score = outcome_score_operator(amps, eta, lam)
    frob = float(np.sum(np.abs(score.matrix) ** 2))
    rel = abs(frob - value) / max(frob, value, 1e-300)
    return TwoCopyReport(eta=eta, lam=lam, cutoff=cutoff, frobenius_sq=frob,
                         two_copy_value=value, rel_difference=rel,
                         tolerance=rel_tol, passed=rel <= rel_tol)
