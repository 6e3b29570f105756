import decimal
import math
from functools import lru_cache

import numpy as np
import pytest

from cvbench import certify, fock
from cvbench.ensembles import laguerre_rule

# The widest cutoff whose exact reference is a 40-digit decimal contraction;
# wider ones contract the offset recurrence's float kernels (`exact_average`).
DECIMAL_CUTOFF = 65


@pytest.fixture
def state_stack():
    """Builder of a (5, cutoff, cutoff) stack of test states.

    Coherent projectors at several phases, plus a full-rank displaced
    thermal state.
    """
    def build(cutoff):
        kets = fock.coherent_amplitudes([0.0, 0.9 - 0.4j, -0.7j, 1.3], cutoff).T
        stack = kets[:, :, None] * kets.conj()[:, None, :]
        mixed = fock.gaussian_state_fock([0.5, -0.8], [[0.9, 0.1], [0.1, 0.7]], cutoff)
        return np.concatenate([stack, mixed[None]])
    return build


def _prior_rule(eta: float, lam: float, cutoff: int):
    """Radii and prior weights of the N-node rule that is exact on the truncated space.

    After the phase average, <sqrt(eta) r|Phi_N(|r><r|)|sqrt(eta) r> of a map
    truncated to N levels is exp(-(1 + eta) r^2) times a polynomial of degree
    at most 2N - 2 in r^2.  N Gauss-Laguerre nodes of the width
    lam + 1 + eta integrate it exactly; the weights carry the prior of width
    lam (as (lam / width) w exp((1 + eta) r^2), in log space).  Its weights
    sum to 1 + 9e-13 near cutoff 180, so it is exact only up to that rounding.
    """
    width = lam + 1.0 + eta
    t, w = laguerre_rule(cutoff)
    return np.sqrt(t / width), lam / width * np.exp(np.log(w) + (1.0 + eta) / width * t)


@pytest.fixture
def prior_rule():
    """The tests' reference rule for the prior average: (radii, weights) of the
    N-node Gauss-Laguerre rule, exact on the truncated space up to rounding."""
    return _prior_rule


def _error_estimate(eta, lam, cutoff):
    """The engine's closed-form truncation bound plus its roundoff floor."""
    tau_in, tau_out = (1.0 + lam) ** -cutoff, (eta / (lam + eta)) ** cutoff
    return 2 * math.sqrt(tau_in) + 2 * math.sqrt(tau_out) + tau_out \
        + cutoff ** 2 * np.finfo(float).eps


@pytest.fixture
def per_node_average():
    """`fock.average_fidelity_fock` as an operator loop over the prior rule's nodes.

    The input projectors |r><r| of the prior rule go through `applier` as
    operators, in stacks of about 2**21 entries (64 projectors at cutoff 180,
    one stack up to cutoff 40; a map acts on each operator of a stack as on
    that operator alone), and the fidelities are summed in rule order; the
    error is the closed-form truncation bound plus its roundoff floor.
    Takes any map of operator stacks, phase-covariant or not.
    """
    def average(applier, eta, lam, cutoff):
        radii, weights = _prior_rule(eta, lam, cutoff)
        step = max(1, (1 << 21) // cutoff ** 2)
        total = 0.0
        for start in range(0, cutoff, step):
            r = radii[start:start + step]
            kets_in = fock.coherent_amplitudes(r, cutoff).T
            kets_out = fock.coherent_amplitudes(math.sqrt(eta) * r, cutoff).T
            projectors = kets_in[:, :, None] * kets_in.conj()[:, None, :]
            fids = fock.fidelity_pure(kets_out, applier(projectors))
            for w, f in zip(weights[start:start + step], fids):
                total += w * f
        return total, _error_estimate(eta, lam, cutoff)
    return average


@lru_cache(maxsize=8)
def recurrence_prior_kernels(eta: float, lam: float, cutoff: int) -> tuple:
    """The prior kernels W_0 ... W_(N-1) in float, by multiplies and divides only.

    W_d[i, j] = lam eta^(i+d/2) (i+j+d)! / (s^(i+j+d+1) sqrt(i! (i+d)! j! (j+d)!)),
    s = lam + 1 + eta, is the prior average of u_d[i] v_d[j] (see
    `fock.average_fidelity_fock`).  W_0 runs down its first row, lam / s^(j+1),
    and its columns, times eta (i+j) / (s i); W_d is W_(d-1)'s top left corner
    times sqrt(eta) (i+j+d) / (s sqrt((i+d) (j+d))).  No logarithm, no
    exponential and no power of two: independent of `fock._prior_kernels`.
    The entries stay in float range for the moderate (eta, lam) of the tests.
    """
    s = lam + 1.0 + eta
    i = np.arange(cutoff)
    w0 = np.empty((cutoff, cutoff))
    w0[0] = lam / s
    w0[0, 1:] = 1.0 / s
    np.cumprod(w0[0], out=w0[0])
    for row in range(1, cutoff):
        w0[row] = w0[row - 1] * (eta * (row + i) / (s * row))
    kernels = [w0]
    for d in range(1, cutoff):
        n = cutoff - d
        root = np.sqrt(i[:n] + d)
        step = math.sqrt(eta) * np.add.outer(i[:n], i[:n] + d) / (s * np.outer(root, root))
        kernels.append(kernels[-1][:n, :n] * step)
    return tuple(kernels)


@pytest.fixture
def recurrence_kernels():
    """`recurrence_prior_kernels`: the prior kernels W_d by the offset recurrence."""
    return recurrence_prior_kernels


@lru_cache(maxsize=8)
def decimal_prior_kernels(eta: float, lam: float, cutoff: int) -> tuple:
    """The prior kernels W_d as nested lists of 40-digit decimals, by the same
    recurrence as `recurrence_prior_kernels`, from the exact values of eta and lam."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        e, l = decimal.Decimal(eta), decimal.Decimal(lam)
        s = l + 1 + e
        root_eta = e.sqrt()
        roots = [decimal.Decimal(k).sqrt() for k in range(2 * cutoff)]
        row = [l / s]
        for j in range(1, cutoff):
            row.append(row[-1] / s)
        w0 = [row]
        for r in range(1, cutoff):
            w0.append([w * e * (r + j) / (s * r) for j, w in enumerate(w0[-1])])
        kernels = [w0]
        for d in range(1, cutoff):
            n = cutoff - d
            prev = kernels[-1]
            kernels.append([[prev[a][b] * root_eta * (a + b + d) / (s * roots[a + d] * roots[b + d])
                             for b in range(n)] for a in range(n)])
    return tuple(kernels)


def mixture_kernels(mixture, cutoff):
    """d -> the complex offset kernels A_d = sum_s w_s W_s[d:, d:] * conj(W_s[:N-d, :N-d])
    of a displacement mixture's phase average, from its unitaries, not from
    `DisplacementMixture.kernel_blocks`."""
    weights, u = mixture.unitaries(cutoff)
    return lambda d: np.tensordot(weights, u[:, d:, d:] * np.conj(u[:, :cutoff - d, :cutoff - d]),
                                  1)


@pytest.fixture
def complex_mixture_kernels():
    """`mixture_kernels`: a displacement mixture's complex offset kernels."""
    return mixture_kernels


def one_offset_kernels(factor, cutoff):
    """d -> A_d of one factor, each offset built alone: a displacement mixture's complex
    kernels (`mixture_kernels`), any other factor's one-offset block."""
    if isinstance(factor, fock.DisplacementMixture):
        return mixture_kernels(factor, cutoff)
    blocks = factor.kernel_blocks(cutoff)
    return lambda d: blocks(d, 1)[0]


def _operator_kernels(offset_map, cutoff):
    """d -> Re(A_d^(k) ... A_d^(1)) from each factor's one-offset kernels (complex for a
    displacement mixture), composed by plain matrix products, not by
    `OffsetMap.real_kernel_blocks`."""
    kernels = [one_offset_kernels(f, cutoff) for f in offset_map.factors]

    def real(d):
        out = np.eye(cutoff - d)
        for kernel in kernels:
            out = kernel(d) @ out
        return out.real
    return real


@pytest.fixture
def operator_kernels():
    """`_operator_kernels`: a map's real kernels, each offset composed alone."""
    return _operator_kernels


@pytest.fixture
def exact_average():
    """`fock.average_fidelity_fock`'s value on the truncated space, to about 1e-16.

    F = sum_d c_d <Re A_d, W_d> (c_0 = 1, c_d = 2) over the kernels each offset
    composes alone (`_operator_kernels`) and the prior kernels W_d of the recurrence: up to
    DECIMAL_CUTOFF a 40-digit decimal contraction of the float kernels with
    decimal W_d (`decimal_prior_kernels`), wider a float contraction with the
    float W_d (`recurrence_prior_kernels`), each offset's products summed
    exactly.  The error is the closed-form truncation bound plus its roundoff
    floor.
    """
    def average(offset_map, eta, lam, cutoff):
        kernels = _operator_kernels(offset_map, cutoff)
        if cutoff <= DECIMAL_CUTOFF:
            prior = decimal_prior_kernels(eta, lam, cutoff)
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                total = decimal.Decimal(0)
                for d, w in enumerate(prior):
                    part = sum(decimal.Decimal(a) * x for row_a, row_w in
                               zip(kernels(d).tolist(), w) for a, x in zip(row_a, row_w))
                    total += part if d == 0 else 2 * part
            value = float(total)
        else:
            prior = recurrence_prior_kernels(eta, lam, cutoff)
            value = math.fsum((1.0 if d == 0 else 2.0) * math.fsum((kernels(d) * w).ravel())
                              for d, w in enumerate(prior))
        return value, _error_estimate(eta, lam, cutoff)
    return average


def monte_carlo_bootstrap_se(ds, eta, n_boot, seed):
    """The bootstrap SE of `certify.bootstrap_se` estimated by n_boot Monte-Carlo resamples.

    Each resample redraws every (probe, quadrature) group's squared deviations
    with replacement, its total is the weighted sum of the redrawn means, and
    the SE is the totals' standard deviation (ddof 1).  Indices are drawn in
    blocks of at most 2**17 (one resample when a group is larger) and at most
    256 resamples, from one generator seeded with `seed`.  Its relative error
    has standard deviation about 1/sqrt(2 n_boot).
    """
    rng = np.random.default_rng(seed)
    totals = np.zeros(n_boot)
    for w, sq in certify._squared_deviations(ds, eta):
        n = sq.size
        rows = max(1, min(256, (1 << 17) // n))
        done = 0
        while done < n_boot:
            block = min(rows, n_boot - done)
            idx = rng.integers(0, n, size=(block, n))
            totals[done:done + block] += w * sq[idx].mean(axis=1)
            done += block
    return float(np.std(totals, ddof=1))


@pytest.fixture
def monte_carlo_se():
    """`monte_carlo_bootstrap_se`: the bootstrap SE by drawing resamples."""
    return monte_carlo_bootstrap_se
