"""Fidelity benchmarks for the coherent-state scaling task.

The task: amplitudes alpha are drawn from the Gaussian prior of width lam and
the device must output |sqrt(eta) alpha>.  `classical_bound` is the best
average fidelity any measure-and-prepare strategy can reach; beating it
certifies quantum-domain operation.  For deamplification it also follows
from a variance argument that quantum-domain operation is implied whenever
the summed quadrature deviation stays below `quadrature_threshold`.

This module also decides what a valid task is, for every module that takes
one: `_check_task` accepts a finite eta > 0 and a finite lam >= 0, where
lam = 0 is the flat-prior limit that only the closed forms take, and
`_check_prior` adds lam > 0 for the averages that need a proper prior.
Each raises InvalidInput naming the offending value.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidInput


def _require(ok, values, what: str) -> None:
    """Raise InvalidInput(what) naming the first entry of `values` where `ok` is false.

    `ok` is a condition evaluated elementwise on `values`, a scalar or an array.
    Conditions are plain comparisons, such as (x >= 0) & (x < inf) for
    finite and non-negative, so a Python scalar costs no numpy call.
    """
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise InvalidInput(f"{what}, got {np.asarray(values)[np.logical_not(ok)][0]}")


_NUMPY = (np.ndarray, np.generic)


def _unwrap(value):
    """A 0-d result as a Python scalar; arrays pass through."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value
    return value.item() if isinstance(value, _NUMPY) else value


# The narrow prior width that stands in for the flat prior (lam = 0) where an
# average or a grid weighting needs a proper one.
_SMALL_LAM = 1e-3


def _check_task(eta, lam, n_copies=1):
    _require((eta > 0) & (eta < np.inf), eta, "task gain eta must be positive and finite")
    _require((lam >= 0) & (lam < np.inf), lam, "prior width lambda must be >= 0 and finite")
    if isinstance(n_copies, bool) or not (
            isinstance(n_copies, int) or np.asarray(n_copies).dtype.kind in "iu"):
        raise InvalidInput(f"copy count must be an integer, got {n_copies!r}")
    _require(n_copies >= 1, n_copies, "copy count n_copies (--n-copies) must be >= 1")
    # The closed forms divide by n + lam + eta.  Python floats overflow to inf
    # without a warning; only numpy values need it silenced.
    try:
        if isinstance(eta, _NUMPY) or isinstance(lam, _NUMPY) or isinstance(n_copies, _NUMPY):
            with np.errstate(over="ignore"):
                ok = n_copies + lam + eta < np.inf
        else:
            ok = n_copies + lam + eta < np.inf
    except OverflowError:  # a Python int copy count past the float range
        ok = False
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        at = np.unravel_index(np.argmin(ok), np.shape(ok))
        n, lam, eta = (np.broadcast_to(v, np.shape(ok))[at] for v in (n_copies, lam, eta))
        raise InvalidInput(f"copies + lambda + eta overflows a float at {n} copies, "
                           f"lambda {lam} and eta {eta}")


def _check_prior(eta, lam):
    """`_check_task` for the averages over a proper prior, which also need lam > 0."""
    _check_task(eta, lam)
    _require(lam > 0, lam, "prior width lambda must be > 0 (lambda = 0, the flat limit, "
             "is taken only by the closed forms)")


def classical_bound(eta: float, lam: float = 0.0, n_copies: int = 1) -> float:
    """Best measure-and-prepare average fidelity for the scaling task.

    Single copy: (1 + lam) / (1 + lam + eta).  Handing the device N identical
    copies rescales both task parameters by 1/N, giving
    (N + lam) / (N + lam + eta); the bound grows with N toward 1.
    Broadcasts over arrays (integer ones for the copy count).
    """
    _check_task(eta, lam, n_copies)
    n = n_copies + 0.0  # a float, or a float array from an integer one
    return _unwrap((n + lam) / (n + lam + eta))


def quadrature_threshold(eta: float, lam: float = 0.0) -> float:
    """Quadrature-deviation criterion: mean deviation below this implies quantum domain.

    The summed deviation statistic delta_bar of any measure-and-prepare
    channel is at least 2 eta / (1 + lam + eta).  Only the single-copy
    criterion is available.  Broadcasts over arrays.
    """
    _check_task(eta, lam)
    return _unwrap(2.0 * (eta / (1.0 + lam + eta)))


def quantum_amp_bound(eta: float) -> float:
    """Best quantum average fidelity for amplification (eta > 1) in the flat-prior limit."""
    if not (eta > 1.0):
        raise DomainError(f"the amplification bound 1/eta holds only for eta > 1, got {eta}")
    return 1.0 / eta

