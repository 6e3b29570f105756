"""Fidelity benchmarks for the coherent-state scaling task.

The task: amplitudes alpha are drawn from the Gaussian prior of width lam and
the device must output |sqrt(eta) alpha>.  `classical_bound` is the best
average fidelity any measure-and-prepare strategy can reach; beating it
certifies quantum-domain operation.  For deamplification it also follows
from a variance argument that quantum-domain operation is implied whenever
the summed quadrature deviation stays below `quadrature_threshold`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _unwrap(value):
    """A 0-d result as a Python scalar; arrays pass through."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value
    return value.item() if isinstance(value, (np.ndarray, np.generic)) else value


def _check_task(eta, lam, n_copies):
    _require((eta > 0) & (eta < np.inf), eta, "task gain eta must be positive and finite")
    _require((lam >= 0) & (lam < np.inf), lam, "prior width lambda must be >= 0 and finite")
    if isinstance(n_copies, bool) or not (
            isinstance(n_copies, int) or np.asarray(n_copies).dtype.kind in "iu"):
        raise InvalidInput(f"copy count must be an integer, got {n_copies!r}")
    _require(n_copies >= 1, n_copies, "copy count must be >= 1")
    with np.errstate(over="ignore"):  # the closed forms divide by n + lam + eta
        try:
            ok = n_copies + lam + eta < np.inf
        except OverflowError:  # a Python int copy count past the float range
            ok = False
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        at = np.unravel_index(np.argmin(ok), np.shape(ok))
        n, lam, eta = (np.broadcast_to(v, np.shape(ok))[at] for v in (n_copies, lam, eta))
        raise InvalidInput(f"copies + lambda + eta overflows a float at {n} copies, "
                           f"lambda {lam} and eta {eta}")


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
    _check_task(eta, lam, 1)
    return _unwrap(2.0 * (eta / (1.0 + lam + eta)))


def quantum_amp_bound(eta: float) -> float:
    """Best quantum average fidelity for amplification (eta > 1) in the flat-prior limit."""
    if not (eta > 1.0):
        raise DomainError(f"the amplification bound 1/eta holds only for eta > 1, got {eta}")
    return 1.0 / eta


@dataclass(frozen=True)
class TaskSpec:
    """A scaling task: gain eta, prior width lam, copies per round."""

    eta: float
    lam: float = 0.0
    n_copies: int = 1

    def __post_init__(self):
        _check_task(self.eta, self.lam, self.n_copies)

    @property
    def classical_bound(self) -> float:
        return classical_bound(self.eta, self.lam, self.n_copies)

    @property
    def quadrature_threshold(self) -> float:
        return quadrature_threshold(self.eta, self.lam)
