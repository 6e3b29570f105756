"""Every entry point that takes a task (eta, lambda) refuses a bad one the same way.

`bounds._check_task` decides what a valid task is: a finite eta > 0 and a
finite lambda >= 0.  The averages over a proper prior also need lambda > 0
(`bounds._check_prior`).  A bad value must raise InvalidInput that names it,
never a ValueError from math, a ZeroDivisionError, a LinAlgError, a
RuntimeWarning or a NaN result.
"""

import json
import math
import random
import re

import numpy as np
import pytest

from cvbench import certify, cli, fock, proofcheck, schemes
from cvbench.bounds import classical_bound
from cvbench.errors import InvalidInput
from cvbench.gaussian import average_fidelity_gaussian

CHANNEL = schemes.to_gaussian(schemes.PureLoss(0.6))
DATASET = certify.synthesize_dataset(schemes.PureLoss(0.6), [1.2, -1.2, 1.2j, -1.2j],
                                     20, 0.1, seed=1)
PROBE = np.eye(4)[0].astype(complex)

# (name, call(eta, lam), takes lambda, needs a proper prior)
ENTRIES = [
    ("schemes.optimal_mp_gain", schemes.optimal_mp_gain, True, False),
    ("schemes.mp_average_fidelity",
     lambda eta, lam: schemes.mp_average_fidelity(0.5, eta, lam), True, False),
    ("schemes.optimize_mp_gain", schemes.optimize_mp_gain, True, True),
    ("fock.average_fidelity_fock",
     lambda eta, lam: fock.average_fidelity_fock(fock.OffsetMap(), eta, lam, cutoff=8),
     True, True),
    ("fock.select_cutoff", fock.select_cutoff, True, True),
    ("gaussian.average_fidelity_gaussian",
     lambda eta, lam: average_fidelity_gaussian(CHANNEL, eta, lam), True, False),
    ("proofcheck.circulant_identity_check",
     lambda eta, lam: proofcheck.circulant_identity_check(3, lam, eta), True, False),
    ("proofcheck.outcome_score_operator",
     lambda eta, lam: proofcheck.outcome_score_operator(PROBE, eta, lam), True, True),
    ("proofcheck.two_copy_operator",
     lambda eta, lam: proofcheck.two_copy_operator(eta, lam, 4), True, True),
    ("proofcheck._two_copy_value",
     lambda eta, lam: proofcheck._two_copy_value(PROBE, eta, lam), True, True),
    ("proofcheck._score_levels",
     lambda eta, lam: proofcheck._score_levels(eta, lam, 4), True, True),
    ("proofcheck.score_bound_check",
     lambda eta, lam: proofcheck.score_bound_check(eta, lam, trials=2, cutoff=4), True, True),
    ("proofcheck.two_copy_check",
     lambda eta, lam: proofcheck.two_copy_check(PROBE, eta, lam, cutoff=4), True, True),
    ("certify.average_deviation",
     lambda eta, lam: certify.average_deviation(CHANNEL, eta, lam), True, True),
    # these take their prior from the dataset, or have none
    ("certify.delta_bar", lambda eta, lam: certify.delta_bar(DATASET, eta), False, False),
    ("certify.bootstrap_se", lambda eta, lam: certify.bootstrap_se(DATASET, eta), False, False),
    ("certify.expected_deviation",
     lambda eta, lam: certify.expected_deviation(CHANNEL, eta, 0.5 + 0.2j), False, False),
]
BAD_ETA = (0.0, -1.0, math.nan, math.inf)
BAD_LAM = (-1.0, math.nan, math.inf)


def _cases():
    for name, call, takes_lam, proper in ENTRIES:
        for eta in BAD_ETA:
            yield pytest.param(call, eta, 0.3, eta, id=f"{name}-eta={eta}")
        if takes_lam:
            for lam in BAD_LAM + ((0.0,) if proper else ()):
                yield pytest.param(call, 0.9, lam, lam, id=f"{name}-lambda={lam}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, eta, lam, bad", _cases())
def test_a_bad_task_is_refused_by_name(call, eta, lam, bad):
    with pytest.raises(InvalidInput, match=rf"got {re.escape(str(bad))}$"):
        call(eta, lam)


@pytest.mark.filterwarnings("error")
def test_a_numpy_scalar_task_that_overflows_is_refused_without_a_warning():
    with pytest.raises(InvalidInput, match=r"overflows a float at 1 copies, "
                                           r"lambda 1e\+308 and eta 1e\+308$"):
        classical_bound(np.float64(1e308), np.float64(1e308))


def test_the_flat_limit_names_the_closed_forms():
    with pytest.raises(InvalidInput, match=r"lambda = 0, the flat limit, is taken only "
                                           r"by the closed forms\), got 0\.0$"):
        fock.average_fidelity_fock(fock.OffsetMap(), 0.9, 0.0, cutoff=8)


def test_a_prior_too_narrow_for_any_cutoff_is_too_small_not_a_division_by_zero():
    # lambda / eta underflows to 0: the prior never decays below the cutoff
    with pytest.raises(fock.CutoffTooSmall, match="about inf"):
        fock.select_cutoff(2.0, 5e-324)


@pytest.mark.parametrize("argv, named", [
    (["--eta", "inf"], "eta must be positive and finite, got inf"),
    (["--lambda", "inf"], "lambda must be >= 0 and finite, got inf"),
    (["--eta", "1e17"], "at 3 copies, lambda 0.2 and eta 1e+17"),
    (["--eta", "1e17", "--copies", "1"], "at 1 copies, lambda 0.2 and eta 1e+17"),
    (["--eta", "1e17", "--copies", "2"], "at 2 copies, lambda 0.2 and eta 1e+17"),
])
def test_proofcheck_refuses_a_bad_task_with_a_usage_error(capsys, argv, named):
    code = cli.main(["proofcheck", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


def test_bound_at_the_flat_limit_reports_the_classical_bound_bit_for_bit(capsys):
    rng = random.Random(19)
    etas = [10.0 ** rng.uniform(-300, 300) for _ in range(60)]
    for eta in etas + [5e-324, 1.7e308, 0.5, 1.0, 2.0]:
        assert cli.main(["bound", "--eta", repr(eta), "--lambda", "0"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["optimal_mp_fidelity"] == classical_bound(eta, 0.0), eta
