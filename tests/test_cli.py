import ast
import dataclasses
import itertools
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvbench import certify, cli, fock, proofcheck, schemes
from cvbench.bounds import classical_bound, quadrature_threshold
from cvbench.certify import synthesize_dataset, write_dataset_csv
from cvbench.cli import _load_channel_spec, main
from cvbench.gaussian import coherent_mean
from cvbench.schemes import (CanonicalC, HeterodyneMP, PureLoss,
                             canonical_c_fidelity, mp_average_fidelity,
                             optimal_mp_gain)

B1 = '{"type": "canonical_b1"}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def loss_csv(tmp_path, n=2000, declared=None):
    ds = synthesize_dataset(PureLoss(0.6), [1.2, -1.2, 1.2j, -1.2j, 1.8, -1.8,
                                            1.8j, -1.8j], n, 0.1, seed=7,
                            eta_declared=declared)
    path = tmp_path / "loss.csv"
    write_dataset_csv(ds, path)
    return path


# ---------------------------------------------------------------------------
# bound


def test_bound_flat_prior_unit_gain(capsys):
    code, doc, _ = run_json(capsys, "bound", "--eta", "1", "--lambda", "0")
    assert code == 0
    result = doc["result"]
    assert result["classical_bound"] == 0.5
    assert result["quadrature_threshold"] == 1.0
    assert result["optimal_mp_gain"] == pytest.approx(1.0)
    assert doc["command"] == "bound" and doc["seed"] == 0
    assert doc["config"]["eta"] == 1.0


def test_bound_reports_the_amplification_ceiling(capsys):
    code, doc, _ = run_json(capsys, "bound", "--eta", "2", "--lambda", "0")
    assert code == 0
    assert doc["result"]["classical_bound"] == pytest.approx(1.0 / 3.0)
    assert doc["result"]["quantum_amp_bound"] == 0.5


def test_bound_multicopy_drops_single_copy_extras(capsys):
    code, doc, _ = run_json(capsys, "bound", "--eta", "1", "--lambda", "0",
                            "--n-copies", "4")
    assert code == 0
    assert doc["result"]["classical_bound"] == pytest.approx(0.8)
    assert "quadrature_threshold" not in doc["result"]


def test_bound_at_the_largest_gains_stays_finite(capsys):
    code, doc, _ = run_json(capsys, "bound", "--eta", "1e308")
    assert code == 0
    assert doc["result"]["quadrature_threshold"] == 2.0
    assert doc["result"]["classical_bound"] == 1.0 / (1.0 + 1e308)
    code, doc, _ = run_json(capsys, "sweep", "--eta", "1e308", "--lambda", "0.5",
                            "--format", "json")
    assert code == 0
    assert doc["result"]["rows"][0][3] == 2.0


@pytest.mark.parametrize("command", ["bound", "sweep"])
def test_an_overflowing_task_is_a_usage_error_that_names_it(capsys, command):
    code, out, err = run(capsys, command, "--eta", "1e308", "--lambda", "1e308")
    assert code == 2 and out == ""
    assert "lambda 1e+308 and eta 1e+308" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_single_quadrature_channel(capsys):
    code, doc, _ = run_json(capsys, "simulate", "--channel", B1,
                            "--eta", "1", "--lambda", "0.05")
    assert code == 0
    result = doc["result"]
    assert result["fbar_gaussian"] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    assert result["quantum_domain"] is True
    assert result["margin"] > 0.29


def test_simulate_matched_loss_is_perfect(capsys):
    code, doc, _ = run_json(capsys, "simulate", "--channel",
                            '{"type": "pure_loss", "T": 0.5}',
                            "--eta", "0.5", "--lambda", "0.3")
    assert code == 0
    assert doc["result"]["fbar_gaussian"] == 1.0


def test_simulate_infers_gain_and_warns(capsys):
    code, doc, _ = run_json(capsys, "simulate", "--channel",
                            '{"type": "pure_loss", "T": 0.49}', "--lambda", "0.2")
    assert code == 0
    assert doc["result"]["eta"] == pytest.approx(0.49)
    assert any("defaulted to the channel's own gain" in w for w in doc["warnings"])


def test_simulate_both_engines_agree(capsys):
    g = 1.0 / 1.2
    code, doc, _ = run_json(capsys, "simulate", "--channel",
                            json.dumps({"type": "heterodyne_mp", "g": g}),
                            "--eta", "1", "--lambda", "0.2",
                            "--engine", "both", "--cutoff", "40")
    assert code == 0
    result = doc["result"]
    assert result["engine_gap"] <= 1e-3 + result["fock_error_estimate"]
    assert result["quantum_domain"] is False
    assert result["fbar_gaussian"] == pytest.approx(1.2 / 2.2, rel=1e-12)


def test_simulate_matched_flat_prior_reruns_fock_at_finite_width(capsys):
    code, doc, _ = run_json(capsys, "simulate", "--channel",
                            '{"type": "pure_loss", "T": 0.5}',
                            "--eta", "0.5", "--lambda", "0", "--engine", "both",
                            "--cutoff", "40")
    assert code == 0
    assert any("prior-independent" in w for w in doc["warnings"])
    assert doc["result"]["lambda_used_fock"] == 0.2
    assert doc["result"]["fbar_fock"] == pytest.approx(1.0, abs=2e-3)


def test_simulate_matched_large_gain_widens_the_fock_prior_to_fit_the_cutoff(capsys):
    # at lambda = 0.2 the output prior of gain 2 would need a cutoff of about 242
    code, doc, _ = run_json(capsys, "simulate", "--channel",
                            '{"type": "quantum_limited_amp", "G": 2}',
                            "--lambda", "0", "--engine", "both")
    assert code == 0
    result = doc["result"]
    assert result["lambda_used_fock"] == fock.narrowest_auto_lambda(2.0) > 0.2
    assert result["engine_gap"] <= result["fock_error_estimate"]


def test_simulate_honest_failure_when_cutoff_cannot_hold_the_prior(capsys):
    code, _, err = run(capsys, "simulate", "--channel",
                       '{"type": "pure_loss", "T": 0.6}',
                       "--eta", "1", "--lambda", "0", "--engine", "fock",
                       "--cutoff", "30")
    assert code == 1
    assert "cvbench simulate:" in err


def test_simulate_flat_prior_failure_names_the_proxy_the_cutoff_and_the_lost_weight(capsys):
    code, out, err = run(capsys, "simulate", "--channel",
                         '{"type": "pure_loss", "T": 0.6}', "--eta", "0.8",
                         "--lambda", "0", "--engine", "fock", "--cutoff", "24")
    assert code == 1
    assert out == ""
    assert "flat-prior proxy" in err and "lambda = 0.001" in err
    assert "cutoff 24" in err
    assert f"tau_in = {1.001 ** -24:.3g}" in err


def test_simulate_failure_names_the_targets_lost_weight(capsys):
    # at eta = 30 the inputs fit cutoff 40, but the targets |sqrt(eta) alpha>
    # keep (30 / 30.3)^40 of their weight above it
    code, out, err = run(capsys, "simulate", "--channel",
                         '{"type": "pure_loss", "T": 0.6}', "--eta", "30",
                         "--lambda", "0.3", "--engine", "fock", "--cutoff", "40")
    assert code == 1
    assert out == ""
    assert "tau_in = 2.77e-05" in err and "tau_out = 0.672" in err


def test_simulate_unmatched_flat_prior_gives_one_proxy_warning(capsys):
    code, doc, _ = run_json(capsys, "simulate", "--channel",
                            '{"type": "pure_loss", "T": 0.6}', "--eta", "0.8",
                            "--lambda", "0")
    assert code == 0
    assert doc["warnings"] == ["flat prior replaced by lambda = 0.001 for an unmatched "
                               "channel, whose flat-prior average diverges"]
    assert doc["result"]["lambda_used_gaussian"] == 0.001


@pytest.mark.parametrize("channel, eta, bound, proxy, verdict", [
    ('{"type":"canonical_b1"}', "1", 0.5, False, "QUANTUM_DOMAIN"),
    ('{"type":"pure_loss","T":0.5}', "0.5", 1 / 1.5, False, "QUANTUM_DOMAIN"),
    ('{"type":"pure_loss","T":0.5}', "0.8", classical_bound(0.8, 1e-3), True,
     "NOT_CERTIFIED"),
], ids=["b1-matched", "loss-matched", "loss-unmatched"])
def test_simulate_and_certify_share_one_flat_prior_rule(capsys, channel, eta, bound, proxy,
                                                        verdict):
    # a matched channel keeps lambda = 0; only an unmatched one gets the proxy
    argv = ("--channel", channel, "--eta", eta, "--lambda", "0")
    code, sim, _ = run_json(capsys, "simulate", *argv)
    code_cert, cert, _ = run_json(capsys, "certify", *argv)
    assert (code, code_cert) == (0, 0 if verdict == "QUANTUM_DOMAIN" else 1)
    assert cert["result"]["verdict"] == verdict
    assert sim["result"]["classical_bound"] == cert["result"]["threshold"] == bound
    assert sim["warnings"] == cert["warnings"] == (
        ["flat prior replaced by lambda = 0.001 for an unmatched channel, "
         "whose flat-prior average diverges"] if proxy else [])


def test_simulate_ignores_quad_with_a_warning(capsys):
    argv = ["simulate", "--channel", '{"type": "pure_loss", "T": 0.6}', "--eta",
            "0.8", "--lambda", "0.4", "--engine", "both", "--cutoff", "24"]
    code, plain, _ = run_json(capsys, *argv)
    code_quad, with_quad, _ = run_json(capsys, *argv, "--quad", "6,4")
    assert code == code_quad == 0
    assert "quad" not in plain["config"] and with_quad["config"]["quad"] == "6,4"
    assert plain["warnings"] == []
    assert any("--quad is ignored" in w for w in with_quad["warnings"])
    assert with_quad["result"] == plain["result"]


@pytest.mark.parametrize("channel", [
    B1, '{"type": "gaussian", "K": [[1.1, 0], [0, 1.1]], "M": [[0.4, 0], [0, 0.2]], '
        '"disp": [0.3, -0.2]}'], ids=["B1", "raw"])
def test_simulate_fock_engine_averages_the_phase_averaged_map(capsys, channel,
                                                             per_node_average):
    # One real amplitude per radius is exact only for the phase average of a
    # map that is not phase-covariant; the channel's own map gives another value.
    code, doc, _ = run_json(capsys, "simulate", "--channel", channel, "--eta", "1",
                            "--lambda", "0.4", "--engine", "fock", "--cutoff", "16")
    assert code == 0
    model = _load_channel_spec(channel)
    expected = fock.average_fidelity_fock(schemes.fock_applier(model),
                                          1.0, 0.4, cutoff=16)
    own_map, _ = per_node_average(schemes.fock_applier(model), 1.0, 0.4, 16)
    assert doc["result"]["fbar_fock"] == expected.value
    assert abs(own_map - expected.value) > 1e-6


def test_simulate_automatic_cutoff_stops_at_its_cap():
    # The flat-prior proxy lambda = 1e-3 asks for |alpha|^2 ~ 19,000, i.e. a
    # cutoff ~ 150,000: the engine must refuse rather than grow until killed.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cvbench.cli", "simulate", "--channel",
         '{"type":"pure_loss","T":0.5}', "--eta", "1", "--lambda", "0",
         "--engine", "fock"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "cvbench simulate:" in proc.stderr
    assert "--cutoff" in proc.stderr


def test_simulate_explicit_cutoff_above_the_cap_is_refused_at_once():
    # A cutoff of 2000 would run dense 2000 x 2000 Kraus sums for every node.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cvbench.cli", "simulate", "--channel",
         '{"type":"pure_loss","T":0.5}', "--eta", "1", "--lambda", "0.3",
         "--engine", "fock", "--cutoff", "2000"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert "between 1 and 180" in proc.stderr


@pytest.mark.parametrize("cutoff", ["0", "-3", "181", "1025"])
def test_simulate_explicit_cutoff_out_of_range_is_a_usage_error(capsys, cutoff):
    code, out, err = run(capsys, "simulate", "--channel",
                         '{"type": "pure_loss", "T": 0.5}', "--eta", "1",
                         "--lambda", "0.3", "--engine", "fock",
                         f"--cutoff={cutoff}")
    assert code == 2
    assert out == ""
    assert "between 1 and 180" in err


@pytest.mark.parametrize("engine", ["fock", "both"])
@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_simulate_non_finite_task_gain_is_a_usage_error(capsys, eta, engine):
    code, out, err = run(capsys, "simulate", "--channel",
                         '{"type": "pure_loss", "T": 0.5}', "--eta", eta,
                         "--lambda", "0.3", "--engine", engine)
    assert code == 2
    assert out == ""
    assert "positive and finite" in err


def test_simulate_rejects_unphysical_channels(capsys):
    bad = '{"K": [[2.0, 0.0], [0.0, 2.0]], "M": [[1.0, 0.0], [0.0, 1.0]]}'
    code, _, err = run(capsys, "simulate", "--channel", bad, "--eta", "4")
    assert code == 3
    assert "complete-positivity" in err


# isotropic gain 2 with too little noise, and an anisotropic displaced one
NOT_CP = ['{"K": [[2.0, 0.0], [0.0, 2.0]], "M": [[1.0, 0.0], [0.0, 1.0]]}',
          '{"K": [[2.0, 0.1], [0.0, 1.5]], "M": [[0.1, 0.0], [0.0, 0.1]], "disp": [0.2, 0.0]}']
CP_MESSAGE = "channel (K, M) fails the complete-positivity criterion"


@pytest.mark.parametrize("channel", NOT_CP, ids=["isotropic", "anisotropic"])
@pytest.mark.parametrize("engine", ["gaussian", "fock", "both"])
@pytest.mark.parametrize("eta", [None, "4", "1"])
@pytest.mark.parametrize("lam", ["0", "0.3"])
def test_simulate_exits_3_on_a_non_cp_channel(capsys, channel, engine, eta, lam):
    argv = ["simulate", "--channel", channel, "--engine", engine, "--lambda", lam]
    code, out, err = run(capsys, *argv, *(["--eta", eta] if eta else []))
    assert (code, out, err) == (3, "", f"cvbench simulate: {CP_MESSAGE}\n")


@pytest.mark.parametrize("channel", NOT_CP, ids=["isotropic", "anisotropic"])
@pytest.mark.parametrize("lam", ["0", "0.3"])
def test_certify_exits_3_on_a_non_cp_channel(capsys, channel, lam):
    code, out, err = run(capsys, "certify", "--channel", channel, "--eta", "4", "--lambda", lam)
    assert (code, out, err) == (3, "", f"cvbench certify: {CP_MESSAGE}\n")


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("channel, field", [
    ('{"type":"pure_loss","T":"x"}', "channel model 'pure_loss' field 'T'"),
    ('{"type":"pure_loss","T":null}', "channel model 'pure_loss' field 'T'"),
    ('{"type":"pure_loss","T":[0.5]}', "channel model 'pure_loss' field 'T'"),
    ('{"type":"compose","parts":5}', "channel model 'compose' field 'parts'"),
    ('{"K":[[1,0],[0,1]],"M":"x"}', "Gaussian channel field 'M'"),
    ('{"K":"x","M":[[1,0],[0,1]]}', "Gaussian channel field 'K'"),
    ('{"K":[[1,0],[0,1]],"M":[[1,0],[0,1]],"disp":"x"}', "Gaussian channel field 'disp'"),
    ('{"type":"gaussian","K":[[1,0],[0,1]],"M":"x"}', "Gaussian channel field 'M'"),
    ('{"type":"gaussian","M":[[1,0],[0,1]]}', "'K' is missing"),
    ('{"type":"pure_loss","T":0.5,"K":[[1,0],[0,1]],"M":[[0,0],[0,0]]}',
     "channel model 'pure_loss' does not take fields 'K', 'M'"),
    ('{"type":"pure_loss","T":0.5,"Tx":3}', "channel model 'pure_loss' does not take field 'Tx'"),
    ('{"type":"compose","parts":[{"type":"canonical_b1","T":1}]}',
     "channel model 'canonical_b1' does not take field 'T'"),
    ('{"K":[[1,0],[0,1]],"M":[[1,0],[0,1]],"T":1}', "channel model 'gaussian' does not take"),
], ids=["text", "null", "list", "parts", "raw-M", "raw-K", "raw-disp", "tagged-M",
        "tagged-no-K", "tag-wins-over-K-M", "typo", "part-typo", "raw-extra"])
def test_a_malformed_channel_field_is_a_usage_error_that_names_it(capsys, command,
                                                                   channel, field):
    code, out, err = run(capsys, command, "--channel", channel, "--eta", "1",
                         "--lambda", "0.3")
    assert code == 2 and out == ""
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("channel, message", [
    ('{"type":"quantum_limited_amp","G":"inf"}',
     "channel model 'quantum_limited_amp' field 'G' must be >= 1 and finite, got inf"),
    ('{"type":"canonical_c","eta":1,"ntilde":"inf"}',
     "channel model 'canonical_c' field 'ntilde' must be >= 0 and finite, got inf"),
    ('{"type":"heterodyne_mp","g":"nan"}',
     "channel model 'heterodyne_mp' field 'g' must be >= 0 and finite, got nan"),
])
def test_a_non_finite_model_parameter_is_a_usage_error(capsys, channel, message):
    code, out, err = run(capsys, "simulate", "--channel", channel, "--eta", "1",
                         "--lambda", "0.3")
    assert code == 2 and out == ""
    assert message in err


FLIPPED = '{"K": [[-0.5, 0], [0, -0.5]], "M": [[0.375, 0], [0, 0.375]]}'


def test_simulate_does_not_infer_a_gain_from_a_negative_k(capsys):
    # K = -0.5 I is a pi-rotated attenuator; its gain is not the task's 0.25
    code, out, err = run(capsys, "simulate", "--channel", FLIPPED, "--lambda", "0.3")
    assert code == 2 and out == ""
    assert "cannot infer a task gain" in err and "pass --eta" in err


def test_fock_refusal_of_a_negative_k_names_the_condition(capsys):
    code, _, err = run(capsys, "simulate", "--channel", FLIPPED, "--eta", "0.25",
                       "--lambda", "0.3", "--engine", "fock", "--cutoff", "16")
    assert code == 2
    assert "k > 0" in err


# A raw channel whose added noise or mean is past what the Fock realization
# can hold: 2 variance, or the mean times a truncated quadrature spectrum,
# overflows, and the displacement mixture used to turn NaN.
HUGE_FOCK = [("M", 0, 0, 1e308), ("M", 1, 1, 1e308), ("disp", 0, None, 1e308),
             ("disp", 1, None, 1e308), ("disp", 0, None, -1e308), ("disp", 1, None, -1e308)]
FOCK_BASE = {"type": "gaussian", "K": [[0.7, 0.0], [0.0, 0.7]],
             "M": [[0.6, 0.0], [0.0, 0.6]], "disp": [0.0, 0.0]}


def _with_entry(base, field, i, j, value):
    channel = json.loads(json.dumps(base))
    if j is None:
        channel[field][i] = value
    else:
        channel[field][i][j] = value
    return json.dumps(channel)


def test_fock_realization_refuses_an_overflowing_noise_or_mean_and_runs_1e200(capsys):
    for (field, i, j, value), engine in itertools.product(HUGE_FOCK, ["fock", "both"]):
        channel = _with_entry(FOCK_BASE, field, i, j, value)
        code, out, err = run(capsys, "simulate", "--channel", channel, "--eta", "0.5",
                             "--lambda", "0.3", "--engine", engine)
        assert (code, out) == (2, ""), (field, value, engine)
        assert err.startswith("cvbench simulate: ") and err.count("\n") == 1, err
        named = "noise matrix M" if field == "M" else "displacement disp"
        assert named in err and "Fock realization" in err
    for field, i, j, _ in HUGE_FOCK[:4]:
        channel = _with_entry(FOCK_BASE, field, i, j, 1e200)
        code, doc, err = run_json(capsys, "simulate", "--channel", channel, "--eta", "0.5",
                                  "--lambda", "0.3", "--engine", "fock")
        assert code == 0 and math.isfinite(doc["result"]["fbar_fock"]), (field, err)


CLOSED_FORM_BASE = {"type": "gaussian", "K": [[0.7, 0.0], [0.0, 0.7]],
                    "M": [[0.6, 0.0], [0.0, 0.6]], "disp": [0.3, -0.2]}
EXTREMES = (1e308, -1e308, 1e-300, 5e-324)


def _extreme_channels():
    """(name, channel JSON, K, M) with one entry, or a diagonal, or both
    displacements of the base channel set to an extreme value."""
    for field, value in itertools.product(("K", "M", "disp"), EXTREMES):
        spots = [(0, None), (1, None), ((0, 1), None)] if field == "disp" else \
            [(i, j) for i in range(2) for j in range(2)] + [("diag", None)]
        for i, j in spots:
            channel = json.loads(json.dumps(CLOSED_FORM_BASE))
            if i == "diag":
                channel[field] = [[value, 0.0], [0.0, value]]
            elif isinstance(i, tuple):
                channel[field] = [value, -value]
            elif j is None:
                channel[field][i] = value
            else:
                channel[field][i][j] = value
            yield f"{field}[{i},{j}]={value}", channel


def _exactly_cp(K, M):
    """The complete-positivity verdict in exact rational arithmetic."""
    from fractions import Fraction
    (k00, k01), (k10, k11) = [[Fraction(x) for x in row] for row in K]
    (m00, m01), (m10, m11) = [[Fraction(x) for x in row] for row in M]
    tol = Fraction(1e-12)
    b = (m01 + m10) / 2
    psd = m00 + tol >= 0 and m11 + tol >= 0 and (m00 + tol) * (m11 + tol) >= b * b
    floor = abs(k00 * k11 - k01 * k10 - 1) / 2 - tol
    return abs(m01 - m10) <= tol and psd and (floor <= 0 or m00 * m11 - m01 * m10 >= floor ** 2)


def test_closed_forms_at_extreme_entries_exit_cleanly_without_nan(capsys):
    """K, M and disp entries of +-1e308, 1e-300 and 5e-324 under the Gaussian engine
    and certify --channel: a channel that is not completely positive exits 3, an
    off-diagonal K entry of +-1e308 (whose K K^T overflows) exits 2 naming the
    overflow, and every other run reports finite numbers, a huge mean fidelity 0."""
    for name, channel in _extreme_channels():
        cp = _exactly_cp(channel["K"], channel["M"])
        overflow = channel["K"][0][1] in (1e308, -1e308) or channel["K"][1][0] in (1e308, -1e308)
        for argv in (["simulate", "--engine", "gaussian"], ["certify"]):
            code, out, err = run(capsys, *argv, "--channel", json.dumps(channel),
                                 "--eta", "0.5", "--lambda", "0.3")
            if not cp or overflow:
                assert (code, out) == (3 if not cp else 2, ""), (name, argv, err)
                assert err.startswith(f"cvbench {argv[0]}: ") and err.count("\n") == 1
                assert "overflow" in err if cp else "complete-positivity" in err
                continue
            assert code in ((0,) if argv[0] == "simulate" else (0, 1)), (name, argv, err)
            assert "NaN" not in out and "Infinity" not in out and err == "", (name, argv)
            if argv[0] == "simulate" and max(map(abs, channel["disp"])) == 1e308:
                assert json.loads(out)["result"]["fbar_gaussian"] == 0.0


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_simulate_tolerance_must_be_finite_and_non_negative(capsys, value):
    code, out, err = run(capsys, "simulate", "--channel", '{"type": "pure_loss", "T": 0.5}',
                         "--eta", "0.5", "--lambda", "0.3", "--engine", "both",
                         "--cutoff", "16", "--tolerance", value)
    assert code == 2 and out == ""
    assert f"--tolerance must be >= 0 and finite, got {float(value)}" in err


# ---------------------------------------------------------------------------
# certify


def test_certify_quantum_dataset_exits_zero(capsys, tmp_path):
    path = loss_csv(tmp_path)
    code, doc, _ = run_json(capsys, "certify", "--input", str(path),
                            "--lambda", "0.1", "--eta", "0.6",
                            "--n-boot", "200")
    assert code == 0
    assert doc["result"]["verdict"] == "QUANTUM_DOMAIN"
    assert len(doc["input_sha256"]) == 64


def test_certify_input_with_a_declared_gain_reports_no_estimate_from_two_probes(capsys,
                                                                              tmp_path):
    # the gain estimate needs three distinct probes; the declared gain decides alone
    ds = synthesize_dataset(PureLoss(0.6), [1.8, -1.8], 500, 0.1, seed=7)
    path = tmp_path / "two.csv"
    write_dataset_csv(ds, path)
    code, doc, _ = run_json(capsys, "certify", "--input", str(path), "--lambda", "0.1",
                            "--eta", "0.6", "--n-boot", "0")
    assert code == 0
    assert doc["result"]["eta_source"] == "declared"
    assert doc["result"]["eta_estimated"] is None
    assert doc["result"]["n_probes"] == 2


def test_certify_classical_dataset_exits_one(capsys, tmp_path):
    ds = synthesize_dataset(HeterodyneMP(1.0 / 1.1),
                            [1.2, -1.2, 1.2j, -1.2j, 1.8, -1.8, 1.8j, -1.8j],
                            2000, 0.1, seed=8)
    path = tmp_path / "mp.csv"
    write_dataset_csv(ds, path)
    code, doc, _ = run_json(capsys, "certify", "--input", str(path),
                            "--lambda", "0.1", "--eta", "1",
                            "--n-boot", "200")
    assert code == 1
    assert doc["result"]["verdict"] == "NOT_CERTIFIED"


def test_certify_notes_a_fidelity_floor_above_one(capsys, tmp_path):
    # shot noise puts this near-perfect channel's variance statistic below 0
    path = loss_csv(tmp_path, n=500)
    argv = ["certify", "--input", str(path), "--lambda", "0.1", "--eta", "0.6",
            "--n-boot", "0"]
    _, variance, _ = run_json(capsys, *argv)
    code, doc, _ = run_json(capsys, *argv, "--method", "fidelity")
    statistic = doc["result"]["statistic"]
    assert statistic == 1.0 - variance["result"]["statistic"] / 2.0 > 1.0
    assert code == 0 and doc["result"]["verdict"] == "QUANTUM_DOMAIN"
    note = [w for w in doc["warnings"] if "exceeds 1" in w]
    assert note == [f"the fidelity statistic {statistic:.6g} exceeds 1: it is an unclipped "
                    "shot-noise estimate, 1 - (variance statistic)/2, of an average "
                    "fidelity that is at most 1"]
    assert doc["result"]["notes"] == note
    assert not any("exceeds 1" in w for w in variance["warnings"])
    # a floor below 1 carries no note
    noisy = tmp_path / "noisy.csv"
    write_dataset_csv(synthesize_dataset(CanonicalC(0.6, 0.3), [1.2, -1.2, 1.2j, -1.2j],
                                         500, 0.1, seed=7), noisy)
    _, below, _ = run_json(capsys, "certify", "--input", str(noisy), "--lambda", "0.1",
                           "--eta", "0.6", "--n-boot", "0", "--method", "fidelity")
    assert below["result"]["statistic"] < 1.0
    assert not any("exceeds 1" in w for w in below["warnings"])


def test_certify_fidelity_float_route(capsys):
    code, doc, _ = run_json(capsys, "certify", "--fbar", "0.9", "--eta", "1",
                            "--lambda", "0.05", "--se", "0.01")
    assert code == 0
    assert doc["result"]["method"] == "fidelity"


def test_certify_channel_route_checks_physicality(capsys):
    bad = '{"K": [[2.0, 0.0], [0.0, 2.0]], "M": [[1.0, 0.0], [0.0, 1.0]]}'
    code, _, err = run(capsys, "certify", "--channel", bad,
                       "--eta", "4", "--lambda", "0.1")
    assert code == 3
    assert "cvbench certify:" in err


def test_certify_malformed_csv_reports_the_line(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha_re,alpha_im,quad_label,value\n"
                    "1.0,0.0,plus,0.5\n"
                    "1.0,0.0,minus,oops\n")
    code, _, err = run(capsys, "certify", "--input", str(path),
                       "--lambda", "0.1", "--eta", "1")
    assert code == 4
    assert "line 3" in err


def test_certify_non_utf8_csv_is_a_dataset_error_that_names_the_line(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"alpha_re,alpha_im,quad_label,value\n1.0,0.0,plus,0.5\n"
                     b"1.0,0.0,minus,0.1\xff\n")
    code, _, err = run(capsys, "certify", "--input", str(path), "--eta", "0.6",
                       "--lambda", "0.3", "--n-boot", "0")
    assert code == 4
    assert err == "cvbench certify: dataset error (line 3): byte 0xff is not UTF-8 text\n"


def test_certify_needs_some_input(capsys):
    code, _, err = run(capsys, "certify", "--eta", "1", "--lambda", "0.1")
    assert code == 2
    assert "--input, --fbar, or --channel" in err


@pytest.mark.parametrize("flag, value", [
    ("--k", "-3"), ("--k", "nan"), ("--k", "inf"), ("--se", "nan"), ("--se", "inf")])
def test_certify_refuses_a_negative_or_non_finite_k_or_se(capsys, flag, value):
    # 0.5 is the bound at eta = 1, lambda = 0, which heterodyne at g = 1 reaches
    argv = {"--k": "3", "--se": "0.1"}
    argv[flag] = value
    code, out, err = run(capsys, "certify", "--fbar", "0.5", "--eta", "1",
                         "--lambda", "0", *itertools.chain(*argv.items()))
    assert code == 2 and out == ""
    assert f"got {float(value)}" in err


@pytest.mark.parametrize("eta", ["inf", "nan", "-1", "0"])
def test_certify_input_refuses_a_bad_declared_gain_as_a_dataset_error(capsys, tmp_path, eta):
    path = loss_csv(tmp_path, n=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "certify", "--input", str(path), "--lambda", "0.1",
                             "--eta", eta)
    assert code == 4 and out == ""
    assert f"declared gain eta (--eta) must be positive and finite, got {float(eta)}" in err
    assert "Traceback" not in err and "Warning" not in err


def test_certify_input_refuses_to_estimate_a_gain_from_probes_at_the_origin(capsys, tmp_path):
    # three distinct probes at |alpha| ~ 1e-200, whose squared quadrature means underflow
    path = tmp_path / "origin.csv"
    write_dataset_csv(synthesize_dataset(PureLoss(0.6), [1e-200, -1e-200, 1e-200j], 20, 0.1,
                                         seed=3), path)
    code, out, err = run(capsys, "certify", "--input", str(path), "--lambda", "0.1")
    assert (code, out) == (4, "")
    assert err == ("cvbench certify: dataset error: gain estimation needs probes away "
                   "from the origin\n")


def test_certify_non_numeric_weights_are_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "certify", "--input", str(loss_csv(tmp_path, n=50)),
                       "--lambda", "0.1", "--eta", "0.6", "--weights", "a,b,c,d")
    assert code == 2
    assert "'a,b,c,d'" in err


@pytest.mark.parametrize("route, flag, value, line", [
    ("fbar", "--fbar", "nan", "average fidelity fbar (--fbar) must lie in [0, 1], got nan"),
    ("fbar", "--se", "nan", "standard error se (--se) must be >= 0 and finite, got nan"),
    ("fbar", "--k", "-1", "required margin k (--k) must be >= 0 and finite, got -1.0"),
    ("input", "--k", "-1", "required margin k (--k) must be >= 0 and finite, got -1.0"),
    ("input", "--lambda", "-1",
     "dataset error: prior width lambda (--lambda) must be positive and finite, got -1.0"),
    ("input", "--lambda", "inf",
     "dataset error: prior width lambda (--lambda) must be positive and finite, got inf"),
    ("input", "--lambda", "nan",
     "dataset error: prior width lambda (--lambda) must be positive and finite, got nan"),
])
def test_certify_names_the_flag_of_a_refused_value(capsys, tmp_path, route, flag, value, line):
    base = {"fbar": {"--fbar": "0.7", "--eta": "1", "--lambda": "0.2"},
            "input": {"--input": str(loss_csv(tmp_path, n=50)), "--eta": "0.6",
                      "--lambda": "0.1"}}[route]
    argv = {**base, flag: value}
    code, out, err = run(capsys, "certify", *[x for item in argv.items() for x in item])
    assert (code, out) == (cli.EXIT_DATA if line.startswith("dataset") else cli.EXIT_USAGE, "")
    assert err == f"cvbench certify: {line}\n"


def test_certify_negative_bootstrap_count_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "certify", "--input", str(loss_csv(tmp_path, n=50)),
                       "--lambda", "0.1", "--eta", "0.6", "--n-boot", "-5")
    assert code == 2
    assert "got -5" in err


@pytest.mark.parametrize("n_boot", ["100000000000000000000", "9223372036854775807"])
def test_certify_oversized_bootstrap_count_is_a_usage_error(capsys, tmp_path, n_boot):
    code, out, err = run(capsys, "certify", "--input", str(loss_csv(tmp_path, n=50)),
                         "--lambda", "0.1", "--eta", "0.6", "--n-boot", n_boot)
    assert code == 2 and out == ""
    assert f"at most {cli._MAX_BOOT} resamples, got {n_boot}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_boot, message", [
    ("1", "at least 2 resamples, got 1"), ("-5", "at least 2 resamples, got -5"),
    ("100001", "at most 100000 resamples, got 100001"),
])
def test_certify_refuses_a_bootstrap_count_before_reading_the_input(
        capsys, monkeypatch, tmp_path, n_boot, message):
    def must_not_read(*args, **kwargs):
        raise AssertionError("the input was read for a refused bootstrap count")
    monkeypatch.setattr(cli, "hashlib", type("NoHash", (), {"sha256": must_not_read}))
    monkeypatch.setattr(certify, "read_dataset_csv", must_not_read)
    for method in ("variance", "fidelity"):
        code, out, err = run(capsys, "certify", "--input", str(tmp_path / "absent.csv"),
                             "--lambda", "0.1", "--eta", "0.6", "--method", method,
                             "--n-boot", n_boot)
        assert code == 2 and out == ""
        assert message in err


def test_certify_help_names_the_bootstrap_range(capsys):
    code, out, _ = run(capsys, "certify", "--help")
    assert code == 0
    assert (f"bootstrap SE, exact for every count 2..{cli._MAX_BOOT} (0 = analytic SE) "
            "(default 1000)") in " ".join(out.split())


@pytest.mark.parametrize("method", ["variance", "fidelity"])
def test_certify_bootstrap_se_does_not_depend_on_the_count_or_the_seed(capsys, tmp_path,
                                                                       method):
    argv = ["certify", "--input", str(loss_csv(tmp_path, n=500)), "--lambda", "0.1",
            "--eta", "0.6", "--method", method]
    results = [run_json(capsys, *argv, "--n-boot", n_boot, "--seed", seed)[1]["result"]
               for n_boot, seed in (("2", "1"), ("100000", "9"), ("0", "1"))]
    assert results[0] == results[1]
    # the analytic SE's group variances are over n - 1, the bootstrap's over n
    assert results[2]["se"] == results[0]["se_analytic"] > results[0]["se"]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_versioned_csv(capsys, tmp_path):
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "sweep", "--eta", "0.5,1.0", "--lambda", "0.1,0.2",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == "# command=sweep"
    header = next(l for l in lines if not l.startswith("#"))
    assert "classical_bound" in header and "optimal_mp_gain" in header
    assert sum(1 for l in lines if not l.startswith("#")) == 1 + 4
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".cvbench*"))


def test_sweep_output_is_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["sweep", "--eta", "0.25,1,2", "--lambda", "0.05,1",
                     "--ntilde", "0.1,0.9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_refuses_oversized_grids(capsys):
    axis = ",".join(str(x / 100.0 + 0.01) for x in range(101))
    code, _, err = run(capsys, "sweep", "--eta", axis, "--lambda", axis,
                       "--g", axis)
    assert code == 2
    assert "split the sweep" in err


def test_sweep_rejects_unknown_grid_keys(capsys):
    code, _, err = run(capsys, "sweep", "--grid", '{"bogus": [1, 2]}')
    assert code == 2
    assert "bogus" in err


def _sweep_reference(axes: dict):
    """Header and rows of a sweep, point by point from the public scalar closed forms."""
    keys = [k for k in ("eta", "lambda", "g", "ntilde", "n_copies") if k in axes]
    columns = keys + ["classical_bound", "quadrature_threshold", "optimal_mp_gain",
                      "optimal_mp_fidelity"]
    columns += ["mp_fidelity"] * ("g" in axes)
    columns += ["canonical_fbar", "detection_margin", "quantum_domain"] * ("ntilde" in axes)
    rows = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        p = dict(zip(keys, combo))
        eta, lam, n = p["eta"], p.get("lambda", 0.0), p.get("n_copies", 1)
        g_opt = optimal_mp_gain(eta, lam)
        row = list(combo) + [classical_bound(eta, lam, n),
                             quadrature_threshold(eta, lam) if n == 1 else None, g_opt,
                             mp_average_fidelity(g_opt, eta, lam) if lam > 0
                             else classical_bound(eta, 0.0)]
        if "g" in p:
            row.append(mp_average_fidelity(p["g"], eta, lam))
        if "ntilde" in p:
            fbar = canonical_c_fidelity(eta, p["ntilde"])
            row += [fbar, fbar - classical_bound(eta, 0.0),
                    p["ntilde"] < min(1.0, eta)]
        rows.append(row)
    return columns, rows


def _sweep_argv(axes: dict):
    flags = {"eta": "--eta", "lambda": "--lambda", "g": "--g", "ntilde": "--ntilde",
             "n_copies": "--n-copies"}
    argv = ["sweep"]
    for key, vals in axes.items():
        argv += [flags[key], ",".join(map(repr, vals))]
    return argv


_grid_rng = np.random.default_rng(2024)
SWEEP_GRIDS = {
    "g-axis": {"eta": [0.5, 1.0, 2.0], "lambda": [0.1, 0.45], "g": [0.0, 0.5, 1.3]},
    "copies-axis": {"eta": [0.3, 1.0, 2.5], "lambda": [0.0, 0.2], "n_copies": [1, 2, 5]},
    "flat-prior": {"eta": [0.5, 2.0], "lambda": [0.0, 0.3],
                   "g": [0.0, math.sqrt(0.5), math.sqrt(2.0), 1.0]},
    "ntilde-axis": {"eta": [0.4, 1.0, 1.7], "ntilde": [0.0, 0.3, 0.99, 1.5]},
    "random-five-axes": {
        "eta": _grid_rng.uniform(0.05, 3.0, 9).tolist(),
        "lambda": [0.0] + _grid_rng.uniform(0.0, 2.0, 5).tolist(),
        "g": [0.0] + _grid_rng.uniform(0.0, 3.0, 4).tolist(),
        "ntilde": _grid_rng.uniform(0.0, 2.0, 3).tolist(),
        "n_copies": [1, 3]},
    # a length-1 axis between longer ones, and classical_bound on the whole grid
    "length-one-middle-axis": {"eta": [0.3, 1.0, 2.5, 0.05], "lambda": [0.35],
                               "n_copies": [1, 4, 9]},
}


@pytest.mark.parametrize("block_rows", [7, cli._SWEEP_BLOCK_ROWS])
@pytest.mark.parametrize("axes", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS.keys())
def test_sweep_csv_matches_the_per_point_closed_forms(capsys, monkeypatch, axes, block_rows):
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", block_rows)
    columns, rows = _sweep_reference(axes)
    code, out, _ = run(capsys, *_sweep_argv(axes))
    assert code == 0
    body = [line for line in out.splitlines(keepends=True) if not line.startswith("#")]
    want = [",".join(columns) + "\n"] + [
        ",".join("" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                 for v in row) + "\n" for row in rows]
    assert body == want


@pytest.mark.parametrize("axes", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS.keys())
def test_sweep_json_matches_the_per_point_closed_forms(capsys, axes):
    columns, rows = _sweep_reference(axes)
    code, doc, _ = run_json(capsys, *_sweep_argv(axes), "--format", "json")
    assert code == 0
    assert doc["result"] == {"columns": columns, "rows": rows}
    assert doc["command"] == "sweep" and doc["warnings"] == []


# a grid of more than one _SWEEP_BLOCK_ROWS block
LARGE_GRID = {"eta": np.linspace(0.05, 3.0, 70).tolist(), "lambda": [0.0, 0.2, 1.5],
              "g": [0.0, 0.4, 0.9, 1.2, 2.0], "ntilde": [0.1, 0.7, 1.1, 2.5]}


@pytest.mark.parametrize("block_rows", [7, cli._SWEEP_BLOCK_ROWS])
@pytest.mark.parametrize("axes", [*SWEEP_GRIDS.values(), LARGE_GRID],
                         ids=[*SWEEP_GRIDS.keys(), "larger-than-a-block"])
def test_sweep_json_is_the_json_dumps_rendering(capsys, monkeypatch, axes, block_rows):
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", block_rows)
    code, out, _ = run(capsys, *_sweep_argv(axes), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert len(doc["result"]["rows"]) == math.prod(map(len, axes.values()))


# grids of 1 to 5 axes with length-1 axes among them; the (2, block + 2) grid
# of each test has a last axis alone longer than the block
BOX_SHAPES = [(1,), (6,), (9, 1), (1, 1, 1), (1, 8), (2, 1, 3), (3, 4, 1, 2), (4, 3, 5),
              (2, 1, 3, 1, 2), (1, 3, 2, 1, 4)]


@pytest.mark.parametrize("block_rows", [1, 3, 7, 4096])
def test_sweep_rows_are_the_per_point_joins_in_boxes_of_at_most_a_block(monkeypatch,
                                                                        block_rows):
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    for shape in BOX_SHAPES + [(2, block_rows + 2)]:
        columns = []
        for c in range(int(rng.integers(1, 7))):
            depends = rng.random(len(shape)) < 0.6
            axes = tuple(n if d else 1 for n, d in zip(shape, depends))
            columns.append(np.array([f"c{c}.{i}" for i in range(math.prod(axes))],
                                    dtype=object).reshape(axes))
        chunks = list(cli._sweep_rows(iter(columns), shape, ",", "<", ">", "|"))
        want = "|".join(
            "<" + ",".join(col[tuple(i if n > 1 else 0 for i, n in zip(point, col.shape))]
                           for col in columns) + ">"
            for point in np.ndindex(*shape))
        assert "".join(chunks) == want, shape
        assert chunks[-1] == ">"
        assert all(chunk.count("<") <= block_rows for chunk in chunks[:-1]), shape


def test_sweep_json_refuses_a_cell_before_writing(capsys, monkeypatch):
    monkeypatch.setattr(schemes, "canonical_c_fidelity",
                        lambda eta, ntilde: np.where(ntilde > 0.5, np.nan, 0.5 + 0 * eta))
    with pytest.raises(ValueError, match="not JSON compliant"):
        main(["sweep", "--eta", "0.5,1", "--ntilde", "0.1,0.9", "--format", "json"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("eta, ntilde, fbar", [
    ("5e-324", "1e308", 1e-308), ("1.7976931348623157e308", "0", 1.0 / 1.7976931348623157e308),
    ("1.7976931348623157e308", "1e308", 0.0)])
def test_canonical_fidelity_at_the_float_extremes_warns_nothing(capsys, eta, ntilde, fbar):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = run_json(capsys, "sweep", "--eta", eta, "--lambda", "0",
                                  "--ntilde", ntilde, "--format", "json")
    assert code == 0 and err == ""
    assert doc["result"]["rows"][0][doc["result"]["columns"].index("canonical_fbar")] == fbar


def test_canonical_fidelity_keeps_its_doubled_form_values_on_the_sweep_grids():
    for axes in SWEEP_GRIDS.values():
        for eta, ntilde in itertools.product(axes["eta"], axes.get("ntilde", [0.0, 0.3])):
            assert canonical_c_fidelity(eta, ntilde) == \
                2.0 / (1.0 + eta + abs(1.0 - eta) + 2.0 * ntilde)


def _large_sweep(capsys, path, fmt):
    """A 10**5-point sweep written to `path`: its text, and the traced peak of writing it."""
    def axis(n):
        return ",".join(repr(0.02 + 0.037 * i) for i in range(n))
    tracemalloc.start()
    try:
        code = main(["sweep", "--eta", axis(50), "--lambda", axis(40), "--ntilde", axis(50),
                     "--format", fmt, "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    return path.read_text(), peak


def test_sweep_memory_follows_the_block_not_the_grid(capsys, tmp_path):
    text, peak = _large_sweep(capsys, tmp_path / "big.csv", "csv")
    rows = text.count("\n") - 5
    assert rows == 10 ** 5
    block_text = len(text) / rows * cli._SWEEP_BLOCK_ROWS
    # The grid's whole text is more than 20 blocks; one block's text, its
    # row strings, cell lists and encoded bytes take about 5.
    assert len(text) > 20 * block_text
    assert peak < 8 * block_text


def test_sweep_json_memory_follows_the_block_not_the_grid(capsys, tmp_path):
    text, peak = _large_sweep(capsys, tmp_path / "big.json", "json")
    rows = len(json.loads(text)["result"]["rows"])
    assert rows == 10 ** 5
    block_text = len(text) / rows * cli._SWEEP_BLOCK_ROWS
    assert len(text) > 20 * block_text
    assert peak < 8 * block_text


# 200 x 125 (eta, lambda) cells, six blocks' worth, against a 2-point ntilde axis
LOPSIDED_GRID = {"eta": np.linspace(0.1, 2.0, 200).tolist(),
                 "lambda": np.linspace(0.0, 1.0, 125).tolist(), "ntilde": [0.1, 0.9]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_segments_follow_the_cells_not_the_grid(capsys, tmp_path, fmt):
    _, columns = cli._sweep_columns({k: np.array(v) for k, v in LOPSIDED_GRID.items()})
    cells = sum(sys.getsizeof(repr(v)) + 8 for c in columns for v in c.ravel().tolist())
    path = tmp_path / f"lopsided.{fmt}"
    tracemalloc.start()
    try:
        code = main([*_sweep_argv(LOPSIDED_GRID), "--format", fmt, "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    rows = math.prod(map(len, LOPSIDED_GRID.values()))
    block_text = path.stat().st_size / rows * cli._SWEEP_BLOCK_ROWS
    path.unlink()
    # The cells, each run's segment (its texts joined, so no larger than its
    # cells) and a few blocks.  A segment widened to the 5 * 10**4 rows of
    # the grid would not fit.
    assert peak < 2 * cells + 4 * block_text


@pytest.mark.parametrize("flag, values, message", [
    ("--g", "0.2,nan", "re-preparation gain must be >= 0 and finite, got nan"),
    ("--g", "0.2,inf", "re-preparation gain must be >= 0 and finite, got inf"),
    ("--g", "0.2,-0.5", "re-preparation gain must be >= 0 and finite, got -0.5"),
    ("--ntilde", "0.2,nan", "added noise ntilde must be >= 0 and finite, got nan"),
    ("--ntilde", "0.2,-0.5", "added noise ntilde must be >= 0 and finite, got -0.5"),
    ("--ntilde", "0.2,inf", "added noise ntilde must be >= 0 and finite, got inf"),
    ("--lambda", "0.2,-1", "prior width lambda must be >= 0 and finite, got -1.0"),
    ("--n-copies", "1,0", "copy count n_copies (--n-copies) must be >= 1, got 0"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_rejects_unphysical_axis_values(capsys, flag, values, message, fmt):
    code, out, err = run(capsys, "sweep", "--eta", "0.5,1", flag, values, "--format", fmt)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("grid, message", [
    ('{"eta": [true]}', "sweep key 'eta' wants numeric values, got True"),
    ('{"eta": [1], "lambda": [0.1, false]}', "'lambda' wants numeric values, got False"),
    ('{"eta": [1], "n_copies": [1.5, true]}', "'n_copies' wants whole numbers"),
    ('{"eta": [1], "n_copies": [true]}', "'n_copies' wants whole numbers"),
    ('{"eta": [1], "n_copies": [1e30]}', "'n_copies' wants whole numbers"),
])
def test_sweep_grid_rejects_booleans_and_fractional_copies(capsys, grid, message):
    code, out, err = run(capsys, "sweep", "--grid", grid)
    assert code == 2
    assert out == ""
    assert message in err


def test_sweep_grid_accepts_integral_float_copy_counts(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--grid", '{"eta": [1], "n_copies": [2.0]}',
                            "--format", "json")
    assert code == 0
    assert doc["result"]["rows"] == [[1.0, 2, classical_bound(1.0, 0.0, 2), None, 1.0, 0.5]]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_out_gives_a_new_file_the_umask_mode(capsys, tmp_path, umask_022):
    out = tmp_path / "o.json"
    assert main(["bound", "--eta", "1", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_out_keeps_the_mode_of_an_overwritten_file(capsys, tmp_path, umask_022):
    out = tmp_path / "table.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    assert main(["sweep", "--eta", "0.5,1", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text().startswith("# version=")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "overwritten"])
def test_a_failed_write_leaves_no_temporary_file_and_the_target_as_it_was(tmp_path, umask_022,
                                                                          existing):
    out = tmp_path / "table.csv"
    if existing:
        out.write_text("old\n")
        out.chmod(0o640)

    def chunks():
        yield "new\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        cli._atomic_write(chunks(), str(out))
    assert not list(tmp_path.glob(".cvbench-*.tmp"))
    if existing:
        assert out.read_text() == "old\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
    else:
        assert not out.exists()


@pytest.mark.parametrize("rows, line", [
    ("nan,0.0,plus,0.5\nnan,0.0,minus,0.5\n", 4),
    ("2.0,0.0,plus,0.5\n2.0,0.0,minus,inf\n", 5),
], ids=["nan-amplitude", "inf-value"])
def test_certify_names_the_line_of_a_non_finite_field(capsys, tmp_path, rows, line):
    path = tmp_path / "bad.csv"
    path.write_text("alpha_re,alpha_im,quad_label,value\n"
                    "1.0,0.0,plus,0.5\n1.0,0.0,minus,0.5\n" + rows)
    code, out, err = run(capsys, "certify", "--input", str(path),
                         "--lambda", "0.1", "--eta", "1")
    assert code == 4
    assert out == ""
    assert f"(line {line})" in err and "non-finite field" in err


# ---------------------------------------------------------------------------
# proofcheck


def test_proofcheck_defaults_pass(capsys):
    code, doc, _ = run_json(capsys, "proofcheck")
    assert code == 0
    result = doc["result"]
    assert result["passed"] is True
    assert result["circulant"]["passed"] is True
    assert result["score_bound"]["passed"] is True
    assert result["two_copy"]["passed"] is True


def test_proofcheck_defaults_pass_above_unit_gain(capsys):
    # at two-copy cutoff 10 the truncated score operator misses the
    # two-copy side by 4.9e-3 here, above the check's 1e-3 tolerance
    code, doc, _ = run_json(capsys, "proofcheck", "--eta", "1.5")
    assert code == 0
    assert doc["result"]["two_copy"]["passed"] is True


def test_proofcheck_above_unit_gain_passes_at_a_wider_two_copy_cutoff(capsys):
    # at eta = 3 a score operator truncated at the two-copy cutoff of 16 would
    # miss the two-copy side by 1.1e-2; its output levels follow the probe's
    # support and eta instead
    code, doc, _ = run_json(capsys, "proofcheck", "--eta", "3")
    assert code == 0
    assert doc["result"]["two_copy"]["passed"] is True
    code, doc, _ = run_json(capsys, "proofcheck", "--eta", "3", "--two-copy-cutoff", "24")
    assert code == 0
    two = doc["result"]["two_copy"]
    assert two["passed"] is True and two["cutoff"] == 24
    assert two["rel_difference"] < 1e-3


@pytest.mark.parametrize("argv, score_cutoff", [
    ((), 18), (("--eta", "3"), 44), (("--eta", "6"), 84),
    (("--eta", "10", "--lambda", "0.2"), 136),
])
def test_proofcheck_score_side_levels_follow_eta_at_default_flags(capsys, argv,
                                                                 score_cutoff):
    code, doc, _ = run_json(capsys, "proofcheck", *argv)
    assert code == 0
    two = doc["result"]["two_copy"]
    assert two["passed"] is True
    assert two["cutoff"] == 16 and two["score_cutoff"] == score_cutoff


@pytest.mark.parametrize("eta, score_cutoff", [("15", 201), ("18", 240)])
def test_proofcheck_passes_at_high_gain(capsys, eta, score_cutoff):
    # the quadrature two-copy side missed by 1.0e-3 and 1.9e-3 here; the
    # exact side leaves only the score side's truncation
    code, doc, _ = run_json(capsys, "proofcheck", "--eta", eta)
    assert code == 0
    two = doc["result"]["two_copy"]
    assert two["passed"] is True and two["score_cutoff"] == score_cutoff
    assert two["rel_difference"] < 1e-5


def test_proofcheck_refuses_a_score_side_past_its_level_cap(capsys, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("the two-copy value was built for a refused score side")
    monkeypatch.setattr(proofcheck, "_two_copy_value", must_not_build)
    code, out, err = run(capsys, "proofcheck", "--eta", "25", "--trials", "2")
    assert code == 2 and out == ""
    assert "needs more than 320 levels at eta 25 and lambda 0.2 for a probe on 6 levels" in err
    assert "at most 320" in err


@pytest.mark.parametrize("flag, value, limit", [
    ("--cutoff", "0", 64), ("--cutoff", "-3", 64), ("--cutoff", "65", 64),
    ("--two-copy-cutoff", "-3", 64), ("--two-copy-cutoff", "65", 64),
])
def test_proofcheck_cutoff_out_of_range_is_a_usage_error(capsys, flag, value, limit):
    code, out, err = run(capsys, "proofcheck", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert f"between 1 and {limit}" in err


@pytest.mark.parametrize("flag, value, limits", [
    ("--copies", "0", "1 and 512"), ("--copies", "513", "1 and 512"),
    ("--copies", "1024", "1 and 512"),
    ("--trials", "-1", "0 and 500"), ("--trials", "501", "0 and 500"),
])
def test_proofcheck_count_out_of_range_is_refused_before_any_build(
        capsys, monkeypatch, flag, value, limits):
    def must_not_build(*args, **kwargs):
        raise AssertionError("a check was built for a refused count")
    for name in ("circulant_identity_check", "score_bound_check", "two_copy_check"):
        monkeypatch.setattr(proofcheck, name, must_not_build)
    code, out, err = run(capsys, "proofcheck", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert f"between {limits}" in err


def test_proofcheck_overflowing_copy_count_is_a_usage_error(capsys):
    code, out, err = run(capsys, "proofcheck", "--copies", "300", "--eta", "10",
                         "--lambda", "1", "--trials", "0")
    assert code == 2
    assert out == ""
    assert "overflows a float at 300 copies" in err


def test_proofcheck_help_names_the_count_ranges(capsys):
    code, out, _ = run(capsys, "proofcheck", "--help")
    assert code == 0
    assert "1..512" in out and "0..500" in out
    assert "two-copy check's probe, 1..64 (default 16)" in " ".join(out.split())


def _parse_outcome(capsys, parse, argv):
    """What a parse gives: the namespace or the exit code, then stdout and stderr."""
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_main_parses_as_the_full_parser_does(capsys, command):
    for argv in ([command, "-h"], [command, "--bogus"], [command, "--bogus", "1"],
                 [command, "extra"], [command, "--lam", "0.3"], [command, "--lam", "x"],
                 [command, "--seed", "x"], [command, "--seed"], [command, "--lam"],
                 [command, "--eta=1"], [command, "--eta", "-1"], [command, "--eta", "-1e5"],
                 [command, "--engine", "bogus"], [command, "--cutoff", "1.5"],
                 [command, "--seed", ""], [command, "--n_copies", "2"], [command, "++seed", "1"]):
        full = _parse_outcome(capsys, cli.build_parser().parse_args, argv)
        assert _parse_outcome(capsys, cli._parse, argv) == full, argv
        if not isinstance(full[0], dict):
            assert run(capsys, *argv) == (0 if full[0] == 0 else 2, full[1], full[2]), argv
    # leftovers are refused under the top-level usage line
    _, _, err = run(capsys, command, "--bogus")
    assert err.startswith("usage: cvbench [-h] {") and "unrecognized arguments: --bogus" in err


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


def test_repeated_main_calls_reuse_parsers_and_give_the_same_bytes(capsys, tmp_path):
    config = tmp_path / "bound.json"
    config.write_text('{"eta": 0.5, "lambda": 0.2}')
    csv = str(loss_csv(tmp_path, n=50))
    sequence = [
        ["bound", "--eta", "1"],
        ["simulate", "--channel", '{"type":"pure_loss","T":0.5}', "--eta", "0.5",
         "--lambda", "0.3", "--engine", "both", "--cutoff", "24"],
        ["bound", "--bogus", "1"],
        ["certify", "--input", csv, "--lambda", "0.1", "--eta", "0.6", "--n-boot", "10"],
        ["sweep", "--seed", "x"],
        ["sweep", "--eta", "0.5,1", "--lambda", "0,0.2", "--format", "json"],
        ["proofcheck", "--trials", "2", "--cutoff", "6", "--two-copy-cutoff", "8"],
        ["simulate", "--help"],
        ["--help"],
        ["nonesuch", "--eta", "1"],
        [],
        ["bound", "--config", str(config)],
        ["bound", "--config", str(config), "--eta", "2"],
    ]
    cli._parser.cache_clear()
    rounds = [[run(capsys, *argv) for argv in sequence] for _ in range(3)]
    assert rounds[0] == rounds[1] == rounds[2]
    assert [code for code, _, _ in rounds[0]] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 2, 2, 0, 0]
    # clean lines build no parser, and every other line shares the one full parser
    assert cli._parser.cache_info().currsize == 1


def test_a_reused_parser_reads_the_terminal_width_when_it_prints(capsys, monkeypatch):
    helps = []
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.append(run(capsys, "simulate", "--help")[1])
    assert helps[0] == helps[2] != helps[1]


def test_importing_the_cli_builds_no_parser():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cvbench.cli as cli; print(cli._parser.cache_info().currsize)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "0\n"


def test_a_clean_command_line_builds_no_parser(contract_argvs):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = "\n".join([
        "import contextlib, io, json, sys, cvbench.cli as cli",
        "sizes = []",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in json.loads(sys.argv[1]):",
        "        sizes.append([cli.main(argv), cli._parser.cache_info().currsize])",
        "print(json.dumps(sizes))"])
    argvs = list(contract_argvs.values()) + [["bound", "--eta", "1", "--lam", "0.2"]]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    # a clean line of each subcommand is read from the table; the abbreviated
    # --lam goes to argparse, which builds the one full parser
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0]] * len(contract_argvs) + [[0, 1]]


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_a_joined_flag_line_gives_its_clean_twins_bytes_from_the_one_parser(
        capsys, contract_argvs, command):
    clean = contract_argvs[command]
    joined = [command, f"{clean[1]}={clean[2]}", *clean[3:]]
    assert cli._table_pass(command, clean[1:]) is not None
    assert cli._table_pass(command, joined[1:]) is None
    cli._parser.cache_clear()
    first = run(capsys, *clean)
    assert cli._parser.cache_info().currsize == 0
    # the --flag=value twin goes to argparse, which builds the one full parser
    assert run(capsys, *joined) == first and first[0] == 0 and first[1]
    assert cli._parser.cache_info().currsize == 1


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_help_and_errors_of_a_subcommand_share_the_one_full_parser(capsys, command):
    cli._parser.cache_clear()
    for argv in ([command, "--help"], [command, "--bogus", "1"], [command, "--seed", "x"],
                 [command, "--seed"]):
        code, out, err = run(capsys, *argv)
        assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True)), argv
        assert (out or err).startswith("usage: cvbench "), argv
        assert code != 0 or out.startswith(f"usage: cvbench {command} "), argv
        assert cli._parser.cache_info().currsize == 1, argv


def _namespace(args) -> dict:
    """A namespace's attributes as comparable values: NaN is not equal to itself."""
    return {key: (type(value), repr(value)) for key, value in vars(args).items()}


def _clean_value(rng, kind) -> str:
    """A value the table pass takes for a row of type `kind`, drawn from rng."""
    if kind is int:
        pool = ["0", "1", "7", "250", str(2 ** 63), "1_000", str(int(rng.integers(0, 10 ** 9)))]
    elif kind is float:
        pool = ["nan", "NaN", "inf", "Infinity", "1e308", "0", "3", "0.25", "5e-324",
                repr(float(rng.uniform(0.0, 4.0)))]
    elif isinstance(kind, tuple):
        pool = list(kind)
    else:
        pool = ["", "x", "a b", "a=b", "0.5,1", "1,-2", "bound", "@cfg.json", "h",
                '{"type":"pure_loss","T":0.5}', '{"eta": [0.5, 1]}']
    return pool[int(rng.integers(len(pool)))]


def _clean_argvs(command: str, rng, count: int) -> list:
    """Clean command lines of `command`: one giving every row, one for each
    choice of every choice row, and `count` random ones with repeated flags."""
    rows = [(flag, kind) for flag, kind, _, _ in cli._COMMON_FLAGS + cli._FLAGS[command]]
    rows.append(("--config", str))
    argvs = [[command] + [t for flag, kind in rows for t in (flag, _clean_value(rng, kind))]]
    argvs += [[command, flag, choice] for flag, kind in rows if isinstance(kind, tuple)
              for choice in kind]
    for _ in range(count):
        picks = rng.integers(len(rows), size=int(rng.integers(0, 2 * len(rows))))
        argvs.append([command] + [t for i in picks
                                  for t in (rows[i][0], _clean_value(rng, rows[i][1]))])
    return argvs


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_the_table_pass_reads_clean_lines_as_argparse_does(command):
    rng = np.random.default_rng(["bound", "simulate", "certify", "sweep",
                                 "proofcheck"].index(command) + 30)
    for argv in _clean_argvs(command, rng, 150):
        args = cli._table_pass(command, argv[1:])
        assert args is not None, argv
        assert _namespace(cli._parse(argv)) == _namespace(args), argv
        assert _namespace(args) == _namespace(cli.build_parser().parse_args(argv)), argv


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for command in ("bound", "simulate", "certify", "sweep", "proofcheck"):
        assert re.search(rf"^\s+{command}\s", out, re.MULTILINE), command


@pytest.mark.parametrize("argv", [
    ("proofcheck", "--seed", "-1", "--trials", "2"),
    ("bound", "--eta", "1", "--seed", "-1"),
    ("sweep", "--eta", "1", "--seed", "-3"),
    ("simulate", "--channel", '{"type":"pure_loss","T":0.5}', "--seed", "-1"),
])
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"cvbench {argv[0]}: --seed must be >= 0, got -" in err


def test_a_negative_seed_is_refused_before_certify_reads_its_data(capsys, tmp_path):
    code, out, err = run(capsys, "certify", "--input", str(loss_csv(tmp_path, n=50)),
                         "--lambda", "0.1", "--eta", "0.6", "--n-boot", "10",
                         "--seed", "-5")
    assert code == 2 and out == ""
    assert "--seed must be >= 0, got -5" in err


def test_certify_warns_that_se_is_ignored_off_the_fbar_route(capsys, tmp_path):
    channel = ("--channel", '{"type":"pure_loss","T":0.5}', "--eta", "0.5", "--lambda", "0.2")
    dataset = ("--input", str(loss_csv(tmp_path, n=200)), "--lambda", "0.1",
               "--eta", "0.6", "--n-boot", "0")
    for route in (channel, dataset):
        _, plain, _ = run_json(capsys, "certify", *route)
        _, with_se, _ = run_json(capsys, "certify", *route, "--se", "0.3")
        assert with_se["config"]["se"] == 0.3
        assert with_se["result"] == plain["result"]
        added = [w for w in with_se["warnings"] if w not in plain["warnings"]]
        assert len(added) == 1 and "--se is ignored" in added[0]
    _, doc, _ = run_json(capsys, "certify", "--fbar", "0.9", "--eta", "1",
                         "--lambda", "0.05", "--se", "0.01")
    assert not any("--se" in w for w in doc["warnings"])


def test_certify_warns_that_fbar_is_ignored_on_the_data_routes(capsys, tmp_path):
    dataset = ("--input", str(loss_csv(tmp_path, n=200)), "--lambda", "0.1",
               "--eta", "0.6", "--n-boot", "0")
    for method in ("variance", "fidelity"):
        _, plain, _ = run_json(capsys, "certify", *dataset, "--method", method)
        code, with_fbar, _ = run_json(capsys, "certify", *dataset, "--method", method,
                                      "--fbar", "-1")
        assert code in (0, 1) and with_fbar["config"]["fbar"] == -1
        assert with_fbar["result"] == plain["result"]
        added = [w for w in with_fbar["warnings"] if w not in plain["warnings"]]
        assert added == ["--fbar is ignored: it is an average-fidelity estimate, "
                         "which this route does not read"]
    _, doc, _ = run_json(capsys, "certify", "--fbar", "0.9", "--eta", "1",
                         "--lambda", "0.05")
    assert not any("--fbar" in w for w in doc["warnings"])


def test_certify_warns_that_channel_is_ignored_beside_fbar_or_input(capsys, tmp_path):
    channel = ("--channel", '{"type":"pure_loss","T":0.5}')
    fbar = ("--fbar", "0.2", "--eta", "0.5", "--lambda", "0.2")
    dataset = ("--input", str(loss_csv(tmp_path, n=200)), "--lambda", "0.1",
               "--eta", "0.6", "--n-boot", "0")
    for route in (fbar, dataset):
        code, plain, _ = run_json(capsys, "certify", *route)
        code_with, with_channel, _ = run_json(capsys, "certify", *route, *channel)
        assert code_with == code and with_channel["result"] == plain["result"]
        added = [w for w in with_channel["warnings"] if w not in plain["warnings"]]
        assert added == ["--channel is ignored: it is a channel model to certify, "
                         "which this route does not read"]
    _, doc, _ = run_json(capsys, "certify", *channel, "--eta", "0.5", "--lambda", "0.2")
    assert not any("--channel" in w for w in doc["warnings"])


def _ignored(flag, what):
    return f"{flag} is ignored: it is {what}, which this route does not read"


N_BOOT_IGNORED = _ignored("--n-boot", "the bootstrap count of the SE of --input")
WEIGHTS_IGNORED = _ignored("--weights", "the probe weighting of --input")
CUTOFF_IGNORED = _ignored("--cutoff", "the truncation of the fock engine")
TOLERANCE_IGNORED = _ignored("--tolerance", "the allowed gap of --engine both")
FBAR_ROUTE = ("certify", "--fbar", "0.7", "--eta", "1", "--lambda", "0.2")
CHANNEL_ROUTE = ("certify", "--channel", '{"type":"pure_loss","T":0.5}', "--eta", "0.5",
                 "--lambda", "0.2")
DATA_ROUTE = ("certify", "--input", "CSV", "--lambda", "0.1", "--eta", "0.6")   # loss_csv
SIMULATE_ROUTE = ("simulate", "--channel", '{"type":"pure_loss","T":0.5}', "--eta", "0.5",
                  "--lambda", "0.3")


@pytest.mark.parametrize("route, flags, added", [
    (FBAR_ROUTE, ("--n-boot", "-5", "--weights", "1,2"), [N_BOOT_IGNORED, WEIGHTS_IGNORED]),
    (FBAR_ROUTE, ("--n-boot", "1000"), []),
    (CHANNEL_ROUTE, ("--n-boot", "0"), [N_BOOT_IGNORED]),
    (CHANNEL_ROUTE, ("--weights", "x"), [WEIGHTS_IGNORED]),
    (DATA_ROUTE, ("--n-boot", "200", "--weights", "1,1,1,1,1,1,1,1"), []),
    (SIMULATE_ROUTE, ("--cutoff", "40", "--tolerance", "0.1"), [CUTOFF_IGNORED, TOLERANCE_IGNORED]),
    (SIMULATE_ROUTE, ("--tolerance", "0.001"), []),
    (SIMULATE_ROUTE + ("--engine", "fock"), ("--tolerance", "0.1"), [TOLERANCE_IGNORED]),
    (SIMULATE_ROUTE + ("--engine", "fock"), ("--cutoff", "40"), []),
    (SIMULATE_ROUTE + ("--engine", "both"), ("--cutoff", "40", "--tolerance", "0.1"), []),
], ids=["fbar", "fbar-default", "channel-n-boot", "channel-weights", "input",
        "gaussian", "gaussian-default", "fock-tolerance", "fock-cutoff", "both"])
def test_every_flag_a_route_ignores_is_warned_about(capsys, tmp_path, route, flags, added):
    route = tuple(str(loss_csv(tmp_path, n=50)) if x == "CSV" else x for x in route)
    code, plain, _ = run_json(capsys, *route)
    code_with, doc, _ = run_json(capsys, *route, *flags)
    assert code_with == code
    assert [w for w in doc["warnings"] if w not in plain["warnings"]] == added
    if added:
        assert doc["result"] == plain["result"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag, value, message", [
    ("--eta", "1e308", "declared gain eta (--eta) = 1e+308 takes the statistic out of float range"),
    ("--eta", "1e160", "declared gain eta (--eta) = 1e+160 takes the statistic out of float range"),
    ("--lambda", "1e308", "prior width lambda (--lambda) = 1e+308 overflows the exponent"),
    ("--lambda", "1000", "prior width lambda (--lambda) = 1000 leaves every probe weight"),
])
def test_certify_refuses_a_gain_or_width_that_breaks_the_arithmetic(capsys, tmp_path, flag,
                                                                    value, message):
    # squared deviations whose own squares overflow, or probe weights that all
    # underflow, would make the standard error NaN or infinite
    argv = {"--input": str(loss_csv(tmp_path, n=50)), "--lambda": "0.1", "--eta": "0.6",
            "--n-boot": "10", flag: value}
    code, out, err = run(capsys, "certify", *[x for item in argv.items() for x in item])
    assert code == 4 and out == ""
    assert err.startswith(f"cvbench certify: dataset error: {message}")
    assert len(err.splitlines()) == 1


def test_certify_takes_deviations_at_the_guard_limit_and_refuses_them_past_it(capsys,
                                                                              tmp_path):
    # Each group alternates its target sqrt(eta) alpha, deviation 0, with
    # -spread, whose deviation reaches spread + 1.8 sqrt(2): the guard's
    # limit (float max / (2 n))**0.25 itself, then the next float up.
    probes, n = [1.2, -1.2, 1.2j, -1.2j, 1.8, -1.8, 1.8j, -1.8j], 4
    limit = (sys.float_info.max / (2 * 2 * len(probes) * n)) ** 0.25
    path = tmp_path / "edge.csv"
    for spread, code in ((limit, cli.EXIT_FAIL), (math.nextafter(limit, math.inf),
                                                  cli.EXIT_DATA)):
        records = [certify.QuadratureRecord(alpha, label, [target, -spread] * (n // 2))
                   for alpha in probes
                   for label, target in zip(("plus", "minus"), coherent_mean(alpha))]
        write_dataset_csv(certify.ExperimentDataset(records, lam=0.1), path)
        for n_boot in ("0", "10"):
            got, doc, err = run_json(capsys, "certify", "--input", str(path), "--lambda", "0.1",
                                     "--eta", "1", "--n-boot", n_boot)
            assert got == code, err
            if code == cli.EXIT_DATA:
                assert err.startswith("cvbench certify: dataset error: declared gain eta "
                                      "(--eta) = 1 takes the statistic out of float range")
                assert f"a deviation can pass {limit:.3g}" in err
            else:
                assert math.isfinite(doc["result"]["se"])
                assert math.isfinite(doc["result"]["se_analytic"]) and doc["result"]["se"] > 0


def test_certify_accepts_a_wide_gain_whose_arithmetic_fits(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "certify", "--input", str(loss_csv(tmp_path, n=50)),
                            "--lambda", "0.1", "--eta", "1e150", "--n-boot", "10")
    assert code == 1 and doc["result"]["verdict"] == "NOT_CERTIFIED"
    assert math.isfinite(doc["result"]["se"])


def test_proofcheck_huge_cutoff_is_refused_at_once():
    # A cutoff of 2000 would ask for hundreds of GiB of coherent kets.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cvbench", "proofcheck", "--cutoff", "2000"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert "between 1 and 64" in proc.stderr


def test_python_dash_m_cvbench_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cvbench", "bound", "--eta", "1", "--lambda", "0.2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["classical_bound"] == pytest.approx(1.2 / 2.2)


def test_proofcheck_flags_a_corrupted_bound(capsys):
    code, doc, _ = run_json(capsys, "proofcheck", "--corrupt-bound", "0.9")
    assert code == 1
    expected = 0.1 * 0.2 / 2.2  # vacuum violation at the default (eta, lambda)
    assert doc["result"]["score_bound"]["max_violation"] == pytest.approx(
        expected, rel=1e-6)
    assert any("self-test" in w for w in doc["warnings"])


# ---------------------------------------------------------------------------
# envelope, config, exit codes


def test_every_documented_exit_code_is_reached(capsys, monkeypatch, tmp_path):
    documented = {int(c) for c in re.findall(r"^\* (\d) --", cli.__doc__, re.M)}
    assert documented == set(range(6))
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("alpha_re,alpha_im,quad_label,value\n1.0,0.0,plus,oops\n")
    unphysical = '{"K": [[2.0, 0.0], [0.0, 2.0]], "M": [[1.0, 0.0], [0.0, 1.0]]}'
    loss = ("simulate", "--channel", '{"type": "pure_loss", "T": 0.6}', "--eta", "0.8",
            "--lambda", "0.4", "--engine", "both", "--cutoff", "40")
    reached = {
        0: run(capsys, *loss)[0],
        1: run(capsys, "proofcheck", "--trials", "2", "--corrupt-bound", "0.9")[0],
        2: run(capsys, "bound", "--eta", "1e308", "--lambda", "1e308")[0],
        3: run(capsys, "simulate", "--channel", unphysical, "--eta", "4")[0],
        4: run(capsys, "certify", "--input", str(bad_csv), "--lambda", "0.1",
               "--eta", "1")[0]}
    # a Fock value off by 1e-2 exceeds the 1e-3 tolerance plus the 3e-3
    # error estimate of pure loss at cutoff 40
    exact = fock.average_fidelity_fock

    def off_by_a_percent(*args, **kwargs):
        avg = exact(*args, **kwargs)
        return avg._replace(value=avg.value + 1e-2)
    monkeypatch.setattr(fock, "average_fidelity_fock", off_by_a_percent)
    reached[5] = run(capsys, *loss)[0]
    assert reached == {code: code for code in documented}


# Per subcommand: a config file holding every key of its flag table, the
# explicit flags laid over it, and what they change in the echoed config.
FULL_CONFIGS = {
    "bound": ({"eta": 2, "lambda": 0.5, "n_copies": 1},
              ["--lambda", "0.25"], {"eta": 2.0, "lambda": 0.25}),
    "simulate": ({"channel": '{"type": "pure_loss", "T": 0.5}', "eta": 0.5,
                  "lambda": 0.3, "engine": "both", "cutoff": 24, "quad": "6,4",
                  "tolerance": 0.002},
                 ["--engine", "gaussian", "--tolerance", "0.01"],
                 {"engine": "gaussian", "tolerance": 0.01}),
    "certify": ({"input": None, "fbar": 0.9, "se": 0.01,
                 "channel": '{"type": "pure_loss", "T": 0.6}', "method": "fidelity",
                 "eta": 0.6, "lambda": 0.1, "k": 2, "n_boot": 0,
                 "weights": "1,1,1,1,1,1,1,1"},
                ["--k", "3"], {"k": 3.0}),
    "sweep": ({"grid": {"eta": [2.0], "lambda": [0.1]}, "eta": [0.5, 1],
               "lambda": "0.1,0.2", "g": [0.5], "ntilde": 0.1, "n_copies": [1, 2],
               "format": "json"},
              ["--lambda", "0.3"], {"lambda": "0.3"}),
    "proofcheck": ({"copies": 2, "eta": 1, "lambda": 0.2, "trials": 2, "cutoff": 8,
                    "two_copy_cutoff": 16, "corrupt_bound": 1},
                   ["--trials", "3"], {"eta": 1.0, "trials": 3, "corrupt_bound": 1.0}),
}


@pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
def test_config_file_merges_under_flags(capsys, tmp_path, command):
    config, flags, changed = FULL_CONFIGS[command]
    config = dict(config, seed=3, out=str(tmp_path / "out.json"))
    if command == "certify":
        config["input"] = str(loss_csv(tmp_path))
    table = cli._COMMON_FLAGS + cli._FLAGS[command]
    assert set(config) == {flag[2:].replace("-", "_") for flag, *_ in table}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, command, "--config", str(cfg), *flags, "--seed", "9")
    assert code == 0 and out == ""
    doc = json.loads((tmp_path / "out.json").read_text())
    del config["out"]
    assert doc["config"] == dict(config, **changed, seed=9)
    assert doc["seed"] == 9


def test_config_values_reach_the_handler_as_their_flags_type(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"eta": 2, "lambda": 0.5}')
    code, doc, _ = run_json(capsys, "bound", "--config", str(cfg), "--lambda", "0.25")
    assert code == 0
    assert doc["result"]["eta"] == 2.0 and isinstance(doc["result"]["eta"], float)
    assert doc["result"]["lambda"] == 0.25    # flag wins


@pytest.mark.parametrize("command, config, message", [
    ("bound", {"eta": "abc"}, "config key 'eta' wants a number, got \"abc\""),
    ("simulate", {"cutoff": "40", "channel": '{"type": "pure_loss", "T": 0.5}',
                  "eta": 0.5, "lambda": 0.3, "engine": "fock"},
     "config key 'cutoff' wants a whole number, got \"40\""),
    ("bound", {"n_copies": 2.5, "eta": 1}, "config key 'n_copies' wants a whole number, got 2.5"),
    ("bound", {"eta": True}, "config key 'eta' wants a number, got true"),
    ("bound", {"eta": 10 ** 400}, "config key 'eta' wants a number"),
    ("simulate", {"engine": "fast"}, "config key 'engine' wants one of gaussian, fock, both"),
    ("certify", {"channel": {"type": "pure_loss", "T": 0.5}}, "config key 'channel' wants a string"),
    ("sweep", {"grid": [1, 2]}, "config key 'grid' wants a JSON object"),
    ("sweep", {"eta": {"a": 1}}, "config key 'eta' wants a list or comma-separated numbers"),
], ids=["text-for-float", "text-for-int", "fraction-for-int", "bool-for-float",
        "overflowing-int", "unknown-choice", "object-for-text", "list-for-grid",
        "object-for-axis"])
def test_config_values_are_checked_by_their_flags_type(capsys, tmp_path, command,
                                                        config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command, config, key", [
    ("bound", {"etaa": 1.0}, "etaa"),
    ("bound", {"tolerance": 1e-3}, "tolerance"),
    ("certify", {"format": "csv"}, "format"),
    ("sweep", {"tolerance": 7}, "tolerance"),
])
def test_unknown_config_key_is_a_usage_error(capsys, tmp_path, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, command, "--eta", "1", "--config", str(cfg))
    assert code == 2
    assert f"unknown config keys for '{command}': {key}" in err


@pytest.mark.parametrize("argv", [
    ("bound", "--eta", "1", "--tolerance", "1"),
    ("bound", "--eta", "1", "--tolerance", "nan"),
    ("bound", "--eta", "1", "--format", "csv"),
    ("sweep", "--eta", "1", "--tolerance", "7"),
    ("proofcheck", "--format", "json"),
])
def test_a_flag_the_subcommand_does_not_read_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


FOCK_ENGINE = ("simulate", "--engine", "fock", "--eta", "0.5", "--lambda", "0.3", "--channel")


@pytest.mark.parametrize("argv, named", [
    (FOCK_ENGINE + ('{"K":[[0.7,0],[0,0.7]],"M":[[0.6,0.1],[0.1,0.6]]}',), "noise matrix M"),
    (FOCK_ENGINE + ('{"K":[[0.7,0],[0,0.7]],"M":[[0.2,0],[0,0.4]]}',), "noise matrix M"),
    (("simulate", "--eta", "0.5", "--lambda", "0.3", "--channel", "{"), "--channel"),
    (("bound", "--eta", "1", "--config", "missing.json"), "--config"),
    (("bound", "--eta", "1", "--config", "array.json"), "--config"),
    (("sweep", "--lambda", "0.2"), "--eta"),
    (("sweep", "--eta", ","), "'eta'"),
    (("sweep", "--grid", "[1]"), "--grid"),
], ids=["rotated-noise", "noise-below-floor", "channel-not-json", "config-missing",
        "config-array", "sweep-no-eta", "sweep-empty-eta", "sweep-grid-array"])
def test_a_refused_input_gets_one_stderr_line_that_names_it(capsys, tmp_path, monkeypatch,
                                                            argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "array.json").write_text("[1, 2]")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"cvbench {argv[0]}: ") and err.count("\n") == 1, err
    assert named in err


@pytest.mark.parametrize("argv, message", [
    (("proofcheck", "--corrupt-bound", "nan", "--trials", "2"),
     "--corrupt-bound must be finite, got nan"),
    (("proofcheck", "--corrupt-bound", "inf", "--trials", "2"),
     "--corrupt-bound must be finite, got inf"),
    (("certify", "--channel", '{"type":"pure_loss","T":0.5}', "--eta", "0.5",
      "--lambda", "0.2", "--se", "nan"), "--se must be finite, got nan"),
])
def test_a_non_finite_flag_value_is_a_usage_error_that_names_it(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"cvbench {argv[0]}: {message}" in err


def test_a_non_finite_config_value_is_a_usage_error_that_names_it(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"se": NaN}')
    code, out, err = run(capsys, "certify", "--config", str(cfg), "--channel",
                         '{"type":"pure_loss","T":0.5}', "--eta", "0.5", "--lambda", "0.2")
    assert code == 2 and out == ""
    assert "--se must be finite, got nan" in err


# The CLI contract (ROADMAP item 12), a deterministic slice: every int and
# float row of every subcommand's table at extreme values, on a small passing
# command line.  Values starting with "-" reach the argparse pass, the others
# the table pass.
CONTRACT_VALUES = {int: ("-1", "0", "9223372036854775808", "1.5"),
                   float: ("nan", "inf", "-1", "0", "1e308")}
# One line per subcommand, and certify's --fbar route, whose --fbar and --se
# the --input line ignores.
CONTRACT_LINES = {command: command for command in cli._HANDLERS} | {"certify-fbar": "certify"}
CONTRACT_CASES = [(line, flag, value) for line, command in CONTRACT_LINES.items()
                  for flag, kind, _, _ in cli._COMMON_FLAGS + cli._FLAGS[command]
                  if kind in CONTRACT_VALUES for value in CONTRACT_VALUES[kind]]


@pytest.fixture(scope="module")
def contract_argvs(tmp_path_factory):
    csv = str(loss_csv(tmp_path_factory.mktemp("contract"), n=50))
    return {"bound": ["bound", "--eta", "0.8", "--lambda", "0.2"],
            "simulate": ["simulate", "--channel", '{"type":"pure_loss","T":0.5}', "--eta",
                         "0.5", "--lambda", "0.3", "--engine", "both", "--cutoff", "24"],
            "certify": ["certify", "--input", csv, "--lambda", "0.1", "--eta", "0.6",
                        "--n-boot", "10"],
            "certify-fbar": ["certify", "--fbar", "0.7", "--eta", "1", "--lambda", "0.2"],
            "sweep": ["sweep", "--eta", "0.5,1", "--lambda", "0,0.2"],
            "proofcheck": ["proofcheck", "--trials", "2", "--cutoff", "6",
                           "--two-copy-cutoff", "8"]}


def test_every_contract_command_line_passes_as_given(capsys, contract_argvs):
    for argv in contract_argvs.values():
        assert run(capsys, *argv)[0] == 0, argv


@pytest.mark.parametrize("line, flag, value", CONTRACT_CASES,
                         ids=[f"{c}{f}={v}" for c, f, v in CONTRACT_CASES])
def test_a_numeric_flag_at_an_extreme_value_exits_cleanly(capsys, contract_argvs, line,
                                                          flag, value):
    argv = contract_argvs[line] + [flag, value]
    command = argv[0]
    assert (cli._table_pass(command, argv[1:]) is None) == (value.startswith("-")
                                                            or value == "1.5")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        wall = time.perf_counter() - start
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert 0 <= code <= 5
    assert wall < 5.0 and peak < 64 << 20
    assert "Traceback" not in err
    if code != 0 and not err:
        # a verdict: a failed check or certification, or engines that disagree
        assert code in (cli.EXIT_FAIL, cli.EXIT_DISAGREE) and json.loads(out)
    elif code != 0:
        # one message line, after argparse's usage when argparse refused the value
        lines = err.splitlines()
        assert [line.startswith(f"cvbench {command}: ") for line in lines] == \
            [False] * (len(lines) - 1) + [True], err
        assert len(lines) == 1 or lines[0].startswith("usage: cvbench "), err
        if code in (cli.EXIT_USAGE, cli.EXIT_DATA):
            # a refused value: the message names its flag, or the flag's bare name
            assert flag in lines[-1] or flag.lstrip("-") in lines[-1], err


# The CLI contract on channel fields: every numeric field of every tagged model,
# and every raw K, M and disp entry, at extreme values under every engine and
# under certify --channel.
MODEL_BASES = {"pure_loss": {"T": 0.5}, "quantum_limited_amp": {"G": 1.4},
               "canonical_b1": {}, "canonical_c": {"eta": 0.8, "ntilde": 0.3},
               "heterodyne_mp": {"g": 0.8}}
FIELD_VALUES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308)
FIELD_CASES = [(tag, name, None, None) for tag, base in MODEL_BASES.items() for name in base] \
    + [("gaussian", name, i, j) for name in ("K", "M") for i in range(2) for j in range(2)] \
    + [("gaussian", "disp", i, None) for i in range(2)]
FIELD_COMMANDS = [["simulate", "--engine", engine] for engine in ("gaussian", "fock", "both")] \
    + [["certify"]]


def test_the_field_cases_cover_every_numeric_field_of_every_tagged_model():
    tagged = {tag: [f.name for f in dataclasses.fields(cls)]
              for cls, tag in schemes._JSON_TAGS.items()
              if cls not in (schemes.Compose, schemes.GaussianChannel)}
    assert tagged == {tag: list(base) for tag, base in MODEL_BASES.items()}


@pytest.mark.parametrize("value", FIELD_VALUES, ids=repr)
@pytest.mark.parametrize("tag, name, i, j", FIELD_CASES,
                         ids=[f"{t}.{n}" + "".join(f"[{k}]" for k in (i, j) if k is not None)
                              for t, n, i, j in FIELD_CASES])
def test_a_channel_field_at_an_extreme_value_exits_cleanly_naming_it(capsys, tag, name, i, j,
                                                                     value):
    if tag == "gaussian":
        channel = _with_entry(FOCK_BASE, name, i, j, value)
        named = re.compile(rf"\b{name}\b")
    else:
        channel = json.dumps({"type": tag, **MODEL_BASES[tag], name: value})
        named = re.compile(re.escape(f"channel model '{tag}' field '{name}'"))
    _exits_cleanly_naming(capsys, channel, named)


# Fields in range alone that together overflow the channel's gain or noise.
AMP_1E200 = {"type": "quantum_limited_amp", "G": 1e200}
OVERFLOW_CASES = {
    "canonical_c": ({"type": "canonical_c", "eta": 1.7e308, "ntilde": 1.7e308},
                    "channel model 'canonical_c' .* from fields 'eta' and 'ntilde';"),
    "compose": ({"type": "compose", "parts": [AMP_1E200, AMP_1E200]},
                "channel model 'compose' .* from field 'parts';"),
    # a non-isotropic product overflows in the matrix products, with no warning
    "compose-anisotropic": ({"type": "compose", "parts": [{"type": "canonical_b1"},
                                                          AMP_1E200, AMP_1E200]},
                            "channel model 'compose' field 'parts' composes to a channel "
                            "past the float range: noise matrix M must be finite$"),
}


@pytest.mark.parametrize("channel, named", OVERFLOW_CASES.values(), ids=list(OVERFLOW_CASES))
def test_channel_fields_that_overflow_together_exit_cleanly_naming_them(capsys, channel,
                                                                        named):
    codes = _exits_cleanly_naming(capsys, json.dumps(channel), re.compile(named))
    assert codes == [cli.EXIT_USAGE] * len(FIELD_COMMANDS)


def _exits_cleanly_naming(capsys, channel, named):
    """The exit codes of the FIELD_COMMANDS lines on `channel`, each checked to
    exit cleanly, with a refusal's one stderr line matching `named`."""
    codes = []
    for argv in FIELD_COMMANDS:
        start = time.perf_counter()
        code = main([argv[0], "--channel", channel, *argv[1:], "--eta", "0.5",
                     "--lambda", "0.3"])
        wall = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert 0 <= code <= 3 and wall < 5.0, (argv, code, err)
        assert "Traceback" not in err
        if code in (cli.EXIT_USAGE, cli.EXIT_CP):
            assert out == "" and err.startswith(f"cvbench {argv[0]}: "), (argv, err)
            assert err.count("\n") == 1 and named.search(err), (argv, err)
        else:
            assert err == "" and json.loads(out), (argv, code)
        codes.append(code)
    return codes


def test_json_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "bound", "--eta", "1", "--lambda", "0.2")
    code2, out2, _ = run(capsys, "bound", "--eta", "1", "--lambda", "0.2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file_matches_stdout_payload(capsys, tmp_path):
    out = tmp_path / "bound.json"
    code, stdout, _ = run(capsys, "bound", "--eta", "1", "--lambda", "0",
                          "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["result"]["classical_bound"] == 0.5
    assert stdout == ""


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bound", "--no-such-flag")[0] == 2
    assert run(capsys, "bound")[0] == 2          # --eta is required
    assert run(capsys)[0] == 2                   # a subcommand is required


# ---------------------------------------------------------------------------
# README


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMAND_LINE = README.split("## Command line\n", 1)[1].split("\n## ", 1)[0]


QUICK_TOUR = README.split("## Quick tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_gives_the_values_its_comments_state():
    # a bare expression whose comment opens with a number or a quoted string
    # must evaluate to it, to the digits shown; every other statement just runs
    lines, namespace, checked = QUICK_TOUR.splitlines(), {}, []
    for node in ast.parse(QUICK_TOUR).body:
        comment = lines[node.end_lineno - 1].partition("#")[2]
        stated = re.match(r"\s*('[^']*'|\d+\.\d+)", comment)
        if not (isinstance(node, ast.Expr) and stated):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        text = stated.group(1)
        if text.startswith("'"):
            assert value == text[1:-1]
        else:
            digits = len(text.split(".")[1])
            assert value == pytest.approx(float(text), abs=0.5 * 10.0 ** -digits)
        checked.append(text)
    assert checked == ["0.5", "0.5455", "0.9091", "0.5455", "0.8165", "'QUANTUM_DOMAIN'"]


def _readme_examples():
    block = COMMAND_LINE.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


@pytest.mark.parametrize("argv", [a for a in _readme_examples() if "--input" not in a],
                         ids=lambda argv: argv[1])
def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)      # sweep --out writes its table here
    assert argv[0] == "cvbench"
    assert main(argv[1:]) == 0
    capsys.readouterr()


def test_readme_lists_each_subcommands_flags():
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", COMMAND_LINE, re.M)
    listed = {command: set(re.findall(r"`(--[\w-]+)`", flags)) for command, flags in rows}
    assert listed == {command: {flag for flag, *_ in table}
                      for command, table in cli._FLAGS.items()}


DEEP_JSON = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--channel", DEEP_JSON, "--eta", "1", "--lambda", "0.3"], "--channel"),
    (["simulate", "--channel", "@{path}", "--eta", "1", "--lambda", "0.3"], "--channel"),
    (["certify", "--channel", DEEP_JSON, "--eta", "1", "--lambda", "0.3"], "--channel"),
    (["certify", "--channel", "@{path}", "--eta", "1", "--lambda", "0.3"], "--channel"),
    (["sweep", "--grid", DEEP_JSON], "--grid"),
    (["sweep", "--config", "{path}"], "--config"),
], ids=["simulate-inline", "simulate-file", "certify-inline", "certify-file", "grid", "config"])
def test_json_nested_past_the_recursion_limit_is_a_usage_error(capsys, tmp_path, argv, flag):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, _, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert err == f"cvbench {argv[0]}: {flag} nests JSON deeper than the decoder's " \
        "recursion limit\n"


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--channel", "@{path}", "--eta", "1", "--lambda", "0.3"], "--channel"),
    (["certify", "--channel", "{path}", "--eta", "1", "--lambda", "0.3"], "--channel"),
    (["bound", "--config", "{path}"], "--config"),
], ids=["channel-at-file", "channel-bare-path", "config"])
def test_a_json_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, argv, flag):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"eta": 1\xff}')
    code, _, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert err.startswith(f"cvbench {argv[0]}: {flag} is not UTF-8 text: ")
    assert err.count("\n") == 1
