import itertools
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvbench import certify, cli, fock, proofcheck, schemes
from cvbench.bounds import classical_bound, quadrature_threshold
from cvbench.certify import synthesize_dataset, write_dataset_csv
from cvbench.cli import _load_channel_spec, main
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


def test_simulate_unmatched_flat_prior_gives_one_proxy_warning(capsys):
    code, doc, _ = run_json(capsys, "simulate", "--channel",
                            '{"type": "pure_loss", "T": 0.6}', "--eta", "0.8",
                            "--lambda", "0")
    assert code == 0
    assert doc["warnings"] == ["flat prior replaced by lambda = 0.001 for an unmatched "
                               "channel, whose flat-prior average diverges"]
    assert doc["result"]["lambda_used_gaussian"] == 0.001


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
    expected = fock.average_fidelity_fock(schemes.phase_averaged_applier(model),
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
    ('{"type":"quantum_limited_amp","G":"inf"}', "amplifier gain must be >= 1 and finite"),
    ('{"type":"canonical_c","eta":1,"ntilde":"inf"}', "ntilde must be >= 0 and finite"),
    ('{"type":"heterodyne_mp","g":"nan"}', "re-preparation gain must be >= 0 and finite"),
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
    assert f"declared gain must be positive and finite, got {float(eta)}" in err
    assert "Traceback" not in err and "Warning" not in err


def test_certify_non_numeric_weights_are_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "certify", "--input", str(loss_csv(tmp_path, n=50)),
                       "--lambda", "0.1", "--eta", "0.6", "--weights", "a,b,c,d")
    assert code == 2
    assert "'a,b,c,d'" in err


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
    assert f"at most {certify._MAX_BOOT} resamples, got {n_boot}" in err
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
    assert f"2..{certify._MAX_BOOT} (0 = analytic SE) (default 1000)" in " ".join(out.split())


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
    ("--n-copies", "1,0", "copy count must be >= 1, got 0"),
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
    # miss the two-copy side by 1.1e-2; its output levels follow eta instead
    code, doc, _ = run_json(capsys, "proofcheck", "--eta", "3")
    assert code == 0
    assert doc["result"]["two_copy"]["passed"] is True
    code, doc, _ = run_json(capsys, "proofcheck", "--eta", "3", "--two-copy-cutoff", "24")
    assert code == 0
    two = doc["result"]["two_copy"]
    assert two["passed"] is True and two["cutoff"] == 24
    assert two["rel_difference"] < 1e-3


@pytest.mark.parametrize("argv, score_cutoff", [
    ((), 16), (("--eta", "3"), 35), (("--eta", "6"), 64),
    (("--eta", "10", "--lambda", "0.2"), 102),
])
def test_proofcheck_score_side_levels_follow_eta_at_default_flags(capsys, argv,
                                                                 score_cutoff):
    code, doc, _ = run_json(capsys, "proofcheck", *argv)
    assert code == 0
    two = doc["result"]["two_copy"]
    assert two["passed"] is True
    assert two["cutoff"] == 16 and two["score_cutoff"] == score_cutoff


def test_proofcheck_refuses_a_score_side_past_its_level_cap(capsys, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("the two-copy value was built for a refused score side")
    monkeypatch.setattr(proofcheck, "_two_copy_value", must_not_build)
    code, out, err = run(capsys, "proofcheck", "--eta", "20", "--trials", "2")
    assert code == 2 and out == ""
    assert "needs 197.6 levels at eta 20 and lambda 0.2" in err
    assert "at most 180" in err


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
    assert "consistency check, 1..64 (default 16)" in " ".join(out.split())


def _parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_one_subcommand_parser_gives_the_full_parsers_help_and_errors(capsys, command):
    for argv in ([command, "--help"], [command, "--bogus", "1"], [command, "--seed", "x"],
                 [command, "--seed"]):
        one = _parse_exit(capsys, cli.build_parser(command), argv)
        assert one == _parse_exit(capsys, cli.build_parser(), argv)
        assert one[0] != 0 or one[1].startswith(f"usage: cvbench {command} ")


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
                 [command, "--seed", "x"], [command, "--seed"], [command, "--lam"]):
        full = _parse_outcome(capsys, cli.build_parser().parse_args, argv)
        assert _parse_outcome(capsys, cli._parse, argv) == full, argv
        if not isinstance(full[0], dict):
            assert run(capsys, *argv) == (0 if full[0] == 0 else 2, full[1], full[2]), argv
    # leftovers are refused under the top-level usage line
    _, _, err = run(capsys, command, "--bogus")
    assert err.startswith("usage: cvbench [-h] {") and "unrecognized arguments: --bogus" in err


def test_only_the_subcommand_parser_reads_a_clean_command_line(capsys, monkeypatch):
    def must_not_run(argv):
        raise AssertionError("the top-level parser ran")
    parser, _ = cli._parser("bound")
    monkeypatch.setattr(parser, "parse_args", must_not_run)
    code, out, _ = run_json(capsys, "bound", "--eta", "1", "--lam", "0.5")
    assert code == 0 and out["config"]["lambda"] == 0.5
    with pytest.raises(AssertionError, match="top-level parser ran"):
        cli.main(["bound", "--eta", "1", "--bogus"])


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser("bound") is not cli.build_parser("bound")


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
    rounds = [[run(capsys, *argv) for argv in sequence] for _ in range(3)]
    assert rounds[0] == rounds[1] == rounds[2]
    assert [code for code, _, _ in rounds[0]] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 2, 2, 0, 0]
    assert cli._parser.cache_info().currsize == 6       # five subcommands and the full one


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
