import json
import math
import os
import subprocess
import sys

import pytest

from cvbench import fock, proofcheck, schemes
from cvbench.certify import synthesize_dataset, write_dataset_csv
from cvbench.cli import _load_channel_spec, main
from cvbench.schemes import HeterodyneMP, PureLoss

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
def test_simulate_fock_engine_averages_the_phase_averaged_map(capsys, channel):
    # One real amplitude per radius is exact only for the phase average of a
    # map that is not phase-covariant; the channel's own map gives another value.
    code, doc, _ = run_json(capsys, "simulate", "--channel", channel, "--eta", "1",
                            "--lambda", "0.4", "--engine", "fock", "--cutoff", "16")
    assert code == 0
    model = _load_channel_spec(channel)
    expected = fock.average_fidelity_fock(schemes.phase_averaged_applier(model),
                                          1.0, 0.4, cutoff=16)
    own_map = fock.average_fidelity_fock(schemes.fock_applier(model), 1.0, 0.4, cutoff=16)
    assert doc["result"]["fbar_fock"] == expected.value
    assert abs(own_map.value - expected.value) > 1e-6


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


@pytest.mark.parametrize("flag, value, limit", [
    ("--cutoff", "0", 64), ("--cutoff", "-3", 64), ("--cutoff", "65", 64),
    ("--two-copy-cutoff", "-3", 16), ("--two-copy-cutoff", "17", 16),
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


def test_config_file_merges_under_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"eta": 2.0, "lambda": 0.5}')
    code, doc, _ = run_json(capsys, "bound", "--config", str(cfg),
                            "--lambda", "0.25")
    assert code == 0
    assert doc["result"]["eta"] == 2.0        # from the config file
    assert doc["result"]["lambda"] == 0.25    # flag wins
    assert doc["config"] == {"eta": 2.0, "lambda": 0.25, "n_copies": 1,
                             "seed": 0, "tolerance": 1e-3}


def test_unknown_config_key_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"etaa": 1.0}')
    code, _, err = run(capsys, "bound", "--eta", "1", "--config", str(cfg))
    assert code == 2
    assert "etaa" in err


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
