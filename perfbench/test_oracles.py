"""Self-tests of the benchmark's oracles and tracer.

Each oracle is fed a deliberately wrong result and must count the job as
failed, the way proofcheck's ``--corrupt-bound`` tests the score bound.
Run from the repository root:

    python3 -m pytest -q perfbench/test_oracles.py
"""

import contextlib
import io
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _fock_output(job, fbar_fock, estimate):
    exp = job["expect"]
    return {"result": {"fbar_gaussian": exp["fbar"], "fbar_fock": fbar_fock,
                       "fock_error_estimate": estimate,
                       "classical_bound": workloads.classical_bound(exp["eta"], exp["lam"])}}


def test_fock_gap_above_its_estimate_is_a_known_defect():
    job = workloads.fock_cycle(7, 0)[0]
    fbar = job["expect"]["fbar"]
    ok, none, _ = workloads.check_fock(job, 0, _fock_output(job, fbar + 1e-5, 2e-5))
    fine, known, gap = workloads.check_fock(job, 0, _fock_output(job, fbar + 3e-5, 2e-5))
    assert ok == [] and none == [] and fine == []
    assert known and "exceeds the fock error estimate" in known[0]
    assert math.isclose(gap, 3e-5, rel_tol=1e-6)


def test_fock_value_beyond_tolerance_and_estimate_fails():
    job = workloads.fock_cycle(7, 0)[0]
    fbar = job["expect"]["fbar"]
    miss = workloads.FOCK_TOL + 2e-5
    ok, _, _ = workloads.check_fock(job, 0, _fock_output(job, fbar - 0.99 * miss, 2e-5))
    bad, _, _ = workloads.check_fock(job, 0, _fock_output(job, fbar - 1.01 * miss, 2e-5))
    assert ok == []
    assert bad and "misses the exact average" in bad[0]


def test_fock_gaussian_value_off_by_1e6_fails():
    job = workloads.fock_cycle(7, 0)[0]
    out = _fock_output(job, job["expect"]["fbar"], 1e-3)
    out["result"]["fbar_gaussian"] += 1e-6
    out["result"]["fbar_fock"] = out["result"]["fbar_gaussian"]
    reasons, _, _ = workloads.check_fock(job, 0, out)
    assert reasons and "differs from the exact" in reasons[0]


def test_anisotropic_value_off_by_1e6_fails():
    job = next(j for j in workloads.gauss_cycle(3, 0, ".") if j["kind"] == "aniso")
    exact = job["expect"]["fbar"]
    assert workloads.check_aniso(job, 0, {"result": {"fbar_gaussian": exact}})[0] == []
    reasons, dev = workloads.check_aniso(job, 0, {"result": {"fbar_gaussian": exact + 1e-6}})
    assert reasons and math.isclose(dev, 1e-6, rel_tol=1e-6)


def _certify_output(job, verdict):
    exp = job["expect"]
    return {"input_sha256": exp["sha256"],
            "result": {"verdict": verdict, "n_probes": exp["n_probes"],
                       "n_samples": exp["n_samples"], "se": 0.0101,
                       "se_analytic": 0.01}}


def test_flipped_certify_verdict_fails():
    inputs = {"lam": 0.4, "files": {"deep-loss": ("a.csv", "0" * 64),
                                    "deep-het": ("b.csv", "1" * 64)}}
    for job in workloads.cert_cycle(5, 0, inputs):
        exp = job["expect"]
        right = _certify_output(job, exp["verdict"])
        assert workloads.check_certify(job, exp["exit"], right)[0] == []
        flipped = "NOT_CERTIFIED" if exp["verdict"] == "QUANTUM_DOMAIN" else "QUANTUM_DOMAIN"
        reasons, _ = workloads.check_certify(job, 1 - exp["exit"], _certify_output(job, flipped))
        assert any("verdict" in r for r in reasons)
        assert any("exit code" in r for r in reasons)


def test_proofcheck_selftest_must_report_the_violation():
    job = next(j for j in workloads.gauss_cycle(3, 0, ".") if j["kind"] == "selftest")
    parts = {"circulant": {"passed": True}, "two_copy": {"passed": True}}
    caught = {"result": dict(parts, passed=False, score_bound={"passed": False})}
    missed = {"result": dict(parts, passed=True, score_bound={"passed": True})}
    assert workloads.check_proofcheck(job, 1, caught)[0] == []
    assert workloads.check_proofcheck(job, 0, missed)[0]


def test_exact_integral_matches_the_isotropic_closed_form():
    eta, lam, g, m = 0.8, 0.4, 0.7, 0.3
    disp = np.array([0.3, -0.2])
    s = 0.5 + 0.5 * g * g + m
    den = lam * s + (g - math.sqrt(eta)) ** 2
    closed = lam / den * math.exp(-lam * (disp @ disp) / (2 * den))
    got = workloads.exact_average_fidelity(g * np.eye(2), m * np.eye(2), disp, eta, lam)
    assert math.isclose(got, closed, rel_tol=1e-13)


def test_generated_csvs_are_deterministic(tmp_path):
    a = workloads.write_cert_csvs(11, str(tmp_path))
    first = {k: v[1] for k, v in a["files"].items()}
    b = workloads.write_cert_csvs(11, str(tmp_path))
    assert first == {k: v[1] for k, v in b["files"].items()}
    with open(a["files"]["wide-het"][0]) as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == 2 * 200 * 400


def test_tracer_catches_from_imports_and_restores():
    cli = run.load_cli(os.path.join(os.path.dirname(HERE), "src"))
    import cvbench.bounds
    original = cvbench.bounds.classical_bound
    tracer = Tracer({"cli": ["main"], "bounds": ["classical_bound"]})
    tracer.install()
    tracer.job = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["bound", "--eta", "0.5", "--lambda", "0.2"]) == 0
    tracer.uninstall()
    assert cli.classical_bound is original and cvbench.bounds.classical_bound is original
    summary = tracer.summary({0: 1.0})
    assert summary["cli.main.calls"] == 1
    assert summary["bounds.classical_bound.calls"] >= 1
    assert summary["cli.main.self_s"] < summary["cli.main.busy_s"]


def test_raising_job_counts_as_failed():
    class Boom:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")
    code, _, _, text = run.run_job(Boom, [])
    reasons, _, _ = run.evaluate(workloads, "fock-engine", {}, code, text)
    assert reasons and "RuntimeError" in reasons[0]


def test_cycles_depend_on_the_seed_only():
    a = workloads.fock_cycle(4, 2)
    assert [j["argv"] for j in a] == [j["argv"] for j in workloads.fock_cycle(4, 2)]
    assert [j["argv"] for j in a] != [j["argv"] for j in workloads.fock_cycle(5, 2)]
