"""The benchmark's jobs pass through the CLI as the benchmark expects.

perfbench/workloads.py builds its job lists with numpy alone; this test
loads it by path and only reads it.  Every argv of one fock-engine cycle
must exit 0, with the engine gap inside the Fock engine's error estimate;
every argv of one gaussian-audit cycle must pass the benchmark's own oracle
(``workloads.check``); and every argv of one certify-csv cycle must give the
exit code, verdict, input hash and counts its job expects.  Every argv of
the three cycles must be a clean command line, read from the flag table
without argparse, so a workload line that would build a parser fails here
rather than quietly moving the benchmark's metrics.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cvbench.cli import _table_pass, main

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def _run_clean(argv):
    """main's exit code for a job argv, which the table pass must read."""
    assert _table_pass(argv[0], argv[1:]) is not None, argv
    return main(argv)


JOBS = workloads.fock_cycle(1, 0)


@pytest.mark.parametrize("job", JOBS, ids=[f"{i}-{job['group']}" for i, job in enumerate(JOBS)])
def test_fock_cycle_argv_runs_within_the_error_estimate(capsys, job):
    code = _run_clean(job["argv"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert result["engine_gap"] <= result["fock_error_estimate"]


# one gaussian-audit cycle: anisotropic simulations, proofchecks (the
# self-test among them) and sweeps written to CSV
GAUSS_JOBS = len(workloads.GAUSS_CYCLE)


@pytest.fixture(scope="module")
def gauss_jobs(tmp_path_factory):
    return workloads.gauss_cycle(1, 0, str(tmp_path_factory.mktemp("gauss")))


@pytest.mark.parametrize("index", range(GAUSS_JOBS))
def test_gauss_cycle_argv_passes_the_benchmark_oracle(capsys, gauss_jobs, index):
    job = gauss_jobs[index]
    code = _run_clean(job["argv"])
    text = capsys.readouterr().out
    out = json.loads(text) if text.strip() else None
    fails, defects, _ = workloads.check("gaussian-audit", job, code, out)
    assert fails == [] and defects == []


# one certify-csv cycle: four CSVs (deep/wide x loss/het) x two methods
CERT_JOBS = len(workloads.CERT_SHAPES) * len(workloads.CERT_CHANNELS) * len(workloads.CERT_METHODS)


@pytest.fixture(scope="module")
def cert_jobs(tmp_path_factory):
    inputs = workloads.write_cert_csvs(1, str(tmp_path_factory.mktemp("cert")))
    return workloads.cert_cycle(1, 0, inputs)


@pytest.mark.parametrize("index", range(CERT_JOBS))
def test_cert_cycle_argv_gives_the_expected_verdict(capsys, cert_jobs, index):
    job = cert_jobs[index]
    code = _run_clean(job["argv"])
    out = json.loads(capsys.readouterr().out)
    expect, result = job["expect"], out["result"]
    assert code == expect["exit"]
    assert result["verdict"] == expect["verdict"]
    assert out["input_sha256"] == expect["sha256"]
    assert (result["n_probes"], result["n_samples"]) == (expect["n_probes"],
                                                         expect["n_samples"])
