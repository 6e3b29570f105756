"""The benchmark's fock-engine jobs run through the CLI within their estimate.

perfbench/workloads.py builds its job lists with numpy alone; this test
loads it by path and only reads it.  Every argv of one fock-engine cycle
must exit 0, with the engine gap inside the Fock engine's error estimate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cvbench.cli import main

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

JOBS = workloads.fock_cycle(1, 0)


@pytest.mark.parametrize("job", JOBS, ids=[f"{i}-{job['group']}" for i, job in enumerate(JOBS)])
def test_fock_cycle_argv_runs_within_the_error_estimate(capsys, job):
    code = main(job["argv"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert result["engine_gap"] <= result["fock_error_estimate"]
