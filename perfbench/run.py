"""Benchmark of the cvbench command line, run in process as a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fock-engine --seed 1 --seconds 30 --trace 0

One client in one process calls ``cvbench.cli.main(argv)`` job after job,
each job only after the previous one returned, after one untimed warm-up job
of each kind.  Inputs come from ``--seed`` alone (see workloads.py), and
every job's output is checked against the benchmark's own references.  Job
and set-up times are CPU seconds rescaled to a reference speed (see CLOCK).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: cycles of jobs alternate between traced and
untraced, the traced ones record a span around every function listed in
layers.json, and the untraced ones give the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
facts, failures and the metrics the driver does not gate.  A run that
finishes exits 0 whether or not every job passed its oracle (``correct`` and
``failed`` say which); exit code 2 means the cvbench sources are not under
./src and nothing was measured.  Known defects of the program (see
``workloads.check_fock``) do not fail a job; the detail line lists each one,
and the traced run counts them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread.  cvbench's matrices are at most a few hundred wide; on a
# 2-CPU VM a second OpenBLAS thread left the wall time of a cutoff-40
# heterodyne job unchanged (1.24 s against 1.18 s) while doubling its CPU
# time and spreading it from 2.07 to 2.46 s.
BLAS_THREADS = 1
# Every duration is CPU time of this process, rescaled to a reference speed.
# On a 2-CPU VM that shares its host, the wall time of one job ranged
# 1.10-1.83 s over 25 s; its CPU time did not see the waits but still flipped
# between two speeds 1.7-2.4x apart, each lasting from under a second to a
# whole run.  So a fixed kernel of the benchmark's own is timed just before
# and just after every job, and the job's CPU time is multiplied by
# REFERENCE_S over the mean of the two: the reported seconds are those of a
# machine on which the kernel takes REFERENCE_S.  Raw CPU times are in the
# detail line.
CLOCK = time.process_time
REFERENCE_S = 0.004
WORK_DIR = ".perfbench_work"
SPAN_DIR = ".perfbench_out"
SETUP_REPEATS = 3                    # set-ups per run; setup_s is their median
WARMUP_CYCLE = 2 ** 32 - 2
# Fixed per workload so that runs of different speed report the same
# percentile: the highest one with at least ten jobs beyond it at the
# job counts a run reaches on 2 CPUs.
TAIL_PERCENTILE = {"fock-engine": 90, "gaussian-audit": 90, "certify-csv": 70}
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
         "job_tail_s": "s", "peak_rss_mib": "MiB", "failed_ratio": "1",
         "max_deviation": "1"}
GATED = ("setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mib")
# one finished job: seconds at reference speed, raw CPU seconds
Record = namedtuple("Record", "cycle group seconds raw traced")


def cap_blas_threads() -> int:
    """Set the BLAS thread cap; must run before numpy loads.  Returns nproc."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def load_cli(src: str):
    """Import cvbench.cli from ./src, refusing any other copy."""
    sys.path.insert(0, src)
    import cvbench.cli
    where = os.path.dirname(os.path.abspath(cvbench.cli.__file__))
    if where != os.path.join(src, "cvbench"):
        raise ImportError(f"cvbench was imported from {where}, not {src}")
    return cvbench.cli


def reference_seconds() -> float:
    """CPU time of a fixed mix of small matrix products and float parsing."""
    import numpy as np
    start = CLOCK()
    x = np.linspace(0.1, 1.0, 48)
    m = np.outer(x, x) + np.eye(48)
    for _ in range(30):
        m = m @ m.T
        m /= np.linalg.norm(m)
    text = ",".join(map(repr, np.sin(np.arange(2000.0)).tolist()))
    sum(float(t) for t in text.split(","))
    return CLOCK() - start


def call_cli(cli, argv):
    """(exit code or failure text, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a raising job is a failed job; keep the run going
            code = "raised: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return code, out.getvalue()


def run_job(cli, argv):
    """(exit code or failure text, scaled seconds, raw seconds, stdout)."""
    # Each job starts from a collected heap, as a fresh CLI process would,
    # so a collection owed to the previous job's garbage is not charged here.
    gc.collect()
    before = reference_seconds()
    start = CLOCK()
    code, text = call_cli(cli, argv)
    raw = CLOCK() - start
    after = reference_seconds()
    return code, raw * REFERENCE_S / (0.5 * (before + after)), raw, text


def evaluate(workloads, workload: str, job, code, text: str):
    """(failure reasons, known defects, deviation) of a finished job."""
    if isinstance(code, str):
        return [code], [], None
    try:
        out = json.loads(text) if text.strip() else None
        return workloads.check(workload, job, code, out)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return [f"output missing or malformed: {exc!r}"], [], None


def prepare(workloads, workload: str, seed: int, workdir: str):
    """Write the workload's input files; returns (make_cycle, input sha256s)."""
    if workload == "certify-csv":
        inputs = workloads.write_cert_csvs(seed, workdir)
        hashes = {name: digest for name, (_, digest) in inputs["files"].items()}
        return (lambda c: workloads.cert_cycle(seed, c, inputs)), hashes
    if workload == "gaussian-audit":
        return (lambda c: workloads.gauss_cycle(seed, c, workdir)), {}
    return (lambda c: workloads.fock_cycle(seed, c)), {}


def run_facts(root: str, nproc: int, seed: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "cvbench")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_commit": commit, "source_sha256": src.hexdigest(), "seed": seed}


def end_to_end(workload: str, times: list, rates: list, attempted: int,
               failed: int, deviations: list, setup_s: float) -> tuple:
    import numpy as np
    pct = TAIL_PERCENTILE[workload]
    tail = float(np.percentile(times, pct))
    metrics = {
        "setup_s": setup_s,
        # median over whole cycles, so a slow spell on a shared machine
        # moves it less than a mean over the run would
        "jobs_per_s": statistics.median(rates),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": failed / attempted,
        "max_deviation": max(deviations) if deviations else None,
    }
    tail_info = {"percentile": pct, "jobs": len(times),
                 "jobs_beyond": sum(t > tail for t in times)}
    return metrics, tail_info


def set_up(workload: str, seed: int, src: str, workdir: str):
    """Import cvbench, write the inputs, run one warm-up job of each kind.

    Returns (cli, workloads, make_cycle, input sha256s, timings, failures,
    known defects).
    """
    start = CLOCK()
    cli = load_cli(src)
    import_s = CLOCK() - start
    ref_imported = reference_seconds()
    start = CLOCK()
    sys.path.insert(0, HERE)
    import workloads
    make_cycle, hashes = prepare(workloads, workload, seed, workdir)
    warm = {}
    for job in sorted(make_cycle(WARMUP_CYCLE), key=lambda j: j["group"]):
        warm.setdefault(job["kind"], job)
    generation_s = CLOCK() - start
    ref_generated = reference_seconds()
    failures, defects, warmup_s, warmup_raw = [], [], 0.0, 0.0
    for job in warm.values():
        code, seconds, raw, text = run_job(cli, job["argv"])
        warmup_s, warmup_raw = warmup_s + seconds, warmup_raw + raw
        reasons, known, _ = evaluate(workloads, workload, job, code, text)
        if reasons:
            failures.append({"job": "warm-up", "kind": job["kind"],
                             "argv": job["argv"], "reasons": reasons})
        if known:
            defects.append({"job": "warm-up", "kind": job["kind"],
                            "argv": job["argv"], "reasons": known})
    # the import is scaled by the reference timed right after it, so that
    # numpy's own import stays inside the measured import
    total = (import_s * REFERENCE_S / ref_imported
             + generation_s * REFERENCE_S / (0.5 * (ref_imported + ref_generated))
             + warmup_s)
    timings = {"import_s": import_s, "generation_s": generation_s,
               "warmup_s": warmup_raw, "warmup_jobs": len(warm),
               "raw_s": import_s + generation_s + warmup_raw, "total_s": total}
    return cli, workloads, make_cycle, hashes, timings, failures, defects


def probe_setup(workload: str, seed: int, src: str, workdir: str):
    """Entry point of a fresh set-up process: print its timings and hashes."""
    _, _, _, hashes, timings, _, _ = set_up(workload, seed, src, workdir)
    print(json.dumps({"timings": timings, "hashes": hashes}))


def fresh_set_up(workload: str, seed: int, src: str, workdir: str) -> dict:
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
            f"run.probe_setup({workload!r}, {seed}, {src!r}, {workdir!r})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=150)
    return json.loads(proc.stdout.splitlines()[-1])


def cycle_rates(records, traced: bool) -> list:
    """Jobs per second of each whole cycle, over its summed job time."""
    per_cycle = {}
    for r in records:
        if r.traced == traced:
            jobs, busy = per_cycle.get(r.cycle, (0, 0.0))
            per_cycle[r.cycle] = (jobs + 1, busy + r.seconds)
    return [jobs / busy for jobs, busy in per_cycle.values()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fock-engine", "gaussian-audit", "certify-csv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    nproc = cap_blas_threads()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cvbench", "cli.py")):
        print(f"perfbench: no cvbench sources under {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        try:
            ready = set_up(args.workload, args.seed, src, workdir)
        except ImportError as exc:
            print(f"perfbench: cannot load cvbench: {exc}", file=sys.stderr)
            return 2
        return measure(args, ready, root, src, workdir, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)


def measure(args, ready, root, src, workdir, nproc) -> int:
    workload, seed = args.workload, args.seed
    cli, workloads, make_cycle, input_hashes, first, failures, defects = ready
    from tracing import Tracer

    # This process's own set-up was the first; the others run in fresh
    # processes so that each one pays the cold import and warm-up again.
    probes = [fresh_set_up(workload, seed, src, workdir)
              for _ in range(SETUP_REPEATS - 1)]
    setups = [first] + [p["timings"] for p in probes]
    if any(p["hashes"] != input_hashes for p in probes):
        failures.append({"job": "set-up", "kind": "generator",
                         "reasons": ["input generation is not deterministic"]})
    setup_s = statistics.median(t["total_s"] for t in setups)

    # -- measured closed loop, whole cycles until the time is up ----------
    with open(os.path.join(HERE, "layers.json")) as fh:
        spec = json.load(fh)
    layers = {m: layer["functions"] for m, layer in spec["layers"].items()}
    tracer = Tracer(layers) if args.trace else None
    records, deviations = [], []
    jobs_hash = hashlib.sha256()
    loop_start = time.perf_counter()
    cycle = 0
    # a traced run needs one untraced cycle to measure the overhead against
    while (time.perf_counter() - loop_start < args.seconds
           or (tracer is not None and cycle < 2)):
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        for job in make_cycle(cycle):
            jobs_hash.update(json.dumps(job["argv"]).encode())
            if traced:
                tracer.job = len(records)
            code, seconds, raw, text = run_job(cli, job["argv"])
            reasons, known, dev = evaluate(workloads, workload, job, code, text)
            if reasons:
                failures.append({"job": len(records), "kind": job["group"],
                                 "argv": job["argv"], "reasons": reasons})
            if known:
                defects.append({"job": len(records), "kind": job["group"],
                                "argv": job["argv"], "reasons": known})
            if dev is not None:
                deviations.append(dev)
            records.append(Record(cycle, job["group"], seconds, raw, traced))
        if traced:
            tracer.uninstall()
        cycle += 1
    loop_s = time.perf_counter() - loop_start

    attempted = len(records)
    failed = len({f["job"] for f in failures if isinstance(f["job"], int)})
    defect_jobs = sum(isinstance(d["job"], int) for d in defects)
    untraced = [r.seconds for r in records if not r.traced]
    e2e, tail_info = end_to_end(workload, untraced, cycle_rates(records, False),
                                attempted, failed, deviations, setup_s)
    per_group = {}
    for r in records:
        if not r.traced:
            per_group.setdefault(r.group, []).append(r)

    detail = {"benchmark": "cvbench", "workload": workload, "trace": args.trace,
              "seconds": args.seconds, "loop_s": loop_s, "cycles": cycle,
              "facts": run_facts(root, nproc, seed),
              "closed_loop": "one client, one process, in-process cli.main",
              "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
              "tail": tail_info,
              "per_group": {g: {"jobs": len(rs),
                                "p50_s": statistics.median(r.seconds for r in rs),
                                "raw_p50_s": statistics.median(r.raw for r in rs)}
                            for g, rs in sorted(per_group.items())},
              "setup": setups,
              "inputs_sha256": input_hashes, "jobs_sha256": jobs_hash.hexdigest(),
              "failures": failures,
              "known_defects": {"jobs": defect_jobs, "list": defects}}

    if tracer is None:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in GATED}
    else:
        job_scale = {i: r.seconds / r.raw for i, r in enumerate(records)
                     if r.traced and r.raw > 0}
        layer = tracer.summary(job_scale)
        units = spec["per_layer_units"]
        metrics = {k: {"value": v, "unit": units[k.rsplit(".", 1)[1]]}
                   for k, v in layer.items()}
        overhead = statistics.median(cycle_rates(records, True)) / e2e["jobs_per_s"]
        cli_vs_untraced = layer["cli.main.busy_s"] / statistics.mean(untraced)
        metrics["fock.estimate_exceeded"] = {"value": defect_jobs / attempted,
                                             "unit": "count/job"}
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        metrics["trace.cli_main_vs_untraced"] = {"value": cli_vs_untraced,
                                                 "unit": "ratio"}
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_file = os.path.join(SPAN_DIR, f"spans-{workload}.npz")
        tracer.dump(span_file)
        detail["trace_run"] = {
            "traced_jobs": len(job_scale), "untraced_jobs": len(untraced),
            "span_count": len(tracer.start), "span_file": span_file,
            # cli.main spans cover the untraced job time, stretched by at
            # most the tracing overhead; 5 % either way is run-to-run noise
            "cli_main_within_overhead":
                0.95 <= cli_vs_untraced <= 1.05 / overhead}

    for name, entry in detail["end_to_end"].items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:>15} {name:<14} {shown:>12} {entry['unit']}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
