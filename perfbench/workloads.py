"""Seeded inputs, job lists and correctness oracles for the cvbench benchmark.

Nothing here imports cvbench: the inputs and the reference answers are made
with numpy alone, so a change to the package cannot change its own inputs or
the values it is checked against.

A workload is a sequence of cycles.  Every cycle holds the same mix of job
kinds in a seeded order, and cycle c draws its parameters from
``default_rng([seed, c])``, so the same seed gives the same jobs however many
cycles a run gets through.  Each job is a dict with the CLI ``argv``, its
``kind`` (the warm-up runs one job of each), a finer ``group`` for per-group
timings, and what its oracle needs under ``expect``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# fock-engine ---------------------------------------------------------------

FOCK_MODELS = ("pure_loss", "quantum_limited_amp", "canonical_b1",
               "canonical_c", "heterodyne_mp")
FOCK_CUTOFFS = (24, 40)
# One job per model and cutoff, plus extra copies that put each reported
# order statistic inside one group's spread rather than between two: sorted
# by cost, three canonical_c@24 jobs hold the median (positions 6-8 of 14)
# and two heterodyne_mp@40 jobs the 90th percentile (positions 12-13).
FOCK_KINDS = tuple((m, c) for m in FOCK_MODELS for c in FOCK_CUTOFFS) \
    + (("canonical_c", 24),) * 2 + (("heterodyne_mp", 24), ("heterodyne_mp", 40))
# Prior rule "radial,angular" for the truncated engine.  The CLI default
# (16,24) makes a heterodyne job at cutoff 40 take about 8 s, which leaves too
# few jobs in a run for a tail percentile; these models are phase-covariant,
# so a coarse angular rule loses nothing the error estimate does not report.
FOCK_QUAD = "6,4"

# gaussian-audit ------------------------------------------------------------

# Per cycle: four sweeps put the median inside the sweep's narrow spread,
# three anisotropic simulations set the tail, proofchecks are the fast jobs.
GAUSS_CYCLE = (("aniso",) * 3 + ("proofcheck",) * 3 + ("sweep",) * 4
               + ("selftest",))
PROOF_CUTOFFS = (10, 12, 14)
# The two-copy audit compares two truncated constructions against a 1e-3
# relative tolerance, and their mismatch shrinks as the cutoff grows.  For
# eta up to 1.5 its default cutoff of 10 fails from eta ~ 1.2 on, 14 left a
# worst mismatch of 7.6e-4 over 30 draws (and one of 1.0e-3), 16 left 1.0e-4.
TWO_COPY_CUTOFF = "16"
SWEEP_SHAPE = (25, 20, 20)           # eta x lambda x ntilde = 10^4 points

# certify-csv ---------------------------------------------------------------

CERT_ETA = 0.6                       # task gain; pure loss T = 0.6 matches it
CERT_SHAPES = {"deep": (8, 10000), "wide": (200, 400)}   # probes, samples
CERT_CHANNELS = ("loss", "het")
CERT_METHODS = ("variance", "fidelity")
# Bootstrap resamples per certify job.  The CLI default (1000) makes a job
# take about 2 s; 200 keeps bootstrap_se a third of the job and lets a run
# hold enough jobs for a tail percentile.
CERT_NBOOT = 200
# Relative |se - se_analytic| / se_analytic a job may show.  With 200
# resamples the bootstrap SE itself scatters by about 1/sqrt(2*200) = 5 %.
CERT_SE_TOL = 0.25

GAUSS_TOL = 1e-9                     # |program - exact 2-D integral|
# |fbar_fock - exact| a job may show on top of its own error estimate: the
# default --tolerance of ``simulate``, beyond which ``--engine both`` exits 5,
# and the slack the package's own heterodyne agreement test allows.  The
# estimate alone does not bound the gap of about one heterodyne_mp job in
# three (by up to about 5x); such jobs are reported as known defects.
FOCK_TOL = 1e-3
BOUND_TOL = 1e-12                    # relative, for closed-form bound values


def cycle_rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle])


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# exact references


def model_channel(model: dict):
    """(K, M) of a channel model, from its defining parameters."""
    t = model["type"]
    if t == "canonical_b1":
        return np.eye(2), np.diag([0.5, 0.0])
    if t == "pure_loss":
        k2, m = model["T"], (1.0 - model["T"]) / 2.0
    elif t == "quantum_limited_amp":
        k2, m = model["G"], (model["G"] - 1.0) / 2.0
    elif t == "canonical_c":
        k2, m = model["eta"], model["ntilde"] + abs(1.0 - model["eta"]) / 2.0
    elif t == "heterodyne_mp":
        k2, m = model["g"] ** 2, (1.0 + model["g"] ** 2) / 2.0
    else:
        raise ValueError(f"unknown model {t!r}")
    return math.sqrt(k2) * np.eye(2), m * np.eye(2)


def exact_average_fidelity(K, M, disp, eta: float, lam: float) -> float:
    """Exact prior average of <sqrt(eta) a| E(|a><a|) |sqrt(eta) a>.

    With Sigma = I/2 + K (I/2) K^T + M, S = Sigma^-1, A = K - sqrt(eta) I,
    b = disp, Q = lam I + A^T S A and h = sqrt(2) A^T S b:
    F = lam / sqrt(det Q det Sigma) * exp(h^T Q^-1 h / 4 - b^T S b / 2).
    """
    K, M, b = np.asarray(K, float), np.asarray(M, float), np.asarray(disp, float)
    sigma = 0.5 * np.eye(2) + 0.5 * K @ K.T + M
    s = np.linalg.inv(sigma)
    a = K - math.sqrt(eta) * np.eye(2)
    q = lam * np.eye(2) + a.T @ s @ a
    h = math.sqrt(2.0) * a.T @ s @ b
    expo = 0.25 * h @ np.linalg.solve(q, h) - 0.5 * b @ s @ b
    return float(lam / math.sqrt(np.linalg.det(q) * np.linalg.det(sigma))
                 * math.exp(expo))


def classical_bound(eta: float, lam: float) -> float:
    return (1.0 + lam) / (1.0 + lam + eta)


def quadrature_threshold(eta: float, lam: float) -> float:
    return 2.0 * eta / (1.0 + lam + eta)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# fock-engine


def fock_cycle(seed: int, cycle: int) -> list:
    rng = cycle_rng(seed, cycle)
    jobs, drawn = [], {}
    for model_type, cutoff in FOCK_KINDS:
        # Copies of one kind split [0.3, 0.6] into equal strata of lambda,
        # which sets how many prior nodes fit the cutoff and so most of a
        # job's cost: a group's spread of times then hangs less on the draw.
        copies = FOCK_KINDS.count((model_type, cutoff))
        i = drawn.get((model_type, cutoff), 0)
        drawn[model_type, cutoff] = i + 1
        lam = rng.uniform(0.3 + 0.3 * i / copies, 0.3 + 0.3 * (i + 1) / copies)
        eta = rng.uniform(0.6, 1.4)
        if model_type == "pure_loss":
            model = {"type": model_type, "T": rng.uniform(0.4, 0.95)}
        elif model_type == "quantum_limited_amp":
            model = {"type": model_type, "G": rng.uniform(1.05, 1.8)}
        elif model_type == "canonical_b1":
            # unit-gain channel: at eta = 1 the Gaussian engine stays on
            # its closed form, as it does for the isotropic models
            model, eta = {"type": model_type}, 1.0
        elif model_type == "canonical_c":
            model = {"type": model_type, "eta": rng.uniform(0.6, 1.4),
                     "ntilde": rng.uniform(0.0, 0.6)}
        else:
            model = {"type": model_type,
                     "g": math.sqrt(eta) / (1.0 + lam) * rng.uniform(0.8, 1.2)}
        argv = ["simulate", "--channel", json.dumps(model),
                "--eta", _fmt(eta), "--lambda", _fmt(lam),
                "--engine", "both", "--cutoff", str(cutoff),
                "--quad", FOCK_QUAD]
        K, M = model_channel(model)
        jobs.append({"kind": model_type, "group": f"{model_type}@{cutoff}",
                     "argv": argv,
                     "expect": {"eta": float(eta), "lam": float(lam),
                                "fbar": exact_average_fidelity(
                                    K, M, np.zeros(2), eta, lam)}})
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def check_fock(job, code, out):
    """(failure reasons, known defects, |fbar_fock - fbar_gaussian|) of a job.

    The job fails when fbar_fock misses the exact average by more than the
    program's own agreement rule allows (FOCK_TOL plus its error estimate).
    A gap above the error estimate alone is listed as a known defect.
    """
    exp = job["expect"]
    if code != 0:
        return [f"exit code {code}, expected 0"], [], None
    r = out["result"]
    fails = []
    gap = abs(r["fbar_fock"] - r["fbar_gaussian"])
    estimate = r["fock_error_estimate"]
    if abs(r["fbar_gaussian"] - exp["fbar"]) > GAUSS_TOL:
        fails.append(f"fbar_gaussian {r['fbar_gaussian']!r} differs from the "
                     f"exact {exp['fbar']!r}")
    miss = abs(r["fbar_fock"] - exp["fbar"])
    if not miss <= FOCK_TOL + estimate:
        fails.append(f"fbar_fock misses the exact average by {miss:.3g}, more "
                     f"than {FOCK_TOL:g} plus its error estimate {estimate:.3g}")
    if _rel(r["classical_bound"], classical_bound(exp["eta"], exp["lam"])) > BOUND_TOL:
        fails.append(f"classical_bound {r['classical_bound']!r} is wrong")
    defects = [] if gap <= estimate else [
        f"engine gap {gap:.3g} exceeds the fock error estimate {estimate:.3g}"]
    return fails, defects, gap


# ---------------------------------------------------------------------------
# gaussian-audit


def random_cp_channel(rng: np.random.Generator):
    """A displaced, anisotropic, completely positive one-mode channel."""
    K = 0.3 * rng.standard_normal((2, 2)) + rng.uniform(0.6, 1.2) * np.eye(2)
    L = rng.standard_normal((2, 2))
    m0 = L @ L.T
    floor = abs(np.linalg.det(K) - 1.0) / 2.0
    M = m0 * (floor / math.sqrt(np.linalg.det(m0)) * rng.uniform(1.05, 2.0)) \
        + 0.02 * np.eye(2)
    M = 0.5 * (M + M.T)
    disp = 0.5 * rng.standard_normal(2)
    return K, M, disp


def _sweep_axes(rng):
    n_eta, n_lam, n_nt = SWEEP_SHAPE
    return (np.sort(rng.uniform(0.2, 2.0, n_eta)),
            np.sort(rng.uniform(0.0, 1.0, n_lam)),
            np.sort(rng.uniform(0.0, 1.5, n_nt)))


def gauss_cycle(seed: int, cycle: int, workdir: str) -> list:
    rng = cycle_rng(seed, cycle)
    cutoffs = list(rng.permutation(PROOF_CUTOFFS))
    jobs = []
    for n, kind in enumerate(GAUSS_CYCLE):
        eta, lam = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.3, 0.6))
        job_seed = str(int(rng.integers(0, 2 ** 31)))
        if kind == "aniso":
            K, M, disp = random_cp_channel(rng)
            channel = {"type": "gaussian", "K": K.tolist(), "M": M.tolist(),
                       "disp": disp.tolist()}
            argv = ["simulate", "--channel", json.dumps(channel), "--eta",
                    _fmt(eta), "--lambda", _fmt(lam), "--engine", "gaussian"]
            expect = {"fbar": exact_average_fidelity(K, M, disp, eta, lam)}
        elif kind == "proofcheck":
            argv = ["proofcheck", "--eta", _fmt(eta), "--lambda", _fmt(lam),
                    "--copies", str(int(rng.integers(2, 6))),
                    "--trials", str(int(rng.integers(10, 41))),
                    "--cutoff", str(int(cutoffs.pop())),
                    "--two-copy-cutoff", TWO_COPY_CUTOFF, "--seed", job_seed]
            expect = {"exit": 0, "passed": True}
        elif kind == "selftest":
            argv = ["proofcheck", "--eta", _fmt(eta), "--lambda", _fmt(lam),
                    "--trials", "10", "--cutoff", "10",
                    "--two-copy-cutoff", TWO_COPY_CUTOFF, "--seed", job_seed,
                    "--corrupt-bound", "0.9"]
            expect = {"exit": 1, "passed": False}
        else:
            etas, lams, nts = _sweep_axes(rng)
            out = os.path.join(workdir, f"sweep-{n}.csv")
            argv = ["sweep", "--eta", ",".join(map(_fmt, etas)),
                    "--lambda", ",".join(map(_fmt, lams)),
                    "--ntilde", ",".join(map(_fmt, nts)), "--out", out]
            expect = {"out": out, "eta": etas.tolist(), "lambda": lams.tolist(),
                      "ntilde": nts.tolist()}
        jobs.append({"kind": kind, "group": kind, "argv": argv, "expect": expect})
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def check_aniso(job, code, out):
    if code != 0:
        return [f"exit code {code}, expected 0"], None
    got, want = out["result"]["fbar_gaussian"], job["expect"]["fbar"]
    dev = abs(got - want)
    fails = [] if dev <= GAUSS_TOL else [
        f"fbar_gaussian {got!r} differs from the exact integral {want!r} by {dev:.3g}"]
    return fails, dev


def check_proofcheck(job, code, out):
    exp = job["expect"]
    fails = []
    if code != exp["exit"]:
        fails.append(f"exit code {code}, expected {exp['exit']}")
    if out is None:
        return fails or ["no output"], None
    r = out["result"]
    if r["passed"] is not exp["passed"]:
        fails.append(f"passed is {r['passed']}, expected {exp['passed']}")
    for part in ("circulant", "two_copy"):
        if not r[part]["passed"]:
            fails.append(f"{part} check failed")
    if r["score_bound"]["passed"] is not exp["passed"]:
        fails.append(f"score_bound passed is {r['score_bound']['passed']}, "
                     f"expected {exp['passed']}")
    return fails, None


def read_sweep_csv(path: str):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def check_sweep(job, code, out):
    """Every row against the closed-form bound and threshold."""
    if code != 0:
        return [f"exit code {code}, expected 0"], None
    exp = job["expect"]
    header, rows = read_sweep_csv(exp["out"])
    fails = []
    n_expected = len(exp["eta"]) * len(exp["lambda"]) * len(exp["ntilde"])
    if len(rows) != n_expected:
        return [f"sweep wrote {len(rows)} rows, expected {n_expected}"], None
    col = {name: i for i, name in enumerate(header)}
    table = np.array([[float(r[col[c]]) for c in
                       ("eta", "lambda", "ntilde", "classical_bound",
                        "quadrature_threshold")] for r in rows])
    grid = np.array([(e, l, n) for e in exp["eta"] for l in exp["lambda"]
                     for n in exp["ntilde"]])
    if not np.array_equal(table[:, :3], grid):
        fails.append("sweep rows do not follow the requested grid")
    eta, lam = grid[:, 0], grid[:, 1]
    bound, thresh = classical_bound(eta, lam), quadrature_threshold(eta, lam)
    dev = float(max(np.max(np.abs(table[:, 3] - bound) / bound),
                    np.max(np.abs(table[:, 4] - thresh) / thresh)))
    if dev > BOUND_TOL:
        fails.append(f"sweep bound columns deviate from the closed form by {dev:.3g}")
    return fails, dev


# ---------------------------------------------------------------------------
# certify-csv


def cert_inputs(seed: int):
    """Prior width and probe amplitudes of the four CSVs of one seed."""
    rng = np.random.default_rng([seed, 2 ** 32 - 1])
    # Up to lambda = 0.35 the 200 prior draws of the wide shape clear the
    # program's grid-strength check (mean squared displacement at least
    # 2 / (lambda + eta)) by 18 % or more on each of seeds 0-399; near
    # lambda = 0.6 they fall short of it.
    lam = float(rng.uniform(0.2, 0.35))
    n_deep = CERT_SHAPES["deep"][0]
    # a ring wide enough to pass the program's grid-strength check
    radius = math.sqrt(2.0 / (lam + CERT_ETA))
    deep = radius * np.exp(2j * math.pi * (np.arange(n_deep) / n_deep + rng.uniform()))
    n_wide = CERT_SHAPES["wide"][0]
    scale = math.sqrt(0.5 / lam)
    wide = scale * (rng.standard_normal(n_wide) + 1j * rng.standard_normal(n_wide))
    return lam, {"deep": deep, "wide": wide}, rng


def channel_moments(channel: str, lam: float):
    """(gain on the mean, variance per quadrature) of the output at a probe."""
    if channel == "loss":
        return math.sqrt(CERT_ETA), 0.5
    g = math.sqrt(CERT_ETA) / (1.0 + lam)      # optimal measure-and-prepare
    return g, g * g + 0.5


def write_cert_csvs(seed: int, workdir: str) -> dict:
    """Write the four 160k-row CSVs; returns {name: (path, sha256)}."""
    lam, probes, rng = cert_inputs(seed)
    files = {}
    for shape, (_, n) in CERT_SHAPES.items():
        for channel in CERT_CHANNELS:
            gain, var = channel_moments(channel, lam)
            path = os.path.join(workdir, f"{shape}-{channel}.csv")
            digest = hashlib.sha256()
            # written one probe and axis at a time, so that the file's text
            # never sits in memory whole and sets the run's peak RSS
            with open(path, "wb") as fh:
                def emit(text):
                    data = text.encode()
                    digest.update(data)
                    fh.write(data)
                emit("alpha_re,alpha_im,quad_label,value\n")
                for a in probes[shape]:
                    d = math.sqrt(2.0) * np.array([a.real, a.imag])
                    for axis, label in ((0, "plus"), (1, "minus")):
                        x = rng.normal(gain * d[axis], math.sqrt(var), n)
                        prefix = f"{_fmt(a.real)},{_fmt(a.imag)},{label},"
                        emit(prefix + ("\n" + prefix).join(map(repr, x.tolist())) + "\n")
            files[f"{shape}-{channel}"] = (path, digest.hexdigest())
    return {"lam": lam, "files": files}


def cert_cycle(seed: int, cycle: int, inputs: dict) -> list:
    rng = cycle_rng(seed, cycle)
    jobs = []
    for name, (path, digest) in inputs["files"].items():
        shape, channel = name.split("-")
        for method in CERT_METHODS:
            argv = ["certify", "--input", path, "--method", method,
                    "--eta", _fmt(CERT_ETA), "--lambda", _fmt(inputs["lam"]),
                    "--n-boot", str(CERT_NBOOT),
                    "--seed", str(int(rng.integers(0, 2 ** 31)))]
            certified = channel == "loss"
            jobs.append({"kind": method, "group": f"{shape}-{method}", "argv": argv,
                         "expect": {"exit": 0 if certified else 1,
                                    "verdict": "QUANTUM_DOMAIN" if certified
                                    else "NOT_CERTIFIED",
                                    "sha256": digest,
                                    "n_probes": CERT_SHAPES[shape][0],
                                    "n_samples": 2 * math.prod(CERT_SHAPES[shape])}})
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def check_certify(job, code, out):
    exp = job["expect"]
    fails = []
    if code != exp["exit"]:
        fails.append(f"exit code {code}, expected {exp['exit']}")
    if out is None:
        return fails or ["no output"], None
    r = out["result"]
    if r["verdict"] != exp["verdict"]:
        fails.append(f"verdict {r['verdict']}, expected {exp['verdict']}")
    if out.get("input_sha256") != exp["sha256"]:
        fails.append("input_sha256 does not match the generated file")
    if r["n_probes"] != exp["n_probes"] or r["n_samples"] != exp["n_samples"]:
        fails.append(f"read {r['n_probes']} probes / {r['n_samples']} samples, "
                     f"expected {exp['n_probes']} / {exp['n_samples']}")
    dev = abs(r["se"] - r["se_analytic"]) / r["se_analytic"]
    if not dev <= CERT_SE_TOL:
        fails.append(f"bootstrap se {r['se']:.4g} is {dev:.1%} off the analytic "
                     f"{r['se_analytic']:.4g}")
    return fails, dev


CHECKS = {"aniso": check_aniso, "proofcheck": check_proofcheck,
          "selftest": check_proofcheck, "sweep": check_sweep}


def check(workload: str, job, code, out):
    """(failure reasons, known defects, deviation or None) of a finished job."""
    if workload == "fock-engine":
        return check_fock(job, code, out)
    oracle = check_certify if workload == "certify-csv" else CHECKS[job["kind"]]
    fails, dev = oracle(job, code, out)
    return fails, [], dev
