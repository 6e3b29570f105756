"""Command-line front end: bounds, simulation, certification, sweeps, checks.

Every run emits one machine-readable document (JSON by default, CSV for
tables) that embeds the toolkit version, the seed and the resolved
configuration, so identical invocations produce byte-identical output.
Files are written atomically: a temporary file in the target directory is
renamed over the destination only once the document is complete, with the
mode a plain open() would have given it.  Sweep tables are written in
blocks of rows, so their memory does not grow with the grid.

Exit codes:

* 0 -- success (for certify: QUANTUM_DOMAIN; for proofcheck: all checks pass)
* 1 -- NOT_CERTIFIED verdict, failed check, or non-converged computation
* 2 -- usage errors: bad flags, unknown config keys, oversized sweep grids
* 3 -- channel outside the completely-positive domain
* 4 -- malformed or inadequate dataset (CSV errors carry a line number)
* 5 -- simulation engines disagree beyond tolerance
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import __version__, certify, fock, proofcheck, schemes
from .bounds import classical_bound, quadrature_threshold, quantum_amp_bound
from .errors import (ConvergenceError, CutoffTooSmall, DatasetError,
                     DomainError, InvalidInput, NotCompletelyPositive,
                     ToolkitError, UnsupportedTask)
from .gaussian import (GaussianChannel, average_fidelity_gaussian, is_cp_channel,
                       isotropic_part)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CP = 3
EXIT_DATA = 4
EXIT_DISAGREE = 5

_SMALL_LAM = 1e-3
_HASH_BLOCK = 1 << 20             # --input is hashed in blocks, so memory stays bounded

# Config-file keys accepted per subcommand, mapped to argparse dests.  The
# common keys ride along on every subcommand.
_COMMON_KEYS = {"seed": "seed", "format": "fmt", "out": "out",
                "tolerance": "tolerance"}
_COMMAND_KEYS = {
    "bound": {"eta": "eta", "lambda": "lam", "n_copies": "n_copies"},
    "simulate": {"channel": "channel", "eta": "eta", "lambda": "lam",
                 "engine": "engine", "cutoff": "cutoff", "quad": "quad"},
    "certify": {"input": "input", "fbar": "fbar", "se": "se",
                "channel": "channel", "method": "method", "eta": "eta",
                "lambda": "lam", "k": "k", "n_boot": "n_boot",
                "weights": "weights"},
    "sweep": {"grid": "grid", "eta": "eta", "lambda": "lam", "g": "g",
              "ntilde": "ntilde", "n_copies": "n_copies"},
    "proofcheck": {"copies": "copies", "eta": "eta", "lambda": "lam",
                   "trials": "trials", "cutoff": "cutoff",
                   "two_copy_cutoff": "two_copy_cutoff",
                   "corrupt_bound": "corrupt_bound"},
}

_DEFAULTS = {
    "bound": {"lam": 0.0, "n_copies": 1},
    "simulate": {"lam": 0.0, "engine": "gaussian"},
    "certify": {"se": 0.0, "k": 3.0, "n_boot": 1000},
    "sweep": {},
    "proofcheck": {"copies": 3, "eta": 1.0, "lam": 0.2, "trials": 25,
                   "cutoff": 14, "two_copy_cutoff": 16, "corrupt_bound": 1.0},
    "common": {"seed": 0, "tolerance": 1e-3},
}

_SWEEP_KEY_ORDER = ("eta", "lambda", "g", "ntilde", "n_copies")
_SWEEP_MAX_POINTS = 10 ** 6
_SWEEP_BLOCK_ROWS = 1 << 12       # rows per CSV text chunk, so memory stays bounded


class _Usage(Exception):
    """Internal marker for post-parse usage problems (exit 2)."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed recorded in the output (default 0)")
    common.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None,
                        help="output format (default json; sweep defaults to csv)")
    common.add_argument("--out", default=None,
                        help="write output to this path (atomic; default stdout)")
    common.add_argument("--config", default=None,
                        help="JSON config file merged under explicit flags")
    common.add_argument("--tolerance", type=float, default=None,
                        help="tolerance override (engine agreement, check slack)")

    parser = argparse.ArgumentParser(
        prog="cvbench",
        description="benchmarks and certification for coherent-state "
                    "transformation tasks on one bosonic mode")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common],
                       help="classical fidelity bound and related thresholds")
    p.add_argument("--eta", type=float, default=None, help="task gain")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="prior width (0 = flat-prior limit)")
    p.add_argument("--n-copies", dest="n_copies", type=int, default=None,
                   help="input copies available to the sender (default 1)")

    p = sub.add_parser("simulate", parents=[common],
                       help="average task fidelity of a channel, by engine")
    p.add_argument("--channel", default=None,
                   help="channel JSON (inline, or a path/@path to a file)")
    p.add_argument("--eta", type=float, default=None,
                   help="task gain (default: the channel's own gain when isotropic)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="prior width (0 maps to closed forms or to 1e-3 with a warning)")
    p.add_argument("--engine", choices=["gaussian", "fock", "both"], default=None)
    p.add_argument("--cutoff", type=int, default=None,
                   help=f"truncation for the fock engine, 1..{fock._MAX_AUTO_CUTOFF}; the "
                        "prior average uses one node per level (default: the smallest "
                        "cutoff whose truncated prior weights are at most 1e-10)")
    p.add_argument("--quad", default=None,
                   help="ignored, with a warning: the fock engine's prior rule "
                        "follows from the cutoff")

    p = sub.add_parser("certify", parents=[common],
                       help="quantum-domain verdict from data or a model")
    p.add_argument("--input", default=None, help="CSV of quadrature samples")
    p.add_argument("--fbar", type=float, default=None,
                   help="average-fidelity estimate (fidelity method)")
    p.add_argument("--se", type=float, default=None,
                   help="standard error of --fbar (default 0)")
    p.add_argument("--channel", default=None,
                   help="channel JSON to certify exactly (fidelity method)")
    p.add_argument("--method", choices=["variance", "fidelity"], default=None)
    p.add_argument("--eta", type=float, default=None, help="declared task gain")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="prior width of the probe ensemble")
    p.add_argument("--k", type=float, default=None,
                   help="required margin in standard errors (default 3)")
    p.add_argument("--n-boot", dest="n_boot", type=int, default=None,
                   help="bootstrap resamples (default 1000; 0 = analytic SE)")
    p.add_argument("--weights", default=None,
                   help="comma-separated probe weights overriding the prior weighting")

    p = sub.add_parser("sweep", parents=[common],
                       help="Cartesian parameter sweep of the closed forms")
    p.add_argument("--grid", default=None,
                   help='grid JSON, e.g. {"eta": [0.5, 1], "lambda": [0, 0.2]}')
    p.add_argument("--eta", default=None, help="comma-separated eta values")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated lambda values")
    p.add_argument("--g", default=None,
                   help="comma-separated re-preparation gains")
    p.add_argument("--ntilde", default=None,
                   help="comma-separated added-noise values (isotropic family)")
    p.add_argument("--n-copies", dest="n_copies", default=None,
                   help="comma-separated copy counts")

    p = sub.add_parser("proofcheck", parents=[common],
                       help="run the bound's supporting identity and operator checks")
    p.add_argument("--copies", type=int, default=None,
                   help="circulant size for the identity checks, "
                        f"1..{proofcheck._MAX_COPIES} (default 3)")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--trials", type=int, default=None,
                   help="random probes for the operator bound, "
                        f"0..{proofcheck._MAX_TRIALS} (default 25)")
    p.add_argument("--cutoff", type=int, default=None,
                   help="truncation for the operator bound, "
                        f"1..{proofcheck._MAX_SCORE_CUTOFF} (default 14)")
    p.add_argument("--two-copy-cutoff", dest="two_copy_cutoff", type=int, default=None,
                   help="truncation for the two-copy consistency check, "
                        f"1..{proofcheck._MAX_SCORE_CUTOFF} (default 16)")
    p.add_argument("--corrupt-bound", dest="corrupt_bound", type=float, default=None,
                   help="self-test: scale the bound by this factor (0.9 must fail)")

    return parser


def _resolve(args) -> dict:
    """Merge explicit flags over config-file values over defaults."""
    keys = dict(_COMMON_KEYS)
    keys.update(_COMMAND_KEYS[args.command])
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise _Usage(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _Usage(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise _Usage("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(keys))
        if unknown:
            raise _Usage(f"unknown config keys for '{args.command}': {', '.join(unknown)}")
        cfg = {keys[k]: v for k, v in raw.items()}

    eff = {d: None for d in keys.values()}
    eff.update(_DEFAULTS["common"])
    eff.update(_DEFAULTS[args.command])
    for key, dest in keys.items():
        if dest in cfg and cfg[dest] is not None:
            eff[dest] = cfg[dest]
    for dest in keys.values():
        value = getattr(args, dest, None)
        if value is not None:
            eff[dest] = value
    eff["command"] = args.command
    eff["config_echo"] = {key: eff[dest] for key, dest in sorted(keys.items())
                          if key != "out" and eff[dest] is not None}
    return eff


def _atomic_write(chunks, path: str) -> None:
    """Write an iterable of text chunks to `path` through a renamed temporary file.

    The file ends up with the mode open(path, "w") would leave: an existing
    file keeps its own, a new one gets 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cvbench-", suffix=".tmp")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: dict | None, eff: dict, table=None) -> None:
    """Write the run's document: a CSV table's text chunks when there are any, else JSON."""
    if eff.get("fmt") == "csv" and table is not None:
        preamble = (f"# version={__version__}\n"
                    f"# command={eff['command']}\n"
                    f"# seed={eff['seed']}\n"
                    "# config=" + json.dumps(eff["config_echo"], sort_keys=True) + "\n")
        chunks = itertools.chain((preamble,), table)
    else:
        document = {"version": __version__, "command": eff["command"],
                    "seed": eff["seed"], "config": eff["config_echo"]}
        document.update(payload)
        chunks = [json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"]
    if eff.get("out"):
        _atomic_write(chunks, eff["out"])
    else:
        sys.stdout.writelines(chunks)


def _require(eff: dict, *names):
    missing = [n for n in names if eff.get(n) is None]
    if missing:
        raise _Usage(f"missing required parameter(s): {', '.join(missing)} "
                     f"(flag or config)")


def _load_channel_spec(text: str):
    """Inline JSON, @path, or bare path -> ChannelModel or GaussianChannel."""
    raw = text
    if text.startswith("@"):
        path = text[1:]
        with open(path) as fh:
            raw = fh.read()
    elif not text.lstrip().startswith("{") and os.path.exists(text):
        with open(text) as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _Usage(f"channel is not valid JSON: {exc}")
    if isinstance(obj, dict) and obj.get("type") == "gaussian":
        return GaussianChannel.from_json(obj)
    if isinstance(obj, dict) and "K" in obj and "M" in obj:
        return GaussianChannel.from_json(obj)
    return schemes.model_from_json(obj)


def _channel_gain(channel) -> float | None:
    if not isinstance(channel, GaussianChannel):
        iso = schemes._iso_params(channel)
        if iso is not None:
            return iso[0]
        if isinstance(channel, schemes.CanonicalB1):
            return 1.0
        channel = schemes.to_gaussian(channel)
    k = isotropic_part(channel.K)
    return None if k is None else k * k


def _flat_prior_proxy(lam: float, warnings: list, purpose: str = "") -> float:
    """lam, or the narrow proxy _SMALL_LAM (with a warning) for the flat prior."""
    if lam != 0.0:
        return lam
    warnings.append(f"flat prior replaced by lambda = {_SMALL_LAM}{purpose}")
    return _SMALL_LAM


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bound(eff: dict):
    _require(eff, "eta")
    eta, lam, n = float(eff["eta"]), float(eff["lam"]), int(eff["n_copies"])
    result = {"eta": eta, "lambda": lam, "n_copies": n,
              "classical_bound": classical_bound(eta, lam, n)}
    if n == 1:
        result["quadrature_threshold"] = quadrature_threshold(eta, lam)
        result["optimal_mp_gain"] = schemes.optimal_mp_gain(eta, lam)
        result["optimal_mp_fidelity"] = schemes.mp_average_fidelity(
            schemes.optimal_mp_gain(eta, lam), eta, lam) if lam > 0 else \
            classical_bound(eta, 0.0)
    if eta > 1:
        result["quantum_amp_bound"] = quantum_amp_bound(eta)
    return {"result": result, "warnings": []}, EXIT_OK, None


def _cmd_simulate(eff: dict):
    _require(eff, "channel")
    cutoff = eff.get("cutoff")
    if cutoff is not None and not 1 <= cutoff <= fock._MAX_AUTO_CUTOFF:
        raise _Usage(f"--cutoff must be between 1 and {fock._MAX_AUTO_CUTOFF}, "
                     f"got {cutoff}")
    channel = _load_channel_spec(str(eff["channel"]))
    warnings = []
    if eff.get("quad") is not None:
        warnings.append("--quad is ignored: the fock engine evaluates one "
                        "prior node per level of the cutoff")
    is_model = not isinstance(channel, GaussianChannel)
    gauss = schemes.to_gaussian(channel) if is_model else channel
    if not is_cp_channel(gauss):
        raise NotCompletelyPositive(
            "channel (K, M) fails the complete-positivity criterion")

    eta = eff.get("eta")
    if eta is None:
        eta = _channel_gain(channel)
        if eta is None:
            raise _Usage("cannot infer a task gain from an anisotropic channel; "
                         "pass --eta")
        warnings.append(f"task gain defaulted to the channel's own gain {eta:.6g}")
    eta, lam = float(eta), float(eff["lam"])
    engine = eff["engine"]
    tolerance = float(eff["tolerance"])

    result = {"channel": gauss.to_json() if not is_model else
              schemes.model_to_json(channel),
              "eta": eta, "lambda": lam, "engine": engine}
    # A flat prior (lambda = 0) has a finite closed form only for matched
    # channels, where the average is prior-independent.  Unmatched channels
    # get a narrow proxy prior; matched ones may run the truncated engine at
    # any proper width, so pick one its cutoff can actually cover.
    lam_gauss = lam_fock = lam
    matched = False
    try:
        average_fidelity_gaussian(gauss, eta, 0.0)
        matched = True
    except DomainError:
        pass
    if matched and lam < 0.2:
        # The matched-gain average is prior-independent, so the truncated
        # engine may run at a width whose prior actually fits the cutoff:
        # 0.2, or wider once the output prior of a large gain needs more
        # than the automatic cutoff limit.
        lam_fock = 0.2 if cutoff is not None else \
            max(0.2, fock.narrowest_auto_lambda(eta))
    elif lam == 0.0:
        lam_gauss = lam_fock = _SMALL_LAM

    fbar_gauss = None
    if engine in ("gaussian", "both"):
        if lam_gauss != lam:
            warnings.append("the flat-prior average diverges for an unmatched "
                            f"channel; evaluated at lambda = {lam_gauss} instead")
        fbar_gauss = average_fidelity_gaussian(gauss, eta, lam_gauss)
        result["fbar_gaussian"] = fbar_gauss
        result["lambda_used_gaussian"] = lam_gauss
    if engine in ("fock", "both"):
        if matched and lam_fock != lam:
            warnings.append("matched channel: the average is prior-independent, "
                            f"so the truncated engine ran at lambda = {lam_fock}")
        elif lam_fock != lam:
            warnings.append("the truncated engine averages over a proper prior; "
                            f"evaluated at lambda = {lam_fock} instead")
        try:
            avg = fock.average_fidelity_fock(schemes.phase_averaged_applier(channel),
                                             eta, lam_fock, cutoff=cutoff, max_error=0.5)
        except (ConvergenceError, CutoffTooSmall) as exc:
            if matched or lam != 0.0:
                raise
            raise type(exc)(f"{exc} (lambda = {lam_fock:g} is the flat-prior proxy "
                            f"for lambda = 0)") from exc
        result["fbar_fock"] = avg.value
        result["fock_error_estimate"] = avg.error
        result["lambda_used_fock"] = lam_fock
    # Compare against the bound at the prior the caller asked about.  A
    # matched channel's average is valid at the requested width even when the
    # truncated engine ran at a wider one; only the unmatched flat-prior proxy
    # genuinely shifts the question, and it shifts both engines alike.
    reference = fbar_gauss if fbar_gauss is not None else result["fbar_fock"]
    result["classical_bound"] = classical_bound(eta, lam_gauss)
    result["margin"] = reference - result["classical_bound"]
    result["quantum_domain"] = bool(result["margin"] > 1e-12)

    code = EXIT_OK
    if engine == "both":
        gap = abs(result["fbar_gaussian"] - result["fbar_fock"])
        result["engine_gap"] = gap
        allowed = tolerance + result["fock_error_estimate"]
        if gap > allowed:
            warnings.append(f"engines disagree: |gaussian - fock| = {gap:.3g} "
                            f"exceeds {allowed:.3g}")
            code = EXIT_DISAGREE
    return {"result": result, "warnings": warnings}, code, None


def _certify_dataset(eff: dict, warnings: list):
    _require(eff, "input", "lam")
    lam = _flat_prior_proxy(float(eff["lam"]), warnings, " for grid weighting")
    weights = None
    if eff.get("weights") is not None:
        weights = [float(x) for x in str(eff["weights"]).split(",")]
    return certify.read_dataset_csv(eff["input"], lam=lam,
                                    eta_declared=eff.get("eta"),
                                    weights=weights)


def _cmd_certify(eff: dict):
    warnings = []
    method = eff.get("method")
    if method is None:
        method = "variance" if eff.get("input") else "fidelity"
    seed, k = int(eff["seed"]), float(eff["k"])
    n_boot = int(eff["n_boot"])

    digest = None
    if eff.get("input"):
        sha = hashlib.sha256()
        with open(eff["input"], "rb") as fh:
            while block := fh.read(_HASH_BLOCK):
                sha.update(block)
        digest = sha.hexdigest()

    if method == "variance":
        ds = _certify_dataset(eff, warnings)
        report = certify.certify_by_variance(ds, k=k, n_boot=n_boot, seed=seed)
    elif eff.get("input"):
        ds = _certify_dataset(eff, warnings)
        report = certify.certify_by_fidelity_from_variance(ds, k=k, n_boot=n_boot,
                                                           seed=seed)
    elif eff.get("fbar") is not None:
        _require(eff, "eta", "lam")
        report = certify.certify_by_fidelity(float(eff["fbar"]), float(eff["eta"]),
                                             float(eff["lam"]),
                                             se=float(eff["se"]), k=k)
    elif eff.get("channel") is not None:
        _require(eff, "eta", "lam")
        channel = _load_channel_spec(str(eff["channel"]))
        gauss = channel if isinstance(channel, GaussianChannel) else \
            schemes.to_gaussian(channel)
        if not is_cp_channel(gauss):
            raise NotCompletelyPositive(
                "channel (K, M) fails the complete-positivity criterion")
        lam = _flat_prior_proxy(float(eff["lam"]), warnings)
        report = certify.certify_by_fidelity(gauss, float(eff["eta"]), lam, k=k)
    else:
        raise _Usage("certify needs --input, --fbar, or --channel")

    payload = {"result": report.to_json(), "warnings": warnings + list(report.notes)}
    if digest is not None:
        payload["input_sha256"] = digest
    return payload, EXIT_OK if report.certified else EXIT_FAIL, None


def _parse_sweep_values(raw, key: str) -> np.ndarray:
    """One sweep axis as an array: floats, or int64 copy counts."""
    if isinstance(raw, str):
        parts = [p for p in raw.split(",") if p.strip()]
    elif isinstance(raw, (list, tuple)):
        parts = raw
    else:
        parts = [raw]
    if not parts:
        raise _Usage(f"sweep key '{key}' has no values")
    values = []
    for p in parts:
        try:
            if isinstance(p, bool):
                raise TypeError
            if key == "n_copies":
                count = int(p)
                if (isinstance(p, float) and count != p) or not -2 ** 63 <= count < 2 ** 63:
                    raise ValueError
                values.append(count)
            else:
                values.append(float(p))
        except (TypeError, ValueError, OverflowError):
            want = "whole numbers below 2**63" if key == "n_copies" else "numeric values"
            raise _Usage(f"sweep key '{key}' wants {want}, got {p!r}")
    return np.array(values, dtype=np.int64 if key == "n_copies" else float)


def _sweep_columns(values: dict):
    """Column names and values of a sweep, each on only the axes it depends on.

    `values` maps the grid's keys, in grid order, to their axes.  Dimension d
    of every column array is grid axis d, of length 1 where the column does
    not depend on that axis.  The closed forms validate every axis here,
    before any row is written.
    """
    ndim = len(values)
    axes = {k: v.reshape([-1 if j == d else 1 for j in range(ndim)])
            for d, (k, v) in enumerate(values.items())}
    eta, lam, n = axes["eta"], axes.get("lambda", 0.0), axes.get("n_copies", 1)
    names = list(values) + ["classical_bound", "quadrature_threshold",
                            "optimal_mp_gain", "optimal_mp_fidelity"]
    columns = list(axes.values()) + [classical_bound(eta, lam, n)]
    g_opt = schemes.optimal_mp_gain(eta, lam)
    # at lambda = 0 this takes mp_average_fidelity's matched-gain branch,
    # 1/(1 + eta), which is the flat-prior bound to the last bit
    columns += [np.where(n == 1, quadrature_threshold(eta, lam), None), g_opt,
                schemes.mp_average_fidelity(g_opt, eta, lam)]
    if "g" in axes:
        names.append("mp_fidelity")
        columns.append(schemes.mp_average_fidelity(axes["g"], eta, lam))
    if "ntilde" in axes:
        ntilde = axes["ntilde"]
        fbar = schemes.canonical_c_fidelity(eta, ntilde)
        names += ["canonical_fbar", "detection_margin", "quantum_domain"]
        columns += [fbar, fbar - classical_bound(eta, 0.0),
                    schemes.canonical_c_quantum_domain(eta, ntilde)]
    return names, columns


def _sweep_csv(names: list, columns: list, shape: tuple):
    """The CSV header and rows of a sweep, as text chunks of _SWEEP_BLOCK_ROWS rows.

    Each column is formatted once on the axes it depends on, then its cells
    are gathered into rows block by block in grid order (the last axis
    varies fastest).
    """
    cells = [np.array(["" if v is None else repr(v) for v in c.ravel().tolist()],
                      dtype=object).reshape(c.shape) for c in columns]
    yield ",".join(names) + "\n"
    total = math.prod(shape)
    for start in range(0, total, _SWEEP_BLOCK_ROWS):
        index = np.unravel_index(np.arange(start, min(start + _SWEEP_BLOCK_ROWS, total)),
                                 shape)
        # clipping sends every index along a length-1 dimension to 0: a broadcast
        parts = [c.ravel()[np.ravel_multi_index(index, c.shape, mode="clip")].tolist()
                 for c in cells]
        yield "\n".join(map(",".join, zip(*parts))) + "\n"


def _cmd_sweep(eff: dict):
    grid = {}
    if eff.get("grid") is not None:
        raw = eff["grid"]
        if isinstance(raw, str):
            try:
                raw = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _Usage(f"--grid is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise _Usage("--grid must be a JSON object of lists")
        grid.update(raw)
    for key, dest in (("eta", "eta"), ("lambda", "lam"), ("g", "g"),
                      ("ntilde", "ntilde"), ("n_copies", "n_copies")):
        if eff.get(dest) is not None:
            grid[key] = eff[dest]
    unknown = sorted(set(grid) - set(_SWEEP_KEY_ORDER))
    if unknown:
        raise _Usage(f"unknown sweep keys: {', '.join(unknown)} "
                     f"(allowed: {', '.join(_SWEEP_KEY_ORDER)})")
    if "eta" not in grid:
        raise _Usage("sweep needs at least an eta axis")
    values = {k: _parse_sweep_values(grid[k], k) for k in _SWEEP_KEY_ORDER if k in grid}
    shape = tuple(v.size for v in values.values())
    total = math.prod(shape)
    if total > _SWEEP_MAX_POINTS:
        raise _Usage(f"sweep grid has {total} points, more than the "
                     f"{_SWEEP_MAX_POINTS} allowed; split the sweep")
    names, columns = _sweep_columns(values)

    if eff.get("fmt") is None:
        eff["fmt"] = "csv"
    if eff["fmt"] == "csv":
        return None, EXIT_OK, _sweep_csv(names, columns, shape)
    rows = [list(r) for r in zip(*(np.broadcast_to(c, shape).ravel().tolist()
                                   for c in columns))]
    return {"result": {"columns": names, "rows": rows}, "warnings": []}, EXIT_OK, None


def _cmd_proofcheck(eff: dict):
    copies, trials = int(eff["copies"]), int(eff["trials"])
    cutoff, two_cutoff = int(eff["cutoff"]), int(eff["two_copy_cutoff"])
    for flag, value, low, high in (
            ("--copies", copies, 1, proofcheck._MAX_COPIES),
            ("--trials", trials, 0, proofcheck._MAX_TRIALS),
            ("--cutoff", cutoff, 1, proofcheck._MAX_SCORE_CUTOFF),
            ("--two-copy-cutoff", two_cutoff, 1, proofcheck._MAX_SCORE_CUTOFF)):
        if not low <= value <= high:
            raise _Usage(f"{flag} must be between {low} and {high}, got {value}")
    warnings = []
    lam = _flat_prior_proxy(float(eff["lam"]), warnings, " for the operator checks")
    eta = float(eff["eta"])
    seed = int(eff["seed"])
    scale = float(eff["corrupt_bound"])
    if scale != 1.0:
        warnings.append(f"self-test mode: bound scaled by {scale}; failures "
                        "are expected when the scale is below 1")

    circ = proofcheck.circulant_identity_check(copies, lam, eta)
    score = proofcheck.score_bound_check(eta, lam, trials=trials,
                                         cutoff=cutoff, seed=seed,
                                         bound_scale=scale)
    rng = np.random.default_rng(seed)
    support = min(6, two_cutoff)
    probe = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    probe /= np.linalg.norm(probe)
    two = proofcheck.two_copy_check(probe, eta, lam, cutoff=two_cutoff)

    passed = circ.passed and score.passed and two.passed
    payload = {"result": {"circulant": circ.to_json(),
                          "score_bound": score.to_json(),
                          "two_copy": two.to_json(),
                          "passed": passed},
               "warnings": warnings}
    return payload, EXIT_OK if passed else EXIT_FAIL, None


# Each handler returns (JSON payload, exit code, CSV table chunks or None).
_HANDLERS = {"bound": _cmd_bound, "simulate": _cmd_simulate,
             "certify": _cmd_certify, "sweep": _cmd_sweep,
             "proofcheck": _cmd_proofcheck}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        eff = _resolve(args)
        payload, code, table = _HANDLERS[args.command](eff)
        _emit(payload, eff, table)
        return code
    except _Usage as exc:
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotCompletelyPositive as exc:
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_CP
    except DatasetError as exc:
        where = f" (line {exc.line})" if exc.line is not None else ""
        print(f"cvbench {args.command}: dataset error{where}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InvalidInput, UnsupportedTask) as exc:
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_CP
    except (ConvergenceError, CutoffTooSmall) as exc:
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ToolkitError as exc:
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
