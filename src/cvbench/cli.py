"""Command-line front end: bounds, simulation, certification, sweeps, checks.

Every run emits one machine-readable document (JSON by default, CSV for
tables) that embeds the toolkit version, the seed and the resolved
configuration, so identical invocations produce byte-identical output.
Files are written atomically: a temporary file in the target directory is
renamed over the destination only once the document is complete, with the
mode a plain open() would have given it.  Sweep tables, CSV or JSON, go
through one row writer: runs of columns are joined once into text segments
on their own axes, then written one box of the grid at a time, each block of
rows one basic slice per segment and one str.join, so their memory does not
grow with the grid.

Each subcommand declares its flags once, in one table of (flag, type,
default, help) rows; the parser, the help's defaults, the config-file keys
and their type checks, and the echoed configuration all come from it.  A
subcommand takes only the flags it reads, plus the common --seed, --out and
--config.  A --config file is a JSON object keyed by flag names without
their dashes, "-" written as "_"; explicit flags win over it, and it over
the table's defaults.  A clean command line, each token after the
subcommand a --flag value pair spelled and typed as the table has it, is read
straight from the table and builds no parser.  Any other goes to the one
full argparse parser, so argparse writes every help, usage and error
message.  A process builds that parser once, on first use, and repeated
in-process `main` calls reuse it; nothing is built at import.

Exit codes:

* 0 -- success (for certify: QUANTUM_DOMAIN; for proofcheck: all checks pass)
* 1 -- NOT_CERTIFIED verdict, failed check, or non-converged computation
* 2 -- usage errors: bad flags or config values, unknown config keys, oversized
  sweep grids
* 3 -- channel outside the completely-positive domain
* 4 -- malformed or inadequate dataset (CSV errors carry a line number)
* 5 -- simulation engines disagree beyond tolerance
"""

from __future__ import annotations

import argparse
import functools
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
from .bounds import _SMALL_LAM, classical_bound, quadrature_threshold, quantum_amp_bound
from .errors import (CutoffTooSmall, DatasetError, DomainError, InvalidInput,
                     ToolkitError, UnsupportedTask)
from .gaussian import average_fidelity_gaussian, is_gain_matched

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CP = 3
EXIT_DATA = 4
EXIT_DISAGREE = 5

_HASH_BLOCK = 1 << 20             # --input is hashed in blocks, so memory stays bounded
_MAX_BOOT = 100_000               # --n-boot's largest count; every count gives one exact SE

# Each subcommand's flags, one row each: (flag, type, default, help).  A type
# is int, float, str, a tuple of choices, or -- for sweep axes and the grid,
# which a config file may give as JSON -- list or dict.  A row's config key
# and resolved name is the flag without its dashes, "-" written as "_".
_COMMON_FLAGS = (
    ("--seed", int, 0, "random seed recorded in the output"),
    ("--out", str, None, "write output to this path (atomic; default stdout)"),
)
_FLAGS = {
    "bound": (
        ("--eta", float, None, "task gain"),
        ("--lambda", float, 0.0, "prior width (0 = flat-prior limit)"),
        ("--n-copies", int, 1, "input copies available to the sender"),
    ),
    "simulate": (
        ("--channel", str, None, "channel JSON (inline, or a path/@path to a file)"),
        ("--eta", float, None, "task gain (default: the channel's own gain when isotropic)"),
        ("--lambda", float, 0.0,
         "prior width (0 maps to closed forms or to 1e-3 with a warning)"),
        ("--engine", ("gaussian", "fock", "both"), "gaussian", "which engine averages"),
        ("--cutoff", int, None,
         f"truncation for the fock engine, 1..{fock._MAX_AUTO_CUTOFF}; the prior "
         "average is exact on the truncated space (default: the smallest cutoff "
         "whose truncated prior weights are at most 1e-10)"),
        ("--quad", str, None,
         "ignored, with a warning: the fock engine averages over the prior in closed form"),
        ("--tolerance", float, 1e-3,
         "allowed |gaussian - fock| gap of --engine both, beyond the fock error estimate"),
    ),
    "certify": (
        ("--input", str, None, "CSV of quadrature samples"),
        ("--fbar", float, None, "average-fidelity estimate (fidelity method)"),
        ("--se", float, 0.0, "standard error of --fbar"),
        ("--channel", str, None, "channel JSON to certify exactly (fidelity method)"),
        ("--method", ("variance", "fidelity"), None,
         "verdict from the variance test or the fidelity bound (default: variance "
         "with --input, else fidelity)"),
        ("--eta", float, None, "declared task gain"),
        ("--lambda", float, None, "prior width of the probe ensemble"),
        ("--k", float, 3.0, "required margin in standard errors"),
        ("--n-boot", int, 1000,
         f"bootstrap SE, exact for every count 2..{_MAX_BOOT} (0 = analytic SE)"),
        ("--weights", str, None,
         "comma-separated probe weights overriding the prior weighting"),
    ),
    "sweep": (
        ("--grid", dict, None, 'grid JSON, e.g. {"eta": [0.5, 1], "lambda": [0, 0.2]}'),
        ("--eta", list, None, "comma-separated eta values"),
        ("--lambda", list, None, "comma-separated lambda values"),
        ("--g", list, None, "comma-separated re-preparation gains"),
        ("--ntilde", list, None, "comma-separated added-noise values (isotropic family)"),
        ("--n-copies", list, None, "comma-separated copy counts"),
        ("--format", ("csv", "json"), None, "output: a CSV table, or one JSON document"),
    ),
    "proofcheck": (
        ("--copies", int, 3,
         f"circulant size for the identity checks, 1..{proofcheck._MAX_COPIES}"),
        ("--eta", float, 1.0, "task gain"),
        ("--lambda", float, 0.2, "prior width"),
        ("--trials", int, 25,
         f"random probes for the operator bound, 0..{proofcheck._MAX_TRIALS}"),
        ("--cutoff", int, 14,
         f"truncation for the operator bound, 1..{proofcheck._MAX_SCORE_CUTOFF}"),
        ("--two-copy-cutoff", int, 16,
         f"levels of the two-copy check's probe, 1..{proofcheck._MAX_SCORE_CUTOFF}"),
        ("--corrupt-bound", float, 1.0,
         "self-test: scale the bound by this factor (0.9 must fail)"),
    ),
}

# Each subcommand's flag table, common flags included, as {key: (flag, type,
# default)}: built once, read by every command line, and never changed.
_ROWS = {command: {flag[2:].replace("-", "_"): (flag, kind, default)
                   for flag, kind, default, _ in _COMMON_FLAGS + rows}
         for command, rows in _FLAGS.items()}

# The JSON values a config file may give for each type, and their description;
# a tuple type takes its choices
_CONFIG_TYPES = {int: ((int,), "a whole number"), float: ((int, float), "a number"),
                 str: ((str,), "a string"),
                 list: ((str, list, int, float), "a list or comma-separated numbers"),
                 dict: ((str, dict), "a JSON object")}

_SWEEP_KEY_ORDER = ("eta", "lambda", "g", "ntilde", "n_copies")
_SWEEP_MAX_POINTS = 10 ** 6
_SWEEP_BLOCK_ROWS = 1 << 12       # rows per text chunk, so memory stays bounded
_JSON_ROWS = "\0rows"              # placeholder for a JSON sweep's streamed rows
_JSON_ROW_INDENT = " " * 6        # json.dumps' indent=2 at result.rows' elements


# Exit code of each exception a run may end in; the first row that matches wins.
_EXIT_CODES = (((InvalidInput, UnsupportedTask, OSError), EXIT_USAGE),
               (DatasetError, EXIT_DATA),
               (DomainError, EXIT_CP),        # NotCompletelyPositive among them
               (ToolkitError, EXIT_FAIL))     # CutoffTooSmall


def _add_flags(parser: argparse.ArgumentParser, rows) -> None:
    # Every flag parses to None when absent, so _resolve can tell it from a
    # config-file value or the table's default.
    for flag, kind, default, text in rows:
        parser.add_argument(flag, type=kind if kind in (int, float) else None,
                            choices=kind if isinstance(kind, tuple) else None,
                            help=text if default is None else f"{text} (default {default})")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: every subcommand, each with its table's flags."""
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common, _COMMON_FLAGS)
    common.add_argument("--config", help="JSON config file merged under explicit flags")

    parser = argparse.ArgumentParser(
        prog="cvbench",
        description="benchmarks and certification for coherent-state "
                    "transformation tasks on one bosonic mode")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        _add_flags(sub.add_parser(name, parents=[common], help=handler.__doc__),
                   _FLAGS[name])
    return parser


# Parsing leaves a parser as it was, and its help and errors read the streams
# and the terminal width when they print, so one parser serves every call.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def _table_pass(command: str, tokens: list):
    """The namespace argparse gives a clean command line, read from the flag table alone.

    Clean means every token is a flag then its value: the flag spelled
    exactly as a row or --config, the value not starting with "-" and taken
    by the row's int or float, or among its choices.  Any other line gives
    None, and argparse reads it.
    """
    if len(tokens) % 2:
        return None
    rows = _ROWS[command]
    values = dict.fromkeys(rows)
    values["config"] = None
    for flag, value in zip(tokens[::2], tokens[1::2]):
        if value.startswith("-"):
            return None
        if flag == "--config":
            values["config"] = value
            continue
        key = flag[2:].replace("-", "_")
        row = rows.get(key)
        if row is None or row[0] != flag:
            return None
        kind = row[1]
        if kind is int or kind is float:
            try:
                value = kind(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        values[key] = value
    return argparse.Namespace(command=command, **values)


def _parse(argv: list):
    """The parsed arguments of one command line.

    A clean command line (see _table_pass) is read straight from the
    subcommand's flag table, and builds no parser.  Any other goes to the
    one full parser, built on first use, which writes every help, usage and
    error message.
    """
    if argv and argv[0] in _HANDLERS:
        args = _table_pass(argv[0], argv[1:])
        if args is not None:
            return args
    return _parser().parse_args(argv)


def _config_value(key: str, kind, value):
    """A config-file value as its flag's type takes it, or a usage error naming the key."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        want = "one of " + ", ".join(kind)
    else:
        accepted, want = _CONFIG_TYPES[kind]
        if type(value) in accepted:       # so a JSON true is no number
            try:
                return float(value) if kind is float else value
            except OverflowError:
                pass
    raise InvalidInput(f"config key '{key}' wants {want}, got {json.dumps(value)}")


def _json(text: str | bytes, flag: str):
    """The JSON value of a flag's text or of its file's bytes; malformed,
    undecodable or over-nested input is a usage error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{flag} is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{flag} is not UTF-8 text: {exc}")
    except RecursionError:
        raise InvalidInput(f"{flag} nests JSON deeper than the decoder's recursion limit")


def _resolve(args) -> dict:
    """Merge explicit flags over config-file values over the table's defaults."""
    rows = _ROWS[args.command]
    eff = {key: default for key, (_, _, default) in rows.items()}
    if args.config is not None:
        try:
            with open(args.config, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInput(f"cannot read --config file: {exc}")
        raw = _json(text, "--config")
        if not isinstance(raw, dict):
            raise InvalidInput("--config file must hold a JSON object")
        unknown = sorted(set(raw) - set(rows))
        if unknown:
            raise InvalidInput(f"unknown config keys for '{args.command}': {', '.join(unknown)}")
        for key, value in raw.items():
            if value is not None:
                eff[key] = _config_value(key, rows[key][1], value)
    for key in rows:
        value = getattr(args, key)
        if value is not None:
            eff[key] = value
    if eff["seed"] < 0:
        raise InvalidInput(f"--seed must be >= 0, got {eff['seed']}")
    eff["command"] = args.command
    eff["config_echo"] = {key: eff[key] for key in sorted(rows)
                          if key != "out" and eff[key] is not None}
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
    """Write the run's document: JSON, or a CSV table's text chunks when there is no payload.

    A JSON payload whose result.rows is [_JSON_ROWS] comes with its rows as
    `table`'s text blocks, spliced in where json.dumps renders that placeholder.
    """
    if payload is None:
        preamble = (f"# version={__version__}\n"
                    f"# command={eff['command']}\n"
                    f"# seed={eff['seed']}\n"
                    "# config=" + json.dumps(eff["config_echo"], sort_keys=True) + "\n")
        chunks = itertools.chain((preamble,), table)
    else:
        document = {"version": __version__, "command": eff["command"],
                    "seed": eff["seed"], "config": eff["config_echo"]}
        document.update(payload)
        text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
        if table is None:
            chunks = [text]
        else:
            # result sorts after config, the only text a caller sets: the last match is ours
            head, _, tail = text.rpartition(json.dumps(_JSON_ROWS))
            chunks = itertools.chain((head,), table, (tail,))
    if eff["out"]:
        _atomic_write(chunks, eff["out"])
    else:
        sys.stdout.writelines(chunks)


def _require(eff: dict, *names):
    missing = [n for n in names if eff.get(n) is None]
    if missing:
        raise InvalidInput(f"missing required parameter(s): {', '.join(missing)} "
                          f"(flag or config)")


def _load_channel_spec(text: str):
    """Inline JSON, @path, or bare path -> ChannelModel or GaussianChannel."""
    raw = text
    if text.startswith("@"):
        path = text[1:]
        with open(path, "rb") as fh:
            raw = fh.read()
    elif not text.lstrip().startswith("{") and os.path.exists(text):
        with open(text, "rb") as fh:
            raw = fh.read()
    return schemes.model_from_json(_json(raw, "--channel"))


def _flat_prior_proxy(lam: float, warnings: list, purpose: str) -> float:
    """lam, or the narrow proxy _SMALL_LAM (with a warning) for the flat prior."""
    if lam != 0.0:
        return lam
    warnings.append(f"flat prior replaced by lambda = {_SMALL_LAM}{purpose}")
    return _SMALL_LAM


def _closed_form_lambda(gauss, eta: float, lam: float, warnings: list) -> float:
    """lam, or at lam = 0 the proxy for a channel that is not gain-matched: only a
    matched channel's average is prior-independent, and finite in the flat limit."""
    if lam == 0.0 and not is_gain_matched(gauss, eta):
        lam = _flat_prior_proxy(
            lam, warnings, " for an unmatched channel, whose flat-prior average diverges")
    return lam


def _warn_ignored(eff: dict, warnings: list, *rows) -> None:
    """Warn about the flag of each (key, ignored, what it is) row that the route ignores,
    when it is set away from its table default."""
    for key, ignored, what in rows:
        flag, _, default = _ROWS[eff["command"]][key]
        if ignored and eff[key] != default:
            warnings.append(f"{flag} is ignored: it is {what}, which this route does not read")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bound(eff: dict):
    """classical fidelity bound and related thresholds"""
    _require(eff, "eta")
    eta, lam, n = eff["eta"], eff["lambda"], eff["n_copies"]
    result = {"eta": eta, "lambda": lam, "n_copies": n,
              "classical_bound": classical_bound(eta, lam, n)}
    if n == 1:
        result["quadrature_threshold"] = quadrature_threshold(eta, lam)
        # at lambda = 0 this takes mp_average_fidelity's matched-gain branch,
        # 1/(1 + eta), which is the flat-prior bound to the last bit
        g_opt = result["optimal_mp_gain"] = schemes.optimal_mp_gain(eta, lam)
        result["optimal_mp_fidelity"] = schemes.mp_average_fidelity(g_opt, eta, lam)
    if eta > 1:
        result["quantum_amp_bound"] = quantum_amp_bound(eta)
    return {"result": result, "warnings": []}, EXIT_OK, None


def _cmd_simulate(eff: dict):
    """average task fidelity of a channel, by engine"""
    _require(eff, "channel")
    cutoff = eff["cutoff"]
    if cutoff is not None and not 1 <= cutoff <= fock._MAX_AUTO_CUTOFF:
        raise InvalidInput(f"--cutoff must be between 1 and {fock._MAX_AUTO_CUTOFF}, "
                          f"got {cutoff}")
    channel = _load_channel_spec(eff["channel"])
    gauss = schemes.to_gaussian(channel)
    warnings = []
    if eff["quad"] is not None:
        warnings.append("--quad is ignored: the fock engine averages over the "
                        "prior in closed form, with no rule")

    eta = eff["eta"]
    if eta is None:
        try:
            eta = schemes.channel_form(channel, gauss).k2
        except UnsupportedTask as exc:
            raise InvalidInput(f"cannot infer a task gain ({exc}); pass --eta")
        warnings.append(f"task gain defaulted to the channel's own gain {eta:.6g}")
    eta, lam = float(eta), eff["lambda"]
    engine, tolerance = eff["engine"], eff["tolerance"]
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise InvalidInput(f"--tolerance must be >= 0 and finite, got {tolerance}")
    _warn_ignored(eff, warnings,
                  ("cutoff", engine == "gaussian", "the truncation of the fock engine"),
                  ("tolerance", engine != "both", "the allowed gap of --engine both"))

    result = {"channel": schemes.model_to_json(channel),
              "eta": eta, "lambda": lam, "engine": engine}
    lam_gauss = lam_fock = _closed_form_lambda(gauss, eta, lam, warnings)
    matched = is_gain_matched(gauss, eta)
    if matched and lam < 0.2:
        # The matched-gain average is prior-independent, so the truncated
        # engine may run at a width whose prior actually fits the cutoff:
        # 0.2, or wider once the output prior of a large gain needs more
        # than the automatic cutoff limit.
        lam_fock = 0.2 if cutoff is not None else \
            max(0.2, fock.narrowest_auto_lambda(eta))

    fbar_gauss = None
    if engine in ("gaussian", "both"):
        fbar_gauss = average_fidelity_gaussian(gauss, eta, lam_gauss)
        result["fbar_gaussian"] = fbar_gauss
        result["lambda_used_gaussian"] = lam_gauss
    if engine in ("fock", "both"):
        if matched and lam_fock != lam:
            warnings.append("matched channel: the average is prior-independent, "
                            f"so the truncated engine ran at lambda = {lam_fock}")
        try:
            avg = fock.average_fidelity_fock(schemes.fock_applier(channel, gauss),
                                             eta, lam_fock, cutoff=cutoff, max_error=0.5)
        except CutoffTooSmall as exc:
            if matched or lam != 0.0:
                raise
            raise CutoffTooSmall(f"{exc} (lambda = {lam_fock:g} is the flat-prior proxy "
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
    _require(eff, "input", "lambda")
    lam = _flat_prior_proxy(eff["lambda"], warnings, " for grid weighting")
    weights = None
    if eff["weights"] is not None:
        try:
            weights = [float(x) for x in eff["weights"].split(",")]
        except ValueError:
            raise InvalidInput(f"--weights wants comma-separated numbers, got {eff['weights']!r}")
    return certify.read_dataset_csv(eff["input"], lam=lam,
                                    eta_declared=eff["eta"],
                                    weights=weights)


def _cmd_certify(eff: dict):
    """quantum-domain verdict from data or a model"""
    warnings = []
    method = eff["method"]
    if method is None:
        method = "variance" if eff["input"] else "fidelity"
    k, n_boot = eff["k"], eff["n_boot"]

    digest = None
    if eff["input"]:
        if n_boot < 2 and n_boot != 0:
            raise InvalidInput(f"bootstrap count n_boot (--n-boot) needs at least 2 resamples, "
                               f"got {n_boot}")
        if n_boot > _MAX_BOOT:
            raise InvalidInput(f"bootstrap count n_boot (--n-boot) takes at most {_MAX_BOOT} "
                               f"resamples, got {n_boot}")
        sha = hashlib.sha256()
        with open(eff["input"], "rb") as fh:
            while block := fh.read(_HASH_BLOCK):
                sha.update(block)
        digest = sha.hexdigest()

    data, fbar = bool(eff["input"]), eff["fbar"] is not None
    _warn_ignored(eff, warnings, ("fbar", data, "an average-fidelity estimate"),
                  ("se", data or not fbar, "the standard error of --fbar"),
                  ("channel", data or fbar, "a channel model to certify"),
                  ("n_boot", not data, "the bootstrap count of the SE of --input"),
                  ("weights", not data, "the probe weighting of --input"))
    if method == "variance" or eff["input"]:
        route = (certify.certify_by_variance if method == "variance"
                 else certify.certify_by_fidelity_from_variance)
        report = route(_certify_dataset(eff, warnings), k=k, analytic=n_boot == 0)
    elif eff["fbar"] is not None:
        _require(eff, "eta", "lambda")
        report = certify.certify_by_fidelity(eff["fbar"], eff["eta"], eff["lambda"],
                                             se=eff["se"], k=k)
    elif eff["channel"] is not None:
        _require(eff, "eta", "lambda")
        gauss = schemes.to_gaussian(_load_channel_spec(eff["channel"]))
        lam = _closed_form_lambda(gauss, eff["eta"], eff["lambda"], warnings)
        report = certify.certify_by_fidelity(gauss, eff["eta"], lam, k=k)
    else:
        raise InvalidInput("certify needs --input, --fbar, or --channel")

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
        raise InvalidInput(f"sweep key '{key}' has no values")
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
            raise InvalidInput(f"sweep key '{key}' wants {want}, got {p!r}")
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


def _joined(left: np.ndarray, sep: str, right: np.ndarray) -> np.ndarray:
    """left + sep + right, text by text, on the union of their axes.

    The second add runs in place, so each left + sep text is freed as soon as
    the one that replaces it is made.
    """
    out = np.add(np.broadcast_to(left, np.broadcast_shapes(left.shape, right.shape)), sep)
    return np.add(out, right, out=out)


def _sweep_segments(cells, cell_sep: str, row_open: str) -> list:
    """Runs of consecutive sweep columns, each run's texts joined into one segment.

    `cells` yields each column's texts on the axes it depends on, in column
    order; each is joined onto the segment before it as it comes, so only
    one column's cells are held apart at a time.  A run grows only while the
    union of its axes stays within one block or within its larger operand's
    axes, so no segment holds more cells than its largest column or one
    block.  The first segment opens with row_open, every other one with
    cell_sep.
    """
    segments, head = [], row_open
    for c in cells:
        if segments and math.prod(np.broadcast_shapes(segments[-1].shape, c.shape)) <= max(
                _SWEEP_BLOCK_ROWS, segments[-1].size, c.size):
            segments[-1] = _joined(segments[-1], cell_sep, c)
        else:
            segments.append(np.add(head, c))
            head = cell_sep
        del c  # its texts are freed before the next column is formatted
    return segments


def _sweep_boxes(shape: tuple):
    """Basic-slice boxes of at most _SWEEP_BLOCK_ROWS grid points, tiling the grid in C order.

    Each box fixes the leading axes, one index each, takes a run along the
    first axis whose trailing product fits, and the trailing axes whole.
    Yields each box's leading indices and its run's slice.
    """
    free = next(d for d in range(len(shape)) if math.prod(shape[d + 1:]) <= _SWEEP_BLOCK_ROWS)
    run = _SWEEP_BLOCK_ROWS // math.prod(shape[free + 1:])
    for lead in itertools.product(*map(range, shape[:free])):
        for start in range(0, shape[free], run):
            yield lead, slice(start, min(start + run, shape[free]))


def _sweep_rows(cells, shape: tuple, cell_sep: str, row_open: str, row_close: str,
                row_sep: str):
    """A sweep's rows as text chunks of at most _SWEEP_BLOCK_ROWS rows, in grid order.

    Each row is row_open, its cells joined by cell_sep, then row_close; rows
    are joined by row_sep.  `cells` yields each column's texts on the axes
    it depends on, in column order, and is read into segments once (see
    _sweep_segments).  A chunk is one box of the grid (see _sweep_boxes):
    each segment's basic slice, broadcast to the box, stacked into one
    array, and one str.join.
    """
    # Each row opens with the closing and separator of the row before; the
    # first row trims them, and a last chunk closes the last row.
    between = row_close + row_sep
    segments = _sweep_segments(cells, cell_sep, between + row_open)
    trim = len(between)
    for lead, run in _sweep_boxes(shape):
        free = len(lead)
        box = (run.stop - run.start,) + shape[free + 1:]
        views = []
        for s in segments:
            # an axis a segment does not depend on has length 1: take its only index
            index = tuple(i if n > 1 else 0 for i, n in zip(lead, s.shape))
            index += (run if s.shape[free] > 1 else slice(None),)
            views.append(np.broadcast_to(s[index], box))
        texts = np.stack(views, axis=-1).ravel().tolist()
        texts[0] = texts[0][trim:]
        trim = 0
        yield "".join(texts)
    yield row_close


def _sweep_csv(names: list, columns: list, shape: tuple):
    """The CSV header and rows of a sweep, as text chunks of at most _SWEEP_BLOCK_ROWS rows.

    Each column is formatted once on the axes it depends on.
    """
    yield ",".join(names) + "\n"
    cells = (np.array(["" if v is None else repr(v) for v in c.ravel().tolist()],
                      dtype=object).reshape(c.shape) for c in columns)
    yield from _sweep_rows(cells, shape, ",", "", "\n", "")


def _sweep_json_rows(columns: list, shape: tuple):
    """The elements of a JSON sweep's rows array, as text chunks of at most _SWEEP_BLOCK_ROWS rows.

    Each column is spelled once on the axes it depends on, as json.dumps
    spells its values (numbers, true/false and null never hold ", ").  The
    rows are nested and indented as json.dumps(..., indent=2) renders them at
    result.rows.  The first block is made here, before any chunk is written,
    so a value JSON refuses raises before the document starts.
    """
    cells = (np.array(json.dumps(c.ravel().tolist(), allow_nan=False)[1:-1].split(", "),
                      dtype=object).reshape(c.shape) for c in columns)
    blocks = _sweep_rows(cells, shape, ",\n  " + _JSON_ROW_INDENT, "[\n  " + _JSON_ROW_INDENT,
                         "\n" + _JSON_ROW_INDENT + "]", ",\n" + _JSON_ROW_INDENT)
    return itertools.chain((next(blocks),), blocks)


def _cmd_sweep(eff: dict):
    """Cartesian parameter sweep of the closed forms"""
    grid = {}
    if eff["grid"] is not None:
        raw = eff["grid"]
        if isinstance(raw, str):
            raw = _json(raw, "--grid")
        if not isinstance(raw, dict):
            raise InvalidInput("--grid must be a JSON object of lists")
        grid.update(raw)
    grid.update((key, eff[key]) for key in _SWEEP_KEY_ORDER if eff[key] is not None)
    unknown = sorted(set(grid) - set(_SWEEP_KEY_ORDER))
    if unknown:
        raise InvalidInput(f"unknown sweep keys: {', '.join(unknown)} "
                          f"(allowed: {', '.join(_SWEEP_KEY_ORDER)})")
    if "eta" not in grid:
        raise InvalidInput("sweep needs at least an eta axis (--eta)")
    values = {k: _parse_sweep_values(grid[k], k) for k in _SWEEP_KEY_ORDER if k in grid}
    shape = tuple(v.size for v in values.values())
    total = math.prod(shape)
    if total > _SWEEP_MAX_POINTS:
        raise InvalidInput(f"sweep grid has {total} points, more than the "
                          f"{_SWEEP_MAX_POINTS} allowed; split the sweep")
    names, columns = _sweep_columns(values)

    if eff["format"] != "json":
        return None, EXIT_OK, _sweep_csv(names, columns, shape)
    return ({"result": {"columns": names, "rows": [_JSON_ROWS]}, "warnings": []}, EXIT_OK,
            _sweep_json_rows(columns, shape))


def _cmd_proofcheck(eff: dict):
    """run the bound's supporting identity and operator checks"""
    copies, trials = eff["copies"], eff["trials"]
    cutoff, two_cutoff = eff["cutoff"], eff["two_copy_cutoff"]
    for flag, value, low, high in (
            ("--copies", copies, 1, proofcheck._MAX_COPIES),
            ("--trials", trials, 0, proofcheck._MAX_TRIALS),
            ("--cutoff", cutoff, 1, proofcheck._MAX_SCORE_CUTOFF),
            ("--two-copy-cutoff", two_cutoff, 1, proofcheck._MAX_SCORE_CUTOFF)):
        if not low <= value <= high:
            raise InvalidInput(f"{flag} must be between {low} and {high}, got {value}")
    warnings = []
    lam = _flat_prior_proxy(eff["lambda"], warnings, " for the operator checks")
    eta, seed, scale = eff["eta"], eff["seed"], eff["corrupt_bound"]
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


# Each handler returns (JSON payload, exit code, table text chunks or None); a
# CSV table comes without a payload, a JSON one as the payload's result.rows.
_HANDLERS = {"bound": _cmd_bound, "simulate": _cmd_simulate,
             "certify": _cmd_certify, "sweep": _cmd_sweep,
             "proofcheck": _cmd_proofcheck}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        eff = _resolve(args)
        payload, code, table = _HANDLERS[args.command](eff)
        # Checked after the handler, whose own message for a value it reads
        # comes first; a non-finite value cannot go out in the JSON echo.
        for key, value in eff["config_echo"].items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidInput(f"--{key.replace('_', '-')} must be finite, got {value}")
        _emit(payload, eff, table)
        return code
    except Exception as exc:
        code = next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), None)
        if code is None:
            raise
        if isinstance(exc, DatasetError):
            where = f" (line {exc.line})" if exc.line is not None else ""
            exc = f"dataset error{where}: {exc}"
        print(f"cvbench {args.command}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
