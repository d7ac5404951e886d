"""Command-line front end.

Exit codes: 0 success (or suite pass), 1 suite fail / construction condition
failed, 2 usage or I/O error (argparse also exits 2 on unknown flags),
3 numeric or solver error.

Every stochastic subcommand requires an explicit --seed (no wall-clock
seeding); the fully resolved configuration, seeds included, is logged to
stderr before work starts. A key=value config file can supply defaults via
--config; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import REPORT_SCHEMA, __version__
from .body import (
    body_norm,
    dual_norm,
    load_body,
    make_body,
    mean_width,
    operator_norm,
    radii,
    save_body,
    volume_ratio,
)
from .constructions import find_l1_subspace, find_l2_subspace, save_witness
from .errors import ConditionFailed, GenquotError, IoError, NumericError, UsageError
from .experiments import (
    SUITE_IDS,
    calibrate,
    default_config,
    read_thresholds,
    run_suite,
    write_report,
    write_thresholds,
)
from .linalg import read_matrix, read_text
from .sampler import SeedSpec
from .snumbers import euclidean_s_numbers, gelfand_bracket, min_over_shifts

DEFAULT_THRESHOLDS_PATH = "./genquot-thresholds.json"
_THREADS_HELP = ("worker processes to run trials in (default $GENQUOT_THREADS, else the "
                 "CPU count; 1 runs them inline); output bytes never depend on it")


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)  # accepts decimal and 0x-hex
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}: use decimal or 0x-hex") from exc


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: use comma-separated numbers") from exc
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: entries must be finite")
    return vec


def _default_threads() -> int:
    env = os.environ.get("GENQUOT_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"GENQUOT_THREADS must be an integer >= 1, got {env!r}")
    return threads


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="genquot",
        description="Random quotients of l1^N: norm oracles, s-number brackets, "
                    "subspace constructions, verification suites.",
    )
    parser.add_argument("--version", action="version",
                        version=f"genquot {__version__} (report schema {REPORT_SCHEMA})")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="key=value file with flag defaults")
        registry[name] = p
        return p

    p = add("sample", help="sample a random body and write it to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", dest="big_n", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--stream", type=_parse_seed, default=0)
    p.add_argument("--out", required=True)

    for name, help_text in (("norm", "gauge of the body at a point"),
                            ("dualnorm", "support function of the body at a point")):
        p = add(name, help=help_text)
        p.add_argument("--body", required=True)
        p.add_argument("--vec", type=_parse_vector, required=True)

    p = add("opnorm", help="operator norm of a matrix on the body norm")
    p.add_argument("--body", required=True)
    p.add_argument("--matrix", required=True)

    p = add("radii", help="circumradius, inradius estimate and certified floor")
    p.add_argument("--body", required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--stream", type=_parse_seed, default=0)

    p = add("meanwidth", help="Monte Carlo mean width of the body")
    p.add_argument("--body", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--stream", type=_parse_seed, default=0)

    p = add("volume", help="exact volume ratio per dimension from the convex hull (n <= 8)")
    p.add_argument("--body", required=True)

    p = add("snumbers", help="Euclidean s-numbers, or a Gelfand bracket with --k")
    p.add_argument("--body", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--dual", action="store_true", help="bracket the Kolmogorov number instead")

    p = add("shiftsearch", help="minimize the s-number proxy over shifts T - lambda*Id")
    p.add_argument("--body", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, help="s-number index; default n/2")
    p.add_argument("--grid-points", type=int, default=201)

    p = add("construct", help="find a well-complemented l1^k or l2^h subspace")
    p.add_argument("kind", choices=("l1", "l2"))
    p.add_argument("--body", required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--stream", type=_parse_seed, default=0)
    p.add_argument("--k", type=int, help="l1 block size (default: auto)")
    p.add_argument("--h", type=int, help="l2 section dimension (default: auto)")
    p.add_argument("--retries", type=int, default=16)
    p.add_argument("--relax-alpha", type=float,
                   help="accept N >= n^(1+alpha) instead of N >= n^2 (l2 only)")
    p.add_argument("--out", help="write the witness JSON here")

    p = add("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_IDS)
    p.add_argument("--trials", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here")
    p.add_argument("--thresholds", default=None,
                   help=f"thresholds file (default {DEFAULT_THRESHOLDS_PATH} when present)")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)

    p = add("calibrate", help="fit construction thresholds and freeze them to a file")
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--out", default=DEFAULT_THRESHOLDS_PATH)
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)

    return parser, registry


_TRUE_WORDS = ("1", "true", "yes")
_FALSE_WORDS = ("0", "false", "no")


def _config_defaults(args: argparse.Namespace, subparser: argparse.ArgumentParser) -> dict:
    """The --config file's entries as subcommand defaults: each value
    converted and checked as its flag would be."""
    entries: dict[str, str] = {}
    for ln in read_text(args.config, "config file").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"config file {args.config}: bad line {ln!r}: expected key=value")
        key, value = ln.split("=", 1)
        entries[key.strip()] = value.strip()
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, value in entries.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise UsageError(f"config file {args.config}: unknown key {key!r} "
                             f"for {args.command}")
        action = actions[dest]
        if not action.option_strings:
            raise UsageError(f"config file {args.config}: {key!r} is a positional argument; "
                             "give it on the command line")
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in _TRUE_WORDS + _FALSE_WORDS:
                raise UsageError(f"config file {args.config}: bad {key!r} value {value!r}: "
                                 f"use one of {', '.join(_TRUE_WORDS + _FALSE_WORDS)}")
            defaults[dest] = value.lower() in _TRUE_WORDS
        else:
            try:
                converted = (action.type or str)(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config file {args.config}: bad {key!r} value: {exc}") from exc
            if action.choices is not None and converted not in action.choices:
                raise UsageError(f"config file {args.config}: {key!r} must be one of "
                                 f"{', '.join(map(str, action.choices))}, got {value!r}")
            defaults[dest] = converted
    return defaults


def _log_config(args: argparse.Namespace) -> None:
    resolved = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in sorted(vars(args).items()) if k != "command"}
    print(f"genquot {args.command} config: {json.dumps(resolved, default=str, sort_keys=True)}",
          file=sys.stderr)


def _seed_of(args: argparse.Namespace) -> SeedSpec:
    return SeedSpec(args.seed, getattr(args, "stream", 0))


def _cmd_sample(args) -> int:
    body = make_body(args.n, args.big_n, _seed_of(args))
    save_body(body, args.out)
    print(f"wrote body n={body.n} N={body.N} to {args.out}")
    return 0


def _cmd_norm(args) -> int:
    """`norm` (gauge) and `dualnorm` (support function) of the body at --vec."""
    norm = dual_norm if args.command == "dualnorm" else body_norm
    print(format(norm(load_body(args.body), args.vec), ".17g"))
    return 0


def _cmd_opnorm(args) -> int:
    body = load_body(args.body)
    t = read_matrix(args.matrix)
    print(format(operator_norm(body, t), ".17g"))
    return 0


def _cmd_radii(args) -> int:
    body = load_body(args.body)
    est = radii(body, restarts=args.restarts, seed=_seed_of(args))
    print(f"circumradius {est.circumradius:.12g}")
    print(f"inradius_estimate {est.inradius_estimate:.12g}")
    print(f"inradius_floor {body.inradius_floor:.12g}")
    print("certificate_direction " + " ".join(format(v, ".12g") for v in est.certificate_direction))
    return 0


def _cmd_meanwidth(args) -> int:
    body = load_body(args.body)
    est, err = mean_width(body, args.samples, _seed_of(args))
    print(f"mean_width {est:.12g} stderr {err:.3g}")
    return 0


def _cmd_volume(args) -> int:
    body = load_body(args.body)
    print(f"volume_ratio_per_dim {volume_ratio(body):.12g}")
    return 0


def _cmd_snumbers(args) -> int:
    body = load_body(args.body)
    t = read_matrix(args.matrix)
    if t.shape != (body.n, body.n):
        raise UsageError(f"T must be {body.n}x{body.n}, got {t.shape}")
    if args.k is None:
        svs = euclidean_s_numbers(t)
        print(" ".join(format(v, ".12g") for v in svs))
        return 0
    br = gelfand_bracket(body, t, args.k, dual=args.dual)
    name = "d" if args.dual else "c"
    print(f"{name}_{br.k} in [{br.lower:.12g}, {br.upper:.12g}] "
          f"(kinds {br.lower_kind}/{br.upper_kind}, sampled restricted norm, a lower "
          f"estimate, {br.upper_certificate if br.upper_certificate is not None else 'n/a'})")
    return 0


def _cmd_shiftsearch(args) -> int:
    body = load_body(args.body)
    t = read_matrix(args.matrix)
    k = max(1, body.n // 2) if args.k is None else args.k
    res = min_over_shifts(body, t, k, grid_points=args.grid_points)
    br = res.bracket_at_best
    print(f"best_shift {res.best_shift:.12g}")
    print(f"proxy_value {res.best_value:.12g}")
    print(f"bracket [{br.lower:.12g}, {br.upper:.12g}]")
    return 0


def _cmd_construct(args) -> int:
    body = load_body(args.body)
    seed = _seed_of(args)
    if args.kind == "l1":
        wit = find_l1_subspace(body, k=args.k, retries=args.retries, seed=seed)
        print(f"l1 witness: k={wit.k} indices={list(wit.index_set)}")
        print(f"sigma_min {wit.sigma_min:.6g} max_leak {wit.max_leak:.6g}")
        print(f"iso_constant {wit.iso_constant:.6g} compl_constant {wit.compl_constant:.6g}")
    else:
        wit = find_l2_subspace(body, h=args.h, seed=seed, relax_alpha=args.relax_alpha)
        print(f"l2 witness: h={wit.h}")
        print(f"distortion {wit.distortion:.6g} compl_constant {wit.compl_constant:.6g}")
        print(f"proj_image_radius {wit.proj_image_radius:.6g}")
    if args.out:
        save_witness(wit, args.out)
        print(f"wrote witness to {args.out}")
    return 0


def _load_thresholds_arg(args) -> dict:
    if args.thresholds is not None:
        return read_thresholds(args.thresholds)
    if os.path.exists(DEFAULT_THRESHOLDS_PATH):
        return read_thresholds(DEFAULT_THRESHOLDS_PATH)
    return {}


def _threads_of(args) -> int:
    if args.threads is None:
        return _default_threads()
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def _samples_of(args) -> int | None:
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    return args.samples


def _cmd_verify(args) -> int:
    thresholds = _load_thresholds_arg(args)
    cfg = default_config(args.suite, master_seed=args.seed, trials=args.trials,
                         thresholds=thresholds, samples=_samples_of(args))
    report = run_suite(cfg, threads=_threads_of(args))
    if args.out:
        write_report(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")
    for key in sorted(report.fitted):
        print(f"fitted {key} = {report.fitted[key]:.6g}")
    print(f"suite {args.suite}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_calibrate(args) -> int:
    thresholds = calibrate(master_seed=args.seed, threads=_threads_of(args), trials=args.trials)
    write_thresholds(thresholds, args.out)
    for key in sorted(thresholds):
        print(f"{key} = {thresholds[key]:.6g}")
    print(f"wrote thresholds to {args.out}")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "norm": _cmd_norm,
    "dualnorm": _cmd_norm,
    "opnorm": _cmd_opnorm,
    "radii": _cmd_radii,
    "meanwidth": _cmd_meanwidth,
    "volume": _cmd_volume,
    "snumbers": _cmd_snumbers,
    "shiftsearch": _cmd_shiftsearch,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --version (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        if args.config:  # config entries become defaults, so explicit flags win
            registry[args.command].set_defaults(**_config_defaults(args, registry[args.command]))
            args = parser.parse_args(argv)
        _log_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"genquot: usage error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"genquot: i/o error: {exc}", file=sys.stderr)
        return 2
    except ConditionFailed as exc:
        print(f"genquot: construction failed: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"genquot: numeric error: {exc}", file=sys.stderr)
        return 3
    except GenquotError as exc:  # pragma: no cover - catch-all for new error kinds
        print(f"genquot: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
