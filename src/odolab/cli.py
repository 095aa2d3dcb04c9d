"""Command line front end.

Reports are deterministic: identical input file, options, and seed give
byte-identical stdout.  Timing goes to stderr.  Exit codes: 0 on success,
1 on input or usage errors (and on failed verification checks), 2 when a
computation refuses to certify a claim.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .analysis import (
    DEFAULT_COBURN_POINTS,
    classify,
    coburn_bound,
    defect_with_stability,
    douglas_factor,
    hyponormality_probe,
    norm_report,
)
from .errors import CertificateError, OdolabError, RangeNotContained
from .gallery import build_entry, gallery_names, GALLERY
from .numerics import DEFAULT_BOUNDARY_GRID, DEFAULT_EPS_EXACT, DEFAULT_EPS_RANK, Tolerance
from .operator import build_wl, dump_lines
from .symbol import (
    is_inner_exact,
    is_invertible_hinf,
    load_symbol,
    sup_norm,
    symbol_to_dict,
)
from .verify import SUITES, run_suite


def _parse_scalar(text: str):
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError("bad --param %r, need key=value" % pair)
        key, _, value = pair.partition("=")
        if "," in value:
            params[key] = tuple(_parse_scalar(v) for v in value.split(","))
        else:
            params[key] = _parse_scalar(value)
    return params


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        if z.imag == 0:
            return z.real
        return {"re": z.real, "im": z.imag}
    return obj


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        rows = []
        for key in sorted(obj):
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            rows.extend(_flatten(obj[key], path))
        return rows
    if isinstance(obj, list):
        rows = []
        for i, value in enumerate(obj):
            rows.extend(_flatten(value, "%s[%d]" % (prefix, i)))
        return rows
    return [(prefix, obj)]


def _write(text: str, args) -> None:
    # the one place CLI output goes: the --out file, or else stdout
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(payload, fmt: str) -> str:
    payload = _jsonable(payload)
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["key,value"] + ["%s,%s" % (key, value) for key, value in _flatten(payload)]
    else:
        lines = ["%s: %s" % (key, value) for key, value in _flatten(payload)]
    return "\n".join(lines) + "\n"


def _emit(payload, args) -> None:
    _write(_render(payload, args.format), args)


def _load_input(args):
    if args.gallery:
        entry = build_entry(args.gallery, **_parse_params(args.param))
        return entry.symbol, "gallery:%s" % args.gallery
    if not args.file:
        raise OdolabError("need a symbol FILE or --gallery NAME")
    return load_symbol(args.file), args.file


def _resolve_depth(args, *syms):
    if args.depth is not None:
        return args.depth
    return 64 if max(sym.n for sym in syms) == 1 else 6


# config options by destination: flag and argparse keywords.  Each
# subcommand declares the ones it reads, and its report prints exactly those;
# a symbol action prints only the ones it read.
CONFIG_OPTIONS = {
    "tol_exact": ("--tol-exact", {"type": float, "default": DEFAULT_EPS_EXACT}),
    "tol_rank": ("--tol-rank", {"type": float, "default": DEFAULT_EPS_RANK}),
    "grid": ("--grid", {"type": int, "default": DEFAULT_BOUNDARY_GRID, "help": "boundary sample count"}),
    "seed": ("--seed", {"type": int, "default": 0}),
}
# the two tolerances go together even where the computation reads only one:
# Tolerance rejects eps_exact > eps_rank, so without --tol-rank no
# --tol-exact above the default eps_rank could be set.  An option marked
# benchmark-pinned in build_parser is not read either; the benchmark's
# in-process CLI calls pass it.
TOLERANCES = ("tol_exact", "tol_rank")


def _config(args, source, depth=None):
    # the command, its input, the depth where --depth exists, and exactly
    # the config options the subcommand declares
    config = {"command": args.command, "source": source}
    if depth is not None:
        config["depth"] = depth
    config.update((key, getattr(args, key)) for key in CONFIG_OPTIONS if hasattr(args, key))
    return config


def _tol(args) -> Tolerance:
    return Tolerance(eps_exact=args.tol_exact, eps_rank=args.tol_rank)


def _report(compute):
    """Command for one symbol at one depth: load the input, resolve the
    depth, run compute(sym, depth, args) and emit its report under the
    config."""

    def command(args):
        sym, source = _load_input(args)
        depth = _resolve_depth(args, sym)
        _emit({"config": _config(args, source, depth), "report": compute(sym, depth, args)}, args)
        return 0

    return command


def _classify(sym, depth, args):
    return classify(sym, depth, _tol(args), grid=args.grid, invertibility=args.invertibility).to_dict()


def _defect(sym, depth, args):
    basis, stable, below = defect_with_stability(sym, depth, _tol(args))
    return {
        "defect_dim": basis.dim,
        "el_dim": basis.el_dim,
        "kernel_dim": basis.stacked_kernel_dim,
        "el_minus_range_dim": basis.el_minus_range_dim,
        "stable": stable,
        "dim_at_shallower_depth": below,
    }


def _norm(sym, depth, args):
    return norm_report(sym, depth, grid=args.grid, tol=_tol(args)).to_dict()


def _coburn(sym, depth, args):
    lambdas = tuple(complex(v) for v in args.at) if args.at else DEFAULT_COBURN_POINTS
    return [
        {"lam": pt.lam, "sigma_min": pt.sigma_min, "floor": pt.floor, "margin": pt.sigma_min - pt.floor}
        for pt in coburn_bound(sym, depth, lambdas, _tol(args))
    ]


def _hypo(sym, depth, args):
    return hyponormality_probe(sym, depth, _tol(args)).to_dict()


def cmd_symbol(args):
    sym, source = _load_input(args)
    theta = sym.theta()
    if args.theta:
        read = ()
        result = {
            "dim": theta.dim,
            "degree": theta.degree,
            "coeffs": theta.coeffs,
        }
    elif args.supnorm:
        lo, hi = sup_norm(theta, grid=args.grid)
        read, result = ("grid",), {"lower": lo, "upper": hi}
    elif args.inner:
        res = is_inner_exact(theta, _tol(args))
        read, result = TOLERANCES, {"is_inner": res.is_inner, "deviation": res.deviation}
    else:
        read, result = ("grid",), {"invertible": is_invertible_hinf(theta, grid=args.grid)}
    config = {key: value for key, value in _config(args, source).items()
              if key not in CONFIG_OPTIONS or key in read}
    _emit({"config": config, "report": result}, args)
    return 0


def cmd_douglas(args):
    l1 = load_symbol(args.file1)
    l2 = load_symbol(args.file2)
    depth = _resolve_depth(args, l1, l2)
    try:
        res = douglas_factor(l1, l2, depth, _tol(args), grid=args.grid)
        result = {"contained": True}
        result.update(res.to_dict())
    except RangeNotContained as exc:
        result = {"contained": False, "residual": exc.residual}
    source = "%s|%s" % (args.file1, args.file2)
    _emit({"config": _config(args, source, depth), "report": result}, args)
    return 0


def cmd_verify(args):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, args.seed) for name in names]
    payload = {
        "config": _config(args, "builtin"),
        "suites": [rep.to_dict() for rep in reports],
        "passed": all(rep.passed for rep in reports),
    }
    _emit(payload, args)
    return 0 if payload["passed"] else 1


def cmd_gallery_list(args):
    if args.format == "json":
        _emit({"entries": gallery_names()}, args)
    else:
        _write("\n".join(gallery_names()) + "\n", args)
    return 0


def cmd_gallery_build(args):
    entry = build_entry(args.name, **_parse_params(args.param))
    _write(_render(symbol_to_dict(entry.symbol), "json"), args)
    return 0


def cmd_dump(args):
    sym, _source = _load_input(args)
    w = build_wl(sym, _resolve_depth(args, sym))
    _write("\n".join(dump_lines(w, sym)) + "\n", args)
    return 0


def _add_common(sub, inputs=True, depth=True, config=(), fmt=True):
    """Add the options a subcommand reads: the symbol input, the depth,
    the config options it reports (names in CONFIG_OPTIONS), the format,
    and --out."""
    if inputs:
        sub.add_argument("file", nargs="?", help="symbol JSON file")
        sub.add_argument("--gallery", help="build the input from a gallery entry instead of a file")
        sub.add_argument("--param", action="append", help="gallery parameter key=value, repeatable")
    if depth:
        sub.add_argument("--depth", type=int, default=None, help="truncation depth (default 6, or 64 when n=1)")
    for key in config:
        flag, kwargs = CONFIG_OPTIONS[key]
        sub.add_argument(flag, dest=key, **kwargs)
    if fmt:
        sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--out", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odolab",
        description="odometer maps on truncated Fock spaces: build, classify, verify",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="full structural report for one symbol")
    sub.add_argument("--invertibility", action=argparse.BooleanOptionalAction, default=True,
                     help="run the boundary winding test (on by default)")
    _add_common(sub, config=TOLERANCES + ("grid", "seed"))  # --seed: benchmark-pinned
    sub.set_defaults(func=_report(_classify))

    sub = subs.add_parser("symbol", help="questions about the analytic symbol alone")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", action="store_true", help="print the coefficient matrices")
    group.add_argument("--supnorm", action="store_true", help="boundary sup bracket")
    group.add_argument("--inner", action="store_true", help="exact isometry test")
    group.add_argument("--invertible", action="store_true", help="winding-based invertibility verdict")
    _add_common(sub, depth=False, config=TOLERANCES + ("grid",))
    sub.set_defaults(func=cmd_symbol)

    sub = subs.add_parser("defect", help="defect space dimensions and stability")
    _add_common(sub, config=TOLERANCES + ("grid", "seed"))  # --grid, --seed: benchmark-pinned
    sub.set_defaults(func=_report(_defect))

    sub = subs.add_parser("norm", help="operator norm vs the closed-form value")
    _add_common(sub, config=TOLERANCES + ("grid", "seed"))  # --seed: benchmark-pinned
    sub.set_defaults(func=_report(_norm))

    sub = subs.add_parser("douglas", help="factor the first symbol through the second")
    sub.add_argument("file1")
    sub.add_argument("file2")
    _add_common(sub, inputs=False, config=TOLERANCES + ("grid",))
    sub.set_defaults(func=cmd_douglas)

    sub = subs.add_parser("coburn", help="sigma_min floor at points inside the disk")
    sub.add_argument("--at", action="append", help="evaluation point, repeatable (complex literal)")
    _add_common(sub, config=TOLERANCES)
    sub.set_defaults(func=_report(_coburn))

    sub = subs.add_parser("hypo", help="hyponormality necessary-condition probe")
    _add_common(sub, config=TOLERANCES)
    sub.set_defaults(func=_report(_hypo))

    sub = subs.add_parser("verify", help="run a cross-checking suite")
    sub.add_argument("suite", nargs="?", default="all", choices=("all",) + tuple(sorted(SUITES)))
    _add_common(sub, inputs=False, depth=False, config=("seed",))
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("gallery", help="list or build the bundled examples")
    gallery_subs = sub.add_subparsers(dest="action", required=True)
    sub_list = gallery_subs.add_parser("list")
    _add_common(sub_list, inputs=False, depth=False)
    sub_list.set_defaults(func=cmd_gallery_list)
    sub_build = gallery_subs.add_parser("build")
    sub_build.add_argument("name", choices=sorted(GALLERY))
    sub_build.add_argument("--param", action="append")
    _add_common(sub_build, inputs=False, depth=False, fmt=False)
    sub_build.set_defaults(func=cmd_gallery_build)

    sub = subs.add_parser("dump", help="print the matrix of the map in sparse text form")
    _add_common(sub, fmt=False)
    sub.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    start = time.monotonic()
    try:
        code = args.func(args)
    except CertificateError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except (OdolabError, OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("elapsed %.3fs" % (time.monotonic() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
